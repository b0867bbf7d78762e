"""Sylvester resultants of exact multivariate polynomials.

``sylvester_resultant(p, q, var)`` eliminates ``var`` and returns the
resultant as a polynomial in the remaining variables, exactly equal to the
determinant of the Sylvester matrix of ``p`` and ``q`` (p's coefficients
occupying the top rows).

The determinant is never expanded naively.  The strategy is picked from
the shape of the inputs, and every path computes the same exact value:

- degree 1 in ``var`` (either argument): evaluation closed form
  ``Res(Av+C, G) = sum_j G_j (-C)^j A^(g-j)``, with the sign flip
  ``(-1)^(deg p * deg q)`` when the linear argument is the second;
- degree 2 in ``var`` (either argument): closed form through the
  pseudo-remainder of the other polynomial by the quadratic
  (:func:`quadratic_resultant`, which also runs on coefficients in the
  quotient ring ``Z[X]/(X^2 - m)`` of :class:`QuadPair`);
- otherwise, coefficients constant: integer Bareiss elimination;
- one remaining active variable: Bareiss over dense integer univariate
  entries;
- two or more remaining active variables: evaluate one variable at small
  integer nodes (skipping nodes that drop either leading coefficient),
  recurse per node, and reconstruct with :func:`interpolate_checked`
  (exact Newton interpolation, one spare node verifying the result).

Rational coefficients are cleared up front and the exact scale restored at
the end via ``Res(c*P, Q) = c**deg(Q) * Res(P, Q)``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Sequence

from .dense import bareiss_det, u_eval, u_trim
from .errors import DegenerateInput, NotAFactor
from .mpoly import MASK, SHIFT, MPoly, unpack

__all__ = [
    "QuadPair",
    "interpolate_checked",
    "newton_interpolate",
    "quadratic_resultant",
    "sylvester_degree_bound",
    "sylvester_resultant",
]


def sylvester_resultant(p: MPoly, q: MPoly, var: str) -> MPoly:
    """Exact resultant of ``p`` and ``q`` with respect to ``var``."""
    if p.is_zero() or q.is_zero():
        raise DegenerateInput("resultant of a zero polynomial")
    p, q = MPoly.align(p, q)
    if var not in p.vars:
        raise DegenerateInput(f"unknown variable {var!r}")
    dp, dq = p.degree(var), q.degree(var)
    if dp < 1 or dq < 1:
        raise DegenerateInput(
            f"both inputs must have positive degree in {var!r} "
            f"(got {dp} and {dq})"
        )

    p_int, mp = p.clear_denominators()
    q_int, mq = q.clear_denominators()
    res = _resultant_int(p_int, q_int, var, dp, dq)
    scale = Fraction(1, mp**dq * mq**dp)
    if scale != 1:
        res = res * scale
    return res


def _resultant_int(p: MPoly, q: MPoly, var: str, dp: int, dq: int) -> MPoly:
    """Dispatch on shape; integer-coefficient inputs."""
    if dp == 1:
        return _res_linear(p, q, var, flip=False)
    if dq == 1:
        return _res_linear(q, p, var, flip=(dp * dq) % 2 == 1)
    if dp == 2:
        return quadratic_resultant(p.coeffs_in(var), q.coeffs_in(var))
    if dq == 2:
        return quadratic_resultant(q.coeffs_in(var), p.coeffs_in(var))

    pc = [c for c in p.coeffs_in(var)]
    qc = [c for c in q.coeffs_in(var)]
    active: list[str] = []
    for c in pc + qc:
        for v in c.active_vars():
            if v not in active:
                active.append(v)
    active = [v for v in p.vars if v in active]  # deterministic order

    if len(active) <= 1:
        return _res_bareiss_univariate(pc, qc, p.vars, active[0] if active else None)
    return _res_interpolated(pc, qc, p.vars, active)


# ------------------------------------------------------------- linear ---


def _res_linear(lin: MPoly, g: MPoly, var: str, flip: bool) -> MPoly:
    """``Res(Av+C, G)`` by evaluation at the root ``-C/A``, denominator
    cleared: ``sum_j G_j (-C)^j A^(g-j)`` (Horner form)."""
    a, c = _two_coeffs(lin, var)
    gc = g.coeffs_in(var)
    neg_c = -c
    acc = gc[-1]
    for j in range(len(gc) - 2, -1, -1):
        acc = acc * neg_c + gc[j] * a ** (len(gc) - 1 - j)
    if flip:
        acc = -acc
    return acc


def _two_coeffs(lin: MPoly, var: str) -> tuple[MPoly, MPoly]:
    cs = lin.coeffs_in(var)
    return cs[1], cs[0]


# ---------------------------------------------------------- quadratic ---


def quadratic_resultant(qc: list, gc: list):
    """``Res(Av^2+Bv+C, G)`` from coefficient lists, lowest first, over any
    commutative ring whose elements have ``+ - *``, ``is_zero()`` and
    ``divexact()`` (``MPoly``, or :class:`QuadPair`).

    Pseudo-divide G by the quadratic, then evaluate the product of G at the
    two roots through the symmetric functions ``r1+r2 = -B/A``,
    ``r1*r2 = C/A``:

    ``A^k G = Q*(Av^2+Bv+C) + R1 v + R0``  implies
    ``Res = A^(g-2k-1) * (C R1^2 - B R1 R0 + A R0^2)``
    (a division when the exponent is negative; always exact).  No sign
    flip is ever needed because the quadratic contributes an even factor
    to ``(-1)^(deg p * deg q)``.  ``g = len(gc) - 1`` is the formal degree
    of G: its top coefficient may be zero in the ring.
    """
    c, b, a = qc
    r, k = _prem_coeffs(gc, qc)
    zero = a - a
    r0 = r[0] if len(r) > 0 else zero
    r1 = r[1] if len(r) > 1 else zero
    core = c * r1 * r1 - b * r1 * r0 + a * r0 * r0
    exp = len(gc) - 2 * k - 2
    if exp > 0:
        return core * _power(a, exp)
    if exp < 0:
        return core.divexact(_power(a, -exp))
    return core


def _power(x, n: int):
    """``x**n`` for ``n >= 1`` by repeated squaring, with ring ``*`` only."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return result
        x = x * x


class QuadPair:
    """``e + o*X`` in ``Z[X]/(X^2 - m)``: a pair of ints with the quotient
    ring's ``+ - *``.

    ``divexact`` multiplies by the conjugate ``e - o*X`` and divides both
    parts by the norm ``e^2 - m*o^2``; it raises ``NotAFactor`` when that
    division leaves a remainder and ``DegenerateInput`` on norm 0.
    """

    __slots__ = ("e", "o", "m")

    def __init__(self, e: int, o: int, m: int):
        self.e, self.o, self.m = e, o, m

    def __add__(self, other: "QuadPair") -> "QuadPair":
        return QuadPair(self.e + other.e, self.o + other.o, self.m)

    def __sub__(self, other: "QuadPair") -> "QuadPair":
        return QuadPair(self.e - other.e, self.o - other.o, self.m)

    def __mul__(self, other: "QuadPair") -> "QuadPair":
        e, o = self.e * other.e + self.m * self.o * other.o, self.e * other.o + self.o * other.e
        return QuadPair(e, o, self.m)

    def is_zero(self) -> bool:
        return not self.e and not self.o

    def norm(self) -> int:
        return self.e * self.e - self.m * self.o * self.o

    def divexact(self, other: "QuadPair") -> "QuadPair":
        n = other.norm()
        if not n:
            raise DegenerateInput("division by an element of norm 0")
        e, r_e = divmod(self.e * other.e - self.m * self.o * other.o, n)
        o, r_o = divmod(self.o * other.e - self.e * other.o, n)
        if r_e or r_o:
            raise NotAFactor("norm division leaves a nonzero remainder")
        return QuadPair(e, o, self.m)


def _prem_coeffs(fc: list, gc: list) -> tuple[list, int]:
    """Pseudo-remainder of coefficient lists (lowest first) in one
    variable; entries are ring elements as for :func:`quadratic_resultant`
    (polynomials in the other variables, or :class:`QuadPair`).

    Returns ``(r, k)`` with ``lead(g)^k * f = q*g + r`` and
    ``deg r < deg g``; ``k`` counts the reduction steps taken.
    """
    db = len(gc) - 1
    lead = gc[-1]
    r = list(fc)
    k = 0
    while len(r) - 1 >= db:
        top = r[-1]
        dr = len(r) - 1
        new = [lead * cf for cf in r[:-1]]
        off = dr - db
        for j in range(db):
            new[off + j] = new[off + j] - top * gc[j]
        k += 1
        while new and new[-1].is_zero():
            new.pop()
        r = new
    return r, k


# ----------------------------------------------- univariate coefficients ---


def _sylvester_entries_upoly(
    pc: list[list[int]], qc: list[list[int]]
) -> list[list[list[int]]]:
    """Sylvester matrix with dense integer univariate entries.

    ``pc``/``qc`` are the coefficient lists of p and q in the eliminated
    variable (lowest first); p's coefficients fill the top ``deg q`` rows.
    """
    m, n = len(pc) - 1, len(qc) - 1
    size = m + n
    rows: list[list[list[int]]] = []
    for i in range(n):
        row = [[] for _ in range(size)]
        for j, cf in enumerate(reversed(pc)):
            row[i + j] = list(cf)
        rows.append(row)
    for i in range(m):
        row = [[] for _ in range(size)]
        for j, cf in enumerate(reversed(qc)):
            row[i + j] = list(cf)
        rows.append(row)
    return rows


def _res_bareiss_univariate(
    pc: list[MPoly], qc: list[MPoly], variables: tuple[str, ...], var1: str | None
) -> MPoly:
    """At most one active variable left: direct Bareiss elimination."""
    if var1 is None:
        pd = [[int(c.constant())] if not c.is_zero() else [] for c in pc]
        qd = [[int(c.constant())] if not c.is_zero() else [] for c in qc]
        det = bareiss_det(_sylvester_entries_upoly(pd, qd))
        out = MPoly(variables)
        if det:
            out.terms[0] = det[0]
        return out
    pd = [_dense_in(c, var1) for c in pc]
    qd = [_dense_in(c, var1) for c in qc]
    det = bareiss_det(_sylvester_entries_upoly(pd, qd))
    out = MPoly(variables)
    sh = _shift_of(variables, var1)
    for e, cf in enumerate(det):
        if cf:
            out.terms[e << sh] = cf
    return out


def _dense_in(c: MPoly, var: str) -> list[int]:
    sh = _shift_of(c.vars, var)
    deg = c.degree(var)
    if deg < 0:
        return []
    out = [0] * (deg + 1)
    for k, cf in c.terms.items():
        out[(k >> sh) & MASK] = int(cf)
    return u_trim(out)


def _shift_of(variables: tuple[str, ...], var: str) -> int:
    return SHIFT * (len(variables) - 1 - variables.index(var))


# ------------------------------------------------------- interpolation ---


def sylvester_degree_bound(
    p: MPoly, q: MPoly, var: str, weights: Mapping[str, int]
) -> int:
    """Bound on the weighted degree of ``Res_var(p, q)``.

    A monomial with exponents ``e`` has weight ``sum(weights[v] * e[v])``
    (variables missing from ``weights`` weigh 0).  Each of the ``deg q``
    rows of p's coefficients contributes at most the largest weight of a
    p-coefficient, likewise for the ``deg p`` rows of q's coefficients.
    """
    p, q = MPoly.align(p, q)
    return _row_degree_bound(p.coeffs_in(var), q.coeffs_in(var), weights)


def _row_degree_bound(
    pc: list[MPoly], qc: list[MPoly], weights: Mapping[str, int]
) -> int:
    return (len(qc) - 1) * _max_weight(pc, weights) + (len(pc) - 1) * _max_weight(qc, weights)


def _max_weight(coeffs: list[MPoly], weights: Mapping[str, int]) -> int:
    if not coeffs:
        return 0
    n = len(coeffs[0].vars)
    w = [weights.get(v, 0) for v in coeffs[0].vars]
    return max(
        (sum(wi * e for wi, e in zip(w, unpack(k, n))) for c in coeffs for k in c.terms),
        default=0,
    )


def _res_interpolated(
    pc: list[MPoly], qc: list[MPoly], variables: tuple[str, ...], active: list[str]
) -> MPoly:
    """Evaluate/interpolate on the active variable with the largest degree
    bound (fewest leftover degrees per node)."""
    bounds = {v: _row_degree_bound(pc, qc, {v: 1}) for v in active}
    t = max(active, key=lambda v: (bounds[v], active.index(v) * -1))
    lead_p, lead_q = pc[-1], qc[-1]

    def value_at(cand: int) -> MPoly | None:
        if lead_p.subs(t, cand).is_zero() or lead_q.subs(t, cand).is_zero():
            return None
        pc_t = [c.subs(t, cand) for c in pc]
        qc_t = [c.subs(t, cand) for c in qc]
        rem_active = [
            v
            for v in active
            if v != t and any(c.degree(v) > 0 for c in pc_t + qc_t)
        ]
        if len(rem_active) <= 1:
            return _res_bareiss_univariate(
                pc_t, qc_t, variables, rem_active[0] if rem_active else None
            )
        return _res_interpolated(pc_t, qc_t, variables, rem_active)

    coeffs = interpolate_checked(value_at, bounds[t])
    sh = _shift_of(variables, t)
    result = MPoly(variables)
    for e, cf in enumerate(coeffs):
        for k, c in cf.terms.items():
            result.terms[k + (e << sh)] = c
    return result


def interpolate_checked(value_at: Callable[[int], object], bound: int) -> list:
    """Coefficients, lowest degree first, of a polynomial of degree at most
    ``bound`` from its values ``value_at(c)`` at integer nodes ``c``.

    The nodes run 0, 1, -1, 2, -2, ...: smallest magnitude first, which
    keeps the values small.  A node where ``value_at`` returns None is
    skipped.  The first ``bound + 1`` values are interpolated by
    :func:`newton_interpolate`, and the next node is a spare that checks
    the result: raises ``DegenerateInput`` when the polynomial misses it,
    i.e. when the values do not lie on a polynomial of degree <= ``bound``.
    """
    nodes: list[int] = []
    values: list = []
    for c in _integer_nodes():
        if len(nodes) == bound + 2:  # bound + 1 nodes and one spare node
            break
        v = value_at(c)
        if v is not None:
            nodes.append(c)
            values.append(v)
    coeffs = newton_interpolate(nodes[:-1], values[:-1])
    if u_eval(coeffs, nodes[-1]) != values[-1]:
        raise DegenerateInput(
            f"interpolation misses its spare node {nodes[-1]} "
            f"(degree bound {bound} violated)"
        )
    return coeffs


def _integer_nodes() -> Iterator[int]:
    yield 0
    for x in itertools.count(1):
        yield x
        yield -x


def newton_interpolate(nodes: Sequence[int], values: Sequence) -> list:
    """Coefficients, lowest degree first, of the polynomial of degree below
    ``len(nodes)`` that takes ``values[i]`` at the distinct integer
    ``nodes[i]``.

    Values are exact scalars or ``MPoly`` (free of the interpolation
    variable).  Newton's divided differences, then the Newton form expanded
    by Horner's rule: O(n^2) value operations.  Integer values of an
    integer polynomial keep every divided difference an integer (each is
    an integer combination of complete symmetric functions of the nodes),
    so the divisions stay exact; other values fall back to ``Fraction``.
    """
    if len(set(nodes)) != len(nodes):
        raise DegenerateInput("interpolation nodes must be distinct")
    n = len(nodes)
    dd = list(values)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i] = _div_int(dd[i] - dd[i - 1], nodes[i] - nodes[i - k])
    if not dd:
        return []
    coeffs = [dd[-1]]
    for k in range(n - 2, -1, -1):
        xk = nodes[k]
        # coeffs <- coeffs * (t - xk) + dd[k]
        coeffs = (
            [dd[k] - coeffs[0] * xk]
            + [coeffs[j - 1] - coeffs[j] * xk for j in range(1, len(coeffs))]
            + [coeffs[-1]]
        )
    return coeffs


def _div_int(v, d: int):
    """``v / d`` for a nonzero int ``d``: an int when the division is exact."""
    if isinstance(v, MPoly):
        return MPoly(v.vars, {k: _div_int(c, d) for k, c in v.terms.items()})
    if isinstance(v, int):
        q, r = divmod(v, d)
        if not r:
            return q
    return Fraction(v) / d
