"""Reference routes for the closed-form elimination data of
``orbita.rotated_ellipses``.

The solver evaluates the mirror pair, its parity parts ``E`` and ``O``,
the mirror core and the antipodal pair from the integer tables of
``orbita.elimination_tables``.  The routes it used before are kept here as
oracles:

- ``built_mirror_pair``: ``stat_l`` and ``stat_t`` built by ``MPoly``
  products over the rationals;
- ``ring_mirror_parts``: ``E`` and ``O`` interpolated from 4x4 Bezout
  determinants of the mirror pair at integer ``y0``-nodes ``c``, ``|c| >= 2``,
  with ``x0 = X`` in ``Z[X]/(X^2 - (1 - c^2))`` where the burn circle holds,
  each part checked at one spare node;
- ``built_antipodal_equations``: ``first``, ``second`` and ``t0`` built by
  ``MPoly`` products over the rationals, with two exact divisions, and
  ``table_antipodal_equations``, the same four with the pair and ``t0``
  read from the tables; ``table_mirror_pair`` and ``table_antipodal_pair``,
  the pairs the solver reads from the tables (``{packed key: integer}``
  dicts) as ``MPoly``;
- ``subs_fiber`` and ``rel_residual``: a polynomial's fiber in one
  variable and its relative residual ``|V| / S`` at a point, by
  ``MPoly.subs`` and ``MPoly.eval_float`` on exact rationals, against
  which the solver's integer fibers (``_FiberRows``) and exact gate
  (``_rel_residual``) are checked.
"""

from __future__ import annotations

from fractions import Fraction

from orbita.poly_kernel import (
    DegenerateInput,
    MPoly,
    QuadPair,
    RatPoly,
    interpolate_checked,
    sylvester_degree_bound,
)
from orbita.rotated_ellipses import (
    _ANTIPODAL_VARS,
    _MIRROR_VARS,
    PipelineDegreeMismatch,
    _antipodal_pair,
    _node_rows,
    _ring_coeffs,
    _table_values,
)


def bezout_resultant(fc: list, gc: list):
    """``Res(f, g)`` from coefficient lists, lowest first, of one formal
    degree ``n >= 1`` (either top coefficient may be zero), over an
    integral domain whose elements have ``+ - *``, ``is_zero()`` and
    ``divexact()`` (``MPoly``, or ``QuadPair`` with ``m`` not a square).

    The Bezout matrix ``B`` holds the coefficients of
    ``(f(x) g(y) - f(y) g(x)) / (x - y) = sum B[i][j] x^i y^j``: each pair
    ``a > b`` adds ``f_a g_b - f_b g_a`` to the entries with
    ``b <= i < a`` and ``i + j = a + b - 1``.  Its determinant, by Bareiss
    elimination with row swaps (exact divisions, hence the domain), is
    ``(-1)^(n(n-1)/2) Res(f, g)`` (Cox, Little & O'Shea, *Using Algebraic
    Geometry*, ch. 3).
    """
    n = len(fc) - 1
    if n < 1 or len(gc) != n + 1:
        raise DegenerateInput(
            f"Bezout resultant needs two lists of one degree >= 1 (got {n} and {len(gc) - 1})"
        )
    zero = fc[0] - fc[0]
    mat = [[zero] * n for _ in range(n)]
    for a in range(1, n + 1):
        for b in range(a):
            cross = fc[a] * gc[b] - fc[b] * gc[a]
            for i in range(b, a):
                mat[i][a + b - 1 - i] = mat[i][a + b - 1 - i] + cross
    negate = (n * (n - 1) // 2) % 2 == 1
    prev = None
    for k in range(n - 1):
        if mat[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not mat[i][k].is_zero()), None)
            if swap is None:
                return zero
            mat[k], mat[swap] = mat[swap], mat[k]
            negate = not negate
        pivot = mat[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                v = pivot * mat[i][j] - mat[i][k] * mat[k][j]
                mat[i][j] = v if prev is None else v.divexact(prev)
        prev = pivot
    det = mat[n - 1][n - 1]
    return zero - det if negate else det


def mirror_node_value(l_rows, t_rows, c: int) -> QuadPair | None:
    """``E(c) + X O(c)``: the pair resultant ``Res_l(stat_l, stat_t)`` at
    ``y0 = c`` with ``x0 = X`` in ``Z[X]/(X^2 - (1 - c^2))``, where the burn
    circle ``x0^2 = 1 - y0^2`` holds, taken as the 4x4 Bezout determinant
    of the ``_node_rows`` ``l_rows``/``t_rows`` of the pair.

    None at ``c`` in {0, +-1}, where ``X^2 = 1`` or ``0`` makes the ring
    no domain, so Bareiss division is not exact (for ``|c| >= 2`` the ring
    is ``Z[sqrt(1 - c^2)]`` with ``1 - c^2 < 0``), and where ``y0 = c``
    drops the l-degree of either polynomial or a leading pair has norm 0.
    """
    if abs(c) < 2:
        return None
    f = _ring_coeffs(l_rows, c, 1 - c * c, 1)
    g = _ring_coeffs(t_rows, c, 1 - c * c, 1) if f is not None else None
    if g is None or not f[-1].norm() or not g[-1].norm():
        return None
    return bezout_resultant(f, g)


def ring_mirror_parts(stat_l: MPoly, stat_t: MPoly, node_value=mirror_node_value):
    """``(E, O)`` of ``Res_l(stat_l, stat_t) = E + x0 O`` on the burn circle,
    interpolated from ``node_value`` at the ring nodes.

    A term ``x0^k y0^j`` of the resultant becomes
    ``(1 - c^2)^(k//2) c^j X^(k%2)`` at a node, so the total degree of the
    resultant in ``(x0, y0)`` bounds ``deg E`` and one less bounds
    ``deg O``; each part is checked at one spare node.
    """
    bound = sylvester_degree_bound(stat_l, stat_t, "l", {"x0": 1, "y0": 1})
    # (elim, ring, node) = (l, x0, y0), positions 0, 1, 2 of the keys
    rows = (_node_rows(stat_l.terms, 0, 1, 2), _node_rows(stat_t.terms, 0, 1, 2))
    values: dict[int, QuadPair | None] = {}

    def part_at(c: int, odd: bool) -> int | None:
        if c not in values:
            values[c] = node_value(*rows, c)
        v = values[c]
        return None if v is None else (v.o if odd else v.e)

    try:
        even = RatPoly(interpolate_checked(lambda c: part_at(c, False), bound), "y0")
        odd = RatPoly(interpolate_checked(lambda c: part_at(c, True), bound - 1), "y0")
    except DegenerateInput as exc:
        raise PipelineDegreeMismatch(f"mirror eliminant: {exc}") from exc
    return even, odd


def built_mirror_pair(s0x, s0y) -> tuple[MPoly, MPoly]:
    """``(stat_l, stat_t)`` in ``(l, x0, y0)`` by ``MPoly`` products, as
    primitive integer polynomials: ``d(cost)/dl`` and the tangential
    derivative along the burn circle of the mirror family's cost."""
    V = ("l", "x0", "y0")
    l = MPoly.variable("l", V)
    x0 = MPoly.variable("x0", V)
    y0 = MPoly.variable("y0", V)
    one = MPoly.const(1, V)

    # squared single-burn gap times l^2 x0^2 (both burns have equal gaps here)
    gap = s0y * l * x0 - (one + x0 * s0y - y0 * s0x - l * l)
    cost_num = (
        (s0x * s0x + (one - l) ** 2) * l * l * x0 * x0
        + gap * gap
        + 2 * (one - l) * (x0 * s0y - y0 * s0x) * l * l * x0 * x0
        - 2 * (one - l) * (one + x0 * s0y - y0 * s0x - l * l) * l * x0 * x0
    )
    stat_l = (l * cost_num.partial("l") - 2 * cost_num).primitive()
    stat_t = (
        x0 * x0 * cost_num.partial("y0") - y0 * (x0 * cost_num.partial("x0") - 2 * cost_num)
    ).primitive()
    return stat_l, stat_t


def table_mirror_pair(s0x, s0y) -> tuple[MPoly, MPoly]:
    """``(stat_l, stat_t)`` as the solver reads them: the tables
    ``MIRROR_STAT_L`` and ``MIRROR_STAT_T`` at ``(s0x, s0y)``, primitive
    integer polynomials in ``(l, x0, y0)``."""
    return tuple(
        MPoly(_MIRROR_VARS, _table_values(name, s0x, s0y))
        for name in ("MIRROR_STAT_L", "MIRROR_STAT_T")
    )


def table_antipodal_pair(s0x, s0y) -> tuple[MPoly, MPoly]:
    """``(first, second)`` of ``rotated_ellipses._antipodal_pair`` as
    ``MPoly`` in ``(l, x0, s1y)``."""
    return tuple(MPoly(_ANTIPODAL_VARS, terms) for terms in _antipodal_pair(s0x, s0y))


def subs_fiber(poly: MPoly, free: str, point: dict[str, float]) -> RatPoly:
    """The fiber of ``poly`` in ``free`` at the other coordinates of
    ``point``, by ``MPoly.subs`` of exact rationals (floats convert
    exactly)."""
    for v in poly.vars:
        if v != free:
            poly = poly.subs(v, Fraction(point[v]))
    return poly.to_ratpoly(free)


def rel_residual(poly: MPoly, point: dict[str, float]) -> float:
    """``|poly(point)|`` divided by the sum of its term magnitudes at the
    point, each evaluated exactly and rounded once, then divided."""
    value = abs(poly.eval_float(point))
    mag_terms = MPoly(poly.vars, {k: abs(c) for k, c in poly.terms.items()})
    scale = mag_terms.eval_float({v: abs(x) for v, x in point.items()})
    return value / max(scale, 1e-300)


def built_antipodal_equations(s0x, s0y):
    """``(radius_pair, first, second, t0)`` by ``MPoly`` products.

    Only ``p0`` and ``t0`` are built over Q; every larger product runs on
    integers, and the two balances are divided exactly by
    ``l^3 (l-1)^4 (l+1)^2`` and ``l^2 (l-1)^3 (l+1)^2``.  ``first``,
    ``second`` and ``t0`` come back as primitive integer polynomials.
    """
    V = ("l", "x0", "s1y")
    l = MPoly.variable("l", V)
    x0 = MPoly.variable("x0", V)
    s1y = MPoly.variable("s1y", V)
    one = MPoly.const(1, V)

    d = l * (one - l * l)  # common denominator of the s1x and y0 substitutions
    s1x_num = x0 * (l * s1y - s0y) * s0x  # s1x = s1x_num / d
    y0_num = one - l * l  # y0 = y0_num / s0x

    p0 = (
        (s0x * d - s1x_num) ** 2
        + (s0y * d - s1y * d) ** 2
        + ((one - l) * d) ** 2
        + 2 * (one - l) * d * ((s0y - s1y) * x0 * d - (s0x * d - s1x_num) * y0_num / s0x)
    )
    t0 = 2 * p0.partial("x0") * d * d + s0x * s0x * x0 * (
        p0.partial("l") * d - 2 * p0 * d.partial("l")
    )
    p0, t0 = p0.primitive(), t0.primitive()
    p0_e, p0_o = p0.parity_parts("x0")

    def balance(w: MPoly) -> MPoly:
        w_e, w_o = w.parity_parts("x0")
        return w_o * p0_e - w_e * p0_o

    first = balance(p0.partial("s1y") ** 2).divexact(l**3 * (l - one) ** 4 * (l + one) ** 2)
    second = balance(t0 * t0).divexact(l**2 * (l - one) ** 3 * (l + one) ** 2)

    radius_pair = s0x * s0x * (x0 * x0 - one) + (one - l * l) ** 2
    return radius_pair, first.primitive(), second.primitive(), t0


def table_antipodal_equations(s0x, s0y):
    """``(radius_pair, first, second, t0)`` from the tables: the solver's
    pair (:func:`table_antipodal_pair`), ``t0`` from
    ``ANTIPODAL_T0``, and ``radius_pair``, the burn circle ``x0^2 = r(l)``
    times ``s0x^2``."""
    l = MPoly.variable("l", _ANTIPODAL_VARS)
    x0 = MPoly.variable("x0", _ANTIPODAL_VARS)
    one = MPoly.const(1, _ANTIPODAL_VARS)
    radius_pair = s0x * s0x * (x0 * x0 - one) + (one - l * l) ** 2
    t0 = MPoly(_ANTIPODAL_VARS, _table_values("ANTIPODAL_T0", s0x, s0y))
    return radius_pair, *table_antipodal_pair(s0x, s0y), t0
