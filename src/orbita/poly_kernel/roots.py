"""Real-root isolation and refinement for exact univariate polynomials.

Sturm's method throughout: a sign-safe pseudo-remainder chain with
primitive-part reduction, exact integer sign evaluation at rational
points, and bisection until each root sits alone in a half-open rational
interval ``(lo, hi]``.  The square-free part is isolated, so a multiple
root is found once; its multiplicity is not reported (callers strip known
repeated factors exactly first, with :func:`strip_known_factors`).  The
square-free part, its Sturm chain and the float coefficients of the Newton
polish are computed once per polynomial and shared by every isolation
window and by refinement.

Inside the kernel a bracket is a pair of integer numerators over one
shared positive integer denominator, ``(na/den, nb/den]``: a midpoint is
``(na + nb)/(2 den)``, every sign is :func:`sign_at` on integers, and no
``Fraction`` is built per step.  ``Fraction`` appears only at the API
boundary (the window arguments and the :class:`RootInterval` endpoints).

Refinement is exact bisection on the isolating interval down to the
requested width, followed by a float Newton polish safeguarded by the
bracket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .dense import divexact, prem, primitive, sign_at, squarefree_part, u_derivative, u_trim
from .errors import DegenerateInput
from .mpoly import RatPoly

__all__ = [
    "RootInterval",
    "isolate_real_roots",
    "refine_root",
    "strip_known_factors",
    "sturm_chain",
]


@dataclass(frozen=True)
class RootInterval:
    """Half-open rational interval ``(lo, hi]`` isolating one distinct
    real root."""

    lo: object
    hi: object

    def midpoint(self):
        return (Fraction(self.lo) + Fraction(self.hi)) / 2

    def width(self):
        return Fraction(self.hi) - Fraction(self.lo)


# ---------------------------------------------------------- Sturm chain ---


def sturm_chain(coeffs: list[int]) -> list[list[int]]:
    """Canonical Sturm chain of an integer polynomial.

    Each next element is the negated true remainder of the previous two,
    up to a positive constant: when the pseudo-remainder multiplier
    ``lead**k`` is negative the pseudo-remainder is kept as-is instead of
    negated.  Elements are reduced to primitive parts (positive content),
    which preserves all signs.
    """
    f = u_trim(list(coeffs))
    if not f:
        raise DegenerateInput("zero polynomial has no Sturm chain")
    chain = [f]
    if len(f) == 1:
        return chain
    g, _ = primitive(u_derivative(f))
    chain.append(g)
    while True:
        r, lead, k = prem(chain[-2], chain[-1])
        if not r:
            return chain
        if lead > 0 or k % 2 == 0:
            r = [-c for c in r]
        r, _ = primitive(r)
        chain.append(r)


def _variations(chain: list[list[int]], num: int, den: int) -> int:
    """Sign variations of the chain at ``num/den`` (zeros skipped)."""
    count = 0
    prev = 0
    for poly in chain:
        s = sign_at(poly, num, den)
        if s:
            if prev and s != prev:
                count += 1
            prev = s
    return count


# ------------------------------------------------------------ isolation ---


def isolate_real_roots(p: RatPoly, lo=None, hi=None) -> list[RootInterval]:
    """Disjoint rational intervals, one per distinct real root of ``p``
    in ``(lo, hi]``, sorted increasing.

    Default bounds are the Cauchy root bound.  Endpoints that happen to be
    roots are handled exactly: a root at ``lo`` is excluded, a root at
    ``hi`` is returned in a degenerate-tight interval ending exactly at
    ``hi``.
    """
    if p.is_zero():
        raise DegenerateInput("cannot isolate roots of the zero polynomial")
    coeffs, _ = p.to_int_coeffs()
    coeffs = u_trim(coeffs)
    if len(coeffs) == 1:
        return []

    full_sqf, full_chain, _, _ = _decompose(tuple(coeffs))
    sqf = full_sqf

    if lo is None or hi is None:
        bound = _cauchy_bound(coeffs)
        lo = -bound if lo is None else Fraction(lo)
        hi = bound if hi is None else Fraction(hi)
    else:
        lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise DegenerateInput("empty isolation interval")

    # roots exactly at the endpoints: lo is excluded by the half-open
    # interval, hi must be reported; both are deflated out so the Sturm
    # chain below sees only the remaining roots
    if sign_at(sqf, lo.numerator, lo.denominator) == 0:
        sqf = divexact(sqf, [-lo.numerator, lo.denominator])
    hi_is_root = sign_at(sqf, hi.numerator, hi.denominator) == 0
    if hi_is_root:
        sqf = divexact(sqf, [-hi.numerator, hi.denominator])

    chain = full_chain if sqf is full_sqf else sturm_chain(sqf)
    na, nb, den = _common_denominator(lo, hi)
    if hi_is_root:
        # reserve a slice (hi - (hi - lo)/s, hi] holding no other root, for
        # s = 1024, 2048, ..., so the appended interval for the hi root
        # stays disjoint; the interior then ends at nb/den
        v_hi = _variations(chain, nb, den)
        scale = 1024
        while _variations(chain, nb * scale - (nb - na), den * scale) != v_hi:
            scale *= 2
        na, nb, den = na * scale, nb * scale - (nb - na), den * scale

    out: list[RootInterval] = []
    stack = [(na, nb, den, _variations(chain, na, den), _variations(chain, nb, den))]
    while stack:
        a, b, d, va, vb = stack.pop()
        n = va - vb
        if n <= 0:
            continue
        if n == 1:
            out.append(RootInterval(Fraction(a, d), Fraction(b, d)))
            continue
        m, k = _split_point(sqf, a, b, d)
        vm = _variations(chain, m, d * k)
        stack.append((a * k, m, d * k, va, vm))
        stack.append((m, b * k, d * k, vm, vb))

    if hi_is_root:
        out.append(RootInterval(Fraction(nb, den), hi))

    out.sort(key=lambda iv: iv.lo)
    return out


def _common_denominator(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """``(na, nb, den)`` with ``a = na/den`` and ``b = nb/den``."""
    den = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    return a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den


def _cauchy_bound(coeffs: list[int]) -> Fraction:
    lead = abs(coeffs[-1])
    top = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    return Fraction(1 + (top + lead - 1) // lead)


def _split_point(sqf: list[int], na: int, nb: int, den: int) -> tuple[int, int]:
    """A point strictly between na/den and nb/den that is not a root, as
    ``(m, k)`` for the point ``m/(den k)``: the midpoint, nudged through a
    fixed sequence of interior fractions if needed."""
    for num, k in ((1, 2), (1, 3), (2, 5), (3, 7), (5, 11), (7, 13)):
        m = na * k + (nb - na) * num
        if sign_at(sqf, m, den * k) != 0:
            return m, k
    raise DegenerateInput("could not find a non-root split point")


# ------------------------------------------------ square-free part ---


@lru_cache(maxsize=32)
def _decompose(
    coeffs: tuple[int, ...],
) -> tuple[list[int], list[list[int]], list[float], list[float]]:
    """Square-free part of the integer polynomial ``coeffs`` (as
    :func:`squarefree_part` returns it), its Sturm chain, and the
    max-normalized float coefficients of the square-free part and of its
    derivative for the Newton polish, computed once per polynomial.
    Shared through the cache: never mutated."""
    sqf, _ = squarefree_part(list(coeffs))
    scale = max(abs(c) for c in sqf)
    # int / int is correctly rounded, also beyond float range
    fc = [c / scale for c in sqf]
    dfc = [c * i for i, c in enumerate(fc)][1:]
    return sqf, sturm_chain(sqf), fc, dfc


# ----------------------------------------------------- known-factor strip ---


def strip_known_factors(
    p: RatPoly, factors: list[tuple[RatPoly, int]]
) -> RatPoly:
    """Divide out each ``(factor, multiplicity)`` exactly and return the
    rational quotient.

    The division runs on integers: ``p`` is scaled to an integer
    polynomial and each factor to its primitive integer part, and by
    Gauss's lemma a primitive factor divides an integer polynomial over
    the rationals exactly when it divides it over the integers.  The
    scale factors are put back at the end.  Raises ``NotAFactor`` when any
    claimed factor does not divide the running quotient the demanded
    number of times.
    """
    coeffs, m = p.to_int_coeffs()
    scale = Fraction(1, m)
    for factor, mult in factors:
        if factor.is_zero() or factor.degree() < 1:
            raise DegenerateInput("factors must have positive degree")
        ints, den = factor.to_int_coeffs()
        prim, cont = primitive(ints)
        for _ in range(mult):
            coeffs = divexact(coeffs, prim)
        scale *= Fraction(den, cont) ** mult
    return RatPoly([c * scale for c in coeffs], p.var)


# ----------------------------------------------------------- refinement ---


def refine_root(p: RatPoly, interval: RootInterval, tol: float = 1e-13) -> float:
    """Shrink an isolating interval around its root and return the root
    as a float, accurate to ``tol`` (relative for roots above 1 in size).

    Bisection is exact on the square-free part: the bracket is
    ``(na/den, nb/den]`` on integers, each halving doubles ``den`` and
    takes the sign of the square-free part at ``(na + nb)/(2 den)``, and
    with ``tol = tn/td`` the width test ``b - a > tol max(1, |a + b|/2)``
    is the integer comparison ``2 td (nb - na) > tn max(2 den, |na + nb|)``.
    So even roots of high multiplicity and polynomials with coefficients
    far beyond float range refine reliably; a safeguarded float Newton
    polish sharpens the last digits.

    When the open end ``lo`` is itself a root (a window end that
    :func:`isolate_real_roots` excluded), it is a simple root of the
    square-free part, so the sign just right of it is the sign of the
    derivative there.
    """
    if p.is_zero():
        raise DegenerateInput("cannot refine a root of the zero polynomial")
    coeffs, _ = p.to_int_coeffs()
    sqf, chain, fc, dfc = _decompose(tuple(u_trim(coeffs)))
    na, nb, den = _common_denominator(Fraction(interval.lo), Fraction(interval.hi))
    sb = sign_at(sqf, nb, den)
    if sb == 0:
        return nb / den
    sa = sign_at(sqf, na, den)
    if sa == 0:
        # chain[1] is the primitive derivative, with its sign
        sa = sign_at(chain[1], na, den)
    if sa == sb:
        raise DegenerateInput("interval does not bracket a sign change")

    tn, td = Fraction(tol).as_integer_ratio()
    while 2 * td * (nb - na) > tn * max(2 * den, abs(na + nb)):
        mid = na + nb
        den *= 2
        sm = sign_at(sqf, mid, den)
        if sm == 0:
            return mid / den
        if sm == sa:
            na, nb = mid, 2 * nb
        else:
            na, nb = 2 * na, mid
    return _newton_polish(fc, dfc, (na + nb) / (2 * den), na / den, nb / den)


def _horner(cs: list[float], x: float) -> float:
    acc = 0.0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _newton_polish(fc: list[float], dfc: list[float], x0: float, lo: float, hi: float) -> float:
    """Two float Newton steps on the max-normalized coefficients ``fc``
    (derivative ``dfc``), kept inside the bracket; fall back to the
    bisection value if they do not help."""
    best = x0
    best_val = abs(_horner(fc, x0))
    x = x0
    for _ in range(2):
        d = _horner(dfc, x)
        if d == 0.0 or not math.isfinite(d):
            break
        x_new = x - _horner(fc, x) / d
        if not (lo <= x_new <= hi) or not math.isfinite(x_new):
            break
        x = x_new
        v = abs(_horner(fc, x))
        if v < best_val:
            best, best_val = x, v
    return best
