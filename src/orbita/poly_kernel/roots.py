"""Real-root isolation and refinement for exact univariate polynomials.

Sturm's method throughout: a sign-safe pseudo-remainder chain with
primitive-part reduction, exact integer sign evaluation at rational
points, and bisection until each root sits alone in a half-open rational
interval ``(lo, hi]``.  The square-free part is isolated, so a multiple
root is found once; its multiplicity is not reported (callers strip known
repeated factors exactly first, with :func:`strip_known_factors`).  The
square-free part and its Sturm chain are computed once per polynomial and
shared by every isolation window and by refinement.

Refinement is exact dyadic bisection on the isolating interval down to
the requested width, followed by a float Newton polish safeguarded by the
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

    full_sqf, full_chain = _decompose(tuple(coeffs))
    sqf = full_sqf

    if lo is None or hi is None:
        bound = _cauchy_bound(coeffs)
        lo = -bound if lo is None else Fraction(lo)
        hi = bound if hi is None else Fraction(hi)
    else:
        lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise DegenerateInput("empty isolation interval")

    out: list[RootInterval] = []

    # roots exactly at the endpoints: lo is excluded by the half-open
    # interval, hi must be reported; both are deflated out so the Sturm
    # chain below sees only the remaining roots
    if _sign_q(sqf, lo) == 0:
        sqf = _deflate_rational_root(sqf, lo)
    hi_is_root = _sign_q(sqf, hi) == 0
    if hi_is_root:
        sqf = _deflate_rational_root(sqf, hi)

    chain = full_chain if sqf is full_sqf else sturm_chain(sqf)
    interior_hi = hi
    if hi_is_root:
        # reserve a slice (interior_hi, hi] holding no other root, so the
        # appended interval for the hi root stays disjoint
        v_hi = _var_q(chain, hi)
        delta = (hi - lo) / 1024
        while _var_q(chain, hi - delta) != v_hi:
            delta = delta / 2
        interior_hi = hi - delta

    stack = [(lo, interior_hi, _var_q(chain, lo), _var_q(chain, interior_hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n <= 0:
            continue
        if n == 1:
            out.append(RootInterval(a, b))
            continue
        mid = _split_point(sqf, a, b)
        vm = _var_q(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))

    if hi_is_root:
        out.append(RootInterval(interior_hi, hi))

    out.sort(key=lambda iv: Fraction(iv.lo))
    return out


def _cauchy_bound(coeffs: list[int]) -> object:
    lead = abs(coeffs[-1])
    top = max(abs(c) for c in coeffs[:-1]) if len(coeffs) > 1 else 0
    return Fraction(1 + (top + lead - 1) // lead)


def _sign_q(coeffs: list[int], x) -> int:
    num, den = Fraction(x).as_integer_ratio()
    return sign_at(coeffs, num, den)


def _var_q(chain: list[list[int]], x) -> int:
    num, den = Fraction(x).as_integer_ratio()
    return _variations(chain, num, den)


def _split_point(sqf: list[int], a, b):
    """A point strictly between a and b that is not a root (the midpoint,
    nudged through a fixed sequence of interior fractions if needed)."""
    for num, den in ((1, 2), (1, 3), (2, 5), (3, 7), (5, 11), (7, 13)):
        mid = a + (b - a) * Fraction(num, den)
        if _sign_q(sqf, mid) != 0:
            return mid
    raise DegenerateInput("could not find a non-root split point")


def _deflate_rational_root(coeffs: list[int], r) -> list[int]:
    """Exact division by (den*x - num) for the rational root r = num/den."""
    num, den = Fraction(r).as_integer_ratio()
    return divexact(coeffs, [-num, den])


# ------------------------------------------------ square-free part ---


@lru_cache(maxsize=32)
def _decompose(coeffs: tuple[int, ...]) -> tuple[list[int], list[list[int]]]:
    """Square-free part of the integer polynomial ``coeffs`` (as
    :func:`squarefree_part` returns it) and its Sturm chain, computed once
    per polynomial.  Shared through the cache: never mutated."""
    sqf, _ = squarefree_part(list(coeffs))
    return sqf, sturm_chain(sqf)


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

    Bisection is exact (integer sign evaluation at rational points) on
    the square-free part, so even roots of high multiplicity and
    polynomials with coefficients far beyond float range refine reliably;
    a safeguarded float Newton polish sharpens the last digits.
    """
    if p.is_zero():
        raise DegenerateInput("cannot refine a root of the zero polynomial")
    coeffs, _ = p.to_int_coeffs()
    sqf, _ = _decompose(tuple(u_trim(coeffs)))
    a, b = Fraction(interval.lo), Fraction(interval.hi)
    sb = _sign_q(sqf, b)
    if sb == 0:
        return float(b)
    sa = _sign_q(sqf, a)
    if sa == 0:
        # the root is strictly inside; step the left end inward until the
        # sign shows up
        step = (b - a) / 65536
        while sa == 0:
            a = a + step
            sa = _sign_q(sqf, a)
    if sa == sb:
        raise DegenerateInput("interval does not bracket a sign change")

    target = Fraction(tol)
    while b - a > target * _qmax(1, abs(a + b) / 2):
        mid = (a + b) / 2
        sm = _sign_q(sqf, mid)
        if sm == 0:
            return float(mid)
        if sm == sa:
            a = mid
        else:
            b = mid

    root = float((a + b) / 2)
    return _newton_polish(sqf, root, float(a), float(b))


def _qmax(a, b):
    a, b = Fraction(a), Fraction(b)
    return a if a >= b else b


def _newton_polish(sqf: list[int], x0: float, lo: float, hi: float) -> float:
    """Two float Newton steps on max-normalized coefficients, kept inside
    the bracket; fall back to the bisection value if they do not help."""
    scale = max(abs(c) for c in sqf)
    fc = [_float_ratio(c, scale) for c in sqf]
    dfc = [c * i for i, c in enumerate(fc)][1:]

    def ev(cs: list[float], x: float) -> float:
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    best = x0
    best_val = abs(ev(fc, x0))
    x = x0
    for _ in range(2):
        d = ev(dfc, x)
        if d == 0.0 or not math.isfinite(d):
            break
        x_new = x - ev(fc, x) / d
        if not (lo <= x_new <= hi) or not math.isfinite(x_new):
            break
        x = x_new
        v = abs(ev(fc, x))
        if v < best_val:
            best, best_val = x, v
    return best


def _float_ratio(num: int, den: int) -> float:
    return float(Fraction(num, den))
