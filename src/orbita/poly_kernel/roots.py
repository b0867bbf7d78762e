"""Real-root isolation and refinement for exact univariate polynomials.

Isolation is bisection with Descartes' rule of signs (Collins & Akritas,
SYMSAC 1976; Rouillier & Zimmermann, J. Comput. Appl. Math. 162, 2004).
Each cell ``(a, b)`` carries its polynomial mapped onto ``(0, 1)``; the
number of sign variations ``V`` of that polynomial's coefficients after
``t = 1/(1 + s)`` is at least the number of roots in the cell, and exceeds
it by an even number.  A cell with ``V = 0`` holds no root and is dropped;
one with ``V = 1`` holds exactly one.  The halves of a cell come from one
scaling and one integer Taylor shift by 1, so no remainder sequence is
ever built.  The cells split at the points of Sturm bisection (the
midpoint, nudged off a root by :func:`_split_point`), and of every cell's
ancestors the largest holding exactly one root is returned, so the
intervals are exactly those of Sturm bisection, which the tests keep as
the oracle: ``(lo, hi]``, half-open, one distinct root each.

Descartes bisection ends only on a square-free polynomial, so the
square-free part is isolated and a multiple root is found once; its
multiplicity is not reported (callers strip known repeated factors exactly
first, with :func:`strip_known_factors`).  Square-freeness is certified
modulo one fixed prime, and only when the certificate fails is the exact
square-free part computed (see :func:`_decompose`).  The square-free part,
its derivative and the float coefficients of the Newton polish are
computed once per polynomial and shared by every isolation window and by
refinement.

Inside the kernel a bracket is a pair of integer numerators over one
shared positive integer denominator, ``(na/den, nb/den]``: a midpoint is
``(na + nb)/(2 den)``, every sign is :func:`sign_at` on integers, and no
``Fraction`` is built per step.  ``Fraction`` appears only at the API
boundary (the window arguments and the :class:`RootInterval` endpoints).

Refinement takes the decisions of exact bisection on the isolating
interval down to the requested width, then sharpens the last digits with a
float Newton polish safeguarded by the bracket.  The bisection decisions
are predicted from a float root and confirmed by two exact signs at the
ends of the last cell; only when that fails does the bisection run exactly,
step by step.  Either way the returned float is the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .dense import divexact, primitive, sign_at, squarefree_part, u_derivative, u_trim
from .errors import DegenerateInput
from .mpoly import RatPoly

__all__ = [
    "RootInterval",
    "isolate_real_roots",
    "refine_root",
    "strip_known_factors",
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


# ------------------------------------------------------ Descartes cells ---


def _taylor_shift(c: list[int], a: int) -> list[int]:
    """``c(x + a)`` in place, by Horner's scheme: ``n (n + 1)/2`` steps."""
    n = len(c) - 1
    if a == 1:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                c[j] += c[j + 1]
    else:
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                c[j] += a * c[j + 1]
    return c


def _affine(q: list[int], a: int, w: int, d: int) -> list[int]:
    """Integer coefficients of ``d^n q((a + w t)/d)``, ``n = deg q``: the
    polynomial of the cell ``(a/d, (a + w)/d)`` on ``(0, 1)``, up to the
    positive factor ``d^n``, which keeps every sign."""
    n = len(q) - 1
    c = [x * d ** (n - i) for i, x in enumerate(q)] if d != 1 else list(q)
    if a:
        _taylor_shift(c, a)
    if w != 1:
        c = [x * w**i for i, x in enumerate(c)]
    return c


def _halves(q: list[int], num: int, k: int) -> tuple[list[int], list[int]]:
    """The polynomials of the two parts of the cell of ``q`` split at
    ``num/k``: ``k^n q(num t/k)`` and ``k^n q((num + (k - num) t)/k)``.
    At the midpoint (``num/k = 1/2``) that is one scaling and one Taylor
    shift by 1."""
    scaled = _affine(q, 0, 1, k)
    left = scaled if num == 1 else [x * num**i for i, x in enumerate(scaled)]
    right = _taylor_shift(list(scaled), num)
    if k - num != 1:
        right = [x * (k - num) ** i for i, x in enumerate(right)]
    return left, right


def _descartes(q: list[int]) -> int:
    """Sign variations of ``(1 + s)^n q(1/(1 + s))``: the number of roots
    of ``q`` in ``(0, 1)`` plus an even number ``>= 0``."""
    c = _taylor_shift(q[::-1], 1)
    count = 0
    prev = 0
    for x in c:
        if x:
            if prev and (x > 0) != (prev > 0):
                count += 1
            prev = x
    return count


def _has_root(q: list[int]) -> bool:
    """Whether ``q`` has a root in ``(0, 1)``, decided exactly by Descartes
    bisection of the square-free ``q``.  A root at 0 or 1 is not counted
    and does not stop the bisection: it only zeroes the top or the constant
    coefficient of the transformed polynomial."""
    stack = [q]
    while stack:
        q = stack.pop()
        v = _descartes(q)
        if v == 1:
            return True
        if v:
            left, right = _halves(q, 1, 2)
            if not right[0]:
                return True  # a root at the midpoint
            stack += (left, right)
    return False


# ------------------------------------------------------------ isolation ---


def isolate_real_roots(p: RatPoly, lo=None, hi=None) -> list[RootInterval]:
    """Disjoint rational intervals, one per distinct real root of ``p``
    in ``(lo, hi]``, sorted increasing.

    Default bounds are the Cauchy root bound.  Endpoints that happen to be
    roots are handled exactly: a root at ``lo`` is excluded, a root at
    ``hi`` is returned in a degenerate-tight interval ending exactly at
    ``hi``.

    The intervals are those of Sturm bisection: a cell is split at
    :func:`_split_point` exactly when it holds two roots or more.  Descartes
    bisection splits every such cell, since its variation count is at least
    the root count, and also some cells holding one root or none, which
    Sturm counting would not split.  So the cells it visits contain the
    Sturm cells and split at the same points; the root count of each is the
    number of its descendants with one variation, and of each root's
    ancestors the largest with a count of one is the Sturm interval.
    """
    if p.is_zero():
        raise DegenerateInput("cannot isolate roots of the zero polynomial")
    coeffs, _ = p.to_int_coeffs()
    coeffs = u_trim(coeffs)
    if len(coeffs) == 1:
        return []

    sqf = _decompose(tuple(coeffs))[0]

    if lo is None or hi is None:
        bound = _cauchy_bound(coeffs)
        lo = -bound if lo is None else Fraction(lo)
        hi = bound if hi is None else Fraction(hi)
    else:
        lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise DegenerateInput("empty isolation interval")

    # roots exactly at the endpoints: lo is excluded by the half-open
    # interval, hi must be reported; both are deflated out so the cells
    # below see only the remaining roots, none at a cell end
    if sign_at(sqf, lo.numerator, lo.denominator) == 0:
        sqf = divexact(sqf, [-lo.numerator, lo.denominator])
    hi_is_root = sign_at(sqf, hi.numerator, hi.denominator) == 0
    if hi_is_root:
        sqf = divexact(sqf, [-hi.numerator, hi.denominator])

    na, nb, den = _common_denominator(lo, hi)
    core, end_root = sqf, 0
    if hi_is_root:
        # reserve a slice (hi - (hi - lo)/s, hi] holding no other root, for
        # s = 1024, 2048, ..., so the appended interval for the hi root
        # stays disjoint; the interior then ends at nb/den, which may be a
        # root: it is deflated out of the cell polynomials and counted once
        # for every cell that ends there
        w = nb - na
        scale = 1024
        while _has_root(_affine(sqf, nb * scale - w, w, den * scale)):
            scale *= 2
        na, nb, den = na * scale, nb * scale - w, den * scale
        if sign_at(sqf, nb, den) == 0:
            end = Fraction(nb, den)
            core, end_root = divexact(sqf, [-end.numerator, end.denominator]), 1

    # cells as (a, b, d, parent); counts[i] is the number of roots found in
    # cell i so far, and a cell with one variation is a leaf holding one
    cells: list[tuple[int, int, int, int]] = []
    counts: list[int] = []
    leaves: list[int] = []
    stack = [(_affine(core, na, nb - na, den), na, nb, den, end_root, -1)]
    while stack:
        q, a, b, d, at_b, parent = stack.pop()
        v = _descartes(q) + at_b
        if not v:
            continue
        index = len(cells)
        cells.append((a, b, d, parent))
        counts.append(0)
        if v == 1:
            leaves.append(index)
            while index >= 0:
                counts[index] += 1
                index = cells[index][3]
            continue
        num, k = _split_point(sqf, a, b, d)
        m = a * k + (b - a) * num
        left, right = _halves(q, num, k)
        stack.append((left, a * k, m, d * k, 0, index))
        stack.append((right, m, b * k, d * k, at_b, index))

    out: list[RootInterval] = []
    for index in leaves:
        while cells[index][3] >= 0 and counts[cells[index][3]] == 1:
            index = cells[index][3]
        a, b, d, _ = cells[index]
        out.append(RootInterval(Fraction(a, d), Fraction(b, d)))
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
    ``(num, k)`` for the point ``na/den + (nb - na) num/(den k)``: the
    midpoint, nudged through a fixed sequence of interior fractions if
    needed."""
    for num, k in ((1, 2), (1, 3), (2, 5), (3, 7), (5, 11), (7, 13)):
        if sign_at(sqf, na * k + (nb - na) * num, den * k) != 0:
            return num, k
    raise DegenerateInput("could not find a non-root split point")


# ------------------------------------------------ square-free part ---

# A word-size prime for the square-free certificate.
_CERTIFICATE_PRIME = 2**31 - 1


def _squarefree_mod_p(f: list[int]) -> bool:
    """Whether ``gcd(f, f')`` modulo ``_CERTIFICATE_PRIME`` is a nonzero
    constant, for ``f`` whose leading coefficient the prime does not
    divide: Euclid's algorithm over the field of the prime."""
    p = _CERTIFICATE_PRIME
    a = [c % p for c in f]
    b = u_trim([i * c % p for i, c in enumerate(a)][1:])
    while b:
        # a <- a mod b: each step adds -lc(a)/lc(b) x^off b, dropping lc(a)
        neg_inv = p - pow(b[-1], -1, p)
        db = len(b) - 1
        tail = b[:-1]
        while len(a) > db:
            q = a.pop() * neg_inv % p
            for j, c in enumerate(tail, len(a) - db):
                a[j] = (a[j] + q * c) % p
            u_trim(a)
        a, b = b, a
    return len(a) == 1


@lru_cache(maxsize=32)
def _decompose(
    coeffs: tuple[int, ...],
) -> tuple[list[int], list[int], list[float], list[float]]:
    """Square-free part of the integer polynomial ``coeffs`` (primitive,
    positive leading coefficient), its primitive derivative (with its
    sign), and the max-normalized float coefficients of the square-free
    part and of its derivative for the Newton polish, computed once per
    polynomial.  Shared through the cache: never mutated.

    The primitive input ``f`` is certified square-free modulo a fixed
    prime ``p`` that does not divide its leading coefficient: if
    ``gcd(f mod p, f' mod p)`` is constant, ``f`` is square-free over the
    rationals and is its own square-free part.  Proof: a nonconstant
    common factor of ``f`` and ``f'`` over the rationals can be taken
    primitive in ``Z[x]``, call it ``g``; by Gauss's lemma it divides ``f``
    and ``f'`` in ``Z[x]``, so ``lc(g)`` divides ``lc(f)`` and ``p`` does
    not divide ``lc(g)``.  Then ``g mod p`` keeps its degree, at least 1,
    and divides both ``f mod p`` and ``f' mod p``, so their gcd is not
    constant.  When the certificate fails (a repeated root, a leading
    coefficient divisible by ``p``, or an unlucky prime that divides the
    discriminant) the exact square-free part is computed instead.  So no
    polynomial reaches the Descartes cells without a certified square-free
    part.
    """
    sqf, _ = primitive(list(coeffs))
    if sqf[-1] < 0:
        sqf = [-c for c in sqf]
    if sqf[-1] % _CERTIFICATE_PRIME == 0 or not _squarefree_mod_p(sqf):
        sqf, _ = squarefree_part(sqf)
    dsqf, _ = primitive(u_derivative(sqf))
    scale = max(abs(c) for c in sqf)
    # int / int is correctly rounded, also beyond float range
    fc = [c / scale for c in sqf]
    dfc = [c * i for i, c in enumerate(fc)][1:]
    return sqf, dsqf, fc, dfc


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

    Precondition: ``(lo, hi]`` holds exactly one distinct real root of
    ``p``, as every interval :func:`isolate_real_roots` returns does.

    The decisions are those of exact bisection on the square-free part:
    the bracket is ``(na/den, nb/den]`` on integers, each halving doubles
    ``den`` and keeps the half where the sign changes, and with
    ``tol = tn/td`` the width test ``b - a > tol max(1, |a + b|/2)`` is the
    integer comparison ``2 td (nb - na) > tn max(2 den, |na + nb|)``.  The
    last cell seeds a safeguarded float Newton polish that sharpens the
    last digits.

    The halvings are first predicted: a safeguarded float Newton on the
    cached float coefficients finds a root ``x`` in the bracket, and the
    same levels and width test are walked choosing each half by the exact
    comparison of ``x`` with the midpoint.  Then the square-free part is
    signed exactly at both ends of the last cell.  If both signs are
    nonzero and differ, the one root of the interval lies strictly inside
    that cell; at every level the exact bisection keeps the half holding
    the root, and no midpoint on the way is the root (each is an end of a
    later cell or outside it), so it reaches the same cell and the polish
    returns the same float.  Otherwise (a wrong prediction, a root at a
    dyadic midpoint, a float overflow) the bisection runs exactly, sign by
    sign.  So even roots of high multiplicity and polynomials with
    coefficients far beyond float range refine reliably.

    When the open end ``lo`` is itself a root (a window end that
    :func:`isolate_real_roots` excluded), it is a simple root of the
    square-free part, so the sign just right of it is the sign of the
    derivative there.
    """
    if p.is_zero():
        raise DegenerateInput("cannot refine a root of the zero polynomial")
    coeffs, _ = p.to_int_coeffs()
    sqf, dsqf, fc, dfc = _decompose(tuple(u_trim(coeffs)))
    na, nb, den = _common_denominator(Fraction(interval.lo), Fraction(interval.hi))
    sb = sign_at(sqf, nb, den)
    if sb == 0:
        return nb / den
    sa = sign_at(sqf, na, den)
    if sa == 0:
        sa = sign_at(dsqf, na, den)
    if sa == sb:
        raise DegenerateInput("interval does not bracket a sign change")

    tn, td = tol.as_integer_ratio()
    cell = _predicted_cell(sqf, fc, dfc, na, nb, den, sa, sb, tn, td)
    if cell is not None:
        na, nb, den = cell
    else:
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


def _predicted_cell(
    sqf: list[int],
    fc: list[float],
    dfc: list[float],
    na: int,
    nb: int,
    den: int,
    sa: int,
    sb: int,
    tn: int,
    td: int,
) -> tuple[int, int, int] | None:
    """The last cell ``(na, nb, den)`` of the exact bisection in
    :func:`refine_root`, predicted from a float root ``x`` and confirmed
    by the exact signs at its ends; None when they do not confirm it.

    ``sa`` is the sign just right of ``na/den`` and ``sb`` the sign at
    ``nb/den``; an end that never moved keeps its known sign.

    The bisection keeps the width numerator ``w = nb - na`` and doubles
    ``den`` per level, and keeps the right half exactly when ``x`` is
    above the midpoint.  With ``x = p/q`` and ``r = p den - na q``, that
    is ``2 r > w q``, after which ``r`` becomes ``2 r - w q`` (right) or
    ``2 r`` (left): binary long division of ``r`` by ``w q``.  So after
    ``k`` levels the right halves taken, read as binary digits, make
    ``j = ceil(2^k r / (w q)) - 1`` clamped to ``[0, 2^k - 1]``, and the
    cell is ``na 2^k + j w`` over ``den 2^k``.  No level below ``k0`` can
    end the loop (its width test compares with at most
    ``2^(k+1) max(den, |na| + w)``), so the width test runs from ``k0``.
    """
    try:
        x = _float_root(fc, dfc, na / den, nb / den, sa, tn / td)
    except OverflowError:
        return None
    if not math.isfinite(x):
        return None
    p, q = x.as_integer_ratio()
    w = nb - na
    wq = w * q
    r = p * den - na * q
    lhs = 2 * td * w

    def cell(k: int) -> tuple[int, int]:
        j = min(max(-(-(r << k) // wq) - 1, 0), (1 << k) - 1)
        return j, (na << k) + j * w

    a, b = td * w, tn * max(den, abs(na) + w)
    k = max(a.bit_length() - b.bit_length() - 1, 0)
    j, lo = cell(k)
    while lhs > tn * max(2 * (den << k), abs(2 * lo + w)):
        k += 1
        j, lo = cell(k)
    s_lo = sign_at(sqf, lo, den << k) if j > 0 else sa
    if s_lo == 0:
        return None
    s_hi = sign_at(sqf, lo + w, den << k) if j < (1 << k) - 1 else sb
    if s_hi != -s_lo:
        return None
    return lo, lo + w, den << k


_FLOAT_ROOT_STEPS = 64


def _float_root(
    fc: list[float], dfc: list[float], lo: float, hi: float, sa: int, tol: float
) -> float:
    """A float root of ``fc`` in ``[lo, hi]``: Newton steps from the
    midpoint, with a bisection step whenever Newton would leave the
    bracket, which the float sign of ``fc`` shrinks (``sa`` is the sign
    just right of ``lo``).  Stops once a Newton step is below ``tol/16``
    relative: the next error is of the order of its square.  A prediction
    only: nothing here is exact."""
    a, b = lo, hi
    x = 0.5 * a + 0.5 * b
    step_tol = tol / 16
    for _ in range(_FLOAT_ROOT_STEPS):
        f = _horner(fc, x)
        if f == 0.0:
            return x
        if (f > 0.0) == (sa > 0):
            a = x
        else:
            b = x
        d = _horner(dfc, x)
        x_new = x - f / d if d else math.nan
        if abs(x_new - x) <= step_tol * max(1.0, abs(x)):
            return x_new if a <= x_new <= b else x
        if not a < x_new < b:
            x_new = 0.5 * a + 0.5 * b
            if x_new == x:
                return x
        x = x_new
    return x


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
