"""Minimum-fuel two-impulse transfer between two equal rotated ellipses.

The pair of orbits treated here: two coplanar elliptic orbits with the same
shape (same eccentricity, same semi-latus rectum) whose apse lines differ by
an in-plane rotation ``alpha``.  With the plane normalized to ``z = 0`` and
the semi-latus rectum scaled to 1, the departure orbit is
``l0 = (0, 0, 1)``, ``s0 = (s0x, s0y, 0)`` and the arrival orbit is
``l2 = (0, 0, 1)``, ``s2 = (-s0x, s0y, 0)``: mirror images across the y
axis, with eccentricity ``e = |s0|`` and rotation
``alpha = 2*atan2(|s0x|, s0y)``.  The unknowns of a two-impulse transfer are
the two burn directions ``(x0, y0)`` and ``(x1, y1)`` on the unit circle and
the transfer orbit ``l1 = (0, 0, l)``, ``s1 = (s1x, s1y, 0)``; the cost is
the total impulse ``f1 = |dv0| + |dv1|``.

Critical points of ``f1`` split into three families, named by ``case_tag``:

- ``case1``            burns without a mirror symmetry (``y0 + y1 != 0``);
  located numerically by a deterministic multi-start damped Newton run on
  the full Lagrange system (16 unknowns after adding a deflation variable
  that excludes the symmetric families).  The system is polynomial, so its
  Jacobian is analytic: the constraint gradients and the hand-written
  Hessian of the Lagrangian.  One stacked residual call per iteration
  serves every seed and every line-search step size.  Every seed starts
  retrograde (``l < 0``): no prograde seed has ever converged, and every
  case-1 point found so far is retrograde (see ``case1_numeric``).
- ``case2a_axis`` / ``case2a_general``   burns mirror-symmetric across the
  x axis (``x1 = x0``, ``y1 = -y0``, forcing ``s1x = 0``).  The axis
  subfamily (burns on the y axis) is closed form.  The general subfamily is
  solved exactly: the l resultant of two stationarity polynomials, kept
  as primitive integer polynomials, splits by parity in ``x0`` as
  ``E + x0 O``, reduced on the burn circle ``x0^2 = u = 1 - y0^2``.  With
  ``s0x`` and ``s0y`` as symbols, the pair (17 and 23 terms), ``E`` and
  ``O`` (217 and 171 terms, degree 24 and 23 in ``y0``) and the core below
  (214 terms) are fixed integer polynomials, the tables ``MIRROR_STAT_L``,
  ``MIRROR_STAT_T``, ``MIRROR_EVEN``, ``MIRROR_ODD`` and ``MIRROR_CORE`` of
  :mod:`orbita.elimination_tables`.  The l-leading coefficients of the
  pair, ``1 - x0^2`` and ``y0`` times a constant, are free of ``s0x`` and
  ``s0y``, so the symbolic resultant specializes exactly at every input
  (Collins, J. ACM 1971).  The eliminant ``E^2 - u O^2`` (the x0 resultant
  with the circle), of degree 48 in ``y0``, is a constant times the known
  spurious factors ``y0^8 (y0-1)^6 (y0+1)^6 spur^4`` and a degree-20 core
  whose ``y0^20`` coefficient is ``s0x^4 (s0x^2 + s0y^2)^4``.  Per input
  the tables are evaluated on integer numerators, and the identity is
  guarded at two nodes, the same check as the antipodal family's.  The
  core's real roots in (-1, 1) are isolated and refined, then
  back-substituted.
- ``case2b_closed`` / ``case2b_general``   burns antipodal (``x1 = -x0``,
  ``y1 = -y0``).  Two closed-form families exist (prograde ``l = 1`` with a
  free ``s1x`` interval, retrograde ``l = -1``, always dominated).  The
  rest of the family reduces to one eliminant in ``l``.  The two reduced
  stationarity polynomials balance the two burns, and the second burn is
  the first reflected in ``x0``, so each is twice the odd-in-x0 part of a
  product taken from the first burn's gap alone.  As polynomials in
  ``(l, x0, s1y, s0x, s0y)`` they and the tangential derivative ``t0`` are
  the integer tables ``ANTIPODAL_FIRST`` (87 terms), ``ANTIPODAL_SECOND``
  (798) and ``ANTIPODAL_T0`` (51) of :mod:`orbita.elimination_tables`,
  evaluated per input and kept as primitive integer polynomials: rational
  multiples of the balances, a constant factor no later step depends on.
  Their s1y resultant is ``x0^7 H(l, x0^2)``, and
  on the burn circle ``x0^2 = r(l) = 1 - (1-l^2)^2/s0x^2`` it becomes
  ``h(l) = H(l, r(l))`` of degree 69.  ``h`` is closed form: with
  ``a = s0y^2/(s0x^2 + s0y^2)`` and ``k = 1 - s0x^2`` it is a constant
  times ``l^11 (l-1)^10 (l+1)^10`` times a degree-38 core
  ``q2 c3 c3' q4 C^4 Q5 Q5'``, seven factors of degree at most 5 built in
  exact rationals from ``a`` and ``k``.  This is certified once
  (``CERT_antipodal.json``), guarded per input at two nodes: the
  identity holds in ``(l, s0x, s0y)``, proven by specializing on a grid
  larger than its degree bounds (``tests/antipodal_certificate.py``;
  Collins, J. ACM 1971).  Per input, ``h`` is evaluated at two integer
  ``l``-nodes only, each one quadratic-resultant formula on integer pairs
  in ``Z[X]/(X^2 - N(c) D)``, where ``x0 = X/D`` and ``r(c) = N(c)/D``
  (resultants commute with this ring map, so the burn circle holds by
  construction, and the even part of the value must vanish: odd in x0),
  and must be a nonzero constant times the closed form there.  The real
  roots in the feasibility window are isolated and refined on the
  factors, then back-substituted.
  When ``s0y = 0`` (``alpha = 180``) the two reduced stationarity
  polynomials become odd in ``s1y`` and the eliminant vanishes
  identically.  The family splits into the branches ``s1y = 0`` and
  ``s1y != 0``, and both are empty for every ``s0x != 0``: on the first,
  ``t0`` is ``3 s0x^2 x0 l^4 (l-1)^4 (l+1)^3``; on the second, the
  s1y-coefficient of ``first`` is ``-s0x^2 x0 l^3 (l-1)(l+1)`` times a
  quintic whose x0-resultant with the burn circle is ``l^4 s0x^8``.  The
  tests prove this once on the tables with ``s0x`` as a symbol, so only
  the closed forms remain.

The tables are generated with sympy by ``tests/generate_elimination_tables.py``,
and the tests prove them equal to the constructions above with ``s0x`` and
``s0y`` as symbols; the package itself does not import sympy.

All elimination runs in exact rational arithmetic, which is why
:class:`RotatedInput` requires exact rational ``s0x, s0y``.  Back-substitution
runs on integers too: a float is ``p / 2^k`` exactly, so the fibers of the
tables' integer polynomials at float roots, and the exact relative residuals
that keep or drop every fiber root, are integer sums over powers of two.
Every candidate returned has been validated against the full plan equations
(residuals below 1e-9) and the elliptic-transfer requirement ``|s1| < |l|``.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import elimination_tables
from .kepler import NotElliptic, Orbit, OrbitGeometry, Vec3, orbit_geometry
from .poly_kernel import (
    QuadPair,
    RatPoly,
    euclidean_last_linear,
    isolate_real_roots,
    quadratic_resultant,
    refine_root,
    strip_known_factors,
    sylvester_resultant,
)
from .poly_kernel.dense import u_eval
from .poly_kernel.mpoly import pack, unpack
from .transfer_model import TransferPlan, _checked_costs, impulses, plan_as_dict, plan_is_valid

# Unused by the solver; bound only because perfbench/spans.py wraps them here,
# until the benchmark change of ROADMAP item 1 drops all three targets.
_WRAPPED_BY_PERFBENCH = (euclidean_last_linear, strip_known_factors, sylvester_resultant)

__all__ = [
    "DegenerateGeometry",
    "EllipticityViolation",
    "PipelineDegreeMismatch",
    "RotatedCandidate",
    "RotatedInput",
    "SweepRecord",
    "apogee_to_apogee_cost",
    "best_rotated_transfer",
    "candidate_as_dict",
    "case1_numeric",
    "case2a_axis_solutions",
    "case2a_general",
    "case2b_solutions",
    "elimination_degrees",
    "params_from_angle",
    "separation_angle",
    "sweep_record_as_dict",
    "sweep_rotated",
]

logger = logging.getLogger(__name__)

_RESIDUAL_TOL = 1e-9  # plan equation residuals accepted for a candidate
_GATE_TOL = 1e-6  # relative polynomial residual separating roots from noise


class EllipticityViolation(NotElliptic):
    """A candidate's transfer orbit is not elliptic (``|s1| >= |l1z|``).

    Raised internally during candidate assembly; the public family solvers
    catch it, log the rejected candidate, and leave it out of the results.
    """


class PipelineDegreeMismatch(ArithmeticError):
    """An eliminant's structure differs from the one the solver relies on."""


class DegenerateGeometry(ValueError):
    """The requested quantity is undefined for this input geometry."""


# --------------------------------------------------------------------------
# input / output types
# --------------------------------------------------------------------------


def _require_finite(value, name: str) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _to_rational(value, name: str):
    """Coerce to an exact rational; floats convert exactly (no rounding)."""
    _require_finite(value, name)
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an exact rational, got {value!r}") from exc


def _snap(v: float) -> Fraction:
    """The closest fraction with denominator at most 10**6 when it lies
    within 1e-12 of ``v``, else the float's exact binary value."""
    r = Fraction(v).limit_denominator(10**6)
    return r if abs(float(r) - v) <= 1e-12 else Fraction(v)


@dataclass(frozen=True)
class RotatedInput:
    """Exact description of a rotated-ellipse pair.

    ``s0x`` and ``s0y`` are stored as exact rationals (any int, Fraction,
    string like ``"3/10"``, or float — floats convert exactly, so pass a
    Fraction or string when you mean a decimal).  The invariant
    ``s0x**2 + s0y**2 < 1`` (elliptic orbits) is enforced exactly.

    ``e``, ``a``, ``b`` are optional provenance for inputs produced by
    :func:`params_from_angle`: the requested eccentricity and the integer
    pair behind the exact angle parametrization.
    """

    s0x: object
    s0y: object
    e: float | None = None
    a: int | None = None
    b: int | None = None

    def __post_init__(self) -> None:
        sx = _to_rational(self.s0x, "s0x")
        sy = _to_rational(self.s0y, "s0y")
        if sx * sx + sy * sy >= 1:
            raise ValueError(
                "s0x**2 + s0y**2 must be < 1 (elliptic orbits); got "
                f"s0x={sx}, s0y={sy}"
            )
        object.__setattr__(self, "s0x", sx)
        object.__setattr__(self, "s0y", sy)

    @classmethod
    def from_floats(cls, s0x: float, s0y: float) -> "RotatedInput":
        """Build an input from floats, each rationalized by :func:`_snap`.
        Small denominators keep the exact elimination pipelines fast.
        Raises ``ValueError`` for a non-finite coordinate."""
        _require_finite(s0x, "s0x")
        _require_finite(s0y, "s0y")
        return cls(s0x=_snap(s0x), s0y=_snap(s0y))

    # --- derived views -----------------------------------------------------

    @property
    def s0x_float(self) -> float:
        return float(self.s0x)

    @property
    def s0y_float(self) -> float:
        return float(self.s0y)

    @property
    def eccentricity(self) -> float:
        return math.sqrt(float(self.s0x * self.s0x + self.s0y * self.s0y))

    @property
    def alpha_deg(self) -> float:
        """Rotation between the two apse lines, in degrees, in [0, 180]."""
        e2 = float(self.s0x * self.s0x + self.s0y * self.s0y)
        if e2 < 1e-30:
            return 0.0
        c = float(self.s0y * self.s0y - self.s0x * self.s0x) / e2
        return math.degrees(math.acos(max(-1.0, min(1.0, c))))

    @property
    def is_circular(self) -> bool:
        return self.s0x == 0 and self.s0y == 0

    @property
    def is_identical(self) -> bool:
        """True when departure and arrival orbits coincide (``s0x = 0``)."""
        return self.s0x == 0

    # built once per input: every candidate's plan shares the two orbits
    @cached_property
    def orbit0(self) -> Orbit:
        return Orbit(Vec3(0.0, 0.0, 1.0), Vec3(self.s0x_float, self.s0y_float, 0.0))

    @cached_property
    def orbit2(self) -> Orbit:
        return Orbit(Vec3(0.0, 0.0, 1.0), Vec3(-self.s0x_float, self.s0y_float, 0.0))

    @cached_property
    def _orbit0_geometry(self) -> OrbitGeometry:
        return orbit_geometry(self.orbit0)


@dataclass(frozen=True)
class RotatedCandidate:
    """One validated critical point of the transfer cost.

    ``plan`` holds the three orbits and two burn directions; ``f1`` is the
    total impulse; ``case_tag`` is one of ``case1``, ``case2a_axis``,
    ``case2a_general``, ``case2b_closed``, ``case2b_general``;
    ``separation_angle_deg`` is the angle between the departure orbit's
    apogee direction and the first burn direction.  ``note`` carries
    human-readable annotations (e.g. the one-parameter family attached to
    the prograde closed form, or dominance remarks).
    """

    plan: TransferPlan
    f1: float
    case_tag: str
    separation_angle_deg: float
    note: str = ""

    @property
    def transfer_orbit(self) -> Orbit:
        return self.plan.orbits[1]

    @property
    def burn0(self) -> Vec3:
        return self.plan.burn_points[0]

    @property
    def burn1(self) -> Vec3:
        return self.plan.burn_points[1]

    @property
    def l1z(self) -> float:
        return self.transfer_orbit.l.z

    @property
    def s1x(self) -> float:
        return self.transfer_orbit.s.x

    @property
    def s1y(self) -> float:
        return self.transfer_orbit.s.y


def candidate_as_dict(c: RotatedCandidate) -> dict:
    report = impulses(c.plan)
    return {
        "case": c.case_tag,
        "f1": c.f1,
        "separation_angle_deg": c.separation_angle_deg,
        "note": c.note,
        "burn0": list(c.burn0.as_tuple()),
        "burn1": list(c.burn1.as_tuple()),
        "l1z": c.l1z,
        "s1x": c.s1x,
        "s1y": c.s1y,
        "deltas": list(report.deltas),
        "plan": plan_as_dict(c.plan),
    }


# --------------------------------------------------------------------------
# shared candidate assembly
# --------------------------------------------------------------------------


def separation_angle(c: RotatedCandidate, inp: RotatedInput) -> float:
    """Angle (degrees) between orbit0's apogee line and the first burn.

    Returns 0.0 for circular inputs, which have no apse line.
    """
    apogee = inp._orbit0_geometry.apogee_dir
    if apogee is None:
        return 0.0
    b = c.burn0
    n = math.hypot(b.x, b.y)
    dot = (apogee.x * b.x + apogee.y * b.y) / n
    return math.degrees(math.acos(max(-1.0, min(1.0, dot))))


def _assemble(
    inp: RotatedInput,
    case_tag: str,
    x0: float,
    y0: float,
    x1: float,
    y1: float,
    l1z: float,
    s1x: float,
    s1y: float,
    note: str = "",
    f1: float | None = None,
) -> RotatedCandidate | None:
    """Build and validate one candidate; None if the plan check fails.

    Raises :class:`EllipticityViolation` when the transfer orbit is not
    elliptic — callers catch it, log, and skip.  A non-finite transfer
    orbit raises :class:`orbita.kepler.DegenerateOrbit`, which no caller
    catches: a solver handing one over is at fault.
    """
    try:
        orbit1 = Orbit(Vec3(0.0, 0.0, l1z), Vec3(s1x, s1y, 0.0))
    except NotElliptic as exc:
        raise EllipticityViolation(str(exc)) from exc
    plan = TransferPlan(
        orbits=(inp.orbit0, orbit1, inp.orbit2),
        burn_points=(Vec3(x0, y0, 0.0), Vec3(x1, y1, 0.0)),
    )
    if not plan_is_valid(plan, tol=_RESIDUAL_TOL):
        logger.info(
            "%s candidate rejected by plan validation: burn0=(%.12g, %.12g) "
            "l1z=%.12g s1=(%.12g, %.12g)",
            case_tag,
            x0,
            y0,
            l1z,
            s1x,
            s1y,
        )
        return None
    # plan_is_valid checked the residuals that impulses would check again
    cost = _checked_costs(plan).f1
    if f1 is not None and abs(cost - f1) > 1e-9 * max(1.0, cost):
        logger.warning(
            "%s candidate: closed-form cost %.17g disagrees with plan cost "
            "%.17g; keeping the plan cost",
            case_tag,
            f1,
            cost,
        )
    cand = RotatedCandidate(
        plan=plan,
        f1=cost,
        case_tag=case_tag,
        separation_angle_deg=0.0,
        note=note,
    )
    object.__setattr__(cand, "separation_angle_deg", separation_angle(cand, inp))
    return cand


def _sorted_unique(cands: Iterable[RotatedCandidate]) -> list[RotatedCandidate]:
    """Sort by cost and drop numerically identical duplicates."""
    out: list[RotatedCandidate] = []
    seen: set[tuple] = set()
    for c in sorted(cands, key=lambda c: (c.f1, c.case_tag, c.burn0.x, c.burn0.y)):
        key = (
            round(c.burn0.x, 9),
            round(c.burn0.y, 9),
            round(c.l1z, 9),
            round(c.s1x, 9),
            round(c.s1y, 9),
        )
        if key in seen:
            continue
        seen.add(key)
        out.append(c)
    return out


# --------------------------------------------------------------------------
# back-substitution on integers: fibers and the residual gate
# --------------------------------------------------------------------------
#
# The symmetric families' polynomials are integer polynomials in three
# variables, kept as the {packed key: coefficient} dicts of their tables
# (_table_values).  Back-substitution fixes two of the variables at floats
# and reads a polynomial in the third, the fiber.  Every finite float is
# p / 2^k exactly, so a fiber times a power of two has integer
# coefficients: ring arithmetic on the values at a point (Collins, J. ACM
# 1971), with no Fraction and no gcd.


def _dyadic(x: float) -> tuple[int, int]:
    """``(p, k)`` with ``x = p / 2^k`` exactly."""
    p, q = x.as_integer_ratio()
    return p, q.bit_length() - 1


def _dyadic_value(coeffs: Sequence[int], x: float) -> tuple[int, int]:
    """``(v, s)`` with ``sum_i coeffs[i] x^i = v / 2^s`` on integers, by a
    homogenised Horner rule over ``x = p / 2^k``."""
    if not coeffs:
        return 0, 0
    p, k = _dyadic(x)
    top = len(coeffs) - 1
    acc = 0
    for i in range(top, -1, -1):
        acc = acc * p + (coeffs[i] << k * (top - i))
    return acc, k * top


@dataclass(frozen=True)
class _Layout:
    """The monomials of a polynomial in three variables, given as its
    packed keys (built once per monomial set by :func:`_layout`, on first
    use, not per input): ``exps``, the exponent triples in key order, and
    ``degrees``, the largest exponent of each variable.
    """

    exps: tuple[tuple[int, int, int], ...]
    degrees: tuple[int, int, int]


@lru_cache(maxsize=16)
def _layout(keys: tuple[int, ...]) -> _Layout:
    exps = tuple(unpack(k, 3) for k in keys)
    return _Layout(
        exps=exps,
        degrees=tuple(max((e[i] for e in exps), default=0) for i in range(3)),
    )


@lru_cache(maxsize=16)
def _fiber_grid(keys: tuple[int, ...], free: int) -> tuple[tuple[int, int, int], tuple]:
    """``(degrees, grid)`` for :class:`_FiberRows` of the polynomials with
    the packed keys ``keys``: the degrees in ``(free, u, v)`` and
    ``grid[e][a]``, the pairs ``(b, i)`` of the terms ``free^e u^a v^b``
    with ``i`` their position in ``keys``.  Built once per monomial set and
    variable, on first use, so a pipeline keeps only its coefficients."""
    layout = _layout(keys)
    u, v = (i for i in range(3) if i != free)
    degrees = tuple(layout.degrees[i] for i in (free, u, v))
    grid: list[list[list[tuple[int, int]]]] = [
        [[] for _ in range(degrees[1] + 1)] for _ in range(degrees[0] + 1)
    ]
    for i, e in enumerate(layout.exps):
        grid[e[free]][e[u]].append((e[v], i))
    return degrees, tuple(tuple(tuple(cell) for cell in row) for row in grid)


class _FiberRows:
    """An integer polynomial in three variables, kept for its fibers in
    the variable ``free``: its coefficients in key order, and the shared
    :func:`_fiber_grid` of its monomials, which groups the terms
    ``c free^e u^a v^b`` by ``e`` and ``a`` (``u`` and ``v`` the other two
    variables in order).

    :meth:`at` sums the terms at floats ``u = pu / 2^ku``,
    ``v = pv / 2^kv`` in homogenised form: coefficient ``e`` of the fiber
    is ``sum c pu^a pv^b 2^(ku (du - a) + kv (dv - b))`` over the terms
    with that ``e`` (``du``, ``dv`` the degrees in ``u`` and ``v``), by a
    Horner rule in ``u`` over the powers of ``v`` (:func:`_powers`); that
    is ``2^(ku du + kv dv)``, a positive integer, times the fiber.  Root
    isolation and refinement take the primitive part, and the quadratic
    formula reads only ratios of the coefficients, so they see the same
    polynomial as on the exact rational fiber.
    """

    __slots__ = ("degrees", "grid", "coeffs")

    def __init__(self, terms: dict[int, int], free: int) -> None:
        self.degrees, self.grid = _fiber_grid(tuple(terms), free)
        self.coeffs = tuple(terms.values())

    def at(self, u: float, v: float, magnitudes: bool = False) -> tuple[list[int], list[int], int]:
        """The fiber at ``(u, v)`` times ``2^s`` (integer coefficients,
        lowest first), with ``magnitudes`` also the same fiber of the term
        magnitudes ``|c| |u|^a |v|^b`` (else ``[]``), and ``s``."""
        _, du, dv = self.degrees
        pu, ku = _dyadic(u)
        apu = abs(pu)
        pv = _powers(v, dv)
        coeffs = self.coeffs
        values: list[int] = []
        mags: list[int] = []
        for by_a in self.grid:
            acc = mag = 0
            for a in range(du, -1, -1):
                acc *= pu
                mag *= apu
                if by_a[a]:
                    inner = inner_mag = 0
                    for b, i in by_a[a]:
                        term = coeffs[i] * pv[b]
                        inner += term
                        if magnitudes:
                            inner_mag += abs(term)
                    acc += inner << ku * (du - a)
                    mag += inner_mag << ku * (du - a)
            values.append(acc)
            mags.append(mag)
        return values, mags if magnitudes else [], ku * du + _dyadic(v)[1] * dv


def _rel_residual(fiber: tuple[list[int], list[int], int], z: float) -> float:
    """``|V| / S`` at ``z``, for ``fiber`` from :meth:`_FiberRows.at` with
    ``magnitudes``: the gate polynomial's value ``V`` divided by the sum
    ``S`` of its term magnitudes, at the point whose two fixed coordinates
    made the fiber and whose free one is ``z``.

    Both are exact integers over one power of two, ``2^s``, so ``|V|`` and
    ``S`` are each rounded once (int / int true division is correctly
    rounded) and then divided: the float a rational evaluation of ``V``
    and ``S`` would give, even for coefficients far beyond float range.
    The gate keeps a fiber root when this ratio is at most ``_GATE_TOL``;
    fiber roots that share the two fixed coordinates share one fiber.
    """
    values, magnitudes, shift = fiber
    value, s = _dyadic_value(values, z)
    scale, _ = _dyadic_value(magnitudes, abs(z))
    den = 1 << (shift + s)
    return abs(value) / den / max(scale / den, 1e-300)


# --------------------------------------------------------------------------
# exact angle parametrization
# --------------------------------------------------------------------------


def params_from_angle(e: float, alpha_deg: float) -> RotatedInput:
    """Exact-rational input for eccentricity ``e`` and rotation ``alpha``.

    Uses the integer parametrization ``s0x = e*(a^2 - b^2)/(a^2 + b^2)``,
    ``s0y = e*2ab/(a^2 + b^2)`` with ``0 <= b <= a``, which satisfies
    ``s0x^2 + s0y^2 = e^2`` exactly; the angle error of ``(a, b)`` is below
    0.01 degrees (:func:`_angle_pair`).  ``alpha = 180`` maps to ``b = 0``
    (``s0y = 0``) and ``alpha = 0`` to ``a = b`` (``s0x = 0``) exactly.
    ``e`` itself is rationalized to denominator at most 10**6 when that
    loses less than 1e-12, else kept as the float's exact binary value
    (:func:`_snap`).  ``e = 0`` returns the circular-degenerate input.
    """
    if not (0.0 <= e < 1.0):
        raise ValueError(f"eccentricity must be in [0, 1), got {e!r}")
    if not (0.0 <= alpha_deg <= 180.0):
        raise ValueError(f"alpha_deg must be in [0, 180], got {alpha_deg!r}")

    eq = _snap(e)

    if eq == 0:
        return RotatedInput(s0x=Fraction(0), s0y=Fraction(0), e=e, a=1, b=1)
    a, b = _angle_pair(alpha_deg)
    den = Fraction(a * a + b * b)
    return RotatedInput(
        s0x=eq * Fraction(a * a - b * b) / den,
        s0y=eq * Fraction(2 * a * b) / den,
        e=e,
        a=a,
        b=b,
    )


def _angle_pair(alpha_deg: float) -> tuple[int, int]:
    """The pair ``(a, b)`` of :func:`params_from_angle`, angle error below
    0.01 degrees: a continued-fraction approximation with ``b >= 1``, else
    the exact end point ``(1, 1)`` (``alpha = 0``) or ``(1, 0)``
    (``alpha = 180``)."""
    end = (1, 1) if alpha_deg < 90.0 else (1, 0)
    if alpha_deg in (0.0, 180.0):
        return end
    # the pair must satisfy b/a ~ tan(45 deg - alpha/4); best rational
    # approximations come from the continued fraction, growing the
    # denominator bound until the angle error is below 0.01 degrees
    target = math.tan(math.radians(45.0 - alpha_deg / 4.0))
    for k in range(20):  # denominator bounds 200 .. 200 * 2^19, about 10^8
        fr = Fraction(target).limit_denominator(200 << k)
        b, a = fr.numerator, fr.denominator
        ang = 2.0 * math.degrees(math.atan2(a * a - b * b, 2.0 * a * b))
        if b > 0 and abs(ang - alpha_deg) < 0.01:
            return a, b
    # close to 180 degrees every bound gives b = 0, which the search skips;
    # that end point is then within the tolerance
    if min(alpha_deg, 180.0 - alpha_deg) < 0.01:
        return end
    raise ArithmeticError(f"angle search did not converge for alpha={alpha_deg}")


# --------------------------------------------------------------------------
# case 2a: mirror-symmetric burns (x1 = x0, y1 = -y0, s1x = 0)
# --------------------------------------------------------------------------


def case2a_axis_solutions(inp: RotatedInput) -> list[RotatedCandidate]:
    """The two closed-form candidates with burns on the y axis.

    For ``y0 = sigma`` (sigma = +-1) the transfer orbit is
    ``l1z = sqrt(u)``, ``s1 = (0, s0y)`` with ``u = 1 - sigma*s0x``, and the
    cost is ``2*|u - sqrt(u)|``.  A branch whose transfer orbit is not
    elliptic (exact test ``s0y^2 >= u``) is flagged and left out.
    """
    out: list[RotatedCandidate] = []
    for sigma in (1, -1):
        u = 1 - Fraction(sigma) * inp.s0x
        if inp.s0y * inp.s0y >= u:
            logger.info(
                "case2a_axis branch y0=%+d rejected: transfer orbit not pierced "
                "below the elliptic bound (s0y^2 >= %s)",
                sigma,
                u,
            )
            continue
        uf = float(u)
        root = math.sqrt(uf)
        f1 = 2.0 * abs(uf - root)
        cand = _assemble(
            inp,
            "case2a_axis",
            0.0,
            float(sigma),
            0.0,
            float(-sigma),
            root,
            0.0,
            inp.s0y_float,
            f1=f1,
        )
        if cand is not None:
            out.append(cand)
    return _sorted_unique(out)


def _powers(q, top: int) -> list[int]:
    """``n^j d^(top - j)`` for ``j = 0..top``, with ``q = n/d`` in lowest
    terms (a ``Fraction`` or a float): a term ``c q^j`` times ``d^top`` is
    ``c`` times entry ``j``."""
    n, d = q.as_integer_ratio()
    return [n**j * d ** (top - j) for j in range(top + 1)]


def _keyed(table) -> tuple[tuple[tuple[int, int, int, int], ...], int, int]:
    """Rows ``(*exponents, a, b, c)`` of a table (``c s0x^a s0y^b`` times
    the monomial of the exponents) as ``(key, a, b, c)`` with the packed
    key of the exponents, and the table's largest ``a`` and ``b``."""
    return (
        tuple((pack(row[:-3]), *row[-3:]) for row in table),
        max(row[-3] for row in table),
        max(row[-2] for row in table),
    )


# every symmetric-family table of elimination_tables, keyed once
_TABLES = {
    name: _keyed(getattr(elimination_tables, name))
    for name in (
        "MIRROR_STAT_L",
        "MIRROR_STAT_T",
        "MIRROR_EVEN",
        "MIRROR_ODD",
        "MIRROR_CORE",
        "ANTIPODAL_FIRST",
        "ANTIPODAL_SECOND",
        "ANTIPODAL_T0",
    )
}


def _table_values(name: str, s0x, s0y, scale: int | None = None) -> dict[int, int]:
    """The table ``name`` at ``(s0x, s0y)`` as ``{packed key: integer}``.

    The rows are summed on integer numerators over the table's power base
    ``da^dx db^dy`` (``s0x = na/da``, ``s0y = nb/db``, ``dx`` and ``dy`` its
    largest exponents).  With ``scale``, the sums are multiplied by it and
    divided by the base exactly, giving ``scale`` times the table's value (a
    remainder raises ``PipelineDegreeMismatch``); without, they are divided
    by their positive gcd, giving the value's primitive integer multiple.
    """
    rows, dx, dy = _TABLES[name]
    px, py = _powers(s0x, dx), _powers(s0y, dy)
    sums: dict[int, int] = {}
    for key, a, b, c in rows:
        sums[key] = sums.get(key, 0) + c * px[a] * py[b]
    sums = {k: v for k, v in sums.items() if v}
    if scale is None:
        g = math.gcd(*sums.values())
        return {k: v // g for k, v in sums.items()}
    base = px[0] * py[0]
    exact = {k: divmod(v * scale, base) for k, v in sums.items()}
    if any(rest for _, rest in exact.values()):
        raise PipelineDegreeMismatch(f"{name} times {scale} is not integral at ({s0x}, {s0y})")
    return {k: q for k, (q, _) in exact.items()}


def _dense(values: dict[int, int]) -> RatPoly:
    """The polynomial in ``y0`` of :func:`_table_values` of a mirror table
    in ``y0`` alone, whose packed keys are the exponents."""
    return RatPoly([values.get(j, 0) for j in range(max(values, default=-1) + 1)], "y0")


# candidate guard nodes c (both eliminants vanish at 0 and +-1); positive
# only, so a stray factor even in the variable cannot agree with the known
# product at both nodes by symmetry
_GUARD_NODES = range(2, 10)


def _guard_nodes(value_at, known, name: str, form: str) -> None:
    """Check an eliminant ``h`` against ``K``, the product of the
    ``(factor, multiplicity)`` pairs ``known``, at two integer nodes.

    ``h = lc K`` holds as a polynomial identity in the node variable and
    ``(s0x, s0y)``, proven once for each family, but that proof cannot
    exclude an input where ``lc`` vanishes, nor a corrupted table.  So at the
    first two nodes ``c1, c2`` of ``_GUARD_NODES`` with ``K(c) != 0`` and a
    value ``value_at(c)`` (None skips the node),
    ``h(c1) K(c2) = h(c2) K(c1) != 0`` must hold; otherwise, or when fewer
    than two such nodes exist, ``PipelineDegreeMismatch`` is raised.
    """
    var = known[0][0].var
    nodes = []
    for c in _GUARD_NODES:
        kc = math.prod(factor.eval_q(c) ** mult for factor, mult in known)
        hc = value_at(c) if kc else None
        if hc is None:
            continue
        if not hc:
            raise PipelineDegreeMismatch(f"{name} vanishes at the guard node {var} = {c}")
        nodes.append((c, hc, kc))
        if len(nodes) == 2:
            break
    else:
        raise PipelineDegreeMismatch(
            f"{name}: fewer than two guard nodes in {var} = {_GUARD_NODES.start}"
            f"..{_GUARD_NODES.stop - 1}"
        )
    (c1, h1, k1), (c2, h2, k2) = nodes
    if h1 * k2 != h2 * k1:
        raise PipelineDegreeMismatch(
            f"{name} at {var} = {c1}, {c2} is not a constant times {form}"
        )


_MIRROR_VARS = ("l", "x0", "y0")
# the l^4 and l^4 y0 terms of the mirror pair in (l, x0, y0): the table
# pair has l-leading coefficients 1 - x0^2 and y0, so these coefficients of
# stat_l and stat_t are their scales against it
_MIRROR_LEADS = (pack((4, 0, 0)), pack((4, 0, 1)))
# E^2 - (1 - y0^2) O^2 is a constant times these y0-units times spur^4 times
# the core (MIRROR_CORE)
_MIRROR_UNITS = (
    (RatPoly([0, 1], "y0"), 8),
    (RatPoly([-1, 1], "y0"), 6),
    (RatPoly([1, 1], "y0"), 6),
)


@dataclass(frozen=True)
class _MirrorPipeline:
    """Exact elimination data for the mirror-symmetric family, per input."""

    # the pair, primitive integer polynomials in (l, x0, y0) of degree 4 in
    # l from the tables MIRROR_STAT_L and MIRROR_STAT_T, as rows for their
    # fibers in l at (x0, y0): stat_l = d(cost)/dl, and stat_t, the
    # tangential derivative along the burn circle, whose relative residual
    # gates the fiber roots of stat_l
    stat_l_rows: _FiberRows
    stat_t_rows: _FiberRows
    # the degree-20 primitive integer eliminant core in y0, from MIRROR_CORE
    core: RatPoly
    # E and O of Res_l(stat_l, stat_t) = E + x0 O on the burn circle, from
    # the tables MIRROR_EVEN and MIRROR_ODD, for the back-substitution
    even_part: RatPoly  # E, degree <= 24
    odd_part: RatPoly  # O, degree <= 23 (zero polynomial when s0y = 0)
    degree_full: int  # 48: deg (E^2 - u O^2), degree_core plus 28 for the known factors
    degree_core: int  # 20


@lru_cache(maxsize=64)
def _mirror_pipeline(s0x, s0y) -> _MirrorPipeline:
    stat_l, stat_t = (
        _table_values(name, s0x, s0y) for name in ("MIRROR_STAT_L", "MIRROR_STAT_T")
    )
    # stat_l and stat_t are kappa_l and kappa_t times the table pair at
    # (s0x, s0y), whose l-leading coefficients are free of s0x and s0y, so
    # Res_l specializes exactly (Collins, J. ACM 1971) and, being of degree
    # 4 in the coefficients of each, scales by (kappa_l kappa_t)^4
    kappa = stat_l[_MIRROR_LEADS[0]] * stat_t[_MIRROR_LEADS[1]]
    even, odd = (
        _dense(_table_values(name, s0x, s0y, kappa**4))
        for name in ("MIRROR_EVEN", "MIRROR_ODD")
    )
    core = _dense(_table_values("MIRROR_CORE", s0x, s0y))
    if core.degree() != 20:
        raise PipelineDegreeMismatch(
            f"mirror-family core has degree {core.degree()}, expected 20"
        )
    # the circle is monic in x0, so Res_x0(circle, E + x0 O) = E^2 - u O^2
    spur = RatPoly([1 - s0y * s0y, -2 * s0x, s0x * s0x + s0y * s0y], "y0")
    known = _MIRROR_UNITS + ((spur, 4), (core, 1))
    _guard_nodes(
        lambda c: u_eval(even.coeffs, c) ** 2 - (1 - c * c) * u_eval(odd.coeffs, c) ** 2,
        known,
        "mirror eliminant",
        "y0^8 (y0-1)^6 (y0+1)^6 spur^4 core",
    )

    return _MirrorPipeline(
        stat_l_rows=_FiberRows(stat_l, 0),
        stat_t_rows=_FiberRows(stat_t, 0),
        core=core,
        even_part=even,
        odd_part=odd,
        degree_full=sum(factor.degree() * mult for factor, mult in known),
        degree_core=core.degree(),
    )


def _mirror_backsub(
    inp: RotatedInput, pipe: _MirrorPipeline, y0r: float
) -> list[RotatedCandidate]:
    """All validated candidates over one core root ``y0r``."""
    s0xf, s0yf = inp.s0x_float, inp.s0y_float
    xx = 1.0 - y0r * y0r
    if xx <= 1e-14:
        return []  # burn on the y axis: covered by the closed form

    def from_x0(x0v: float) -> list[RotatedCandidate]:
        fiber = RatPoly(pipe.stat_l_rows.at(x0v, y0r)[0], "l")
        if fiber.is_zero():
            return []
        roots = [
            refine_root(fiber, iv) for iv in isolate_real_roots(fiber, Fraction(-8), Fraction(8))
        ]
        roots = [lv for lv in roots if abs(lv) >= 1e-9]
        if not roots:
            return []
        # every fiber root at (x0, y0) is gated on one fiber of stat_t
        gate = pipe.stat_t_rows.at(x0v, y0r, magnitudes=True)
        found: list[RotatedCandidate] = []
        for lv in roots:
            if _rel_residual(gate, lv) > _GATE_TOL:
                continue  # fiber root not paired with this y0 root
            s1y = (1.0 + x0v * s0yf - y0r * s0xf - lv * lv) / (lv * x0v)
            try:
                cand = _assemble(
                    inp,
                    "case2a_general",
                    x0v,
                    y0r,
                    x0v,
                    -y0r,
                    lv,
                    0.0,
                    s1y,
                )
            except EllipticityViolation:
                logger.info(
                    "case2a_general root y0=%.12g, l=%.12g rejected: transfer "
                    "orbit not elliptic",
                    y0r,
                    lv,
                )
                continue
            if cand is not None:
                found.append(cand)
        return found

    mag = math.sqrt(xx)
    tried = None
    if not pipe.odd_part.is_zero():
        # x0 = -E/O at y0r, both over powers of two: one correctly rounded
        # int / int division gives the float of the exact ratio
        num, s_num = _dyadic_value(pipe.even_part.coeffs, y0r)
        den, s_den = _dyadic_value(pipe.odd_part.coeffs, y0r)
        if den != 0:
            num, den = -num << s_den, den << s_num
            x0v = (num if den > 0 else -num) / abs(den)
            if abs(x0v) <= 1.0 + 1e-6 and abs(x0v) > 1e-9:
                tried = math.copysign(mag, x0v)
                got = from_x0(tried)
                if got:
                    return got
        # fall through: ratio degenerate or rejected; try both signs, but
        # not again the one that gave nothing
    out: list[RotatedCandidate] = []
    for sign in (1.0, -1.0):
        if sign * mag != tried:
            out.extend(from_x0(sign * mag))
    return out


def case2a_general(inp: RotatedInput) -> list[RotatedCandidate]:
    """Interior critical points of the mirror-symmetric family, exactly.

    Pipeline: resultant of the two stationarity polynomials (primitive
    integer polynomials of degree 4) in ``l``, split by parity in ``x0`` as
    ``E + x0 O`` and reduced on the burn circle ``x0^2 = u = 1 - y0^2``.
    The pair, ``E``, ``O`` and the core are evaluated from the closed-form
    tables ``MIRROR_STAT_L``, ``MIRROR_STAT_T``, ``MIRROR_EVEN``,
    ``MIRROR_ODD`` and ``MIRROR_CORE`` (polynomials in ``s0x`` and ``s0y``)
    on integer numerators; ``E`` and ``O`` are scaled by
    ``(kappa_l kappa_t)^4`` for the pair's constants against the tables'
    pair.  The eliminant ``E^2 - u O^2`` (the x0 resultant with the
    circle, which is monic in ``x0``), of degree 48 in ``y0``, is a
    constant times ``y0^8 (y0-1)^6 (y0+1)^6 q(y0)^4`` (with ``q`` the known
    spurious quadratic) and the degree-20 core; this is checked at two
    integer nodes, never formed.  The core's real roots in (-1, 1) are
    isolated and refined exactly, then back-substituted through the
    parity parts (``x0 = -E/O`` when available, both signs of
    ``x0 = +-sqrt(1-y0^2)`` when the split degenerates) and the
    stationarity fiber in ``l``.  Candidates failing the tangential
    stationarity gate, plan validation, or ellipticity are logged and
    dropped.
    """
    if inp.s0x == 0:
        raise DegenerateGeometry(
            "identical orbits: the mirror-family elimination needs s0x != 0"
        )
    pipe = _mirror_pipeline(inp.s0x, inp.s0y)
    out: list[RotatedCandidate] = []
    for iv in isolate_real_roots(pipe.core, Fraction(-1), Fraction(1)):
        y0r = refine_root(pipe.core, iv)
        out.extend(_mirror_backsub(inp, pipe, y0r))
    return _sorted_unique(out)


# --------------------------------------------------------------------------
# case 2b: antipodal burns (x1 = -x0, y1 = -y0)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _AntipodalPipeline:
    """Exact elimination data for the antipodal family, per input."""

    # the pair as _antipodal_pair returns it, primitive integer
    # polynomials in (l, x0, s1y), read by the guard nodes, as rows for
    # their fibers in s1y at (l, x0): d_first, the squared-gap balance of
    # degree 2 in s1y, and d_second, the tangential balance of degree 5 in
    # s1y, whose relative residual gates the fiber roots of d_first
    d_first_rows: _FiberRows
    d_second_rows: _FiberRows
    # (factor, multiplicity) from _antipodal_factors, q2 first: h(l) =
    # H(l, r(l)) is a constant times l^11 (l-1)^10 (l+1)^10 times their
    # product, certified once (CERT_antipodal.json), guarded per input at
    # two nodes; the roots are isolated on these
    factors: tuple[tuple[RatPoly, int], ...]
    degree_full: int  # 69: deg h, degree_core plus 31 for the l-units
    degree_core: int  # 38: sum of the factor degrees times multiplicities


# the variable order of the antipodal pair's packed keys
_ANTIPODAL_VARS = ("l", "x0", "s1y")


def _antipodal_pair(s0x, s0y) -> tuple[dict[int, int], dict[int, int]]:
    """The reduced antipodal-system pair ``(first, second)`` in (l, x0, s1y),
    as the ``{packed key: integer}`` dicts of :func:`_table_values`.

    ``p0`` is the first burn's squared gap and ``t0`` its tangential
    derivative, both times powers of ``d = l (1 - l^2)``.  The second burn
    is the first reflected in x0: ``p1(x0) = p0(-x0)`` and
    ``t1(x0) = -t0(-x0)``.  So for ``w = (dp0/ds1y)^2`` or ``w = t0^2``
    the balance ``w p1 - w(-x0) p0`` is ``K(x0) - K(-x0)`` with
    ``K = w p1``, that is ``2 (w_o p0_e - w_e p0_o)`` in the even and odd
    parts in x0.  ``first`` (degree 2 in s1y), ``second`` (degree 5) and
    ``t0`` are fixed polynomials in ``(l, x0, s1y, s0x, s0y)``: positive
    rational multiples of ``t0`` and of the balances
    ``(p0_s^2 p1 - p1_s^2 p0) / (l^3 (l-1)^4 (l+1)^2)`` and
    ``(t0^2 p1 - t1^2 p0) / (l^2 (l-1)^3 (l+1)^2)``, stored as the integer
    tables ``ANTIPODAL_FIRST``, ``ANTIPODAL_SECOND`` and ``ANTIPODAL_T0``
    (``tests/generate_elimination_tables.py`` builds them, and the tests
    prove them equal to these formulas with ``s0x`` and ``s0y`` as
    symbols).  Each comes back as the primitive integer polynomial of its
    table at ``(s0x, s0y)``.  No consumer (node values, fiber roots,
    residual gate) depends on the positive factor.
    """
    first, second = (
        _table_values(name, s0x, s0y) for name in ("ANTIPODAL_FIRST", "ANTIPODAL_SECOND")
    )
    return first, second


# Res_s1y(first, second) = x0^7 H(l, x0^2): odd in x0, lowest power 7
_X0_LOW = 7


def _node_rows(terms: dict[int, int], elim: int, ring: int, node: int) -> list[list[list[int]]]:
    """``rows[j][k]``: the integer coefficients, lowest first, of the
    polynomial in ``node`` multiplying ``elim^j ring^k`` in ``terms``, an
    integer polynomial in three variables as ``{packed key: coefficient}``
    (``elim``, ``ring`` and ``node`` are positions in the keys), summed
    from the exponents of its terms (:func:`_layout`).  Each list ends at
    its last nonzero entry; a zero coefficient is ``[]``."""
    nested: dict[int, dict[int, dict[int, int]]] = {}
    for e, c in zip(_layout(tuple(terms)).exps, terms.values()):
        nested.setdefault(e[elim], {}).setdefault(e[ring], {})[e[node]] = c
    rows = []
    for j in range(max(nested, default=-1) + 1):
        by_ring = nested.get(j, {})
        cells = (by_ring.get(r, {}) for r in range(max(by_ring, default=-1) + 1))
        rows.append([[cs.get(m, 0) for m in range(max(cs, default=-1) + 1)] for cs in cells])
    return rows


def _ring_coeffs(rows: list[list[list[int]]], c: int, n: int, d: int) -> list[QuadPair] | None:
    """The coefficients in the eliminated variable of ``D^dx p`` at
    ``node = c``, ``ring = X/D`` in ``Z[X]/(X^2 - N*D)``, for ``rows`` from
    :func:`_node_rows` and ``dx`` the ring-variable degree of ``p``, or None
    when ``node = c`` drops the degree in the eliminated variable."""
    if not any(u_eval(cf, c) for cf in rows[-1]):
        return None
    dx = max(len(row) for row in rows) - 1
    m = n * d
    # X^k D^(dx-k) reduced: m^(k//2) D^(dx-k) times X^(k%2)
    scale = [m ** (k // 2) * d ** (dx - k) for k in range(dx + 1)]
    out = []
    for row in rows:
        values = [u_eval(cf, c) for cf in row]
        out.append(
            QuadPair(
                sum(v * w for v, w in zip(values[::2], scale[::2])),
                sum(v * w for v, w in zip(values[1::2], scale[1::2])),
                m,
            )
        )
    return out


def _antipodal_node_value(first_rows, second_rows, radius, top: int, c: int):
    """A fixed multiple of ``h(c) = H(c, r(c))`` at the integer node ``c``,
    or None when ``l = c`` drops the s1y-degree of either polynomial or
    the norm of first's leading coefficient vanishes.

    Computed in the ring where ``x0^2 = r(c)`` holds: with
    ``r(c) = N(c)/D`` (``radius = (N, D)``) put ``x0 = X/D``, so
    ``X^2 = N(c) D``; resultants commute with this homomorphism (Collins,
    J. ACM 1971).  ``first_rows``/``second_rows`` are the :func:`_node_rows`
    of the integer polynomials.  The s1y resultant of the scaled
    polynomials is ``E + O X`` with ``E = 0`` (odd in x0) and
    ``O = D^s N^3 S / D^4``, where ``s = 7 + 2 top`` is the scaling
    exponent (:func:`_antipodal_node_setup`) and ``S = sum_j a_j r(c)^j``
    for ``a_j`` the x0^(7+2j) coefficient of ``Res_s1y``.  The value
    returned is the integer ``D^top S = O / (D^(top+3) N^3)``, so the values
    lie on an integer polynomial in ``c``.
    """
    n, d = u_eval(radius[0], c), radius[1]
    f = _ring_coeffs(first_rows, c, n, d)
    g = _ring_coeffs(second_rows, c, n, d) if f is not None else None
    if g is None or not f[-1].norm():
        return None
    res = quadratic_resultant(f, g)
    if res.e:
        raise PipelineDegreeMismatch(
            f"Res_s1y at l = {c} is not odd in x0 (even part nonzero at x0^2 = r(l))"
        )
    half = _X0_LOW // 2  # x0^7 = X^7 / D^7 = X N^3 / D^4
    value, rest = divmod(res.o, d ** (top + half) * n**half)
    if rest:
        raise PipelineDegreeMismatch(
            f"Res_s1y at l = {c} has no factor x0^{_X0_LOW} at x0^2 = r(l)"
        )
    return value


def _antipodal_factors(a, k) -> tuple[tuple[RatPoly, int], ...]:
    """The closed-form factors of the degree-38 antipodal core as
    ``(factor, multiplicity)`` pairs in ``l``, coefficients lowest first,
    with ``a = s0y^2 / (s0x^2 + s0y^2)`` (that is ``cos^2(alpha/2)``) and
    ``k = 1 - s0x^2``; :func:`case2b_solutions` writes them out.  Degrees
    2 + 3 + 3 + 4 + 4*4 + 5 + 5 = 38.  That the core is a constant times
    their product is certified once (``CERT_antipodal.json``), guarded per
    input at two nodes (:func:`_guard_antipodal`).
    """
    half = Fraction(1, 2)

    def poly(*coeffs) -> RatPoly:
        return RatPoly(list(coeffs), "l")

    return (
        (poly(a, -2 * a, 1), 1),  # q2
        (poly(k, -1, -1, 1), 1),  # c3
        (poly(k * half, 0, -3 * half, 1), 1),  # c3'
        (poly(-k, 2 * k, 0, -2, 1), 1),  # q4
        (poly(a * k, 0, -2 * a, 0, 1), 4),  # C
        (poly(a * k * half, a * half, -a * half, -3 * a * half, 0, 1), 1),  # Q5
        (poly(a * k * half, 0, 0, -a, 1 - 3 * a * half, 1), 1),  # Q5'
    )


# h(l) = H(l, r(l)) is a constant times these l-units times the product of
# _antipodal_factors; the certificate's Res_s1y takes (first, second) at
# their s1y-degrees
_ANTIPODAL_UNITS = (
    (RatPoly([0, 1], "l"), 11),
    (RatPoly([-1, 1], "l"), 10),
    (RatPoly([1, 1], "l"), 10),
)
_S1Y_DEGREES = (2, 5)


def _antipodal_node_setup(first: dict[int, int], second: dict[int, int], s0x):
    """``(first_rows, second_rows, radius, top)`` for
    :func:`_antipodal_node_value`: the :func:`_node_rows` of the pair,
    ``r(l) = N(l)/D`` and the x0-degree bound ``7 + 2 top`` of Res_s1y.

    With ``dxf`` and ``dxg`` the x0-degrees of first and second (the widths
    of their rows), the bound is the weighted Sylvester row bound
    ``5 dxf + 2 dxg`` (first has s1y-degree 2, second 5).  It is also the
    exponent of ``D`` the ring values are scaled by.  first is odd in x0, so
    ``dxf`` and the bound are odd.

    A real burn latitude ``y0 = (1 - l^2)/s0x`` puts the burn on the circle
    ``x0^2 = r(l) = 1 - (1 - l^2)^2/s0x^2``; with ``s0x = num/den``,
    ``N = num^2 - den^2 (1 - l^2)^2`` and ``D = num^2``.  ``N(c) != 0`` at
    every integer ``c``, as ``0 < |s0x| < 1``.
    """
    # (elim, ring, node) = (s1y, x0, l), positions 2, 1, 0 of the keys
    first_rows, second_rows = (_node_rows(p, 2, 1, 0) for p in (first, second))
    dxf, dxg = (max(len(row) for row in rows) - 1 for rows in (first_rows, second_rows))
    top = ((len(second_rows) - 1) * dxf + (len(first_rows) - 1) * dxg - _X0_LOW) // 2
    num, den = s0x.numerator, s0x.denominator
    radius = ([num * num - den * den, 0, 2 * den * den, 0, -den * den], num * num)
    return first_rows, second_rows, radius, top


def _guard_antipodal(first: dict[int, int], second: dict[int, int], s0x, known) -> None:
    """Check ``h(l) = H(l, r(l))`` against ``F``, the product of the
    ``(factor, multiplicity)`` pairs ``known``, at two integer nodes.

    ``h = lc(s0x, s0y) F`` holds as a polynomial identity in
    ``(l, s0x, s0y)``, certified once on a grid larger than its degree
    bounds (``tests/antipodal_certificate.py``, ``CERT_antipodal.json``).
    The certificate cannot exclude an input where ``lc`` vanishes or an
    s1y-degree drops, so the s1y-degrees are checked and
    :func:`_guard_nodes` compares ``h`` and ``F`` at two nodes where ``h``
    has a ring value.
    """
    degrees = tuple(_layout(tuple(p)).degrees[2] for p in (first, second))
    if degrees != _S1Y_DEGREES:
        raise PipelineDegreeMismatch(
            f"antipodal pair has s1y-degrees {degrees[0]}, {degrees[1]}, "
            f"expected {_S1Y_DEGREES}"
        )
    setup = _antipodal_node_setup(first, second, s0x)
    _guard_nodes(
        lambda c: _antipodal_node_value(*setup, c),
        known,
        "antipodal eliminant",
        "l^11 (l-1)^10 (l+1)^10 q2 c3 c3' q4 C^4 Q5 Q5'",
    )


@lru_cache(maxsize=32)
def _antipodal_pipeline(s0x, s0y) -> _AntipodalPipeline:
    if s0y == 0:
        raise DegenerateGeometry("use the symmetric split for s0y = 0")
    first, second = _antipodal_pair(s0x, s0y)
    factors = _antipodal_factors(s0y * s0y / (s0x * s0x + s0y * s0y), 1 - s0x * s0x)
    _guard_antipodal(first, second, s0x, _ANTIPODAL_UNITS + factors)
    degree_core = sum(factor.degree() * mult for factor, mult in factors)
    return _AntipodalPipeline(
        d_first_rows=_FiberRows(first, 2),
        d_second_rows=_FiberRows(second, 2),
        factors=factors,
        degree_full=degree_core + sum(unit.degree() * mult for unit, mult in _ANTIPODAL_UNITS),
        degree_core=degree_core,
    )


def _quadratic_real_roots(coeffs: Sequence[int]) -> list[float]:
    """Real roots of an integer polynomial of degree <= 2 (coefficients
    lowest first), smaller first.

    ``b = c1/c2`` and the discriminant ``(c1^2 - 4 c0 c2)/c2^2`` are
    int / int true divisions, correctly rounded, so they are the floats of
    the exact rationals with no ``Fraction`` built; the leading coefficient
    is made positive first, so a zero ratio is ``0.0``, never ``-0.0``.
    """
    c0, c1, c2 = list(coeffs) + [0] * (3 - len(coeffs))
    if c2 < 0 or (c2 == 0 and c1 < 0):
        c0, c1, c2 = -c0, -c1, -c2
    if c2 == 0:
        return [-c0 / c1] if c1 else []
    disc = (c1 * c1 - 4 * c0 * c2) / (c2 * c2)
    if disc < 0:
        return []
    root = math.sqrt(disc)
    bf = c1 / c2
    return [(-bf - root) / 2.0, (-bf + root) / 2.0]


def _antipodal_window(s0x) -> tuple[Fraction, Fraction]:
    """Rational bounds enclosing |l| values with a real burn latitude.

    A real ``y0 = (1-l^2)/s0x`` in [-1, 1] needs ``|1-l^2| <= |s0x|``.  The
    edges ``|1-l^2| = |s0x|`` are the roots of ``B = (1-l^2)^2 - s0x^2``
    (burns on the y axis), which is no factor of the core; the bounds are
    widened slightly so rounding the irrational edges to rationals never
    drops a core root near them.
    """
    a = float(abs(s0x))
    lo = max(math.sqrt(max(1.0 - a, 0.0)) - 1e-6, 1e-9)
    hi = math.sqrt(1.0 + a) + 1e-6
    return Fraction(lo), Fraction(hi)


def _antipodal_roots(pipe: _AntipodalPipeline, s0x) -> list[float]:
    """The real core roots in the two feasibility windows, positive window
    first and increasing within each, isolated and refined on the factors.

    q2 is skipped: its discriminant is ``4a^2 - 4a = 4a(a - 1)``, negative
    for ``0 < a < 1``, which holds whenever ``s0x != 0`` and ``s0y != 0``,
    so q2 has no real root.  The others have degree at most 5 and need no
    square-free step of the core.  A root shared by two factors comes back
    once per factor; :func:`_sorted_unique` drops the repeated candidates.
    """
    lo, hi = _antipodal_window(s0x)
    out: list[float] = []
    for window in ((lo, hi), (-hi, -lo)):
        out.extend(
            sorted(
                refine_root(factor, iv)
                for factor, _ in pipe.factors[1:]
                for iv in isolate_real_roots(factor, window[0], window[1])
            )
        )
    return out


def _antipodal_backsub(
    inp: RotatedInput, pipe: _AntipodalPipeline, lv: float
) -> list[RotatedCandidate]:
    s0xf, s0yf = inp.s0x_float, inp.s0y_float
    y0v = (1.0 - lv * lv) / s0xf
    if 1.0 - y0v * y0v <= 1e-14:
        return []  # backstop: y-axis burns (x0 = 0) are B roots, not core roots
    if abs(lv) < 1e-9 or abs(abs(lv) - 1.0) < 1e-12:
        return []
    mag = math.sqrt(1.0 - y0v * y0v)
    out: list[RotatedCandidate] = []
    for sign in (1.0, -1.0):
        x0v = sign * mag
        roots = _quadratic_real_roots(pipe.d_first_rows.at(lv, x0v)[0])
        if not roots:
            continue
        # only the fiber root with the smaller residual continues the
        # solution branch; the other quadratic root belongs to a sign branch
        # of the squared system.  Its residual is often larger by orders of
        # magnitude, but both can sit at rounding level, so both are taken
        # exactly, on one fiber of d_second at (l, x0)
        gate = pipe.d_second_rows.at(lv, x0v, magnitudes=True)
        # min keeps the first on an exact tie: the smaller root
        rel, s1yv = min(((_rel_residual(gate, s1yv), s1yv) for s1yv in roots), key=lambda t: t[0])
        if rel > _GATE_TOL:
            continue
        s1xv = x0v * (lv * s1yv - s0yf) * s0xf / (lv * (1.0 - lv * lv))
        try:
            cand = _assemble(
                inp,
                "case2b_general",
                x0v,
                y0v,
                -x0v,
                -y0v,
                lv,
                s1xv,
                s1yv,
            )
        except EllipticityViolation:
            logger.info(
                "case2b_general root l=%.12g rejected: transfer orbit not "
                "elliptic",
                lv,
            )
            continue
        if cand is not None:
            out.append(cand)
    return out


def case2b_solutions(
    inp: RotatedInput, include_general: bool = True
) -> list[RotatedCandidate]:
    """All antipodal-burn candidates: two closed forms plus the exact rest.

    Closed forms (tag ``case2b_closed``): the prograde family ``l = 1``,
    burns on the x axis, ``s1y = s0y``, any ``s1x`` in
    ``[-|s0x|, |s0x|]`` costing ``2|s0x|`` (the ``s1x = 0`` representative
    is returned, the interval noted); and the retrograde point ``l = -1``,
    ``s1 = (-s0x*s0y, -s0y)``, always elliptic, costing
    ``2*sqrt(4 + s0x^2) > 4`` — always dominated, flagged in its note.

    The general family (tag ``case2b_general``) comes from the degree-38
    core of the degree-69 eliminant ``h(l) = H(l, r(l))``, what is left
    of ``h`` without ``l^11 (l-1)^10 (l+1)^10``.  The core is the paper's
    general formula on this branch: with ``a = s0y^2/(s0x^2 + s0y^2)`` and
    ``k = 1 - s0x^2`` it is a constant times the product of seven closed
    forms (:func:`_antipodal_factors`), certified once
    (``CERT_antipodal.json``), guarded per input at two nodes (``h`` taken
    there as the s1y resultant with integer arithmetic in the ring where
    ``x0^2 = r(l)`` holds, ``Z[X]/(X^2 - N D)``, ``x0 = X/D``):

    - ``q2 = l^2 - 2a l + a`` has no real root (discriminant
      ``4a(a - 1) < 0``) and is not isolated;
    - ``c3 = l^3 - l^2 - l + k`` gave candidates with ``s1x = 0`` (to
      rounding) on every input checked;
    - ``c3' = l^3 - (3/2) l^2 + k/2`` and ``C = l^4 - 2a l^2 + a k``
      (four times in the core) had no root in the window on any input
      checked;
    - ``q4 = l^4 - 2 l^3 + 2k l - k``,
      ``Q5 = l^5 - (3a/2) l^3 - (a/2) l^2 + (a/2) l + a k/2`` and
      ``Q5' = l^5 + (1 - 3a/2) l^4 - a l^3 + a k/2`` gave the other
      candidates; with c3 they are the only factors that had roots in the
      window on the inputs checked.

    Each factor but q2 is isolated and refined on its own, only inside
    the window ``sqrt(1-|s0x|) <= |l| <= sqrt(1+|s0x|)`` imposed by a real
    burn latitude; no square-free part of the core is taken.

    For ``s0y = 0`` the eliminant vanishes identically (both reduced
    polynomials are odd in ``s1y``) and the family splits into the
    branches ``s1y = 0`` and ``s1y != 0``.  Both are empty for every
    ``s0x != 0``, an identity in ``s0x`` that the tests prove once on the
    tables with sympy, so only the closed forms are returned.
    ``include_general=False`` skips the general family and returns the
    closed forms only.
    """
    if inp.s0x == 0:
        raise DegenerateGeometry(
            "identical orbits: the antipodal family needs s0x != 0"
        )
    s0xf, s0yf = inp.s0x_float, inp.s0y_float
    out: list[RotatedCandidate] = []

    cand = _assemble(
        inp,
        "case2b_closed",
        1.0,
        0.0,
        -1.0,
        0.0,
        1.0,
        0.0,
        s0yf,
        note=(
            "prograde family: every s1x in [-|s0x|, |s0x|] gives the same "
            "cost 2|s0x|; s1x = 0 representative"
        ),
        f1=2.0 * abs(s0xf),
    )
    if cand is not None:
        out.append(cand)

    cand = _assemble(
        inp,
        "case2b_closed",
        1.0,
        0.0,
        -1.0,
        0.0,
        -1.0,
        -s0xf * s0yf,
        -s0yf,
        note=(
            "retrograde point: always elliptic, cost 2*sqrt(4+s0x^2) > 4, "
            "dominated by the prograde family"
        ),
        f1=2.0 * math.sqrt(4.0 + s0xf * s0xf),
    )
    if cand is not None:
        out.append(cand)

    if include_general and inp.s0y != 0:
        pipe = _antipodal_pipeline(inp.s0x, inp.s0y)
        for lv in _antipodal_roots(pipe, inp.s0x):
            out.extend(_antipodal_backsub(inp, pipe, lv))
    return _sorted_unique(out)


# --------------------------------------------------------------------------
# case 1: non-symmetric burns, deterministic multi-start Newton
# --------------------------------------------------------------------------

# unknown layout: x0 y0 x1 y1 s1x s1y l d0 d1 lam1..lam6 k
_N_UNKNOWNS = 16
# burn 0 and burn 1 share most formulas up to the sign of sx, so each is
# evaluated once on a (2, n) block whose rows are the two burns
_BURN_SIGNS = np.array(((1.0,), (-1.0,)))
_BURN_FLIPS = -_BURN_SIGNS
_GRAD_F = np.array((0.0,) * 7 + (1.0, 1.0))

# first rows of the parts of a case-1 buffer (see _case1_buffer)
_F = 16
_G = 32
_SHARED = 86
_NEG_G = 91
_W_DIAG = 145
_W_OFF = 151
_DEFLATION = 161
_ZERO, _NEG_ZERO = 163, 164
_ROWS = 165

# the off-diagonal entries (i, j) of W in the order of the buffer's rows
_W_PAIRS = ((0, 5), (2, 5), (1, 4), (3, 4), (0, 6), (2, 6), (1, 6), (3, 6), (4, 6), (5, 6))


def _jacobian_rows() -> np.ndarray:
    """The buffer row of each entry of the flattened 16 x 16 Jacobian."""
    rows = np.full((_N_UNKNOWNS, _N_UNKNOWNS), _ZERO)
    rows[0:6, 0:9] = _G + np.arange(54).reshape(6, 9)
    rows[6:15, 0:9] = _NEG_ZERO  # the zeros of the -W block
    rows[6:15, 9:15] = (_NEG_G + np.arange(54).reshape(6, 9)).T
    for i, row in enumerate((0, 0, 1, 1, 2, 2, 3, 4, 5)):
        rows[6 + i, i] = _W_DIAG + row
    for row, (i, j) in enumerate(_W_PAIRS):
        rows[6 + i, j] = rows[6 + j, i] = _W_OFF + row
    rows[15, (1, 3)] = _DEFLATION
    rows[15, 15] = _DEFLATION + 1
    return rows.ravel()


_JACOBIAN_ROWS = _jacobian_rows()


def _case1_buffer(n: int) -> np.ndarray:
    """A case-1 buffer for ``n`` seeds: zeros, with the -0.0 row set.

    The buffer is unknown-major, one column per seed, and its rows hold::

        0-15     the state, in the unknown layout above
        16-31    the residuals F
        32-85    the constraint gradients, G[i, j] in row 32 + 9 i + j;
                 the entries that are zero for every state are never written
        86-90    -dxs, sxs, dys, 1 - l and -l, which the Jacobian reuses
        91-144   -G in the same order as G
        145-150  -W00 = -W11, -W22 = -W33, -W44 = -W55, -W66, -W77, -W88
        151-160  -W[i, j] for the pairs (i, j) of _W_PAIRS
        161-162  the deflation entries -k and -(y0 + y1)
        163-164  0.0 and -0.0

    ``_case1_system`` writes rows 16-90, and ``_case1_jacobian`` writes
    rows 91-162 before it gathers the Jacobian from the buffer.
    """
    B = np.zeros((_ROWS, n))
    B[_NEG_ZERO] = -0.0
    return B


def _case1_system(sx: float, sy: float, B: np.ndarray) -> None:
    """Residuals and constraint gradients of the states in buffer ``B``.

    With ``dxs = sx - s1x``, ``dys = sy - s1y``, ``sxs = sx + s1x`` and
    ``m = 1 - l`` the constraints are::

        g0 = x0^2 + y0^2 - 1            g1 = x1^2 + y1^2 - 1
        g2 = l^2 + l (x0 s1y - y0 s1x) - 1 - x0 sy + y0 sx
        g3 = l^2 + l (x1 s1y - y1 s1x) - 1 - x1 sy - y1 sx
        g4 = d0^2 - (dxs^2 + dys^2 + m^2 + 2m (x0 dys - y0 dxs))
        g5 = d1^2 - (sxs^2 + dys^2 + m^2 + 2m (x1 dys + y1 sxs))

    evaluated left to right as written; rows 6-14 of F are the
    stationarity ``grad(d0 + d1) - G^T lam`` and row 15 is
    ``1 - k (y0 + y1)`` (see ``case1_numeric`` for what it does).  The
    states are read from the buffer's rows (see ``_case1_buffer``), which
    may be a column slice of a larger buffer, and F, G and the
    intermediates that ``_case1_jacobian`` reuses are written to them.
    Burn 0 and burn 1 are stacked: ``- y1 sx`` is computed as
    ``+ y1 (-sx)``, ``dxs`` as ``-(-dxs)`` and so on, which IEEE arithmetic
    gives bit for bit, signs of zero included (``tests/case1_oracles.py``
    keeps the per-burn route).
    """
    T = B[0:_N_UNKNOWNS]
    x, y, d = T[0:4:2], T[1:4:2], T[7:9]  # rows (x0, x1), (y0, y1), (d0, d1)
    s1x, s1y, l = T[4], T[5], T[6]
    sq = T[0:9] * T[0:9]
    sxb = sx * _BURN_SIGNS  # (sx, -sx)
    # r = (-(sx - s1x), sx + s1x): the burn-1 row is sxs, the burn-0 row -dxs
    shared = B[_SHARED:_NEG_G]
    r, dys, ml, nl = shared[0:2], shared[2], shared[3], shared[4]
    np.multiply(sx - s1x * _BURN_SIGNS, _BURN_FLIPS, out=r)
    np.subtract(sy, s1y, out=dys)
    np.subtract(1.0, l, out=ml)
    np.negative(l, out=nl)
    ml2 = 2.0 * ml
    nml2 = -ml2
    xs1y, ys1x = x * s1y, y * s1x
    w = x * dys + y * r  # (x0 dys - y0 dxs, x1 dys + y1 sxs)

    F = B[_F:_G]
    np.subtract(sq[0:4:2] + sq[1:4:2], 1.0, out=F[0:2])
    np.add(sq[6] + l * (xs1y - ys1x) - 1.0 - x * sy, y * sxb, out=F[2:4])
    sh2 = shared[0:4] * shared[0:4]  # r * r, dys * dys, ml * ml
    gap = sh2[0:2] + sh2[2] + sh2[3] + ml2 * w
    np.subtract(sq[7:9], gap, out=F[4:6])

    # G[i, j] of both burns at once: the row 9i + j of burn 1 is a fixed
    # stride (9 or 11) past that of burn 0
    Gf = B[_G:_SHARED]
    np.multiply(2.0, x, out=Gf[0:12:11])
    np.multiply(2.0, y, out=Gf[1:13:11])
    np.subtract(l * s1y, sy, out=Gf[18:30:11])
    np.add(nl * s1x, sxb, out=Gf[19:31:11])
    np.multiply(nl, y, out=Gf[22:32:9])
    np.multiply(l, x, out=Gf[23:33:9])
    np.subtract(2.0 * l + xs1y, ys1x, out=Gf[24:34:9])
    np.multiply(nml2, dys, out=Gf[36:48:11])
    np.multiply(nml2, r, out=Gf[37:49:11])
    np.subtract(-2.0 * r, ml2 * y, out=Gf[40:50:9])
    np.add(2.0 * dys, ml2 * x, out=Gf[41:51:9])
    np.add(ml2, 2.0 * w, out=Gf[42:52:9])
    np.multiply(2.0, d, out=Gf[43:54:10])

    G = B[_G:_SHARED].reshape(6, 9, B.shape[1])
    np.subtract(_GRAD_F[:, None], np.einsum("in,ipn->pn", T[9:15], G), out=F[6:15])
    np.subtract(1.0, T[15] * (y[0] + y[1]), out=F[15])


def _vdc(n: int, base: int) -> float:
    """Van der Corput radical-inverse of n in the given base."""
    v, denom = 0.0, 1.0
    while n:
        n, rem = divmod(n, base)
        denom *= base
        v += rem / denom
    return v


@lru_cache(maxsize=8)
def _halton_block(count: int) -> np.ndarray:
    """The input-free part of ``count`` seeds: rows 0-6 and k, read-only."""
    Z = np.zeros((_N_UNKNOWNS, count))
    for r in range(count):
        j = 2 * r + 1
        th0 = 2.0 * math.pi * _vdc(j + 1, 2)
        th1 = 2.0 * math.pi * _vdc(j + 1, 3)
        # keep away from the symmetric manifold y0 + y1 = 0
        while abs(math.sin(th0) + math.sin(th1)) < 0.05:
            th1 += 0.37
        lmag = 0.45 + 1.5 * _vdc(j + 1, 5)
        smag = 0.85 * lmag * _vdc(j + 1, 7)
        sang = 2.0 * math.pi * _vdc(j + 1, 11)
        Z[0:7, r] = (
            math.cos(th0),
            math.sin(th0),
            math.cos(th1),
            math.sin(th1),
            smag * math.cos(sang),
            smag * math.sin(sang),
            -lmag,
        )
        Z[15, r] = 1.0 / (Z[1, r] + Z[3, r])
    Z.flags.writeable = False
    return Z


def _case1_seeds(sx: float, sy: float, count: int) -> np.ndarray:
    """Deterministic low-discrepancy retrograde seed states (count, 16).

    Row ``r`` is term ``j = 2r + 1`` of a Halton-style sequence (radical
    inverses of ``j + 1`` in the bases 2, 3, 5, 7, 11) with ``l = -|l|``.
    ``j + 1`` is even, so burn 0 starts in the upper half-plane,
    ``theta0`` in ``[0, pi)``.  The even terms of the sequence, its
    prograde half (``l > 0``), are not seeded: on 252 cells none of their
    8,064 seeds converged (see ``case1_numeric``).  The burn directions,
    ``s1``, ``l`` and ``k`` do not depend on the input and are built once
    per count (``_halton_block``); the burn sizes and multipliers are
    fitted to the input here.
    """
    B = _case1_buffer(count)
    T = B[0:_N_UNKNOWNS]
    T[...] = _halton_block(count)
    _case1_system(sx, sy, B)
    # gaps: F4 = d0^2 - gap0 with d0 = 0 at this point
    np.sqrt(np.maximum(-B[_F + 4 : _F + 6], 1e-4), out=T[7:9])
    _case1_system(sx, sy, B)
    # least-squares multipliers of every seed, one stacked pseudo-inverse
    G = B[_G:_SHARED].reshape(6, 9, count)
    T[9:15] = (np.linalg.pinv(G.transpose(2, 1, 0)) @ _GRAD_F).T
    return np.ascontiguousarray(T.T)


_LINE_SEARCH_STEPS = np.array((1.0, 0.5, 0.25, 0.1, 0.03, 0.01, 3e-3, 1e-3))
# a step of size t is taken when it brings the residual norm below
# norm * (1 - 1e-4 t)
_SUFFICIENT_DECREASE = 1.0 - 1e-4 * _LINE_SEARCH_STEPS[:, None]


def _case1_jacobian(B: np.ndarray) -> np.ndarray:
    """Analytic Jacobian (n, 16, 16) of the case-1 residuals in buffer ``B``.

    ``B`` holds the constraint gradients that ``_case1_system`` wrote for
    its states.  The stationarity rows differentiate to the Lagrangian
    Hessian ``W = sum(lam_i H_i)`` in the primal unknowns and ``-G^T`` in
    the multipliers (Nocedal & Wright 2006, ch. 18).  The constraints are
    polynomials of degree at most 3 (g2-g5 have terms such as ``l x0 s1y``),
    so every entry of ``W`` is a multiplier times a constant or a term
    linear in the primal unknowns.  With ``m = 1 - l`` and the burn-1 twin
    of an entry in brackets::

        W00 = W11 = 2 lam0  [W22 = W33 = 2 lam1]     W77 = 2 lam4, W88 = 2 lam5
        W44 = W55 = -2 (lam4 + lam5)                 W66 = 2 (lam2 + lam3 - lam4 - lam5)
        W05 = lam2 l + 2 lam4 m       [W25]          W14 = -lam2 l - 2 lam4 m  [W34]
        W06 = lam2 s1y + 2 lam4 dys   [W26]          W16 = -lam2 s1x - 2 lam4 dxs
        W36 = -lam3 s1x + 2 lam5 sxs
        W46 = (2 lam4 - lam2) y0 + (2 lam5 - lam3) y1
        W56 = (lam2 - 2 lam4) x0 + (lam3 - 2 lam5) x1

    Burn 0 and burn 1 are stacked as in ``_case1_system``.  ``-G``, each
    distinct ``-W`` entry (stored negated) and the deflation entries are
    written to the buffer's rows, and the Jacobian is one gather of buffer
    rows by ``_JACOBIAN_ROWS``, whose constant entries read the 0.0 and
    -0.0 rows (the zeros of the ``-W`` block are ``-0.0``).  Column 15 is
    zero in rows 0-14.  The result is a view of a (16, 16, n) array.
    """
    T = B[0:_N_UNKNOWNS]
    x, y = T[0:4:2], T[1:4:2]
    s1x, s1y, l = T[4], T[5], T[6]
    lam23, lam45 = T[11:13], T[13:15]
    r, dys, ml, nl = B[_SHARED : _SHARED + 2], B[_SHARED + 2], B[_SHARED + 3], B[_SHARED + 4]
    two45 = 2.0 * lam45
    ml45 = two45 * ml

    np.negative(B[_G:_SHARED], out=B[_NEG_G:_W_DIAG])
    D = B[_W_DIAG:_W_OFF]
    np.multiply(-2.0, T[9:11], out=D[0:2])
    np.multiply(2.0, lam45[0] + lam45[1], out=D[2])
    np.multiply(-2.0, lam23[0] + lam23[1] - lam45[0] - lam45[1], out=D[3])
    np.negative(two45, out=D[4:6])
    W = B[_W_OFF:_DEFLATION]  # rows in the order of _W_PAIRS
    np.add(lam23 * l, ml45, out=W[0:2])
    np.subtract(lam23 * nl, ml45, out=W[2:4])
    np.add(lam23 * s1y, two45 * dys, out=W[4:6])
    np.add(lam23 * -s1x, two45 * r, out=W[6:8])
    P, Q = (two45 - lam23) * y, (lam23 - two45) * x
    np.add(P[0], P[1], out=W[8])
    np.add(Q[0], Q[1], out=W[9])
    np.negative(W, out=W)
    np.negative(T[15], out=B[_DEFLATION])
    np.negative(y[0] + y[1], out=B[_DEFLATION + 1])
    return B.take(_JACOBIAN_ROWS, axis=0).reshape(_N_UNKNOWNS, _N_UNKNOWNS, -1).transpose(2, 0, 1)


def _newton_steps(J: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps ``J[i] @ s[i] = -F[i]`` for a (m, 16, 16) batch.

    ``ok[i]`` is False where ``J[i]`` is singular; that row's step is zero.
    Each row equals its own ``np.linalg.solve`` call bit for bit.
    """
    ok = np.ones(J.shape[0], dtype=bool)
    try:
        return np.linalg.solve(J, -F[:, :, None])[:, :, 0], ok
    except np.linalg.LinAlgError:
        pass
    steps = np.zeros_like(F)
    for row in range(J.shape[0]):
        try:
            steps[row] = np.linalg.solve(J[row], -F[row])
        except np.linalg.LinAlgError:
            ok[row] = False
    return steps, ok


def _case1_newton(
    sx: float, sy: float, seed_count: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton from ``seed_count`` seeds: final states, alive, converged.

    The live seeds (alive and not yet converged) are the columns of one
    case-1 buffer ``B`` (see ``_case1_buffer``), in seed order, and move
    together.  Per iteration:

    - ``_case1_jacobian`` builds the analytic Jacobian from the constraint
      gradients in ``B``, kept from the call that accepted each state, and
      ``_newton_steps`` solves it in one batch;
    - the line search writes the candidate states into a buffer ``C``
      allocated once per call, column ``t m + i`` for seed ``i`` moved by
      step size ``t`` of ``_LINE_SEARCH_STEPS``, and makes the
      iteration's one ``_case1_system`` call on it; each seed takes the
      first size that lowers its residual norm enough;
    - a seed stops for good when its step is singular, no step size is
      taken, or its norm passes 1e10; it converges below 1e-12.  Stopped
      seeds are written out to the returned states;
    - the next ``B`` is one column take of ``C``: the accepted candidates
      of the seeds that go on.

    Seeds never interact and every operation works element by element, so
    the result is the same, bit for bit, as running each seed on its own
    and trying the step sizes in order.

    The buffers' rows hold the state, the residuals, the constraint
    gradients, the intermediates the Jacobian reuses, ``-G``, the entries
    of ``-W``, the deflation entries and a 0.0 and a -0.0 row (see
    ``_case1_buffer``), so the Jacobian is one gather of rows and no seed
    is gathered or scattered by index until it stops.  On the seed-7
    ``rotated-flat`` rounds 0-10 of the benchmark (32 seeds, all 60
    iterations) a call spends 35% of its time in the line-search systems
    on the 8 m candidate columns, 24% in the batched 16 x 16 solves, 14%
    building the Jacobians, 13% writing the candidates and choosing the
    step sizes, 6% in the column takes and 2% on stopped seeds; the seeds
    and the set-up take the rest.
    """
    Z = _case1_seeds(sx, sy, seed_count)
    B = _case1_buffer(seed_count)
    B[0:_N_UNKNOWNS] = Z.T
    _case1_system(sx, sy, B)
    norms = np.abs(B[_F:_G]).max(axis=0)
    C = _case1_buffer(_LINE_SEARCH_STEPS.size * seed_count)
    index = np.arange(seed_count)
    cols = index  # the seed of each column of B
    done = np.zeros(seed_count, dtype=bool)
    ts = _LINE_SEARCH_STEPS[:, None]

    for _ in range(60):
        m = cols.size
        if not m:
            break
        steps, ok = _newton_steps(_case1_jacobian(B), B[_F:_G].T)
        S = C[:, : ts.size * m]
        Zc = S[0:_N_UNKNOWNS].reshape(_N_UNKNOWNS, ts.size, m)
        np.multiply(ts, steps.T[:, None, :], out=Zc)
        np.add(B[0:_N_UNKNOWNS, None, :], Zc, out=Zc)
        _case1_system(sx, sy, S)
        nc = np.abs(S[_F:_G]).max(axis=0).reshape(ts.size, m)
        acc = nc < norms * _SUFFICIENT_DECREASE  # False where nc is NaN or inf
        took = acc.any(axis=0) & ok
        src = acc.argmax(axis=0) * m + index[:m]  # each seed's first taken candidate
        norms = nc.ravel()[src]
        go_on = took & (norms >= 1e-12) & (norms <= 1e10)
        if not go_on.all():
            ended = took & ~go_on  # converged or diverged
            Z[cols[~took]] = B[0:_N_UNKNOWNS, ~took].T
            Z[cols[ended]] = S[0:_N_UNKNOWNS, src[ended]].T
            done[cols[ended & (norms < 1e-12)]] = True
            cols, src, norms = cols[go_on], src[go_on], norms[go_on]
        B = S.take(src, axis=1)
    Z[cols] = B[0:_N_UNKNOWNS].T
    alive = done.copy()
    alive[cols] = True
    return Z, alive, done


def case1_numeric(inp: RotatedInput, seed_count: int = 32) -> list[RotatedCandidate]:
    """Non-symmetric critical points by deterministic multi-start Newton.

    The full first-order system (six constraints, nine stationarity rows
    and the deflation row ``1 - k*(y0+y1)``) is solved by a damped Newton
    iteration from ``seed_count`` low-discrepancy seeds, with the analytic
    Jacobian of ``_case1_jacobian``, batched across seeds and line-search
    step sizes; the states equal those of running each seed on its own, bit
    for bit.  Converged states (residual below 1e-12) are filtered: positive
    burn sizes, ``|y0+y1| > 1e-6``, elliptic transfer, plan residuals below
    1e-9.  The list is often empty — for many inputs this family has no
    real solution.

    The ``|y0+y1|`` filter, not the deflation row, drops the symmetric
    points.  Column 15 (``k``) of the Jacobian is zero in rows 0-14, so the
    row never changes the Newton direction in the other 15 unknowns; it
    enters only the residual norm of the line search, which shortens the
    steps of seeds near ``y0 + y1 = 0`` and keeps them from converging
    there.  On the seed-7 rounds 0-10 of the benchmark, 131 of the 579
    seeds still live at the cap on the alpha = 180 cells, and 131 of 364 on
    the generic cells, have rows 0-14 below 1e-3 and ``|row 15| >= 0.05``.

    The seeds are retrograde only (``l < 0``, see ``_case1_seeds``).  That
    rests on evidence, not on a proof: on 252 cells (seeded benchmark
    inputs, a 9 x 10 grid in e and alpha, and 60 random cells) none of the
    8,064 prograde seeds of the former all-sign sequence converged, and all
    158 case-1 points were retrograde.  The default 32 seeds are exactly
    the retrograde half of the former 64, so the list is unchanged on those
    cells.  No seed searches the prograde half, so a prograde case-1 point
    would be missed.  The seeds do not make the list complete either: on
    ``params_from_angle(0.9, 90)`` the default 32 miss a pair at
    f1 = 3.6076 that 128 seeds find.

    Every input runs all 60 iterations: on 314 measured cells at least one
    seed was still live at the cap, most of them stuck near the symmetric
    manifold, and no rule on consecutive slow iterations that spares every
    converging seed stops most of the stuck ones (converging seeds spent up
    to 24 iterations in a row under 1% progress).  An iteration costs NumPy
    dispatch more than arithmetic, so the live seeds are the columns of one
    unknown-major buffer, with the two burns stacked; ``_case1_newton``
    gives the layout and where an iteration's time goes.

    Raises ``ValueError`` unless ``seed_count`` is a positive int.
    """
    integral = isinstance(seed_count, (int, np.integer)) and not isinstance(seed_count, bool)
    if not integral or seed_count < 1:
        raise ValueError("seed_count must be a positive int")
    if inp.s0x == 0:
        return []
    sx, sy = inp.s0x_float, inp.s0y_float
    Z, _, done = _case1_newton(sx, sy, int(seed_count))

    out: list[RotatedCandidate] = []
    for i in np.flatnonzero(done):
        x0, y0, x1, y1, s1x, s1y, lv, d0, d1 = Z[i, 0:9]
        if d0 <= 1e-9 or d1 <= 1e-9:
            continue
        if abs(y0 + y1) <= 1e-6 or abs(lv) < 1e-9:
            continue
        try:
            cand = _assemble(
                inp, "case1", x0, y0, x1, y1, lv, s1x, s1y,
                note="non-symmetric stationary point",
            )
        except EllipticityViolation:
            logger.info("case1 seed %d rejected: transfer orbit not elliptic", i)
            continue
        if cand is not None:
            out.append(cand)
    return _sorted_unique(out)


# --------------------------------------------------------------------------
# winner selection, apse-line reference transfer, sweeps
# --------------------------------------------------------------------------


def elimination_degrees(inp: RotatedInput) -> dict[str, int]:
    """Observed eliminant degrees for this input (asserted internally).

    Keys: ``mirror_full`` (48, the degree of ``E^2 - u O^2``) and
    ``mirror_core`` (20, the degree of the core from ``MIRROR_CORE``), and
    — when ``s0y != 0`` so the generic antipodal elimination applies —
    ``antipodal_full`` (69, the degree of ``h(l) = H(l, r(l))``) and
    ``antipodal_core`` (38, ``h`` without ``l^11 (l-1)^10 (l+1)^10``).
    Each full degree is summed from the degrees of the known factors and
    the core, ``8 + 6 + 6 + 4*2 + 20`` and ``11 + 10 + 10 + 38``; the
    antipodal core's 38 is the signature ``q2 c3 c3' q4 C^4 Q5 Q5'``
    (degrees 2, 3, 3, 4, 4*4, 5, 5), certified once
    (``CERT_antipodal.json``).  Both identities are guarded per input at
    two nodes on the data evaluated from the tables.
    """
    if inp.s0x == 0:
        raise DegenerateGeometry("identical orbits have no elimination pipeline")
    pipe_a = _mirror_pipeline(inp.s0x, inp.s0y)
    out = {
        "mirror_full": pipe_a.degree_full,
        "mirror_core": pipe_a.degree_core,
    }
    if inp.s0y != 0:
        pipe_b = _antipodal_pipeline(inp.s0x, inp.s0y)
        out["antipodal_full"] = pipe_b.degree_full
        out["antipodal_core"] = pipe_b.degree_core
    return out


_ALL_CASES = ("1", "2a", "2b")


def best_rotated_transfer(
    inp: RotatedInput, cases: Sequence[str] = _ALL_CASES
) -> tuple[RotatedCandidate, list[RotatedCandidate]]:
    """Global minimum-cost candidate and the full ranked candidate list.

    Runs every enabled family solver (``cases`` may restrict to a subset of
    ``{"1", "2a", "2b"}``), pools the validated candidates, and returns the
    cheapest one together with the whole pool sorted by cost.  For
    identical orbits (``s0x = 0``, circular included) the axis closed form
    already produces the zero-cost do-nothing plan and the other families
    are skipped.
    """
    cases = tuple(cases)
    unknown = set(cases) - set(_ALL_CASES)
    if unknown:
        raise ValueError(f"unknown case selector(s): {sorted(unknown)}")
    pool: list[RotatedCandidate] = []
    if "2a" in cases:
        pool.extend(case2a_axis_solutions(inp))
        if inp.s0x != 0:
            pool.extend(case2a_general(inp))
    if "2b" in cases and inp.s0x != 0:
        pool.extend(case2b_solutions(inp))
    if "1" in cases and inp.s0x != 0:
        pool.extend(case1_numeric(inp))
    ranked = _sorted_unique(pool)
    if not ranked:
        raise DegenerateGeometry(
            "no valid candidate for this input with the selected cases"
        )
    return ranked[0], ranked


_SCREEN_RTOL = 1e-14  # a few ulps: the vector screen's hypot may round apart


def _inf_where(outside: bool, value: float) -> float:
    return math.inf if outside else value


# (hypot, inf mask) for one float, and for a NumPy array of samples
_SCALAR = (math.hypot, _inf_where)
_VECTOR = (np.hypot, lambda outside, value: np.where(outside, np.inf, value))


def _scan_and_refine(cost, lo: float, hi: float, samples: int = 400) -> float:
    """Minimum of ``cost`` over [lo, hi]: dense scan, golden-section refinement.

    ``cost(x, ops)`` is one expression that takes either a float with
    ``ops = _SCALAR`` or an array with ``ops = _VECTOR``; the two differ only
    in ``hypot`` and in how the non-elliptic ``inf`` mask is applied.  One
    vectorized pass screens the samples, then every sample whose screened
    value lies within a relative ``_SCREEN_RTOL`` of the screened minimum
    is evaluated again in floats, so the chosen sample and its value are
    exactly those of a scan that evaluates every sample in floats (the
    first of the smallest).  The golden-section refinement runs in floats.
    """
    if hi <= lo:
        return math.inf
    xs = np.linspace(lo, hi, samples)
    screen = cost(xs, _VECTOR)
    # NaN fails the comparison, so a NaN sample (or minimum) is re-checked
    near = np.flatnonzero(~(screen > screen.min() * (1.0 + _SCREEN_RTOL)))

    def fn(x: float) -> float:
        return cost(x, _SCALAR)

    vals = [fn(float(xs[j])) for j in near]
    k = int(np.argmin(vals))
    i, best = int(near[k]), vals[k]
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, samples - 1)])
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-12:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return min(float(best), fc, fd)


def apogee_to_apogee_cost(inp: RotatedInput) -> float:
    """Cheapest two-impulse transfer burning at the two apogees.

    The burn points are fixed at the apogee of each orbit; the transfer
    orbit through them is a one- or two-parameter family (antiparallel
    apogees leave a free velocity component), minimized by
    :func:`_scan_and_refine`: one vectorized screen of 400 samples, a
    re-check in floats of the samples nearest the screened minimum, and a
    golden-section refinement in floats.  This is the classical apse-line
    reference maneuver the free-burn optimum is compared against.

    Raises :class:`DegenerateGeometry` for circular inputs (no apse line)
    and for identical orbits (``alpha = 0``: the apogees coincide).
    """
    ecc = inp.eccentricity
    if ecc < 1e-9:
        raise DegenerateGeometry("circular orbits define no apse line")
    if inp.s0x == 0:
        raise DegenerateGeometry("identical orbits: the apogees coincide")
    sx, sy = inp.s0x_float, inp.s0y_float
    r0 = (-sy / ecc, sx / ecc)
    r1 = (-sy / ecc, -sx / ecc)
    k0 = 1.0 - ecc
    k1 = 1.0 - ecc
    w0 = (sx - r0[1], sy + r0[0])
    w1 = (-sx - r1[1], sy + r1[0])
    cross = r0[0] * r1[1] - r0[1] * r1[0]

    if abs(cross) < 1e-12:
        # antiparallel apogees: fixed |l|, s free along the apse line
        lmag = math.sqrt((k0 + k1) / 2.0)
        t_hat = (-r0[1], r0[0])
        best = math.inf
        for lz in (lmag, -lmag):
            b = (k0 - k1) / (2.0 * lz)
            amax = math.sqrt(max(lz * lz - b * b, 0.0)) - 1e-9

            def cost(a, ops, lz=lz, b=b):
                hypot = ops[0]
                svec = (a * r0[0] + b * t_hat[0], a * r0[1] + b * t_hat[1])
                w0c = (svec[0] + lz * t_hat[0], svec[1] + lz * t_hat[1])
                w1c = (svec[0] - lz * t_hat[0], svec[1] - lz * t_hat[1])
                return hypot(w0c[0] - w0[0], w0c[1] - w0[1]) + hypot(
                    w1c[0] - w1[0], w1c[1] - w1[1]
                )

            best = min(best, _scan_and_refine(cost, -amax, amax))
        return best

    def solved_s(lz):
        # radius constraints: lz^2 + lz*(sy_*rx - sx_*ry) = k at both apogees
        a00, a01 = -lz * r0[1], lz * r0[0]
        a10, a11 = -lz * r1[1], lz * r1[0]
        b0, b1 = k0 - lz * lz, k1 - lz * lz
        det = a00 * a11 - a01 * a10
        return (
            (b0 * a11 - b1 * a01) / det,
            (a00 * b1 - a10 * b0) / det,
        )

    def cost_or_inf(lz, ops):
        hypot, inf_where = ops
        sx_, sy_ = solved_s(lz)
        w0c = (sx_ - lz * r0[1], sy_ + lz * r0[0])
        w1c = (sx_ - lz * r1[1], sy_ + lz * r1[0])
        return inf_where(
            sx_ * sx_ + sy_ * sy_ >= lz * lz - 1e-12,
            hypot(w0c[0] - w0[0], w0c[1] - w0[1]) + hypot(w1c[0] - w1[0], w1c[1] - w1[1]),
        )

    lo = math.sqrt(max(k0, k1) / 2.0) * (1.0 + 1e-9)
    hi = 3.0
    best = math.inf
    for sign in (1.0, -1.0):
        best = min(best, _scan_and_refine(lambda t, ops: cost_or_inf(sign * t, ops), lo, hi))
    return best


@dataclass(frozen=True)
class SweepRecord:
    """One cell of an (eccentricity, rotation-angle) parameter sweep."""

    e: float
    alpha: float
    a: int
    b: int
    best_f1: float
    best_case: str
    separation_deg: float
    apogee_f1: float
    ratio_pct: float
    case1_found: bool
    case2b_best_f1: float


SWEEP_COLUMNS = (
    "e",
    "alpha",
    "a",
    "b",
    "best_f1",
    "best_case",
    "separation_deg",
    "apogee_f1",
    "ratio_pct",
    "case1_found",
    "case2b_best_f1",
)


def sweep_record_as_dict(r: SweepRecord) -> dict:
    return {name: getattr(r, name) for name in SWEEP_COLUMNS}


def _sweep_cell(e: float, alpha: float) -> SweepRecord:
    inp = params_from_angle(e, alpha)
    winner, ranked = best_rotated_transfer(inp)
    try:
        apogee = apogee_to_apogee_cost(inp)
    except DegenerateGeometry:
        apogee = math.nan
    ratio = 100.0 * winner.f1 / apogee if apogee and math.isfinite(apogee) else math.nan
    two_b = [c.f1 for c in ranked if c.case_tag.startswith("case2b")]
    return SweepRecord(
        e=e,
        alpha=alpha,
        a=inp.a if inp.a is not None else 0,
        b=inp.b if inp.b is not None else 0,
        best_f1=winner.f1,
        best_case=winner.case_tag,
        separation_deg=winner.separation_angle_deg,
        apogee_f1=apogee,
        ratio_pct=ratio,
        case1_found=any(c.case_tag == "case1" for c in ranked),
        case2b_best_f1=min(two_b) if two_b else math.nan,
    )


def sweep_rotated(
    e_values: Sequence[float],
    alpha_values: Sequence[float],
) -> list[SweepRecord]:
    """Solve every (e, alpha) cell; deterministic row order (e outer)."""
    return [_sweep_cell(e, a) for e in e_values for a in alpha_values]
