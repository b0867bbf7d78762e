"""Closed-form minimum-fuel two-impulse transfers between circular orbits.

Both endpoint orbits are concentric circles in the ``z = 0`` plane, either
co- or counter-rotating, described by the signed ``z``-components ``l0z``
and ``l2z`` of their ``l`` vectors (sign = rotation sense, ``1/l**2`` =
radius).  The first burn happens on the ``+x`` axis.

Four solution families cover the whole input space:

- ``coplanar``      the classical tangent-ellipse transfer (both signs of
                    the transfer orbit's ``l1z``; the sign matching
                    ``sign(l0z + l2z)`` is the cheaper one),
- ``out_of_plane``  an inclined transfer orbit through both burn points on
                    the x-axis; exists only for counter-rotating endpoints
                    with radius ratio in a narrow window,
- ``same_orbit``    endpoints identical, nothing to do,
- ``reversal``      same circle traversed in opposite senses; the optimum
                    reverses the velocity in two collinear burns at one
                    point.

The closed forms come from eliminating the stationarity system of the
two-burn cost (see ``tests`` for the Lagrange-multiplier residual checks);
this module only evaluates them and packages the results as verifiable
:class:`~orbita.transfer_model.TransferPlan` objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kepler import Orbit, Vec3, circular_orbit
from .poly_kernel import RatPoly, isolate_real_roots, refine_root
from .transfer_model import TransferPlan

__all__ = [
    "BranchSignMismatch",
    "HohmannInput",
    "HohmannBranchSolution",
    "OUT_OF_PLANE_WINDOW",
    "solve_coplanar",
    "solve_out_of_plane",
    "solve_same_radius_cases",
    "best_transfer",
]


def _out_of_plane_window() -> tuple[float, float]:
    """Ratio window ``(a_lo, a_hi)`` of ``l2z/l0z`` admitting the inclined branch.

    The bounds are the two real roots of ``a**4 + 2*a**3 + 2*a + 1``,
    isolated and refined by the exact kernel at import time.
    """
    quartic = RatPoly([1, 2, 0, 2, 1])
    lo, hi = (refine_root(quartic, iv) for iv in isolate_real_roots(quartic))
    return (lo, hi)


#: ``l2z/l0z`` must fall strictly inside this (negative) interval for the
#: out-of-plane branch to exist.
OUT_OF_PLANE_WINDOW: tuple[float, float] = _out_of_plane_window()

class BranchSignMismatch(ArithmeticError):
    """The cheaper coplanar transfer does not rotate with ``l0z + l2z``.

    The closed form guarantees that it does, so this signals a broken
    invariant, not bad input.
    """


_FIRST_BURN_DIR = Vec3(1.0, 0.0, 0.0)
_SECOND_BURN_DIR = Vec3(-1.0, 0.0, 0.0)
_Z = Vec3(0.0, 0.0, 1.0)


@dataclass(frozen=True)
class HohmannInput:
    """Signed ``l_z`` components of the two circular endpoint orbits."""

    l0z: float
    l2z: float

    def __post_init__(self):
        for name, value in (("l0z", self.l0z), ("l2z", self.l2z)):
            if not math.isfinite(value) or value == 0.0:
                raise ValueError(f"{name} must be finite and non-zero")

    def orbits(self) -> tuple[Orbit, Orbit]:
        return (
            Orbit(l=Vec3(0.0, 0.0, self.l0z), s=Vec3(0.0, 0.0, 0.0)),
            Orbit(l=Vec3(0.0, 0.0, self.l2z), s=Vec3(0.0, 0.0, 0.0)),
        )


@dataclass(frozen=True)
class HohmannBranchSolution:
    """One candidate transfer: concrete plan, its cost, and provenance.

    ``tie`` marks the counter-rotating equal-radius knife edge
    (``l0z + l2z == 0``) where both signs of the coplanar transfer's
    ``l1z`` cost exactly the same.
    """

    plan: TransferPlan
    f1: float
    branch: str  # "coplanar" | "out_of_plane" | "same_orbit" | "reversal"
    feasible: bool
    tie: bool = False


def solve_coplanar(inp: HohmannInput) -> list[HohmannBranchSolution]:
    """Both coplanar stationary transfers, cheapest first.

    Each solution burns at ``(1, 0, 0)`` and ``(-1, 0, 0)`` and rides an
    ellipse with ``l1z = ±sqrt((l0z**2 + l2z**2)/2)`` that touches both
    circles tangentially; the leading entry's ``l1z`` carries the sign of
    ``l0z + l2z`` (they tie when that sum is zero).
    """
    l0z, l2z = inp.l0z, inp.l2z
    orbit0, orbit2 = inp.orbits()
    qsum = l0z * l0z + l2z * l2z
    half_rms = math.sqrt(qsum / 2.0)
    shape = (l0z * l0z - l2z * l2z) / qsum
    tie = l0z + l2z == 0.0

    out = []
    for sign in (1.0, -1.0):
        l1z = sign * half_rms
        s1y = shape * l1z
        orbit1 = Orbit(l=Vec3(0.0, 0.0, l1z), s=Vec3(0.0, s1y, 0.0))
        plan = TransferPlan(
            orbits=(orbit0, orbit1, orbit2),
            burn_points=(_FIRST_BURN_DIR, _SECOND_BURN_DIR),
        )
        root = math.sqrt(qsum)
        f1 = abs(sign * math.sqrt(2.0) * l0z * l0z / root - l0z) + abs(
            sign * math.sqrt(2.0) * l2z * l2z / root - l2z
        )
        out.append(HohmannBranchSolution(plan, f1, "coplanar", True, tie))

    out.sort(key=lambda sol: sol.f1)
    if not tie:
        best_sign = math.copysign(1.0, out[0].plan.orbits[1].l.z)
        if best_sign != math.copysign(1.0, l0z + l2z):
            raise BranchSignMismatch(
                f"cheaper coplanar l1z has sign {best_sign:+.0f}, "
                f"l0z + l2z = {l0z + l2z!r}"
            )
    return out


def solve_out_of_plane(inp: HohmannInput) -> list[HohmannBranchSolution]:
    """Both inclined stationary transfers, or ``[]`` when none exist.

    The transfer orbit leaves the endpoint plane (``l1 = (0, l1y, l1z)``
    with ``l1y != 0``) while still burning on the x-axis at ``(1, 0, 0)``
    and ``(-1, 0, 0)``.  Solutions exist only when ``l2z/l0z`` lies
    strictly inside :data:`OUT_OF_PLANE_WINDOW` (in particular the
    endpoints must counter-rotate); the two entries mirror each other in
    the endpoint plane and always cost more than the coplanar optimum.
    """
    l0z, l2z = inp.l0z, inp.l2z
    ratio = l2z / l0z
    lo, hi = OUT_OF_PLANE_WINDOW
    if not lo < ratio < hi:
        return []

    num = (
        l0z**5
        + l0z**4 * l2z
        + 4.0 * l0z**3 * l2z**2
        + 4.0 * l0z**2 * l2z**3
        + l0z * l2z**4
        + l2z**5
    )
    den = 4.0 * l0z * l2z * (l0z * l0z + l0z * l2z + l2z * l2z)
    l1z = num / den
    qsum = l0z * l0z + l2z * l2z
    disc = qsum / 2.0 - l1z * l1z
    if disc <= 0.0:
        # Float rounding right at the window boundary; the inclined branch
        # has already merged with the coplanar one.
        return []

    orbit0, orbit2 = inp.orbits()
    shape = (l0z * l0z - l2z * l2z) / qsum
    s1y = shape * l1z
    out = []
    for l1y in (math.sqrt(disc), -math.sqrt(disc)):
        s1z = -shape * l1y
        orbit1 = Orbit(l=Vec3(0.0, l1y, l1z), s=Vec3(0.0, s1y, s1z))
        plan = TransferPlan(
            orbits=(orbit0, orbit1, orbit2),
            burn_points=(_FIRST_BURN_DIR, _SECOND_BURN_DIR),
        )
        delta0 = math.hypot(s1y + l1z - l0z, s1z - l1y)
        delta1 = math.hypot(s1y - l1z + l2z, s1z + l1y)
        out.append(
            HohmannBranchSolution(plan, delta0 + delta1, "out_of_plane", True)
        )
    return out


def solve_same_radius_cases(inp: HohmannInput) -> HohmannBranchSolution:
    """Degenerate equal-radius transfer: do nothing, or reverse in place.

    Requires ``|l0z| == |l2z|`` within ``1e-12``.  Co-rotating endpoints
    are the same orbit (cost 0).  Counter-rotating endpoints need the
    velocity reversed, which costs ``2*|w0| = 2*|l0z|`` however it is
    split; the returned plan is one representative of the infinitely many
    optima, spending both burns at ``(1, 0, 0)`` with the intermediate
    ellipse chosen so the mid-velocity sits between the two endpoint
    velocities.
    """
    l0z, l2z = inp.l0z, inp.l2z
    if abs(abs(l0z) - abs(l2z)) > 1e-12:
        raise ValueError("solve_same_radius_cases requires |l0z| == |l2z|")
    orbit0, orbit2 = inp.orbits()

    if math.copysign(1.0, l0z) == math.copysign(1.0, l2z):
        plan = TransferPlan(
            orbits=(orbit0, orbit0, orbit2),
            burn_points=(_FIRST_BURN_DIR, _FIRST_BURN_DIR),
        )
        return HohmannBranchSolution(plan, 0.0, "same_orbit", True)

    # Reversal: w goes from (0, l0z, 0) to (0, -l0z, 0) in two collinear
    # steps.  Intermediate ellipse with l1z = sqrt(2)*l0z, s1y = -l0z/sqrt(2)
    # passes through the burn point at the same radius (l1z**2 + s1y*l1z =
    # l0z**2 exactly) with mid-velocity (0, l0z/sqrt(2), 0) on the segment
    # between the endpoint velocities, so the two burns sum to 2*|l0z|.
    l1z = math.sqrt(2.0) * l0z
    s1y = -l0z / math.sqrt(2.0)
    orbit1 = Orbit(l=Vec3(0.0, 0.0, l1z), s=Vec3(0.0, s1y, 0.0))
    plan = TransferPlan(
        orbits=(orbit0, orbit1, orbit2),
        burn_points=(_FIRST_BURN_DIR, _FIRST_BURN_DIR),
    )
    return HohmannBranchSolution(plan, 2.0 * abs(l0z), "reversal", True)


def best_transfer(
    r0: float, r2: float, dir0: int, dir2: int
) -> HohmannBranchSolution:
    """Overall cheapest two-impulse transfer between two circular orbits.

    ``r0`` and ``r2`` are the orbit radii (canonical units, attractor at
    the origin), ``dir0``/``dir2`` the rotation senses (``+1`` or ``-1``).
    Collects every applicable closed-form branch and returns the
    ``f1``-minimum; for co-rotating endpoints this is the classical
    tangent-ellipse transfer.
    """
    for name, value in (("r0", r0), ("r2", r2)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite")
    for name, value in (("dir0", dir0), ("dir2", dir2)):
        if value not in (1, -1):
            raise ValueError(f"{name} must be +1 or -1")

    orbit0 = circular_orbit(r0, dir0 * _Z)
    orbit2 = circular_orbit(r2, dir2 * _Z)
    inp = HohmannInput(orbit0.l.z, orbit2.l.z)

    candidates: list[HohmannBranchSolution] = []
    if abs(abs(inp.l0z) - abs(inp.l2z)) <= 1e-12:
        candidates.append(solve_same_radius_cases(inp))
    candidates.extend(solve_coplanar(inp))
    candidates.extend(solve_out_of_plane(inp))
    return min(candidates, key=lambda sol: sol.f1)
