"""Minimum squared-impulse transfers between two fixed endpoint states.

Given a departure state (position ``r0``, normalized velocity ``w0``) and an
arrival state (``r1``, ``w1star``), find the connecting orbit and the pair of
velocity changes ``(w0star - w0, w1star - w1)`` minimizing the summed squared
speed change

    f2 = |w0star - w0|^2 + |w1star - w1|^2,

where ``w0star`` is the velocity on the connecting orbit as it leaves ``r0``
and ``w1`` its velocity when it reaches ``r1``.  Velocities here are physical
velocity divided by the square root of the gravitational parameter, as
everywhere in this package.

The solver works in a canonical frame where ``r0`` points along ``+x`` and
``r1`` lies in the upper (``y > 0``) half of the ``x``-``y`` plane; the
connecting orbit then lives entirely in that plane.  Writing the connecting
orbit's inverse-length vector as ``(0, 0, l)`` and its velocity offset as
``(sx, sy, 0)``, the two endpoint-radius constraints are polynomial,

    q1 = l^2 + l*sy          - k0 = 0
    q2 = l^2 + l*(x1*sy - y1*sx) - k1 = 0,

with ``k0 = 1/|r0|``, ``k1 = 1/|r1|`` and ``(x1, y1)`` the unit direction of
``r1``.  Critical points of ``f2`` on this constraint surface satisfy a third
polynomial (a 3x3 Jacobian determinant).  Eliminating ``sx`` and ``sy`` with
Sylvester resultants leaves ``l^3`` times a quartic with no ``l^2`` term,
``c4*l^4 + c3*l^3 + c1*l + c0``, whose coefficients the solver evaluates in
closed form over the rationals (:func:`critical_eliminant_exact`; the tests
prove the identity symbolically).  No further power of ``l`` divides it:
``c0 = -4*y1*((k0*x1 - k1)^2 + k0^2*y1^2)`` is nonzero for ``y1 > 0``.  Its
real roots enumerate every candidate transfer, none lost or invented by
rounding; candidates are then screened by a float stationarity check and by
ellipticity of the recovered orbit.

Two degenerate geometries fall outside the planar frame and get closed forms
instead: endpoint positions along the same ray (``aligned_same``) and along
opposite rays (``aligned_opposite``).  :func:`solve` dispatches between the
three cases.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass
from fractions import Fraction

from .kepler import DegenerateOrbit, Orbit, Vec3
from .poly_kernel import (
    RatPoly,
    isolate_real_roots,
    refine_root,
    strip_known_factors,
    sylvester_resultant,
)

__all__ = [
    "CollinearInput",
    "RadiusMismatch",
    "NoEllipticCandidate",
    "LambertInput",
    "LambertSolution",
    "CanonicalFrame",
    "canonical_frame",
    "critical_eliminant",
    "critical_eliminant_exact",
    "lambert_input_as_dict",
    "lambert_input_from_dict",
    "solve_general",
    "solve_aligned_same",
    "solve_aligned_opposite",
    "solve",
]

logger = logging.getLogger(__name__)

# Below this sine of the separation angle the two endpoint rays are treated
# as collinear and the planar canonical frame is refused.
_COLLINEAR_SIN = 1e-10

# Eliminant roots with |l| below this bound are discarded: l = 0 means an
# infinite-radius "orbit" and always shows up as a spurious factor of the
# resultant, never as a genuine critical point.
_MIN_ROOT_L = 1e-9

# A candidate root must satisfy the first-order optimality conditions to this
# absolute tolerance; resultant side-roots (solutions of the eliminant that do
# not extend to the full system) fail it by many orders of magnitude.
_STATIONARITY_TOL = 1e-8

# Unused by the solver; bound only because perfbench/spans.py wraps them here.
_WRAPPED_BY_PERFBENCH = (sylvester_resultant, strip_known_factors)


class CollinearInput(ValueError):
    """Endpoint positions lie on one line through the attractor.

    The plane through the two positions is then undefined, so the planar
    formulation does not apply; use the aligned-case solvers instead.
    """


class RadiusMismatch(ValueError):
    """Same-ray endpoints at different radii admit no such transfer.

    When both positions lie on the same ray the transfer orbit would have to
    pass through both at the single crossing of that ray, which forces the two
    radii to agree.
    """


class NoEllipticCandidate(ValueError):
    """No critical point of the cost yields a bound (elliptic) orbit."""


# --------------------------------------------------------------------------
# Input / output containers


@dataclass(frozen=True)
class LambertInput:
    """Endpoint states for a fixed-endpoint transfer.

    ``r0`` and ``r1`` are the departure and arrival positions; ``w0`` is the
    current normalized velocity at ``r0`` and ``w1star`` the normalized
    velocity required at ``r1`` after the second impulse.
    """

    r0: Vec3
    r1: Vec3
    w0: Vec3
    w1star: Vec3

    def __post_init__(self) -> None:
        for name in ("r0", "r1", "w0", "w1star"):
            v = getattr(self, name)
            if not isinstance(v, Vec3):
                object.__setattr__(self, name, Vec3.of(v))
        for name in ("r0", "r1"):
            v = getattr(self, name)
            if not all(math.isfinite(c) for c in v.as_tuple()):
                raise ValueError(f"{name} must be finite, got {v}")
            if v.norm() <= 1e-12:
                raise ValueError(f"{name} must be nonzero, got {v}")
        for name in ("w0", "w1star"):
            v = getattr(self, name)
            if not all(math.isfinite(c) for c in v.as_tuple()):
                raise ValueError(f"{name} must be finite, got {v}")

    # Scalar shape parameters (meaningful once the input is in the canonical
    # frame; harmless to read in any frame).

    @property
    def k0(self) -> float:
        """Inverse departure radius ``1/|r0|``."""
        return 1.0 / self.r0.norm()

    @property
    def k1(self) -> float:
        """Inverse arrival radius ``1/|r1|``."""
        return 1.0 / self.r1.norm()

    @property
    def x1(self) -> float:
        """x-component of the unit arrival direction."""
        return self.r1.unit().x

    @property
    def y1(self) -> float:
        """y-component of the unit arrival direction."""
        return self.r1.unit().y


@dataclass(frozen=True)
class LambertSolution:
    """One critical point of the squared-impulse cost.

    ``orbit1`` is the connecting orbit, ``w0star`` its normalized velocity
    leaving ``r0`` and ``w1`` its normalized velocity arriving at ``r1``, all
    expressed in the same frame as the input that produced them.  ``f2`` is
    the summed squared impulse and ``stationarity_residual`` the norm of the
    projected cost gradient at the point (small for genuine critical points).
    ``case_tag`` records which geometry produced the solution and
    ``is_minimum`` marks the cheapest candidate of its batch.
    """

    orbit1: Orbit
    w0star: Vec3
    w1: Vec3
    f2: float
    case_tag: str
    stationarity_residual: float
    is_minimum: bool = False


def lambert_input_as_dict(inp: LambertInput) -> dict:
    """JSON-ready mapping of the four endpoint vectors."""
    return {
        "r0": list(inp.r0.as_tuple()),
        "r1": list(inp.r1.as_tuple()),
        "w0": list(inp.w0.as_tuple()),
        "w1star": list(inp.w1star.as_tuple()),
    }


def lambert_input_from_dict(d: dict) -> LambertInput:
    """Inverse of :func:`lambert_input_as_dict`."""
    try:
        return LambertInput(
            r0=Vec3.of(d["r0"]),
            r1=Vec3.of(d["r1"]),
            w0=Vec3.of(d["w0"]),
            w1star=Vec3.of(d["w1star"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed endpoint mapping: {exc}") from exc


# --------------------------------------------------------------------------
# Canonical frame


@dataclass(frozen=True)
class CanonicalFrame:
    """Orthonormal frame mapping world vectors into the working plane.

    ``rows`` are the frame's basis vectors expressed in world coordinates:
    ``ex`` along the departure position, ``ez`` along the orbit normal and
    ``ey`` completing the right-handed triad, so that framed coordinates of a
    world vector ``v`` are the dot products ``(v.ex, v.ey, v.ez)``.
    """

    ex: Vec3
    ey: Vec3
    ez: Vec3

    @classmethod
    def identity(cls) -> "CanonicalFrame":
        return cls(Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0))

    def to_frame(self, v: Vec3) -> Vec3:
        """World coordinates -> frame coordinates."""
        return Vec3(v.dot(self.ex), v.dot(self.ey), v.dot(self.ez))

    def to_world(self, v: Vec3) -> Vec3:
        """Frame coordinates -> world coordinates."""
        x, y, z = v
        ex, ey, ez = self.ex, self.ey, self.ez
        return Vec3(
            ex.x * x + ey.x * y + ez.x * z,
            ex.y * x + ey.y * y + ez.y * z,
            ex.z * x + ey.z * y + ez.z * z,
        )


def canonical_frame(inp: LambertInput) -> tuple[LambertInput, CanonicalFrame]:
    """Rotate the endpoint states into the solver's working frame.

    The frame puts ``r0`` on the positive x axis and ``r1`` in the upper half
    of the x-y plane (its y coordinate is the sine of the separation angle,
    hence strictly positive).  Raises :class:`CollinearInput` when the two
    positions are parallel or antiparallel to within a tight tolerance, since
    no plane is then preferred.
    """
    rhat0 = inp.r0.unit()
    rhat1 = inp.r1.unit()
    normal = rhat0.cross(rhat1)
    if normal.norm() <= _COLLINEAR_SIN:
        raise CollinearInput(
            "endpoint positions are collinear with the attractor "
            f"(|rhat0 x rhat1| = {normal.norm():.3e}); "
            "use the aligned-case solvers"
        )
    ez = normal.unit()
    frame = CanonicalFrame(ex=rhat0, ey=ez.cross(rhat0), ez=ez)
    framed = LambertInput(
        r0=frame.to_frame(inp.r0),
        r1=frame.to_frame(inp.r1),
        w0=frame.to_frame(inp.w0),
        w1star=frame.to_frame(inp.w1star),
    )
    return framed, frame


# --------------------------------------------------------------------------
# General planar case


def critical_eliminant(inp: LambertInput) -> RatPoly:
    """Exact univariate eliminant of the critical-point system.

    Convenience wrapper over :func:`critical_eliminant_exact` that reads the
    shape parameters off a canonical-frame input; every float converts to a
    rational without rounding.
    """
    return critical_eliminant_exact(
        inp.k0,
        inp.k1,
        inp.x1,
        inp.y1,
        inp.w0.as_tuple(),
        inp.w1star.as_tuple(),
    )


def critical_eliminant_exact(k0, k1, x1, y1, w0, w1s) -> RatPoly:
    """Univariate eliminant from exact scalar parameters.

    Accepts exact rationals (ints, fractions, floats: anything with
    ``as_integer_ratio``) for the inverse radii ``k0``/``k1``, the arrival
    direction ``(x1, y1)`` and the velocity triples ``w0``/``w1s``.
    Eliminating ``sx`` from ``q2`` and the Jacobian determinant, then ``sy``
    with ``q1``, gives ``l^3`` times ``c4*l^4 + c3*l^3 + c1*l + c0`` (no
    ``l^2`` term), where

        c4 =  2*y1*(x1^2*y1^2 + 2*x1^2 - 4*x1 + y1^4 - y1^2 + 2)
        c3 = -2*y1^2*(w0x*(1 - x1) + w1x*(1 - x1 - y1^2) + w1y*y1*(x1 - 1))
        c1 =  2*y1^2*(k0*(w0x*x1 + w0y*y1 + w1x*x1 + w1y*y1) - k1*(w0x + w1x))
        c0 = -4*y1*((k0*x1 - k1)^2 + k0^2*y1^2)

    for all rationals, on the unit circle or off it.  The out-of-plane
    components only shift the cost by a constant.  Nothing needs stripping:
    for ``y1 != 0``, ``c0`` vanishes only at ``k0 = k1 = 0``.  Each
    coefficient is one integer over ``d**5``, ``d`` the common denominator.
    """
    coeffs, d5 = _quartic_integers(k0, k1, x1, y1, w0, w1s)
    return RatPoly([Fraction(c, d5) for c in coeffs], "l")


def _quartic_integers(k0, k1, x1, y1, w0, w1s) -> tuple[list[int], int]:
    """``([c0, c1, 0, c3, c4], d**5)``: the coefficients of
    :func:`critical_eliminant_exact`, lowest first, as integers over
    ``d**5``, ``d`` the common denominator of the parameters.  Each
    parameter's integer ratio is read directly: for floats, ints and
    fractions it is the pair its ``Fraction`` holds."""
    ratios = [v.as_integer_ratio() for v in (k0, k1, x1, y1, w0[0], w0[1], w1s[0], w1s[1])]
    d = math.lcm(*(den for _, den in ratios))
    c0, c1, c3, c4 = _quartic_numerators(*(num * (d // den) for num, den in ratios), d)
    return [c0, c1, 0, c3, c4], d**5


def _quartic_numerators(K0, K1, X, Y, A0, B0, A1, B1, d):
    """``d**5 * (c0, c1, c3, c4)`` from the parameters' numerators over ``d``.

    Plain ring arithmetic, so the tests can run it on symbols.
    """
    dd = d * d
    YY = Y * Y
    c4 = 2 * Y * (X * X * (YY + 2 * dd) - 4 * X * dd * d + YY * (YY - dd) + 2 * dd * dd)
    c3 = -2 * YY * (A0 * (d - X) * d + A1 * (dd - X * d - YY) + B1 * Y * (X - d))
    c1 = 2 * YY * (K0 * ((A0 + A1) * X + (B0 + B1) * Y) - K1 * (A0 + A1) * d)
    c0 = -4 * Y * ((K0 * X - K1 * d) ** 2 + K0 * K0 * YY)
    return c0, c1, c3, c4


def _stationarity_residual(
    lz: float, sx: float, sy: float, x1: float, y1: float, w0: Vec3, w1s: Vec3
) -> float:
    """Distance from the cost gradient to the span of the constraint gradients.

    At a genuine critical point the cost gradient in ``(sx, sy, l)`` is a
    linear combination of the two constraint gradients.  In three dimensions
    the distance to their span is the gradient's component along the normal
    ``n = grad q1 x grad q2``, whose z component ``l^2 * y1`` is nonzero on
    every root the solver keeps, so the span is always a plane.
    """
    b0x = sx - w0.x
    b0y = sy + lz - w0.y
    b1x = w1s.x - sx + lz * y1
    b1y = w1s.y - sy - lz * x1
    gx = 2.0 * b0x - 2.0 * b1x
    gy = 2.0 * b0y - 2.0 * b1y
    gl = 2.0 * b0y + 2.0 * y1 * b1x - 2.0 * x1 * b1y
    # grad q1 = (0, l, t1) and grad q2 = (-l*y1, l*x1, t2).
    t1 = 2.0 * lz + sy
    t2 = 2.0 * lz + x1 * sy - y1 * sx
    nx = lz * t2 - t1 * lz * x1
    ny = -t1 * lz * y1
    nz = lz * lz * y1
    return abs(gx * nx + gy * ny + gl * nz) / math.hypot(nx, ny, nz)


def solve_general(
    inp: LambertInput, frame: CanonicalFrame | None = None
) -> list[LambertSolution]:
    """All candidate transfers for non-collinear endpoints.

    ``inp`` must already be in the canonical frame (as produced by
    :func:`canonical_frame`); pass the accompanying ``frame`` to have the
    solutions rotated back to world coordinates.  Returns every stationary
    point with an elliptic connecting orbit, cheapest first, the first one
    flagged ``is_minimum``.  Raises :class:`NoEllipticCandidate` when no
    candidate survives.
    """
    rhat0 = inp.r0.unit()
    if abs(rhat0.x - 1.0) > 1e-9 or abs(rhat0.y) > 1e-9 or abs(rhat0.z) > 1e-9:
        raise ValueError(
            "solve_general expects canonical-frame input with r0 on +x; "
            f"got direction {rhat0}"
        )
    rhat1 = inp.r1.unit()
    if abs(rhat1.z) > 1e-9:
        raise ValueError(
            "solve_general expects canonical-frame input with r1 in the "
            f"x-y plane; got direction {rhat1}"
        )
    # The shape parameters, read once: inp.x1 and inp.y1 are these components.
    k0, k1, x1, y1 = inp.k0, inp.k1, rhat1.x, rhat1.y
    if abs(y1) <= _COLLINEAR_SIN:
        raise CollinearInput(
            "endpoint directions are (anti)parallel; use the aligned-case solvers"
        )

    # d^5 times the eliminant: a positive multiple, so the same roots, and
    # isolation and refinement take integer coefficients as they are
    coeffs, _ = _quartic_integers(k0, k1, x1, y1, inp.w0.as_tuple(), inp.w1star.as_tuple())
    quartic = RatPoly(coeffs, "l")
    if quartic.degree() != 4:
        raise ArithmeticError(
            f"critical eliminant has degree {quartic.degree()}, expected 4"
        )
    roots = [refine_root(quartic, iv) for iv in isolate_real_roots(quartic)]

    out_frame = frame if frame is not None else CanonicalFrame.identity()
    w0, w1s = inp.w0, inp.w1star
    stationary = 0
    candidates: list[LambertSolution] = []
    for lz in roots:
        if abs(lz) <= _MIN_ROOT_L:
            logger.info("discarding eliminant root l = %.3e: degenerate scale", lz)
            continue
        sy = (k0 - lz * lz) / lz
        sx = (lz * lz + lz * x1 * sy - k1) / (lz * y1)
        residual = _stationarity_residual(lz, sx, sy, x1, y1, w0, w1s)
        if residual >= _STATIONARITY_TOL:
            logger.info(
                "discarding eliminant root l = %.6g: stationarity residual "
                "%.3e (side root of the elimination)",
                lz,
                residual,
            )
            continue
        stationary += 1
        try:
            orbit1 = Orbit(l=Vec3(0.0, 0.0, lz), s=Vec3(sx, sy, 0.0))
        except (DegenerateOrbit, ValueError) as exc:
            logger.info(
                "discarding stationary point l = %.6g: %s", lz, exc
            )
            continue
        w0star = Vec3(sx, sy + lz, 0.0)
        w1 = Vec3(sx - lz * y1, sy + lz * x1, 0.0)
        burn0 = w0star - w0
        burn1 = w1s - w1
        f2 = burn0.dot(burn0) + burn1.dot(burn1)
        candidates.append(
            LambertSolution(
                orbit1=Orbit(
                    l=out_frame.to_world(orbit1.l),
                    s=out_frame.to_world(orbit1.s),
                ),
                w0star=out_frame.to_world(w0star),
                w1=out_frame.to_world(w1),
                f2=f2,
                case_tag="general",
                stationarity_residual=residual,
            )
        )
    if not candidates:
        if stationary:
            raise NoEllipticCandidate(
                f"all {stationary} stationary points have non-elliptic "
                "connecting orbits"
            )
        raise NoEllipticCandidate(
            "no real critical point of the squared-impulse cost"
        )
    candidates.sort(key=lambda sol: sol.f2)
    candidates[0] = dataclasses.replace(candidates[0], is_minimum=True)
    return candidates


# --------------------------------------------------------------------------
# Aligned (collinear) cases


def _orbit_through(position: Vec3, w: Vec3) -> Orbit:
    """Orbit whose normalized velocity at ``position`` equals ``w``."""
    h = position.cross(w)
    hh = h.dot(h)
    if hh <= 1e-24:
        raise DegenerateOrbit(
            "velocity is (anti)parallel to position: the orbit degenerates "
            "to a radial line"
        )
    l = (1.0 / hh) * h
    s = w - l.cross(position.unit())
    return Orbit(l=l, s=s)


def _require_alignment(inp: LambertInput, sign: float, label: str) -> None:
    rhat0 = inp.r0.unit()
    rhat1 = inp.r1.unit()
    if rhat0.cross(rhat1).norm() > 1e-9 or rhat0.dot(rhat1) * sign <= 0.0:
        raise ValueError(
            f"endpoint directions are not {label} "
            f"(rhat0 = {rhat0}, rhat1 = {rhat1})"
        )


def solve_aligned_same(inp: LambertInput) -> LambertSolution:
    """Closed form for endpoints on the same ray (necessarily same radius).

    Both burns happen at the same point, so the optimum splits the total
    velocity change evenly: the transfer velocity is the average of ``w0``
    and ``w1star``, and the cost is half the squared gap between them.
    """
    _require_alignment(inp, +1.0, "parallel")
    k0, k1 = inp.k0, inp.k1
    if abs(k0 - k1) > 1e-9 * max(k0, k1):
        raise RadiusMismatch(
            "same-ray endpoints need equal radii; got "
            f"|r0| = {1.0 / k0:.12g}, |r1| = {1.0 / k1:.12g}"
        )
    w0, w1s = inp.w0, inp.w1star
    w0star = 0.5 * (w0 + w1s)
    orbit1 = _orbit_through(inp.r0, w0star)
    burn0 = w0star - w0
    burn1 = w1s - w0star
    f2 = burn0.dot(burn0) + burn1.dot(burn1)
    # Gradient of f2 in w0star: 2*(w0star - w0) - 2*(w1star - w0star).
    grad = 2.0 * burn0 - 2.0 * burn1
    return LambertSolution(
        orbit1=orbit1,
        w0star=w0star,
        w1=w0star,
        f2=f2,
        case_tag="aligned_same",
        stationarity_residual=grad.norm(),
        is_minimum=True,
    )


def _any_perpendicular(u: Vec3) -> Vec3:
    """Deterministic unit vector perpendicular to ``u``."""
    ax, ay, az = abs(u.x), abs(u.y), abs(u.z)
    if ax <= ay and ax <= az:
        probe = Vec3(1.0, 0.0, 0.0)
    elif ay <= az:
        probe = Vec3(0.0, 1.0, 0.0)
    else:
        probe = Vec3(0.0, 0.0, 1.0)
    return u.cross(probe).unit()


def solve_aligned_opposite(inp: LambertInput) -> LambertSolution:
    """Closed form for endpoints on opposite rays.

    Any plane containing the endpoint line can hold the connecting orbit.
    Summing the two radius constraints fixes the orbit scale,
    ``|l|^2 = (k0 + k1)/2``, which pins the transverse speed at each
    crossing: ``k0/|l|`` leaving the first point and ``k1/|l|`` arriving at
    the second, oppositely directed (angular momentum) while the velocity
    components along the line are equal at the two crossings.  The remaining
    freedom is that shared line component and the transverse direction; the
    cost is quadratic in the former and linear in the cosine of the latter's
    angle, so both minimize in closed form.

    A non-elliptic or radial optimum raises the corresponding orbit error
    rather than returning an unusable plan.
    """
    _require_alignment(inp, -1.0, "antiparallel")
    k0, k1 = inp.k0, inp.k1
    w0, w1s = inp.w0, inp.w1star
    rhat0 = inp.r0.unit()
    scale = math.sqrt(0.5 * (k0 + k1))
    speed_out = k0 / scale
    ratio = k1 / k0

    def along(v: Vec3) -> float:
        return v.dot(rhat0)

    def across(v: Vec3) -> Vec3:
        return v - along(v) * rhat0

    axial = 0.5 * (along(w0) + along(w1s))
    w0_perp = across(w0)
    w1s_perp = across(w1s)
    # The transverse direction enters the cost only through
    # -2*(speed_out/k0) * t_hat . (k0*w0_perp - k1*w1s_perp), so the optimum
    # points along that combination; if it vanishes every direction ties and
    # an arbitrary one is picked deterministically.
    steer = k0 * w0_perp - k1 * w1s_perp
    if steer.norm() > 1e-12:
        t_hat = steer.unit()
    elif w0_perp.norm() > 1e-12:
        t_hat = w0_perp.unit()
    else:
        t_hat = _any_perpendicular(rhat0)
    w0star = axial * rhat0 + speed_out * t_hat
    w1 = axial * rhat0 - (ratio * speed_out) * t_hat

    orbit1 = _orbit_through(inp.r0, w0star)
    burn0 = w0star - w0
    burn1 = w1s - w1
    f2 = burn0.dot(burn0) + burn1.dot(burn1)
    # Partial derivatives of f2 in the two free parameters: the shared line
    # component and the rotation angle of t_hat in the transverse plane.
    grad_axial = 2.0 * (axial - along(w0)) - 2.0 * (along(w1s) - axial)
    tangent = rhat0.cross(t_hat)
    grad_angle = -(2.0 * speed_out / k0) * tangent.dot(steer)
    residual = math.hypot(grad_axial, grad_angle)
    return LambertSolution(
        orbit1=orbit1,
        w0star=w0star,
        w1=w1,
        f2=f2,
        case_tag="aligned_opposite",
        stationarity_residual=residual,
        is_minimum=True,
    )


# --------------------------------------------------------------------------
# Front door


def solve(inp: LambertInput) -> list[LambertSolution]:
    """Solve a fixed-endpoint transfer in any frame, dispatching on geometry.

    Non-collinear endpoints go through the canonical frame and the exact
    planar solver; collinear endpoints use the aligned closed forms.  Always
    returns a nonempty list sorted cheapest-first with the minimum flagged.
    """
    try:
        framed, frame = canonical_frame(inp)
    except CollinearInput:
        if inp.r0.unit().dot(inp.r1.unit()) > 0.0:
            return [solve_aligned_same(inp)]
        return [solve_aligned_opposite(inp)]
    return solve_general(framed, frame)
