"""Multi-impulse transfer plans: constraint checking and cost evaluation.

A plan visits ``n+1`` orbits joined by ``n`` impulsive burns.  Burn ``i``
happens at unit direction ``rhat_i``, which must lie on both orbit ``i``
and orbit ``i+1`` at the same radius.  The cost of burn ``i`` is

    delta_i = |w_i - w_i*|,
    w_i  = s_i     + l_i     x rhat_i   (arrival velocity),
    w_i* = s_{i+1} + l_{i+1} x rhat_i   (departure velocity),

and the two objectives are ``f1 = sum(delta_i)`` and
``f2 = sum(delta_i^2)``.  The squared cost also satisfies the algebraic
expansion

    delta_i^2 = |ds|^2 + |dl|^2 |rhat_i|^2 - (dl . rhat_i)^2
                + 2 (ds x dl) . rhat_i,

with ``ds = s_i - s_{i+1}``, ``dl = l_i - l_{i+1}``.  It holds for any
``rhat_i``, so it does not lean on the unit norm and the orthogonality that
validation only checks to a tolerance; on a valid plan it reduces to
``|ds|^2 + |dl|^2 + 2 (ds x dl) . rhat_i``.  ``impulses`` checks this
identity on every evaluation and raises :class:`CostExpansionMismatch` when
it fails.

Plans are plain values: construction checks only structural shape, so an
invalid geometry can still be built and diagnosed with
:func:`validate_plan`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kepler import Orbit, Vec3, orbit_as_dict, orbit_from_dict

__all__ = [
    "TransferPlan",
    "CostReport",
    "Residual",
    "InvalidPlan",
    "CostExpansionMismatch",
    "validate_plan",
    "plan_is_valid",
    "impulses",
    "scale_plan",
    "rotate_plan",
    "rotation_matrix",
    "planar_problem_counts",
    "plan_as_dict",
    "plan_from_dict",
    "cost_report_as_dict",
]

DEFAULT_TOL = 1e-9


class InvalidPlan(ValueError):
    """The plan violates a transfer constraint beyond tolerance."""


class CostExpansionMismatch(ArithmeticError):
    """A squared burn cost disagrees with its algebraic expansion."""


@dataclass(frozen=True)
class TransferPlan:
    """``n+1`` orbits joined by ``n`` burn directions.

    ``burn_points`` are raw vectors (not snapped), so that diagnostic
    residuals of a malformed plan can be inspected.
    """

    orbits: tuple[Orbit, ...]
    burn_points: tuple[Vec3, ...]

    def __init__(self, orbits, burn_points):
        orbits = tuple(orbits)
        burn_points = tuple(burn_points)
        if len(burn_points) < 1:
            raise InvalidPlan("a plan needs at least one burn")
        if len(orbits) != len(burn_points) + 1:
            raise InvalidPlan(
                f"{len(orbits)} orbits with {len(burn_points)} burns "
                "(need exactly one more orbit than burns)"
            )
        object.__setattr__(self, "orbits", orbits)
        object.__setattr__(self, "burn_points", burn_points)

    @property
    def n_impulses(self) -> int:
        return len(self.burn_points)


@dataclass(frozen=True)
class CostReport:
    """Per-burn costs and the two aggregate objectives."""

    deltas: tuple[float, ...]
    f1: float
    f2: float


@dataclass(frozen=True)
class Residual:
    """One constraint residual.

    ``kind`` is ``"equality"`` (valid when ``|value|`` is below
    tolerance) or ``"margin"`` (valid when ``value`` is strictly
    positive).
    """

    name: str
    value: float
    kind: str


_BURN_RESIDUALS = ("ortho_l_before", "ortho_l_after", "unit_norm", "radius_match")
_ORBIT_RESIDUALS = ("orbit_ls", "ellipticity")


def _residual_values(p: TransferPlan) -> list[tuple[str, float]]:
    """``(kind, value)`` of every residual, in :func:`validate_plan`'s order."""
    out: list[tuple[str, float]] = []
    for i, rhat in enumerate(p.burn_points):
        before, after = p.orbits[i], p.orbits[i + 1]
        rinv_before = before.l.dot(before.l) + before.s.cross(before.l).dot(rhat)
        rinv_after = after.l.dot(after.l) + after.s.cross(after.l).dot(rhat)
        out += (
            ("equality", abs(rhat.dot(before.l))),
            ("equality", abs(rhat.dot(after.l))),
            ("equality", abs(rhat.dot(rhat) - 1.0)),
            ("equality", abs(rinv_before - rinv_after)),
        )
    for o in p.orbits:
        out += (("equality", abs(o.l.dot(o.s))), ("margin", o.l.norm() - o.s.norm()))
    return out


def _violates(kind: str, value: float, tol: float) -> bool:
    """True unless the residual passes; a NaN residual never passes."""
    if kind == "equality":
        return not value < tol
    return not value > 0.0


def validate_plan(p: TransferPlan) -> list[Residual]:
    """All constraint residuals of the plan.

    Per burn ``i``: orthogonality ``rhat_i . l_i`` and
    ``rhat_i . l_{i+1}``, unit-norm ``| |rhat_i|^2 - 1 |``, and the
    radius-continuity mismatch.  Per orbit ``j``: the ``l . s``
    orthogonality residual and the ellipticity margin ``|l| - |s|``.
    """
    names = [f"{name}[{i}]" for i in range(p.n_impulses) for name in _BURN_RESIDUALS]
    names += [f"{name}[{j}]" for j in range(len(p.orbits)) for name in _ORBIT_RESIDUALS]
    return [
        Residual(name, value, kind)
        for name, (kind, value) in zip(names, _residual_values(p))
    ]


def plan_is_valid(p: TransferPlan, tol: float = DEFAULT_TOL) -> bool:
    """True when every equality residual is below ``tol`` and every
    margin is positive (a NaN residual is neither)."""
    return not any(_violates(kind, value, tol) for kind, value in _residual_values(p))


def impulses(p: TransferPlan, tol: float = DEFAULT_TOL) -> CostReport:
    """Evaluate the plan's burn costs and objectives.

    Raises :class:`InvalidPlan` when a constraint residual fails as in
    :func:`plan_is_valid`.  Each squared burn cost is cross-checked against
    the algebraic expansion (see module docstring) to 1e-10 relative, and
    :class:`CostExpansionMismatch` is raised when they disagree.
    """
    if any(_violates(kind, value, tol) for kind, value in _residual_values(p)):
        bad = [r for r in validate_plan(p) if _violates(r.kind, r.value, tol)]
        worst = max(bad, key=lambda r: r.value if r.kind == "equality" else 0.0)
        raise InvalidPlan(
            f"{len(bad)} constraint(s) violated; worst: "
            f"{worst.name} = {worst.value:.3e}"
        )
    return _checked_costs(p)


def _checked_costs(p: TransferPlan) -> CostReport:
    """:func:`impulses` of a plan whose constraints were already checked.

    Only the squared-cost expansion is checked here; it raises
    :class:`CostExpansionMismatch` as :func:`impulses` does.
    """
    deltas = []
    for i, rhat in enumerate(p.burn_points):
        before, after = p.orbits[i], p.orbits[i + 1]
        w = before.s + before.l.cross(rhat)
        w_star = after.s + after.l.cross(rhat)
        dv = w_star - w
        d2 = dv.dot(dv)
        ds = before.s - after.s
        dl = before.l - after.l
        dl_r = dl.dot(rhat)
        expansion = (
            ds.dot(ds)
            + dl.dot(dl) * rhat.dot(rhat)
            - dl_r * dl_r
            + 2.0 * ds.cross(dl).dot(rhat)
        )
        if abs(d2 - expansion) > 1e-10 * max(1.0, abs(d2)):
            raise CostExpansionMismatch(
                f"squared-cost expansion mismatch at burn {i}: "
                f"{d2!r} vs {expansion!r}"
            )
        deltas.append(math.sqrt(d2))
    return CostReport(
        deltas=tuple(deltas),
        f1=sum(deltas),
        f2=sum(d * d for d in deltas),
    )


def scale_plan(p: TransferPlan, c: float) -> TransferPlan:
    """Scale every ``l`` and ``s`` by ``c`` (burn directions unchanged).

    Costs transform as ``f1 -> |c| f1`` and ``f2 -> c^2 f2``; radii
    transform as ``r -> r / c^2``, so continuity is preserved.
    """
    if c == 0.0 or not math.isfinite(c):
        raise InvalidPlan("scale factor must be finite and nonzero")
    return TransferPlan(
        orbits=[Orbit(l=o.l * c, s=o.s * c) for o in p.orbits],
        burn_points=p.burn_points,
    )


def rotation_matrix(axis: Vec3, angle: float) -> tuple[tuple[float, float, float], ...]:
    """Rotation matrix about a (non-zero) axis, right-handed."""
    k = axis.unit()
    c, s = math.cos(angle), math.sin(angle)
    one_c = 1.0 - c
    return (
        (c + k.x * k.x * one_c, k.x * k.y * one_c - k.z * s, k.x * k.z * one_c + k.y * s),
        (k.y * k.x * one_c + k.z * s, c + k.y * k.y * one_c, k.y * k.z * one_c - k.x * s),
        (k.z * k.x * one_c - k.y * s, k.z * k.y * one_c + k.x * s, c + k.z * k.z * one_c),
    )


def _apply(R, v: Vec3) -> Vec3:
    return Vec3(
        R[0][0] * v.x + R[0][1] * v.y + R[0][2] * v.z,
        R[1][0] * v.x + R[1][1] * v.y + R[1][2] * v.z,
        R[2][0] * v.x + R[2][1] * v.y + R[2][2] * v.z,
    )


def _check_rotation(R) -> None:
    rows = [Vec3.of(r) for r in R]
    if len(rows) != 3:
        raise InvalidPlan("rotation must be a 3x3 matrix")
    for i in range(3):
        for j in range(3):
            expect = 1.0 if i == j else 0.0
            if abs(rows[i].dot(rows[j]) - expect) > 1e-9:
                raise InvalidPlan("matrix is not orthonormal")
    det = rows[0].dot(rows[1].cross(rows[2]))
    if abs(det - 1.0) > 1e-9:
        raise InvalidPlan(f"matrix determinant {det:.6f} is not +1")


def rotate_plan(p: TransferPlan, R) -> TransferPlan:
    """Rotate the whole plan by an orthonormal matrix with det +1.

    Costs and constraints are invariant.
    """
    _check_rotation(R)
    return TransferPlan(
        orbits=[Orbit(l=_apply(R, o.l), s=_apply(R, o.s)) for o in p.orbits],
        burn_points=[_apply(R, b) for b in p.burn_points],
    )


def planar_problem_counts(n: int) -> tuple[int, int]:
    """Unknown/equation counts for the planar orbit-to-orbit problem
    with ``n`` impulses.

    Unknowns: 3 per intermediate orbit (planar ``l_z, s_x, s_y``), one
    burn angle per impulse, one impulse magnitude per impulse:
    ``3(n-1) + n + n = 5n - 3``.  Equations: radius continuity plus the
    impulse-magnitude definition per burn: ``2n``.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return 5 * n - 3, 2 * n


def plan_as_dict(p: TransferPlan) -> dict:
    """JSON-ready mapping ``{"orbits": [...], "burn_points": [...]}``."""
    return {
        "orbits": [orbit_as_dict(o) for o in p.orbits],
        "burn_points": [list(b.as_tuple()) for b in p.burn_points],
    }


def plan_from_dict(d: dict) -> TransferPlan:
    """Inverse of :func:`plan_as_dict`."""
    try:
        return TransferPlan(
            orbits=[orbit_from_dict(o) for o in d["orbits"]],
            burn_points=[Vec3.of(b) for b in d["burn_points"]],
        )
    except (KeyError, TypeError) as exc:
        raise InvalidPlan(f"malformed plan mapping: {exc}") from exc


def cost_report_as_dict(r: CostReport) -> dict:
    """JSON-ready mapping of a cost report."""
    return {"deltas": list(r.deltas), "f1": r.f1, "f2": r.f2}
