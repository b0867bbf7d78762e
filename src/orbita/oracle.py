"""Brute-force verification oracles.

Independent minimizers used to cross-check every closed-form solver in
the package:

- :func:`planar_two_impulse_min` — dense 3-DOF grid over the two burn
  angles and the transfer orbit's ``l_z``, with the in-plane ``(s_x,
  s_y)`` of the transfer orbit recovered from the two radius-continuity
  constraints by a 2x2 linear solve, followed by deterministic
  coordinate descent (golden-section per axis);
- :func:`fixed_endpoint_min` — the fixed-endpoint (point-to-point)
  variant: a 1-DOF scan over ``l_z`` (the endpoint directions are data,
  not unknowns), plus the two aligned-endpoint branches where the linear
  system degenerates and the free component is minimized in closed form;
- :func:`stationarity_check` — recovers least-squares Lagrange
  multipliers for a candidate optimum of a polynomial objective under
  polynomial constraints and reports the gradient residual
  ``|grad f - J^T lambda|`` together with the smallest singular value of
  the constraint Jacobian (small values flag singular candidates that
  must be treated as critical points).

Everything here is deterministic: identical configuration yields
bit-identical results, grid ties are broken by the lowest flattened grid
index, and refinement only ever accepts strict improvements (so the
refined cost is never above the grid cost).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kepler import Orbit, Vec3
from .transfer_model import TransferPlan

__all__ = [
    "OracleConfig",
    "StationarityReport",
    "NoFeasible",
    "planar_two_impulse_min",
    "fixed_endpoint_min",
    "stationarity_check",
]

_EXCLUDE_LZ = 1e-6
_DET_TINY = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class NoFeasible(ValueError):
    """No elliptic transfer orbit exists within the scanned bounds."""


@dataclass(frozen=True)
class OracleConfig:
    """Grid density and refinement effort.

    ``refine_iterations`` is the minimum number of descent sweeps spent
    polishing each grid candidate; the descent then continues until a
    full sweep stops improving the value (with a hard cap), so the
    polished result reflects the basin, not the effort setting.

    ``bounds`` may override the default per-variable intervals with keys
    ``"theta0"``, ``"theta1"`` (half-open, periodic) and ``"l1z"``
    (closed).  The oracle is fully deterministic.
    """

    grid_points_per_dim: int = 48
    refine_iterations: int = 3
    bounds: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.grid_points_per_dim < 8:
            raise ValueError("grid_points_per_dim must be at least 8")
        if self.refine_iterations < 0:
            raise ValueError("refine_iterations must be non-negative")


@dataclass(frozen=True)
class StationarityReport:
    """Least-squares multipliers and first-order optimality residual."""

    lambdas: tuple[float, ...]
    gradient_residual: float
    min_jacobian_sv: float
    constraint_residual: float


# ---------------------------------------------------------------------------
# Planar geometry helpers (z is the out-of-plane axis everywhere below).


def _require_planar(o: Orbit, name: str) -> tuple[float, float, float]:
    ln = o.l.norm()
    if math.hypot(o.l.x, o.l.y) > 1e-9 * ln:
        raise ValueError(f"{name} is not planar (l must point along z)")
    return o.l.z, o.s.x, o.s.y


def _radius_inv(lz, sx, sy, cos_t, sin_t):
    """1/r at angle theta for a planar orbit (vectorized)."""
    return lz * lz + lz * (sy * cos_t - sx * sin_t)


def _w_planar(lz, sx, sy, cos_t, sin_t):
    """Velocity components at angle theta for a planar orbit."""
    return sx - lz * sin_t, sy + lz * cos_t


def _golden_min(f, a: float, b: float, iters: int = 80):
    """Golden-section minimum of f on [a, b]; deterministic."""
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def _line_min(f, lo: float, hi: float, samples: int = 33):
    """Minimum of f on [lo, hi]: dense pre-scan, then golden-section
    between the best sample's neighbors.

    The pre-scan makes the search robust to infeasible (infinite) spikes
    inside the window, which golden-section alone cannot handle.
    """
    step = (hi - lo) / (samples - 1)
    xs = [lo + i * step for i in range(samples)]
    fs = [f(x) for x in xs]
    i = min(range(samples), key=lambda j: (fs[j], j))
    if not math.isfinite(fs[i]):
        return xs[i], fs[i]
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, samples - 1)]
    t, ft = _golden_min(f, a, b)
    return (t, ft) if ft <= fs[i] else (xs[i], fs[i])


def _axis_descent(f, x0, windows, sweeps):
    """Direction-set descent: golden-section line searches cycled over a
    direction set that starts as the coordinate axes and is updated with
    each sweep's net displacement (Powell's rule).

    Coordinates are pre-scaled by ``windows`` (one grid cell per axis)
    so every line search uses the same dimensionless bracket.  Only
    strict improvements are accepted, so the result never exceeds
    ``f(x0)``; the direction updates let the descent follow curved
    valleys whose floor runs diagonally to the axes, where plain
    per-axis descent jams at a coordinate-wise stationary point.

    ``sweeps`` is the minimum number of full sweeps; after that the
    descent keeps sweeping while each sweep still improves the value by
    more than a relative stall tolerance, up to a hard cap.  Run-to-stall
    makes the result a property of the basin rather than of the effort
    budget, which is what keeps reported minima stable when the starting
    grid is refined.  A sweep that accepts no move leaves the full state
    (point, value, direction set) unchanged, so it is a fixed point and
    the loop exits immediately.
    """
    n = len(x0)
    w = [max(abs(win), 1e-12) for win in windows]

    def fy(y):
        return f([y[k] * w[k] for k in range(n)])

    y = [x0[k] / w[k] for k in range(n)]
    dirs = [[1.0 if j == k else 0.0 for j in range(n)] for k in range(n)]
    best = fy(y)
    cap = max(4 * sweeps, 48)
    for sweep in range(cap):
        f_start, y_start = best, list(y)
        biggest_drop, drop_at = 0.0, 0
        for k, u in enumerate(dirs):

            def line(t, _u=u):
                return fy([y[j] + t * _u[j] for j in range(n)])

            t, ft = _line_min(line, -1.5, 1.5, samples=49)
            if ft < best:
                if best - ft > biggest_drop:
                    biggest_drop, drop_at = best - ft, k
                y = [y[j] + t * u[j] for j in range(n)]
                best = ft
        d = [y[j] - y_start[j] for j in range(n)]
        dn = math.sqrt(sum(c * c for c in d))
        if dn >= 1e-15:
            # Powell's replacement test on the extrapolated point.
            f_e = fy([2.0 * y[j] - y_start[j] for j in range(n)])
            if f_e < f_start:
                t1 = (
                    2.0
                    * (f_start - 2.0 * best + f_e)
                    * (f_start - best - biggest_drop) ** 2
                )
                t2 = biggest_drop * (f_start - f_e) ** 2
                if t1 < t2:
                    unit = [c / dn for c in d]

                    def ray(t):
                        return fy([y[j] + t * unit[j] for j in range(n)])

                    t, ft = _line_min(ray, -1.0, 3.0, samples=65)
                    if ft < best:
                        y = [y[j] + t * unit[j] for j in range(n)]
                        best = ft
                    dirs[drop_at] = unit
        if best == f_start:
            break
        if sweep + 1 >= sweeps and f_start - best <= 1e-13 * max(1.0, abs(best)):
            break
    return [y[k] * w[k] for k in range(n)], best


# ---------------------------------------------------------------------------
# 3-DOF oracle: orbit-to-orbit, both endpoints free.


def planar_two_impulse_min(
    orbit0: Orbit,
    orbit2: Orbit,
    cost: str = "f1",
    cfg: OracleConfig = OracleConfig(),
) -> tuple[TransferPlan, float]:
    """Brute-force minimum two-impulse transfer between coplanar orbits.

    Scans burn angles ``theta0``, ``theta1`` and the transfer ``l_z`` on
    a dense grid; at each grid point the transfer orbit's ``(s_x, s_y)``
    is the solution of the two radius-continuity equations (solvable
    whenever the burn directions are not parallel), and the cost is
    evaluated when that orbit is elliptic.  The grid winner (ties: lowest
    flattened index) is polished by coordinate descent.
    """
    if cost not in ("f1", "f2"):
        raise ValueError("cost must be 'f1' or 'f2'")
    l0z, s0x, s0y = _require_planar(orbit0, "orbit0")
    l2z, s2x, s2y = _require_planar(orbit2, "orbit2")

    n = cfg.grid_points_per_dim
    t0_lo, t0_hi = cfg.bounds.get("theta0", (0.0, 2.0 * math.pi))
    t1_lo, t1_hi = cfg.bounds.get("theta1", (0.0, 2.0 * math.pi))
    lmax = 3.0 * max(abs(l0z), abs(l2z))
    lz_lo, lz_hi = cfg.bounds.get("l1z", (-lmax, lmax))

    theta0s = np.linspace(t0_lo, t0_hi, n, endpoint=False)
    theta1s = np.linspace(t1_lo, t1_hi, n, endpoint=False)
    lzs = np.linspace(lz_lo, lz_hi, n)

    c1, s1 = np.cos(theta1s), np.sin(theta1s)
    k1 = _radius_inv(l2z, s2x, s2y, c1, s1)
    w1sx, w1sy = _w_planar(l2z, s2x, s2y, c1, s1)

    T1c = c1[:, None]
    T1s = s1[:, None]
    K1 = k1[:, None]
    L = lzs[None, :]
    L_ok = np.abs(L) > _EXCLUDE_LZ

    slice_best: list[tuple[float, int, int, int]] = []

    for i0, th0 in enumerate(theta0s):
        c0, s0 = math.cos(th0), math.sin(th0)
        k0 = _radius_inv(l0z, s0x, s0y, c0, s0)
        w0x, w0y = _w_planar(l0z, s0x, s0y, c0, s0)

        det = T1s * c0 - s0 * T1c  # sin(theta1 - theta0)
        with np.errstate(divide="ignore", invalid="ignore"):
            b0 = (k0 - L * L) / L
            b1 = (K1 - L * L) / L
            sx = (b0 * T1c - c0 * b1) / det
            sy = (b0 * T1s - s0 * b1) / det
        ok = L_ok & (np.abs(det) > _DET_TINY)
        ok &= sx * sx + sy * sy < L * L

        dw0x = (sx - L * s0) - w0x
        dw0y = (sy + L * c0) - w0y
        dw1x = w1sx[:, None] - (sx - L * T1s)
        dw1y = w1sy[:, None] - (sy + L * T1c)
        d0sq = dw0x * dw0x + dw0y * dw0y
        d1sq = dw1x * dw1x + dw1y * dw1y
        if cost == "f1":
            vals = np.sqrt(d0sq) + np.sqrt(d1sq)
        else:
            vals = d0sq + d1sq
        vals = np.where(ok, vals, np.inf)

        flat = int(np.argmin(vals))
        v = float(vals.flat[flat])
        if math.isfinite(v):
            slice_best.append((v, i0, flat // n, flat % n))

    if not slice_best:
        raise NoFeasible("no elliptic transfer candidate on the grid")

    def objective(x):
        return _planar_point_cost(
            x[0], x[1], x[2], (l0z, s0x, s0y), (l2z, s2x, s2y), cost
        )

    windows = (
        (t0_hi - t0_lo) / n,
        (t1_hi - t1_lo) / n,
        (lz_hi - lz_lo) / max(n - 1, 1),
    )
    # Refine every theta0-slice winner, not only the global grid
    # winner: a slightly worse grid point can sit in a better valley,
    # and doubling the (endpoint-free) angular grid keeps every coarse
    # slice, so the reported minimum stays stable under density changes.
    best_x, best_val = None, math.inf
    for _, i0, i1, i2 in sorted(slice_best):
        start = [float(theta0s[i0]), float(theta1s[i1]), float(lzs[i2])]
        x, refined = _axis_descent(
            objective, start, windows, cfg.refine_iterations
        )
        if refined < best_val:
            best_x, best_val = x, refined
    if best_x is None:  # pragma: no cover - picked grid values are finite
        raise NoFeasible("refinement lost feasibility")

    plan = _planar_plan(best_x[0], best_x[1], best_x[2], orbit0, orbit2)
    return plan, best_val


def _planar_point_cost(th0, th1, lz, o0, o2, cost):
    """Scalar objective behind the grid (inf when infeasible)."""
    if abs(lz) <= _EXCLUDE_LZ:
        return math.inf
    l0z, s0x, s0y = o0
    l2z, s2x, s2y = o2
    c0, s0 = math.cos(th0), math.sin(th0)
    c1, s1 = math.cos(th1), math.sin(th1)
    det = s1 * c0 - s0 * c1
    if abs(det) <= _DET_TINY:
        return math.inf
    k0 = _radius_inv(l0z, s0x, s0y, c0, s0)
    k1 = _radius_inv(l2z, s2x, s2y, c1, s1)
    b0 = (k0 - lz * lz) / lz
    b1 = (k1 - lz * lz) / lz
    sx = (b0 * c1 - c0 * b1) / det
    sy = (b0 * s1 - s0 * b1) / det
    if sx * sx + sy * sy >= lz * lz:
        return math.inf
    w0x, w0y = _w_planar(l0z, s0x, s0y, c0, s0)
    w1x, w1y = _w_planar(l2z, s2x, s2y, c1, s1)
    d0sq = (sx - lz * s0 - w0x) ** 2 + (sy + lz * c0 - w0y) ** 2
    d1sq = (w1x - sx + lz * s1) ** 2 + (w1y - sy - lz * c1) ** 2
    if cost == "f1":
        return math.sqrt(d0sq) + math.sqrt(d1sq)
    return d0sq + d1sq


def _planar_plan(th0, th1, lz, orbit0: Orbit, orbit2: Orbit) -> TransferPlan:
    l0z, s0x, s0y = _require_planar(orbit0, "orbit0")
    l2z, s2x, s2y = _require_planar(orbit2, "orbit2")
    c0, s0 = math.cos(th0), math.sin(th0)
    c1, s1 = math.cos(th1), math.sin(th1)
    det = s1 * c0 - s0 * c1
    k0 = _radius_inv(l0z, s0x, s0y, c0, s0)
    k1 = _radius_inv(l2z, s2x, s2y, c1, s1)
    b0 = (k0 - lz * lz) / lz
    b1 = (k1 - lz * lz) / lz
    sx = (b0 * c1 - c0 * b1) / det
    sy = (b0 * s1 - s0 * b1) / det
    transfer = Orbit(l=Vec3(0.0, 0.0, lz), s=Vec3(sx, sy, 0.0))
    return TransferPlan(
        orbits=[orbit0, transfer, orbit2],
        burn_points=[Vec3(c0, s0, 0.0), Vec3(c1, s1, 0.0)],
    )


# ---------------------------------------------------------------------------
# 1-DOF oracle: fixed endpoints (point-to-point).


def fixed_endpoint_min(
    framed_input,
    cost: str = "f2",
    cfg: OracleConfig = OracleConfig(),
) -> tuple[Orbit, float]:
    """Brute-force minimum for fixed endpoint states.

    ``framed_input`` must already be in the canonical frame — any object
    with attributes ``k0``, ``k1`` (inverse endpoint radii), ``x1``,
    ``y1`` (second endpoint direction; the first is ``(1, 0, 0)``),
    ``w0`` and ``w1star`` (endpoint velocities, :class:`Vec3`).  Scans
    the transfer
    orbit's ``l_z`` (log-symmetric by default, or linearly within a
    ``bounds["l1z"]`` override), solving the two radius constraints for
    ``(s_x, s_y)`` at each value; aligned endpoints (``y1 = 0``) switch
    to the consistent degenerate branches, where the unconstrained
    velocity component is minimized in closed form.
    """
    if cost not in ("f1", "f2"):
        raise ValueError("cost must be 'f1' or 'f2'")
    k0 = float(framed_input.k0)
    k1 = float(framed_input.k1)
    x1, y1 = float(framed_input.x1), float(framed_input.y1)
    w0 = framed_input.w0
    w1s = framed_input.w1star

    def cost_of(lz, sx, sy):
        # w0* = s1 + l1 x (1,0,0) = (sx, sy + lz);
        # w1  = s1 + l1 x (x1,y1,0) = (sx - lz*y1, sy + lz*x1).
        d0sq = (sx - w0.x) ** 2 + (sy + lz - w0.y) ** 2 + w0.z ** 2
        d1sq = (
            (w1s.x - sx + lz * y1) ** 2
            + (w1s.y - sy - lz * x1) ** 2
            + w1s.z ** 2
        )
        if cost == "f1":
            return math.sqrt(d0sq) + math.sqrt(d1sq)
        return d0sq + d1sq

    if abs(y1) <= 1e-12:  # aligned endpoints
        return _aligned_min(k0, k1, x1, w0, w1s, cost_of)

    def solve(lz):
        # radius at rhat0 = (1,0,0):  lz^2 + lz*sy        = k0
        # radius at (x1,y1,0):        lz^2 + lz*(sy x1 - sx y1) = k1
        sy = (k0 - lz * lz) / lz
        sx = (lz * lz + lz * sy * x1 - k1) / (lz * y1)
        return sx, sy

    def objective(lz):
        if abs(lz) <= _EXCLUDE_LZ:
            return math.inf
        sx, sy = solve(lz)
        if sx * sx + sy * sy >= lz * lz:
            return math.inf
        return cost_of(lz, sx, sy)

    if "l1z" in cfg.bounds:
        lo, hi = cfg.bounds["l1z"]
        grid = np.linspace(lo, hi, max(cfg.grid_points_per_dim ** 2, 64))
    else:
        # The elliptic condition |s1| < |l1| with (sx, sy) solved from the
        # two radius constraints is a single quadratic in l1z^2:
        #   (1 - x1)^2 u^2 - 2 (k0 + k1)(1 - x1) u
        #                  + (k0^2 + k1^2 - 2 x1 k0 k1) < 0,  u = l1z^2,
        # so feasible u lie strictly between
        #   ((k0 + k1) +- sqrt(2 k0 k1 (1 + x1))) / (1 - x1).
        # Scanning exactly that window (both signs of l1z) covers every
        # elliptic transfer, including the near-aligned geometries whose
        # window sits far from sqrt(k).
        root = math.sqrt(max(2.0 * k0 * k1 * (1.0 + x1), 0.0))
        # 1 - x1 rounds to 0 for tiny separations; 0.5*y1^2 is its exact
        # second-order value there.
        denom = max(1.0 - x1, 0.5 * y1 * y1)
        u_lo = (k0 + k1 - root) / denom
        u_hi = (k0 + k1 + root) / denom
        lo = math.sqrt(max(u_lo, 0.0))
        hi = math.sqrt(u_hi)
        half = max(cfg.grid_points_per_dim ** 2, 64) // 2
        # Open interval: the boundary is parabolic; interior sampling only.
        mags = np.linspace(lo, hi, half + 2)[1:-1]
        grid = np.concatenate([-mags[::-1], mags])

    # Vectorized sweep (same arithmetic as ``objective``, point by point).
    with np.errstate(divide="ignore", invalid="ignore"):
        lz = grid
        sy = (k0 - lz * lz) / lz
        sx = (lz * lz + lz * sy * x1 - k1) / (lz * y1)
        d0sq = (sx - w0.x) ** 2 + (sy + lz - w0.y) ** 2 + w0.z ** 2
        d1sq = (
            (w1s.x - sx + lz * y1) ** 2
            + (w1s.y - sy - lz * x1) ** 2
            + w1s.z ** 2
        )
        vals = np.sqrt(d0sq) + np.sqrt(d1sq) if cost == "f1" else d0sq + d1sq
        bad = (
            (np.abs(lz) <= _EXCLUDE_LZ)
            | (sx * sx + sy * sy >= lz * lz)
            | ~np.isfinite(vals)
        )
        vals = np.where(bad, np.inf, vals)
    if not np.isfinite(vals).any():
        raise NoFeasible("no elliptic transfer orbit in the scanned l_z range")
    best = int(np.argmin(vals))
    lz_best, v_best = float(grid[best]), float(vals[best])

    lo_b = float(grid[max(best - 1, 0)])
    hi_b = float(grid[min(best + 1, len(grid) - 1)])
    for _ in range(max(cfg.refine_iterations, 1)):
        t, ft = _line_min(objective, lo_b, hi_b)
        if ft < v_best:
            lz_best, v_best = t, ft
        span = (hi_b - lo_b) * 0.25
        lo_b, hi_b = lz_best - span, lz_best + span

    sx, sy = solve(lz_best)
    return Orbit(l=Vec3(0.0, 0.0, lz_best), s=Vec3(sx, sy, 0.0)), v_best


def _aligned_min(k0, k1, x1, w0, w1s, cost_of):
    """Degenerate endpoint geometries: both endpoints on one line."""
    candidates = []
    if x1 > 0:  # same direction: one radius constraint, s_x free
        if abs(k0 - k1) > 1e-9 * max(k0, k1):
            raise NoFeasible(
                "aligned same-direction endpoints with different radii"
            )

        def objective(lz):
            if abs(lz) <= _EXCLUDE_LZ:
                return math.inf
            sy = (k0 - lz * lz) / lz
            sx = 0.5 * (w0.x + w1s.x)  # closed-form minimum of the free dof
            if sx * sx + sy * sy >= lz * lz:
                return math.inf
            return cost_of(lz, sx, sy)

        scale = math.sqrt(k0)
        mags = np.geomspace(1e-3 * scale, 3.0 * scale, 512)
        grid = np.concatenate([-mags[::-1], mags])
        vals = np.array([objective(float(lz)) for lz in grid])
        if not np.isfinite(vals).any():
            raise NoFeasible("no elliptic candidate for aligned endpoints")
        best = int(np.argmin(vals))
        lz0 = float(grid[best])
        lo_b = float(grid[max(best - 1, 0)])
        hi_b = float(grid[min(best + 1, len(grid) - 1)])
        lz_best, v_best = _line_min(objective, lo_b, hi_b)
        if float(vals[best]) < v_best:
            lz_best, v_best = lz0, float(vals[best])
        sy = (k0 - lz_best * lz_best) / lz_best
        sx = 0.5 * (w0.x + w1s.x)
        return Orbit(l=Vec3(0, 0, lz_best), s=Vec3(sx, sy, 0)), v_best

    # Opposite directions: both radius equations must hold, fixing
    # |l_z| = sqrt((k0+k1)/2); s_x is free and minimized in closed form.
    lmag = math.sqrt(0.5 * (k0 + k1))
    for lz in (lmag, -lmag):
        sy = (k0 - lz * lz) / lz
        sx = 0.5 * (w0.x + w1s.x)
        if sx * sx + sy * sy < lz * lz:
            candidates.append((cost_of(lz, sx, sy), lz, sx, sy))
    if not candidates:
        raise NoFeasible("no elliptic candidate for opposite aligned endpoints")
    v, lz, sx, sy = min(candidates)
    return Orbit(l=Vec3(0, 0, lz), s=Vec3(sx, sy, 0)), v


# ---------------------------------------------------------------------------
# Stationarity checking (Lagrange multipliers).


def stationarity_check(constraints, cost, point) -> StationarityReport:
    """First-order optimality diagnostics at a candidate point.

    ``constraints`` is a list of multivariate polynomials (equal to zero
    on the feasible set), ``cost`` the objective polynomial, ``point`` a
    mapping from variable name to value.  Recovers the least-squares
    multipliers solving ``grad f = sum(lambda_i * grad g_i)`` and
    reports the residual norm, the smallest singular value of the
    constraint Jacobian (near-zero flags a singular candidate that must
    be treated as critical independently of the multipliers), and the
    worst constraint violation.
    """
    # Align every polynomial onto the union variable tuple.
    union = sorted({v for g in constraints for v in g.vars} | set(cost.vars))
    cost_u = cost.map_vars(union)
    cons_u = [g.map_vars(union) for g in constraints]

    def grad_u(p):
        return np.array(
            [p.partial(v).eval_float(point) for v in union], dtype=float
        )

    gf = grad_u(cost_u)
    if not cons_u:
        res = float(np.linalg.norm(gf))
        return StationarityReport(
            lambdas=(),
            gradient_residual=res,
            min_jacobian_sv=math.inf,
            constraint_residual=0.0,
        )

    J = np.array([grad_u(g) for g in cons_u])  # m x n
    viol = max(abs(g.eval_float(point)) for g in cons_u)
    lam, _, _, sv = np.linalg.lstsq(J.T, gf, rcond=None)
    residual = float(np.linalg.norm(gf - J.T @ lam))
    min_sv = float(np.linalg.svd(J, compute_uv=False)[-1])
    return StationarityReport(
        lambdas=tuple(float(x) for x in lam),
        gradient_residual=residual,
        min_jacobian_sv=min_sv,
        constraint_residual=float(viol),
    )
