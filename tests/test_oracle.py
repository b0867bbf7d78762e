"""Tests for the brute-force oracles and the stationarity checker."""

import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from orbita.kepler import Orbit, Vec3, circular_orbit
from orbita.oracle import (
    NoFeasible,
    OracleConfig,
    fixed_endpoint_min,
    planar_two_impulse_min,
    stationarity_check,
)
from orbita.poly_kernel import MPoly
from orbita.transfer_model import impulses, plan_is_valid

Z = Vec3(0.0, 0.0, 1.0)

# Classical circle(1) -> circle(2) two-burn costs (vis-viva).
DV1 = math.sqrt(4.0 / 3.0) - 1.0
DV2 = math.sqrt(0.5) - math.sqrt(1.0 / 3.0)
HOHMANN_F1 = DV1 + DV2


@dataclass
class FramedEndpoints:
    """Minimal stand-in for a canonically framed point-to-point input."""

    k0: float
    k1: float
    x1: float
    y1: float
    w0: Vec3
    w1star: Vec3


class TestConfig:
    def test_rejects_sparse_grid(self):
        with pytest.raises(ValueError):
            OracleConfig(grid_points_per_dim=7)

    def test_rejects_negative_refinement(self):
        with pytest.raises(ValueError):
            OracleConfig(refine_iterations=-1)

    def test_rejects_bad_cost(self):
        o = circular_orbit(1.0, Z)
        with pytest.raises(ValueError):
            planar_two_impulse_min(o, o, "f3")


class TestPlanarTwoImpulse:
    def test_identical_orbits_cost_zero(self):
        o = Orbit(l=Z, s=Vec3(0.3, 0.2, 0.0))
        _, c = planar_two_impulse_min(
            o, o, "f1", OracleConfig(grid_points_per_dim=16)
        )
        assert c < 1e-9
        _, c2 = planar_two_impulse_min(
            o, o, "f2", OracleConfig(grid_points_per_dim=16)
        )
        assert c2 < 1e-15

    def test_hohmann_convergence_study(self):
        # The optimum sits on the antiparallel-burn ridge, the hardest
        # geometry for the descent; dense grid + direction-set descent
        # must still land within 1e-6 of the closed form.
        plan, c = planar_two_impulse_min(
            circular_orbit(1.0, Z),
            circular_orbit(2.0, Z),
            "f1",
            OracleConfig(grid_points_per_dim=200, refine_iterations=8),
        )
        assert abs(c - HOHMANN_F1) <= 1e-6
        assert c >= HOHMANN_F1 - 1e-9  # never *beats* the true optimum
        assert plan_is_valid(plan)
        assert impulses(plan).f1 == pytest.approx(c, abs=1e-9)

    def test_hohmann_quick(self):
        _, c = planar_two_impulse_min(
            circular_orbit(1.0, Z),
            circular_orbit(2.0, Z),
            "f1",
            OracleConfig(grid_points_per_dim=48, refine_iterations=8),
        )
        assert abs(c - HOHMANN_F1) <= 1e-5

    def test_non_planar_rejected(self):
        tilted = Orbit(l=Vec3(0.3, 0.0, 1.0), s=Vec3(0, 0, 0))
        with pytest.raises(ValueError):
            planar_two_impulse_min(tilted, circular_orbit(1.0, Z))

    def test_no_feasible_bounds(self):
        # Tiny |l1z| forces |s1| ~ 1/|l1z| >> |l1z|: nothing elliptic.
        o = circular_orbit(1.0, Z)
        cfg = OracleConfig(grid_points_per_dim=16, bounds={"l1z": (1e-4, 1e-3)})
        with pytest.raises(NoFeasible):
            planar_two_impulse_min(o, o, "f1", cfg)

    def test_determinism(self):
        o0 = Orbit(l=Z, s=Vec3(0.4, 0.0, 0.0))
        o2 = circular_orbit(1.7, Z)
        cfg = OracleConfig(grid_points_per_dim=24, refine_iterations=3)
        p1, c1 = planar_two_impulse_min(o0, o2, "f1", cfg)
        p2, c2 = planar_two_impulse_min(o0, o2, "f1", cfg)
        assert c1 == c2
        assert p1.orbits[1].l.as_tuple() == p2.orbits[1].l.as_tuple()
        assert p1.orbits[1].s.as_tuple() == p2.orbits[1].s.as_tuple()
        assert p1.burn_points[0].as_tuple() == p2.burn_points[0].as_tuple()

    def test_refinement_monotone(self):
        o0 = Orbit(l=Z, s=Vec3(0.4, 0.0, 0.0))
        o2 = circular_orbit(1.7, Z)
        _, grid_only = planar_two_impulse_min(
            o0, o2, "f1", OracleConfig(grid_points_per_dim=24, refine_iterations=0)
        )
        _, refined = planar_two_impulse_min(
            o0, o2, "f1", OracleConfig(grid_points_per_dim=24, refine_iterations=3)
        )
        assert refined <= grid_only

    def test_density_doubling_consistent(self):
        # Same-shape ellipses rotated 90 degrees apart: the optimum is
        # interior (no singular-ridge chasing), so every density level
        # must agree once refined.
        o0 = Orbit(l=Z, s=Vec3(0.3, 0.0, 0.0))
        o2 = Orbit(l=Z, s=Vec3(0.0, 0.3, 0.0))
        costs = [
            planar_two_impulse_min(
                o0, o2, "f1", OracleConfig(grid_points_per_dim=n, refine_iterations=4)
            )[1]
            for n in (16, 32, 64)
        ]
        assert costs[1] <= costs[0] + 1e-9
        assert costs[2] <= costs[1] + 1e-9


class TestFixedEndpoint:
    def test_aligned_same_midpoint_formula(self):
        # Same direction, same radius: the free velocity component is
        # split at the midpoint, so f2* = |w1* - w0|^2 / 2 for planar
        # endpoint velocities.
        fi = FramedEndpoints(
            1.0, 1.0, 1.0, 0.0, Vec3(0.1, 1.05, 0.0), Vec3(-0.2, 0.95, 0.0)
        )
        orbit, c = fixed_endpoint_min(fi, "f2")
        w_diff = fi.w1star - fi.w0
        assert c == pytest.approx(0.5 * w_diff.dot(w_diff), abs=1e-9)
        assert orbit.s.x == pytest.approx(-0.05, abs=1e-12)

    def test_aligned_opposite_is_hohmann_geometry(self):
        # Endpoints at (1,0,0) and (-1,0,0) with circular arrival and
        # departure velocities: the unique consistent transfer is the
        # classical two-burn ellipse.
        fi = FramedEndpoints(
            1.0, 0.5, -1.0, 0.0, Vec3(0, 1, 0), Vec3(0, -math.sqrt(0.5), 0)
        )
        orbit, c = fixed_endpoint_min(fi, "f2")
        assert c == pytest.approx(DV1 ** 2 + DV2 ** 2, abs=1e-12)
        assert orbit.l.z == pytest.approx(math.sqrt(0.75), abs=1e-12)

    def test_aligned_same_radius_mismatch(self):
        fi = FramedEndpoints(1.0, 0.5, 1.0, 0.0, Vec3(0, 1, 0), Vec3(0, 1, 0))
        with pytest.raises(NoFeasible):
            fixed_endpoint_min(fi, "f2")

    def test_quarter_circle_zero_cost(self):
        # Both endpoints on the unit circle with circular velocities:
        # the circle itself is a zero-cost transfer.
        fi = FramedEndpoints(1.0, 1.0, 0.0, 1.0, Vec3(0, 1, 0), Vec3(-1, 0, 0))
        orbit, c = fixed_endpoint_min(fi, "f2")
        assert c <= 1e-15
        assert orbit.l.z == pytest.approx(1.0, abs=1e-7)

    def test_bounds_exclude_feasible(self):
        fi = FramedEndpoints(1.0, 1.0, 0.0, 1.0, Vec3(0, 1, 0), Vec3(-1, 0, 0))
        cfg = OracleConfig(bounds={"l1z": (5.0, 6.0)})
        with pytest.raises(NoFeasible):
            fixed_endpoint_min(fi, "f2", cfg)

    def test_determinism(self):
        fi = FramedEndpoints(
            1.0, 0.8, 0.2, math.sqrt(1 - 0.04), Vec3(0.1, 1.0, 0), Vec3(-0.9, 0.3, 0)
        )
        o1, c1 = fixed_endpoint_min(fi, "f2")
        o2, c2 = fixed_endpoint_min(fi, "f2")
        assert c1 == c2 and o1.l.as_tuple() == o2.l.as_tuple()


def _hohmann_system():
    """Planar circle-to-circle two-impulse system with the first burn
    normalized to (1, 0, 0): 7 unknowns, 5 polynomial constraints."""
    V = ("x1", "y1", "L", "sx", "sy", "d0", "d1")
    x1, y1, L, sx, sy, d0, d1 = (MPoly.variable(n, V) for n in V)

    def const(q):
        return MPoly.const(Fraction(q), V)

    k0, k1 = const(1), const(Fraction(1, 2))
    l0z = const(1)
    l2z = const(0.7071067811865476)  # 1/sqrt(2) to double precision
    g1 = x1 * x1 + y1 * y1 - const(1)
    g2 = L * L + L * sy - k0
    g3 = L * L + L * (sy * x1 - sx * y1) - k1
    dL0 = L - l0z
    g4 = d0 * d0 - (sx * sx + sy * sy + dL0 * dL0 + Fraction(2) * sy * dL0)
    dL2 = L - l2z
    g5 = d1 * d1 - (
        sx * sx + sy * sy + dL2 * dL2 + Fraction(2) * dL2 * (sy * x1 - sx * y1)
    )
    return [g1, g2, g3, g4, g5], d0 + d1


class TestStationarity:
    def test_unconstrained_quadratic(self):
        V = ("x", "y")
        x, y = MPoly.variable("x", V), MPoly.variable("y", V)
        cost = (x - MPoly.const(Fraction(1), V)) ** 2 + (y + MPoly.const(Fraction(2), V)) ** 2
        rep = stationarity_check([], cost, {"x": 1.0, "y": -2.0})
        assert rep.gradient_residual < 1e-10
        assert rep.lambdas == ()
        assert rep.min_jacobian_sv == math.inf

    def test_hohmann_is_stationary(self):
        constraints, cost = _hohmann_system()
        L = math.sqrt(0.75)
        point = {
            "x1": -1.0,
            "y1": 0.0,
            "L": L,
            "sx": 0.0,
            "sy": L / 3.0,
            "d0": DV1,
            "d1": DV2,
        }
        rep = stationarity_check(constraints, cost, point)
        assert rep.constraint_residual < 1e-12
        assert rep.gradient_residual < 1e-8
        assert rep.min_jacobian_sv > 0.1  # not a singular candidate
        assert len(rep.lambdas) == 5

    def test_perturbed_point_flagged(self):
        # Stay exactly on the constraint manifold but move the second
        # burn 1e-3 radians off the optimum: the first-order condition
        # must degrade measurably.
        constraints, cost = _hohmann_system()
        L = math.sqrt(0.75)
        l2z = 0.7071067811865476
        th = math.pi + 1e-3
        x1, y1 = math.cos(th), math.sin(th)
        sy = (1.0 - L * L) / L
        sx = (L * L + L * sy * x1 - 0.5) / (L * y1)
        d0 = math.sqrt(sx * sx + sy * sy + (L - 1) ** 2 + 2 * sy * (L - 1))
        d1 = math.sqrt(
            sx * sx + sy * sy + (L - l2z) ** 2 + 2 * (L - l2z) * (sy * x1 - sx * y1)
        )
        point = {"x1": x1, "y1": y1, "L": L, "sx": sx, "sy": sy, "d0": d0, "d1": d1}
        rep = stationarity_check(constraints, cost, point)
        assert rep.constraint_residual < 1e-12
        assert rep.gradient_residual > 1e-4
