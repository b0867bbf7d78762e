"""Tests for the circle-to-circle closed-form solver.

Independent cross-checks used here:

- ``_classical_two_burn``: the textbook vis-viva tangent-ellipse cost at
  ``mu = 1``, written directly from orbital energies (no shared code with
  the solver).
- ``_bi_elliptic_three_burn``: same style, three burns through a high
  intermediate apogee.
- the brute-force planar oracle (grid + descent, separate module).
- float bisection of the window quartic against the kernel-refined roots.

Frozen literals were produced by those same oracles and pinned:

- ``HOHMANN_1_TO_2   = 0.2844570503761733``   (vis-viva, radii 1 -> 2)
- ``CLASSICAL_1_TO_15 = 0.5362181905925487``  (vis-viva, radii 1 -> 15)
- ``BI_ELLIPTIC_1_TO_15_VIA_80 = 0.527600851759405`` (three burns, apogee 80,
  agreeing with the transfer-model evaluation of the hand-built plan)
- ``POLAR_REVERSAL_F1 = 2*sqrt(2)`` (impulse formulas at l0z=1, l2z=-1,
  where the inclined transfer orbit is the polar circle)
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from orbita import hohmann
from orbita.hohmann import (
    OUT_OF_PLANE_WINDOW,
    BranchSignMismatch,
    HohmannInput,
    best_transfer,
    solve_coplanar,
    solve_out_of_plane,
    solve_same_radius_cases,
)
from orbita.kepler import Orbit, Vec3, circular_orbit
from orbita.oracle import OracleConfig, planar_two_impulse_min, stationarity_check
from orbita.poly_kernel import MPoly
from orbita.transfer_model import TransferPlan, impulses, validate_plan

HOHMANN_1_TO_2 = 0.2844570503761733
CLASSICAL_1_TO_15 = 0.5362181905925487
BI_ELLIPTIC_1_TO_15_VIA_80 = 0.527600851759405
POLAR_REVERSAL_F1 = 2.0 * math.sqrt(2.0)

X_DIR = Vec3(1.0, 0.0, 0.0)
Z_DIR = Vec3(0.0, 0.0, 1.0)


def _classical_two_burn(r0: float, r2: float) -> float:
    """Vis-viva cost of the tangent-ellipse transfer, mu = 1."""
    a = (r0 + r2) / 2.0
    dv0 = abs(math.sqrt(2.0 / r0 - 1.0 / a) - 1.0 / math.sqrt(r0))
    dv1 = abs(1.0 / math.sqrt(r2) - math.sqrt(2.0 / r2 - 1.0 / a))
    return dv0 + dv1


def _bi_elliptic_three_burn(r0: float, r2: float, rb: float) -> float:
    """Vis-viva cost of the three-burn transfer through apogee ``rb``."""
    a1 = (r0 + rb) / 2.0
    a2 = (rb + r2) / 2.0
    dv0 = abs(math.sqrt(2.0 / r0 - 1.0 / a1) - 1.0 / math.sqrt(r0))
    dv1 = abs(math.sqrt(2.0 / rb - 1.0 / a2) - math.sqrt(2.0 / rb - 1.0 / a1))
    dv2 = abs(1.0 / math.sqrt(r2) - math.sqrt(2.0 / r2 - 1.0 / a2))
    return dv0 + dv1 + dv2


def _worst_equality(plan: TransferPlan) -> float:
    return max(r.value for r in validate_plan(plan) if r.kind == "equality")


def _quartic(a: float) -> float:
    return ((a + 2.0) * a * a + 2.0) * a + 1.0


def _bisect_root(lo: float, hi: float) -> float:
    flo = _quartic(lo)
    assert flo * _quartic(hi) < 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = _quartic(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


class TestWindow:
    def test_matches_independent_bisection(self):
        lo, hi = OUT_OF_PLANE_WINDOW
        assert lo == pytest.approx(_bisect_root(-3.0, -2.0), abs=1e-12)
        assert hi == pytest.approx(_bisect_root(-1.0, -0.4), abs=1e-12)

    def test_reciprocal_negative_pair(self):
        # The quartic is palindromic, so its two real roots are a
        # reciprocal pair; both bounds are negative.
        lo, hi = OUT_OF_PLANE_WINDOW
        assert lo < hi < 0.0
        assert lo * hi == pytest.approx(1.0, abs=1e-12)


class TestCoplanar:
    def test_identical_orbits(self):
        best, other = solve_coplanar(HohmannInput(1.0, 1.0))
        assert best.f1 == 0.0
        assert best.branch == "coplanar"
        assert not best.tie
        mid = best.plan.orbits[1]
        assert mid.l.z == pytest.approx(1.0, abs=1e-15)
        assert mid.s.norm() == pytest.approx(0.0, abs=1e-15)
        # The opposite-sign branch reverses the velocity twice.
        assert other.f1 == pytest.approx(4.0, abs=1e-12)

    def test_classical_one_to_two(self):
        # Radii 1 -> 2 prograde: l2z = 1/sqrt(2).
        best = solve_coplanar(HohmannInput(1.0, 1.0 / math.sqrt(2.0)))[0]
        mid = best.plan.orbits[1]
        assert mid.l.z == pytest.approx(math.sqrt(0.75), abs=1e-15)
        assert mid.s.y == pytest.approx(mid.l.z / 3.0, abs=1e-15)
        assert mid.s.x == 0.0
        assert best.f1 == pytest.approx(HOHMANN_1_TO_2, abs=1e-12)
        assert best.f1 == pytest.approx(_classical_two_burn(1.0, 2.0), abs=1e-12)
        assert impulses(best.plan).f1 == pytest.approx(best.f1, abs=1e-13)
        assert _worst_equality(best.plan) < 1e-12

    def test_counter_rotating_equal_radii_tie(self):
        sols = solve_coplanar(HohmannInput(1.0, -1.0))
        for sol in sols:
            assert sol.tie
            assert sol.f1 == pytest.approx(2.0, abs=1e-12)
            assert _worst_equality(sol.plan) < 1e-12
        signs = sorted(math.copysign(1.0, s.plan.orbits[1].l.z) for s in sols)
        assert signs == [-1.0, 1.0]

    def test_optimal_sign_follows_sum(self):
        for l0z in (1.0, 2.0, -1.0, 0.3, -0.45):
            for l2z in (0.9, -0.6, 1.7, -2.2):
                if l0z + l2z == 0.0:
                    continue
                best = solve_coplanar(HohmannInput(l0z, l2z))[0]
                assert math.copysign(1.0, best.plan.orbits[1].l.z) == math.copysign(
                    1.0, l0z + l2z
                )

    def test_sign_mismatch_raises_a_typed_error(self, monkeypatch):
        # negating every f1 makes the sort put the wrong sign first; the
        # check must survive python -O, so it is no assert
        real = hohmann.HohmannBranchSolution

        def flipped(plan, f1, *args):
            return real(plan, -f1, *args)

        monkeypatch.setattr(hohmann, "HohmannBranchSolution", flipped)
        with pytest.raises(BranchSignMismatch):
            solve_coplanar(HohmannInput(1.0, 0.5))
        # at the tie the order is free, so nothing is checked
        assert len(solve_coplanar(HohmannInput(1.0, -1.0))) == 2

    def test_agrees_with_classical_formula(self):
        # Module invariant: closed-form f1 equals the textbook cost to
        # 1e-12 for prograde-prograde inputs.
        rng = random.Random(7)
        for _ in range(50):
            r0 = math.exp(rng.uniform(math.log(0.2), math.log(5.0)))
            r2 = r0 * rng.uniform(1.1, 20.0)
            best = solve_coplanar(HohmannInput(1.0 / math.sqrt(r0), 1.0 / math.sqrt(r2)))[0]
            want = _classical_two_burn(r0, r2)
            assert best.f1 == pytest.approx(want, abs=1e-12 * max(1.0, want))
            assert _worst_equality(best.plan) < 1e-12

    def test_cost_is_homogeneous(self):
        base = solve_coplanar(HohmannInput(0.8, -0.31))[0].f1
        for c in (2.0, -0.5, 3.7):
            scaled = solve_coplanar(HohmannInput(0.8 * c, -0.31 * c))[0].f1
            assert scaled == pytest.approx(abs(c) * base, rel=1e-13)


class TestOutOfPlane:
    def test_positive_ratio_is_empty(self):
        assert solve_out_of_plane(HohmannInput(1.0, 0.5)) == []
        assert solve_out_of_plane(HohmannInput(-1.0, -0.5)) == []

    def test_ratio_outside_window_is_empty(self):
        lo, hi = OUT_OF_PLANE_WINDOW
        assert solve_out_of_plane(HohmannInput(1.0, lo - 0.01)) == []
        assert solve_out_of_plane(HohmannInput(1.0, hi + 0.01)) == []

    def test_polar_circle_pair(self):
        # At l0z=1, l2z=-1 the closed form collapses to the polar circular
        # orbit: l1 = (0, ±1, 0), s1 = 0.
        sols = solve_out_of_plane(HohmannInput(1.0, -1.0))
        assert len(sols) == 2
        coplanar_best = solve_coplanar(HohmannInput(1.0, -1.0))[0].f1
        for sol in sols:
            mid = sol.plan.orbits[1]
            assert mid.l.z == pytest.approx(0.0, abs=1e-15)
            assert abs(mid.l.y) == pytest.approx(1.0, abs=1e-15)
            assert mid.s.norm() == pytest.approx(0.0, abs=1e-15)
            assert sol.f1 == pytest.approx(POLAR_REVERSAL_F1, abs=1e-14)
            assert impulses(sol.plan).f1 == pytest.approx(sol.f1, abs=1e-13)
            assert _worst_equality(sol.plan) < 1e-12
            assert sol.f1 > coplanar_best
        assert sols[0].plan.orbits[1].l.y == -sols[1].plan.orbits[1].l.y

    def test_boundary_merges_with_coplanar(self):
        # Approaching the window edge the inclination dies off and the
        # transfer orbit tends to the coplanar one; at the edge itself the
        # branch is gone.
        lo, hi = OUT_OF_PLANE_WINDOW
        for edge in (lo, hi):
            assert solve_out_of_plane(HohmannInput(1.0, edge)) == []
            prev_tilt = math.inf
            for eps in (1e-3, 1e-5, 1e-7):
                ratio = edge + eps if edge == lo else edge - eps
                sols = solve_out_of_plane(HohmannInput(1.0, ratio))
                assert len(sols) == 2
                mid = sols[0].plan.orbits[1]
                tilt = abs(mid.l.y)
                level = math.sqrt((1.0 + ratio * ratio) / 2.0)
                assert tilt < prev_tilt
                assert abs(mid.l.z) == pytest.approx(
                    level, abs=2.0 * eps * max(1.0, level)
                )
                prev_tilt = tilt
            assert prev_tilt < 2e-3

    def test_coplanar_always_beats_inclined(self):
        # Module invariant (branch dominance), sampled across the window.
        lo, hi = OUT_OF_PLANE_WINDOW
        for l0z in (1.0, 2.5, -0.7):
            for i in range(40):
                ratio = lo + (hi - lo) * (i + 0.5) / 40.0
                inp = HohmannInput(l0z, ratio * l0z)
                sols = solve_out_of_plane(inp)
                assert len(sols) == 2
                coplanar_best = solve_coplanar(inp)[0].f1
                for sol in sols:
                    assert sol.f1 > coplanar_best
                    assert _worst_equality(sol.plan) < 1e-12

    def test_inclined_solution_is_stationary(self):
        # The inclined branch solves the second-burn-at-(-1,0,0) Lagrange
        # system; check first-order optimality at l0z=1, l2z=-4/5.
        V = ("sx", "sy", "sz", "ly", "lz", "d0", "d1")
        sx, sy, sz, ly, lz, d0, d1 = (MPoly.variable(n, V) for n in V)

        def const(q):
            return MPoly.const(Fraction(q), V)

        l0z, l2z = const(1), const(Fraction(-4, 5))
        g1 = ly * sy + lz * sz
        g2 = ly * ly + lz * lz + sy * lz - sz * ly - l0z * l0z
        g3 = ly * ly + lz * lz - sy * lz + sz * ly - l2z * l2z
        g4 = d0 * d0 - (
            sx * sx + (sy + lz - l0z) ** 2 + (sz - ly) ** 2
        )
        g5 = d1 * d1 - (
            sx * sx + (sy - lz + l2z) ** 2 + (sz + ly) ** 2
        )

        sols = solve_out_of_plane(HohmannInput(1.0, -0.8))
        assert len(sols) == 2
        for sol in sols:
            mid = sol.plan.orbits[1]
            deltas = impulses(sol.plan).deltas
            point = {
                "sx": mid.s.x,
                "sy": mid.s.y,
                "sz": mid.s.z,
                "ly": mid.l.y,
                "lz": mid.l.z,
                "d0": deltas[0],
                "d1": deltas[1],
            }
            rep = stationarity_check([g1, g2, g3, g4, g5], d0 + d1, point)
            assert rep.constraint_residual < 1e-12
            assert rep.gradient_residual < 1e-8
            assert rep.min_jacobian_sv > 1e-3
            assert len(rep.lambdas) == 5


class TestSameRadius:
    def test_same_orbit(self):
        sol = solve_same_radius_cases(HohmannInput(0.7, 0.7))
        assert sol.branch == "same_orbit"
        assert sol.f1 == 0.0
        assert impulses(sol.plan).f1 == 0.0
        assert _worst_equality(sol.plan) < 1e-12

    def test_reversal_unit(self):
        sol = solve_same_radius_cases(HohmannInput(1.0, -1.0))
        assert sol.branch == "reversal"
        assert sol.f1 == 2.0
        report = impulses(sol.plan)
        assert report.f1 == pytest.approx(2.0, abs=1e-14)
        # A genuine two-burn representative: both impulses nonzero, both
        # spent at the same point.
        assert min(report.deltas) > 0.2
        assert sol.plan.burn_points[0] == sol.plan.burn_points[1]
        assert _worst_equality(sol.plan) < 1e-12

    def test_reversal_scales(self):
        assert solve_same_radius_cases(HohmannInput(2.0, -2.0)).f1 == 4.0
        assert solve_same_radius_cases(HohmannInput(-0.5, 0.5)).f1 == 1.0

    def test_rejects_unequal_radii(self):
        with pytest.raises(ValueError):
            solve_same_radius_cases(HohmannInput(1.0, -0.5))


class TestBestTransfer:
    def test_classical_route(self):
        sol = best_transfer(1.0, 2.0, 1, 1)
        assert sol.branch == "coplanar"
        assert sol.f1 == pytest.approx(HOHMANN_1_TO_2, abs=1e-12)

    def test_wide_ratio_loses_to_bi_elliptic(self):
        # The two-impulse optimum at radii 1 -> 15 is still the classical
        # transfer, but allowing a third burn through apogee 80 beats it:
        # the two-impulse result is only optimal in its own class.
        sol = best_transfer(1.0, 15.0, 1, 1)
        assert sol.f1 == pytest.approx(CLASSICAL_1_TO_15, abs=1e-12)
        assert sol.f1 == pytest.approx(_classical_two_burn(1.0, 15.0), abs=1e-12)

        def ellipse(rp, ra):
            p = 2.0 * rp * ra / (rp + ra)
            ecc = (ra - rp) / (ra + rp)
            lmag = 1.0 / math.sqrt(p)
            return Orbit(l=Vec3(0.0, 0.0, lmag), s=Vec3(0.0, lmag * ecc, 0.0))

        plan = TransferPlan(
            orbits=(
                circular_orbit(1.0, Z_DIR),
                ellipse(1.0, 80.0),
                ellipse(15.0, 80.0),
                circular_orbit(15.0, Z_DIR),
            ),
            burn_points=(X_DIR, -1.0 * X_DIR, X_DIR),
        )
        three_burn = impulses(plan).f1
        assert three_burn == pytest.approx(BI_ELLIPTIC_1_TO_15_VIA_80, abs=1e-12)
        assert three_burn == pytest.approx(
            _bi_elliptic_three_burn(1.0, 15.0, 80.0), abs=1e-12
        )
        assert three_burn < sol.f1

    def test_reversal_route(self):
        sol = best_transfer(1.0, 1.0, 1, -1)
        assert sol.branch == "reversal"
        assert sol.f1 == 2.0

    def test_same_orbit_route(self):
        sol = best_transfer(5.0, 5.0, -1, -1)
        assert sol.branch == "same_orbit"
        assert sol.f1 == 0.0

    def test_mirror_symmetry(self):
        # Flipping both senses reflects the whole problem; the cost is
        # unchanged.
        assert best_transfer(1.0, 3.0, -1, -1).f1 == best_transfer(1.0, 3.0, 1, 1).f1

    def test_input_validation(self):
        with pytest.raises(ValueError):
            best_transfer(0.0, 1.0, 1, 1)
        with pytest.raises(ValueError):
            best_transfer(1.0, -2.0, 1, 1)
        with pytest.raises(ValueError):
            best_transfer(1.0, 2.0, 0, 1)
        with pytest.raises(ValueError):
            best_transfer(1.0, 2.0, 1, 2)
        with pytest.raises(ValueError):
            HohmannInput(0.0, 1.0)
        with pytest.raises(ValueError):
            HohmannInput(1.0, math.inf)


class TestOracleAgreement:
    def test_oracle_never_beats_closed_form(self):
        # Module invariant: across 50 radius pairs with ratio in
        # [1.1, 20], the brute-force planar minimizer never undercuts the
        # closed form by more than 1e-6 relative.
        rng = random.Random(20260822)
        cfg = OracleConfig(grid_points_per_dim=12, refine_iterations=2)
        for _ in range(50):
            r0 = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            r2 = r0 * rng.uniform(1.1, 20.0)
            dir0 = rng.choice((1, -1))
            dir2 = rng.choice((1, -1))
            best = best_transfer(r0, r2, dir0, dir2)
            orbit0 = circular_orbit(r0, dir0 * Z_DIR)
            orbit2 = circular_orbit(r2, dir2 * Z_DIR)
            _, oracle_cost = planar_two_impulse_min(orbit0, orbit2, "f1", cfg)
            assert oracle_cost >= best.f1 * (1.0 - 1e-6)
