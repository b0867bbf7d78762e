"""Tests for transfer plans, constraint residuals, and cost evaluation."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbita import transfer_model
from orbita.kepler import DegenerateOrbit, Orbit, Vec3, circular_orbit, plane_basis
from orbita.transfer_model import (
    CostExpansionMismatch,
    CostReport,
    InvalidPlan,
    Residual,
    TransferPlan,
    cost_report_as_dict,
    impulses,
    plan_as_dict,
    plan_from_dict,
    plan_is_valid,
    planar_problem_counts,
    rotate_plan,
    rotation_matrix,
    scale_plan,
    validate_plan,
)

Z = Vec3(0.0, 0.0, 1.0)
X = Vec3(1.0, 0.0, 0.0)
Y = Vec3(0.0, 1.0, 0.0)
ZERO = Vec3(0.0, 0.0, 0.0)

# Classical two-burn circle-to-circle cost for radius ratio 2 (computed
# from the textbook vis-viva formula, re-derived inside test_hohmann_cost).
HOHMANN_1_TO_2_F1 = 0.2844570503761733


def hohmann_plan_1_to_2() -> TransferPlan:
    """Hand-built circle(1) -> ellipse -> circle(2) plan, burns at
    perigee (+x) and apogee (-x)."""
    # Transfer ellipse: p = 4/3, e = 1/3, perigee toward +x, momentum +z.
    lmag = 1.0 / math.sqrt(4.0 / 3.0)
    transfer = Orbit(l=Vec3(0, 0, lmag), s=Vec3(0, lmag / 3.0, 0))
    return TransferPlan(
        orbits=[circular_orbit(1.0, Z), transfer, circular_orbit(2.0, Z)],
        burn_points=[X, -X],
    )


def random_orbit(rng):
    axis = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
    while axis.norm() < 0.1:
        axis = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
    lmag = rng.uniform(0.4, 2.0)
    l = axis.unit() * lmag
    u, v = plane_basis(l)
    ecc = rng.uniform(0.0, 0.8)
    phase = rng.uniform(0.0, 2 * math.pi)
    return Orbit(l=l, s=(u * math.cos(phase) + v * math.sin(phase)) * (ecc * lmag))


def random_plan(rng, n_burns=2) -> TransferPlan:
    """Chain of orbits sharing burn points at matching radii (valid by
    construction)."""
    orbits = [random_orbit(rng)]
    burns = []
    for _ in range(n_burns):
        prev = orbits[-1]
        u, v = plane_basis(prev.l)
        th = rng.uniform(0, 2 * math.pi)
        rhat = u * math.cos(th) + v * math.sin(th)
        rinv = prev.l.dot(prev.l) + prev.s.cross(prev.l).dot(rhat)
        a1, a2 = plane_basis(rhat)
        psi = rng.uniform(0, 2 * math.pi)
        nhat = a1 * math.cos(psi) + a2 * math.sin(psi)
        lam = math.sqrt(0.5 * rinv * (1.0 + rng.uniform(0.15, 2.5)))
        b = (rinv - lam * lam) / lam
        amax = math.sqrt(lam * lam - b * b)
        a = rng.uniform(-0.9, 0.9) * amax
        s_next = rhat * a + nhat.cross(rhat) * b
        orbits.append(Orbit(l=nhat * lam, s=s_next))
        burns.append(rhat)
    return TransferPlan(orbits, burns)


class TestPlanStructure:
    def test_shape_checks(self):
        o = circular_orbit(1.0, Z)
        with pytest.raises(InvalidPlan):
            TransferPlan(orbits=[o], burn_points=[])
        with pytest.raises(InvalidPlan):
            TransferPlan(orbits=[o, o, o], burn_points=[X])

    def test_n_impulses(self):
        assert hohmann_plan_1_to_2().n_impulses == 2


class TestValidate:
    def test_identical_orbits_zero_residuals(self):
        o = Orbit(l=Z, s=Vec3(0.3, 0, 0))
        plan = TransferPlan(orbits=[o, o], burn_points=[Y])
        for r in validate_plan(plan):
            if r.kind == "equality":
                assert r.value == 0.0
            else:
                assert r.value > 0.0
        assert plan_is_valid(plan)

    def test_non_unit_rhat_residual(self):
        o = circular_orbit(1.0, Z)
        plan = TransferPlan(orbits=[o, o], burn_points=[Vec3(2, 0, 0)])
        by_name = {r.name: r for r in validate_plan(plan)}
        assert by_name["unit_norm[0]"].value == pytest.approx(3.0)
        assert not plan_is_valid(plan)

    def test_hohmann_plan_tight(self):
        plan = hohmann_plan_1_to_2()
        for r in validate_plan(plan):
            if r.kind == "equality":
                assert r.value < 1e-12
        assert plan_is_valid(plan)

    def test_radius_mismatch_detected(self):
        plan = TransferPlan(
            orbits=[circular_orbit(1.0, Z), circular_orbit(2.0, Z)],
            burn_points=[X],
        )
        by_name = {r.name: r for r in validate_plan(plan)}
        assert by_name["radius_match[0]"].value == pytest.approx(0.5)
        assert not plan_is_valid(plan)


class TestImpulses:
    def test_identical_orbits_zero_cost(self):
        o = Orbit(l=Z, s=Vec3(0.3, 0, 0))
        rep = impulses(TransferPlan(orbits=[o, o], burn_points=[Y]))
        assert rep.deltas == (0.0,)
        assert rep.f1 == 0.0 and rep.f2 == 0.0

    def test_hohmann_cost(self):
        # Independent classical evaluation of the two burns.
        r1, r2 = 1.0, 2.0
        dv1 = math.sqrt(2 * r2 / (r1 * (r1 + r2))) - math.sqrt(1 / r1)
        dv2 = math.sqrt(1 / r2) - math.sqrt(2 * r1 / (r2 * (r1 + r2)))
        rep = impulses(hohmann_plan_1_to_2())
        assert rep.f1 == pytest.approx(dv1 + dv2, abs=1e-13)
        assert rep.f1 == pytest.approx(HOHMANN_1_TO_2_F1, abs=1e-12)
        assert rep.deltas[0] == pytest.approx(dv1, abs=1e-13)
        assert rep.deltas[1] == pytest.approx(dv2, abs=1e-13)
        assert rep.f2 == pytest.approx(dv1 * dv1 + dv2 * dv2, abs=1e-13)

    def test_same_radius_reversal(self):
        # Reversing a circular orbit in place costs twice the orbital
        # speed, no matter where the burn happens.
        plan = TransferPlan(
            orbits=[circular_orbit(1.0, Z), circular_orbit(1.0, -Z)],
            burn_points=[X],
        )
        rep = impulses(plan)
        assert rep.f1 == pytest.approx(2.0, abs=1e-15)

    def test_invalid_plan_raises(self):
        plan = TransferPlan(
            orbits=[circular_orbit(1.0, Z), circular_orbit(2.0, Z)],
            burn_points=[X],
        )
        with pytest.raises(InvalidPlan):
            impulses(plan)

    def test_delta_identity_1000_random_plans(self):
        rng = random.Random(424242)
        for _ in range(1000):
            plan = random_plan(rng, n_burns=rng.choice([1, 2, 3]))
            rep = impulses(plan)
            assert all(d >= 0.0 for d in rep.deltas)
            # Recompute the expansion here, independently of the
            # check inside impulses().
            for i, rhat in enumerate(plan.burn_points):
                o0, o1 = plan.orbits[i], plan.orbits[i + 1]
                ds, dl = o0.s - o1.s, o0.l - o1.l
                expansion = ds.dot(ds) + dl.dot(dl) + 2 * ds.cross(dl).dot(rhat)
                assert rep.deltas[i] ** 2 == pytest.approx(
                    expansion, rel=1e-10, abs=1e-12
                )
            assert rep.f1 == pytest.approx(sum(rep.deltas), rel=1e-14)
            assert rep.f2 == pytest.approx(
                sum(d * d for d in rep.deltas), rel=1e-14
            )


class TestCostExpansion:
    def test_validation_slack_does_not_break_the_check(self):
        # |rhat| = 1 + 2.5e-10 and a radius mismatch of 1.1e-10 pass
        # validation; the check used to assume |rhat| = 1 and raised
        o0 = Orbit(Vec3(0, 0, 1), Vec3(0.3, 0.4, 0))
        o1 = Orbit(Vec3(0, 0, -1.2), Vec3(0, 1 / 30, 0))
        plan = TransferPlan(orbits=[o0, o1], burn_points=[Vec3(1 + 2.5e-10, 0, 0)])
        assert all(r.value < 1e-9 for r in validate_plan(plan) if r.kind == "equality")
        rep = impulses(plan)
        dv = (o1.s + o1.l.cross(plan.burn_points[0])) - (o0.s + o0.l.cross(plan.burn_points[0]))
        assert rep.f1 == math.sqrt(dv.dot(dv))

    def test_forced_mismatch_raises_the_typed_error(self):
        class LongBurn(Vec3):
            """A burn direction whose squared norm reads 1e-6 too large."""

            def dot(self, other):
                value = Vec3.dot(self, other)
                return value + 1e-6 if other is self else value

        plan = hohmann_plan_1_to_2()
        plan = TransferPlan(plan.orbits, [LongBurn(1.0, 0.0, 0.0), plan.burn_points[1]])
        # within a loosened tolerance the plan is valid, but |dl|^2 |rhat|^2
        # now disagrees with the squared cost
        assert plan_is_valid(plan, tol=1e-5)
        with pytest.raises(CostExpansionMismatch, match="burn 0"):
            impulses(plan, tol=1e-5)
        assert issubclass(CostExpansionMismatch, ArithmeticError)


NAN = float("nan")
INF = float("inf")


def _raw_orbit(l: Vec3, s: Vec3) -> Orbit:
    """An ``Orbit`` that skips construction checks (non-finite allowed)."""
    o = object.__new__(Orbit)
    object.__setattr__(o, "l", l)
    object.__setattr__(o, "s", s)
    return o


class TestNonFinite:
    def test_orbit_rejects_non_finite_vectors(self):
        for l, s in [
            (Vec3(0, 0, NAN), Vec3(0.1, 0.1, 0)),
            (Vec3(0, 0, 1), Vec3(INF, 0, 0)),
            (Vec3(0, -INF, 1), Vec3(0, 0, 0)),
            (Vec3(0, 0, 1), Vec3(0.1, NAN, 0)),
            # finite components whose norm overflows
            (Vec3(0, 0, 1e200), Vec3(0, 0, 0)),
        ]:
            with pytest.raises(DegenerateOrbit, match="non-finite"):
                Orbit(l, s)

    def test_nan_plan_fails_validation(self):
        # the plan that used to pass with f1 = nan: its middle orbit has
        # l = (0, 0, nan), so every residual that reads it is NaN
        o0 = Orbit(Z, Vec3(0.3, 0.4, 0))
        o2 = Orbit(Z, Vec3(-0.3, 0.4, 0))
        nan_orbit = _raw_orbit(Vec3(0, 0, NAN), Vec3(0.1, 0.1, 0))
        plan = TransferPlan(orbits=[o0, nan_orbit, o2], burn_points=[X, Y])
        assert not plan_is_valid(plan)
        with pytest.raises(InvalidPlan):
            impulses(plan)

    def test_nan_burn_fails_validation(self):
        o = Orbit(Z, Vec3(0.3, 0, 0))
        plan = TransferPlan(orbits=[o, o], burn_points=[Vec3(NAN, 0, 0)])
        assert not plan_is_valid(plan)
        with pytest.raises(InvalidPlan):
            impulses(plan)


def _frozen_validate_plan(p: TransferPlan) -> list[Residual]:
    """``validate_plan`` as it was before it read ``_residual_values``."""
    out: list[Residual] = []
    for i, rhat in enumerate(p.burn_points):
        before, after = p.orbits[i], p.orbits[i + 1]
        out.append(Residual(f"ortho_l_before[{i}]", abs(rhat.dot(before.l)), "equality"))
        out.append(Residual(f"ortho_l_after[{i}]", abs(rhat.dot(after.l)), "equality"))
        out.append(Residual(f"unit_norm[{i}]", abs(rhat.dot(rhat) - 1.0), "equality"))
        rinv_before = before.l.dot(before.l) + before.s.cross(before.l).dot(rhat)
        rinv_after = after.l.dot(after.l) + after.s.cross(after.l).dot(rhat)
        out.append(
            Residual(f"radius_match[{i}]", abs(rinv_before - rinv_after), "equality")
        )
    for j, o in enumerate(p.orbits):
        out.append(Residual(f"orbit_ls[{j}]", abs(o.l.dot(o.s)), "equality"))
        out.append(
            Residual(f"ellipticity[{j}]", o.l.norm() - o.s.norm(), "margin")
        )
    return out


def _reference_is_valid(p: TransferPlan, tol: float) -> bool:
    """The acceptance rule, read off ``validate_plan``'s named residuals."""
    return all(
        r.value < tol if r.kind == "equality" else r.value > 0.0
        for r in validate_plan(p)
    )


# components that put residuals exactly at 1e-9 or at 0, or make them inf or NaN
_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-9, -1e-9, 0.5, INF, -INF, NAN]),
    st.floats(-2.0, 2.0),
)
_VEC = st.builds(Vec3, _COMPONENT, _COMPONENT, _COMPONENT)
# residual values at and around the boundaries, for substituted residuals
_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, math.nextafter(1e-9, 0.0), 5e-324, -5e-324, INF, -INF, NAN]),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _agree(plan: TransferPlan, tol: float) -> None:
    """On a finite plan: valid exactly when the reference says so, and
    ``impulses`` raises ``InvalidPlan`` exactly then."""
    expected = _reference_is_valid(plan, tol)
    assert plan_is_valid(plan, tol) is expected
    if expected:
        impulses(plan, tol)
    else:
        with pytest.raises(InvalidPlan):
            impulses(plan, tol)


class TestValidationEquivalence:
    """``plan_is_valid`` and ``impulses`` read the raw residual values; they
    must decide as a rule written on ``validate_plan`` does, and
    ``validate_plan``'s output must stay what it was."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 3),
        orbits=st.lists(st.tuples(_VEC, _VEC), min_size=4, max_size=4),
        burns=st.lists(_VEC, min_size=3, max_size=3),
        data=st.data(),
    )
    def test_raw_plans(self, n, orbits, burns, data):
        plan = TransferPlan(
            orbits=[_raw_orbit(l, s) for l, s in orbits[: n + 1]],
            burn_points=burns[:n],
        )
        residuals = validate_plan(plan)
        assert [repr(r) for r in residuals] == [repr(r) for r in _frozen_validate_plan(plan)]
        # a tolerance equal to one of the residuals tests the strict bound
        tol = data.draw(st.sampled_from([1e-9] + [r.value for r in residuals]))
        expected = _reference_is_valid(plan, tol)
        assert plan_is_valid(plan, tol) is expected
        if not expected:
            with pytest.raises(InvalidPlan):
                impulses(plan, tol)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 3),
        data=st.data(),
    )
    def test_substituted_residuals(self, seed, n, data):
        plan = random_plan(random.Random(seed), n_burns=n)
        kinds = [kind for kind, _ in transfer_model._residual_values(plan)]
        values = data.draw(st.lists(_VALUE, min_size=len(kinds), max_size=len(kinds)))
        tol = data.draw(st.sampled_from([1e-9, *values]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                transfer_model, "_residual_values", lambda p: list(zip(kinds, values))
            )
            _agree(plan, tol)

    def test_valid_random_plans(self):
        rng = random.Random(7)
        for _ in range(200):
            plan = random_plan(rng, n_burns=rng.choice([1, 2, 3]))
            assert [repr(r) for r in validate_plan(plan)] == [
                repr(r) for r in _frozen_validate_plan(plan)
            ]
            _agree(plan, 1e-9)


class TestScale:
    def test_identity(self):
        plan = hohmann_plan_1_to_2()
        same = scale_plan(plan, 1.0)
        assert impulses(same).f1 == impulses(plan).f1

    def test_doubling(self):
        plan = hohmann_plan_1_to_2()
        rep, rep2 = impulses(plan), impulses(scale_plan(plan, 2.0))
        assert rep2.f1 == pytest.approx(2.0 * rep.f1, rel=1e-12)
        assert rep2.f2 == pytest.approx(4.0 * rep.f2, rel=1e-12)

    def test_negation(self):
        plan = hohmann_plan_1_to_2()
        assert impulses(scale_plan(plan, -1.0)).f1 == pytest.approx(
            impulses(plan).f1, rel=1e-12
        )

    def test_zero_rejected(self):
        with pytest.raises(InvalidPlan):
            scale_plan(hohmann_plan_1_to_2(), 0.0)

    def test_covariance_random(self):
        rng = random.Random(5150)
        for _ in range(50):
            plan = random_plan(rng)
            c = rng.choice([-1, 1]) * rng.uniform(0.2, 5.0)
            scaled = scale_plan(plan, c)
            assert plan_is_valid(scaled)
            rep, rep_c = impulses(plan), impulses(scaled)
            assert rep_c.f1 == pytest.approx(abs(c) * rep.f1, rel=1e-12)
            assert rep_c.f2 == pytest.approx(c * c * rep.f2, rel=1e-12)


class TestRotate:
    def test_identity_rotation(self):
        plan = hohmann_plan_1_to_2()
        R = rotation_matrix(Z, 0.0)
        rot = rotate_plan(plan, R)
        assert impulses(rot).f1 == impulses(plan).f1

    def test_quarter_turn_about_z(self):
        plan = hohmann_plan_1_to_2()
        rot = rotate_plan(plan, rotation_matrix(Z, math.pi / 2))
        assert (rot.burn_points[0] - Y).norm() < 1e-15
        assert impulses(rot).f1 == pytest.approx(impulses(plan).f1, rel=1e-12)

    def test_invariance_100_rotations(self):
        rng = random.Random(86)
        plan = hohmann_plan_1_to_2()
        base = impulses(plan)
        for _ in range(100):
            axis = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1) + 1.5)
            R = rotation_matrix(axis, rng.uniform(0, 2 * math.pi))
            rep = impulses(rotate_plan(plan, R))
            assert rep.f1 == pytest.approx(base.f1, rel=1e-12)
            assert rep.f2 == pytest.approx(base.f2, rel=1e-12)

    def test_rejects_non_rotation(self):
        plan = hohmann_plan_1_to_2()
        with pytest.raises(InvalidPlan):
            rotate_plan(plan, ((2, 0, 0), (0, 2, 0), (0, 0, 2)))
        # Reflection: orthonormal but det -1.
        with pytest.raises(InvalidPlan):
            rotate_plan(plan, ((1, 0, 0), (0, 1, 0), (0, 0, -1)))


class TestCounting:
    def test_two_impulse_planar_row(self):
        assert planar_problem_counts(2) == (7, 4)

    def test_general_row(self):
        assert planar_problem_counts(1) == (2, 2)
        assert planar_problem_counts(3) == (12, 6)
        with pytest.raises(ValueError):
            planar_problem_counts(0)


class TestSerialization:
    def test_plan_roundtrip(self):
        plan = hohmann_plan_1_to_2()
        d = plan_as_dict(plan)
        assert set(d) == {"orbits", "burn_points"}
        plan2 = plan_from_dict(d)
        assert impulses(plan2).f1 == impulses(plan).f1

    def test_cost_report_dict(self):
        rep = CostReport(deltas=(0.25, 0.5), f1=0.75, f2=0.3125)
        d = cost_report_as_dict(rep)
        assert d == {"deltas": [0.25, 0.5], "f1": 0.75, "f2": 0.3125}

    def test_malformed(self):
        with pytest.raises(InvalidPlan):
            plan_from_dict({"orbits": []})
