"""Tests for the fixed-endpoint minimum-squared-impulse solver."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbita import lambert_pp
from orbita.kepler import (
    DegenerateOrbit,
    NotElliptic,
    OrbitPoint,
    Vec3,
    radius_inverse,
    velocity_at,
)
from orbita.lambert_pp import (
    CanonicalFrame,
    CollinearInput,
    LambertInput,
    NoEllipticCandidate,
    RadiusMismatch,
    canonical_frame,
    critical_eliminant,
    critical_eliminant_exact,
    lambert_input_as_dict,
    lambert_input_from_dict,
    solve,
    solve_aligned_opposite,
    solve_aligned_same,
    solve_general,
)
from orbita.oracle import OracleConfig, fixed_endpoint_min
from orbita.poly_kernel import MPoly, RatPoly, strip_known_factors, sylvester_resultant

# Brute-force scan settings: ~1e5 grid points over l, then local polish.
ORACLE_CFG = OracleConfig(grid_points_per_dim=317, refine_iterations=2)

# Pinned regression instance (k0 = 7/8, k1 = 5/4, arrival direction
# (4/5, 3/5)) and its two critical transfers.  The minimum cost was verified
# against the independent oracle scan (1.2322924429394218) before freezing.
REGRESSION_INPUT = LambertInput(
    r0=Vec3(8.0 / 7.0, 0.0, 0.0),
    r1=Vec3(0.8 * 0.8, 0.8 * 0.6, 0.0),
    w0=Vec3(1.0 / 3.0, 1.1, 1.0 / 7.0),
    w1star=Vec3(-0.4, 0.9, -1.0 / 9.0),
)
REGRESSION_ROOTS = (-2.3690822264514098, 1.3814772707877894)
REGRESSION_F2 = (1.2322924429394226, 5.379083592866966)

# Zero-burn instance: the departure state already lies on the circular orbit
# through both endpoints with the required arrival velocity, so the cheapest
# transfer costs exactly nothing (oracle scan agrees: 0.0).
ZERO_BURN_INPUT = LambertInput(
    r0=Vec3(1.0, 0.0, 0.0),
    r1=Vec3(0.0, 1.0, 0.0),
    w0=Vec3(0.0, 1.0, 0.0),
    w1star=Vec3(-1.0, 0.0, 0.0),
)
ZERO_BURN_SECOND_F2 = 6.80267607184236


def _random_instance(rng: random.Random) -> LambertInput:
    """Canonical-frame instance with near-circular endpoint velocities."""
    k0 = math.exp(rng.uniform(-0.7, 0.7))
    k1 = math.exp(rng.uniform(-0.7, 0.7))
    ang = rng.uniform(0.15, math.pi - 0.15)
    x1, y1 = math.cos(ang), math.sin(ang)

    def near_circular(k: float, rhat: Vec3) -> Vec3:
        tangent = Vec3(-rhat.y, rhat.x, 0.0)
        noise = Vec3(rng.gauss(0.0, 0.15), rng.gauss(0.0, 0.15), rng.gauss(0.0, 0.1))
        return math.sqrt(k) * tangent + noise

    return LambertInput(
        r0=Vec3(1.0 / k0, 0.0, 0.0),
        r1=Vec3(x1 / k1, y1 / k1, 0.0),
        w0=near_circular(k0, Vec3(1.0, 0.0, 0.0)),
        w1star=near_circular(k1, Vec3(x1, y1, 0.0)),
    )


def _random_rotation(rng: random.Random) -> tuple[Vec3, Vec3, Vec3]:
    """Images of the x, y, z axes under a random rotation."""
    while True:
        a = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        b = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        if a.norm() > 0.3 and a.cross(b).norm() > 0.3:
            break
    e1 = a.unit()
    e3 = a.cross(b).unit()
    return e1, e3.cross(e1), e3


def _rotate(axes: tuple[Vec3, Vec3, Vec3], v: Vec3) -> Vec3:
    return v.x * axes[0] + v.y * axes[1] + v.z * axes[2]


def _endpoint_residuals(inp: LambertInput, sol) -> tuple[float, float, float, float]:
    """Radius and velocity mismatches of a solution at both endpoints.

    Works in whatever frame the solution is expressed in, using only the
    geometric identities 1/r = |l|^2 + (s x l) . rhat and w = s + l x rhat.
    """
    p0 = OrbitPoint(sol.orbit1, inp.r0.unit())
    p1 = OrbitPoint(sol.orbit1, inp.r1.unit())
    dr0 = abs(radius_inverse(p0) - inp.k0)
    dr1 = abs(radius_inverse(p1) - inp.k1)
    dw0 = (velocity_at(p0) - sol.w0star).norm()
    dw1 = (velocity_at(p1) - sol.w1).norm()
    return dr0, dr1, dw0, dw1


def _fraction_quartic_integers(k0, k1, x1, y1, w0, w1s) -> tuple[list[int], int]:
    """``lambert_pp._quartic_integers`` with every parameter read through
    ``Fraction``: the oracle for its float route."""
    values = [Fraction(v) for v in (k0, k1, x1, y1, w0[0], w0[1], w1s[0], w1s[1])]
    d = math.lcm(*(v.denominator for v in values))
    c0, c1, c3, c4 = lambert_pp._quartic_numerators(
        *(v.numerator * (d // v.denominator) for v in values), d
    )
    return [c0, c1, 0, c3, c4], d**5


def _independent_quartic(k0, k1, x1, y1, w0, w1s) -> RatPoly:
    """Closed-form eliminant quartic, transcribed independently.

    Written out coefficient by coefficient rather than derived through the
    resultant pipeline, so agreement (up to an overall constant factor) is a
    genuine cross-check of the elimination.  Valid only when (x1, y1) lies
    exactly on the unit circle, which is why the comparison runs on exact
    rational circle points.
    """
    w0x, w0y, w0z = w0
    w1x, w1y, w1z = w1s
    c4 = 2 * y1**4
    c3 = (
        x1 * y1**4 * w1y - x1 * y1**3 * w0x + x1 * y1**3 * w1x
        - y1**5 * w1x + y1**4 * w1y - y1**3 * w0x + y1**3 * w1x
    )
    c1 = -(
        k0 * x1 * y1**3 * w0x + k0 * x1 * y1**3 * w1x
        - 2 * k0 * x1 * y1**2 * w0y - 2 * k0 * x1 * y1**2 * w1y
        - 2 * k0 * x1 * y1 * w0x - 2 * k0 * x1 * y1 * w1x
        + k0 * y1**4 * w0y + k0 * y1**4 * w1y
        + 2 * k0 * y1**3 * w0x + 2 * k0 * y1**3 * w1x
        - 2 * k0 * y1**2 * w0y - 2 * k0 * y1**2 * w1y
        - 2 * k0 * y1 * w0x - 2 * k0 * y1 * w1x
        + 2 * k1 * x1 * y1 * w0x + 2 * k1 * x1 * y1 * w1x
        - k1 * y1**3 * w0x - k1 * y1**3 * w1x
        + 2 * k1 * y1 * w0x + 2 * k1 * y1 * w1x
    )
    c0 = -(
        4 * k0**2 * x1 - 2 * k0**2 * y1**2 + 4 * k0**2
        + 4 * k0 * k1 * x1 * y1**2 - 8 * k0 * k1 * x1
        + 8 * k0 * k1 * y1**2 - 8 * k0 * k1
        + 4 * k1**2 * x1 - 2 * k1**2 * y1**2 + 4 * k1**2
    )
    return RatPoly([c0, c1, Fraction(0), c3, c4], "l")


def _ref_critical_eliminant_exact(k0, k1, x1, y1, w0, w1s) -> RatPoly:
    """The eliminant by generic elimination: the oracle for the closed form.

    Builds the two radius constraints and the squared-impulse cost as exact
    rational polynomials in ``(l, sx, sy)``, forms the 3x3 Jacobian
    determinant of ``(cost, q1, q2)``, eliminates ``sx`` then ``sy`` with
    Sylvester resultants and strips the trailing power of ``l``.
    """
    V = ("l", "sx", "sy")
    lv = MPoly.variable("l", V)
    sx = MPoly.variable("sx", V)
    sy = MPoly.variable("sy", V)

    def c(value) -> MPoly:
        return MPoly.const(Fraction(value), V)

    w0x, w0y, w0z = w0
    w1x, w1y, w1z = w1s

    q1 = lv * lv + lv * sy - c(k0)
    q2 = lv * lv + lv * (c(x1) * sy - c(y1) * sx) - c(k1)
    # Departure burn (w0star - w0) and arrival burn (w1star - w1) with
    # w0star = (sx, sy + l, 0) and w1 = (sx - l*y1, sy + l*x1, 0); the
    # out-of-plane velocity components contribute fixed offsets.
    d0x = sx - c(w0x)
    d0y = sy + lv - c(w0y)
    d1x = c(w1x) - sx + lv * c(y1)
    d1y = c(w1y) - sy - lv * c(x1)
    cost = (
        d0x * d0x + d0y * d0y + c(w0z) * c(w0z)
        + d1x * d1x + d1y * d1y + c(w1z) * c(w1z)
    )

    rows = [[p.partial(v) for v in ("sx", "sy", "l")] for p in (cost, q1, q2)]
    jac = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )

    r1 = sylvester_resultant(q2, jac, "sx")
    r2 = sylvester_resultant(q1, r1, "sy")
    eliminant = r2.to_ratpoly("l")

    power = 0
    while power <= eliminant.degree() and not eliminant.coeffs[power]:
        power += 1
    if power:
        eliminant = strip_known_factors(
            eliminant, [(RatPoly([0, 1], "l"), power)]
        )
    return eliminant


def _lstsq_residual(lz, sx, sy, x1, y1, w0, w1s) -> float:
    """Least-squares defect of the cost gradient against the constraint
    gradients: the oracle for the closed-form stationarity residual."""
    b0x, b0y = sx - w0.x, sy + lz - w0.y
    b1x, b1y = w1s.x - sx + lz * y1, w1s.y - sy - lz * x1
    grad_cost = 2.0 * np.array(
        [b0x - b1x, b0y - b1y, b0y + y1 * b1x - x1 * b1y]
    )
    basis = np.column_stack([
        [0.0, lz, 2.0 * lz + sy],
        [-lz * y1, lz * x1, 2.0 * lz + x1 * sy - y1 * sx],
    ])
    coeffs, *_ = np.linalg.lstsq(basis, grad_cost, rcond=None)
    return float(np.linalg.norm(grad_cost - basis @ coeffs))


_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)
_POSITIVE = st.fractions(min_value=Fraction(1, 10), max_value=3, max_denominator=10**6)


class TestLambertInput:
    def test_coerces_sequences_to_vectors(self):
        inp = LambertInput(r0=[1, 0, 0], r1=(0, 2, 0), w0=[0, 1, 0], w1star=(0, 0, 1))
        assert inp.r0 == Vec3(1.0, 0.0, 0.0)
        assert inp.w1star == Vec3(0.0, 0.0, 1.0)

    def test_shape_parameters(self):
        inp = REGRESSION_INPUT
        assert inp.k0 == pytest.approx(7.0 / 8.0, rel=1e-15)
        assert inp.k1 == pytest.approx(5.0 / 4.0, rel=1e-15)
        assert inp.x1 == pytest.approx(0.8, rel=1e-14)
        assert inp.y1 == pytest.approx(0.6, rel=1e-14)

    def test_rejects_zero_position(self):
        with pytest.raises(ValueError, match="nonzero"):
            LambertInput(r0=Vec3(0, 0, 0), r1=Vec3(1, 0, 0),
                         w0=Vec3(0, 1, 0), w1star=Vec3(0, 1, 0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            LambertInput(r0=Vec3(1, 0, 0), r1=Vec3(math.nan, 0, 0),
                         w0=Vec3(0, 1, 0), w1star=Vec3(0, 1, 0))
        with pytest.raises(ValueError, match="finite"):
            LambertInput(r0=Vec3(1, 0, 0), r1=Vec3(2, 0, 0),
                         w0=Vec3(0, math.inf, 0), w1star=Vec3(0, 1, 0))

    def test_dict_round_trip(self):
        d = lambert_input_as_dict(REGRESSION_INPUT)
        back = lambert_input_from_dict(d)
        assert back == REGRESSION_INPUT

    def test_malformed_dict(self):
        with pytest.raises(ValueError, match="malformed"):
            lambert_input_from_dict({"r0": [1, 0, 0]})


class TestCanonicalFrame:
    def test_worked_example(self):
        inp = LambertInput(r0=Vec3(0, 2, 0), r1=Vec3(-3, 0, 0),
                           w0=Vec3(0, 0, 0), w1star=Vec3(0, 0, 0))
        framed, frame = canonical_frame(inp)
        assert framed.r0.as_tuple() == pytest.approx((2.0, 0.0, 0.0), abs=1e-15)
        assert framed.r1.as_tuple() == pytest.approx((0.0, 3.0, 0.0), abs=1e-15)
        assert framed.y1 == pytest.approx(1.0, abs=1e-15)

    def test_frame_is_orthonormal_and_invertible(self):
        rng = random.Random(11)
        for _ in range(25):
            inp = LambertInput(
                r0=Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)),
                r1=Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)),
                w0=Vec3(0, 0, 0), w1star=Vec3(0, 0, 0))
            if inp.r0.unit().cross(inp.r1.unit()).norm() < 1e-3:
                continue
            framed, frame = canonical_frame(inp)
            for a in (frame.ex, frame.ey, frame.ez):
                assert a.norm() == pytest.approx(1.0, abs=1e-14)
            assert abs(frame.ex.dot(frame.ey)) < 1e-14
            assert abs(frame.ey.dot(frame.ez)) < 1e-14
            assert abs(frame.ez.dot(frame.ex)) < 1e-14
            v = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
            assert (frame.to_world(frame.to_frame(v)) - v).norm() < 1e-13
            assert (frame.to_frame(frame.to_world(v)) - v).norm() < 1e-13

    def test_second_direction_lands_in_upper_half_plane(self):
        rng = random.Random(12)
        for _ in range(50):
            inp = LambertInput(
                r0=Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)),
                r1=Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)),
                w0=Vec3(0.1, 0.2, 0.3), w1star=Vec3(-0.1, 0.4, 0.0))
            if inp.r0.norm() < 1e-3 or inp.r1.norm() < 1e-3:
                continue
            sin_sep = inp.r0.unit().cross(inp.r1.unit()).norm()
            if sin_sep < 1e-3:
                continue
            framed, _ = canonical_frame(inp)
            assert framed.y1 > 0.0
            assert framed.y1 == pytest.approx(sin_sep, rel=1e-12)
            assert abs(framed.r1.z) < 1e-13 * framed.r1.norm()

    def test_rotation_preserves_velocity_norms(self):
        framed, frame = canonical_frame(REGRESSION_INPUT)
        assert framed.w0.norm() == pytest.approx(REGRESSION_INPUT.w0.norm(), rel=1e-14)
        assert framed.w1star.norm() == pytest.approx(
            REGRESSION_INPUT.w1star.norm(), rel=1e-14)

    def test_to_world_is_the_vector_sum_bit_for_bit(self):
        # the componentwise sums must equal the vector expression
        # v.x * ex + v.y * ey + v.z * ez bit for bit, compared by float.hex
        # so that the sign of a zero counts
        def bits(v):
            return [c.hex() for c in v]

        rng = random.Random(31)
        vectors = [
            Vec3(0.0, 0.0, 0.0), Vec3(-0.0, -0.0, -0.0), Vec3(0.0, -0.0, 1.5),
            Vec3(-0.0, 2.0, -0.0), Vec3(-1.25, 0.0, -0.0), Vec3(1e-300, -0.0, 5e-324),
        ]
        vectors += [Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(8)]
        frames = [CanonicalFrame.identity()]
        for _ in range(20):
            inp = _random_instance(rng)
            frames.append(canonical_frame(inp)[1])
            axes = _random_rotation(rng)
            world = LambertInput(*(_rotate(axes, v) for v in (inp.r0, inp.r1, inp.w0, inp.w1star)))
            frames.append(canonical_frame(world)[1])
        for frame in frames:
            for v in vectors:
                oracle = v.x * frame.ex + v.y * frame.ey + v.z * frame.ez
                assert bits(frame.to_world(v)) == bits(oracle)

    @pytest.mark.parametrize("r1", [Vec3(2.5, 0, 0), Vec3(-0.7, 0, 0)])
    def test_collinear_raises(self, r1):
        inp = LambertInput(r0=Vec3(1, 0, 0), r1=r1,
                           w0=Vec3(0, 1, 0), w1star=Vec3(0, 1, 0))
        with pytest.raises(CollinearInput):
            canonical_frame(inp)


class TestEliminant:
    def test_degree_four_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(10):
            quartic = critical_eliminant(_random_instance(rng))
            assert quartic.degree() == 4

    def test_pinned_exact_coefficients(self):
        quartic = critical_eliminant_exact(
            Fraction(7, 8), Fraction(5, 4), Fraction(4, 5), Fraction(3, 5),
            (Fraction(1, 3), Fraction(11, 10), Fraction(1, 7)),
            (Fraction(-2, 5), Fraction(9, 10), Fraction(-1, 9)),
        )
        assert quartic.coeffs == [
            Fraction(-111, 80), Fraction(489, 625), Fraction(0), Fraction(-51, 3125), Fraction(12, 125)]

    def test_matches_independent_closed_form_up_to_constant(self):
        # Exact rational points on the unit circle via the tangent-half-angle
        # substitution keep the closed form's validity condition x1^2 + y1^2
        # = 1 exact.
        rng = random.Random(5)
        checked = 0
        while checked < 20:
            t = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            x1 = (1 - t * t) / (1 + t * t)
            y1 = 2 * t / (1 + t * t)
            if not y1:
                continue
            k0 = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            k1 = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            w0 = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(3))
            w1s = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(3))
            mine = critical_eliminant_exact(k0, k1, x1, y1, w0, w1s)
            ref = _independent_quartic(k0, k1, x1, y1, w0, w1s)
            assert mine.degree() == 4
            ratios = set()
            for a, b in zip(mine.coeffs, ref.coeffs):
                # Zero coefficients must agree exactly (both quartics lack
                # the l^2 term); nonzero ones must share a single ratio.
                assert (not a) == (not b)
                if a:
                    ratios.add(a / b)
            assert len(ratios) == 1
            assert ratios.pop() != 0
            checked += 1

    def test_constraint_minor_is_l_squared_y1(self):
        # The 2x2 Jacobian minor of the two radius constraints in (sx, sy)
        # is l^2 * y1: away from l = 0 the constraints are independent, so
        # every critical point is isolated and the elimination misses
        # nothing.
        V = ("l", "sx", "sy")
        lv = MPoly.variable("l", V)
        sx = MPoly.variable("sx", V)
        sy = MPoly.variable("sy", V)
        x1, y1 = Fraction(4, 5), Fraction(3, 5)
        q1 = lv * lv + lv * sy - MPoly.const(Fraction(7, 8), V)
        q2 = (lv * lv + lv * (MPoly.const(x1, V) * sy - MPoly.const(y1, V) * sx)
              - MPoly.const(Fraction(5, 4), V))
        minor = (q1.partial("sx") * q2.partial("sy")
                 - q1.partial("sy") * q2.partial("sx"))
        assert minor == lv * lv * MPoly.const(y1, V)


    @settings(max_examples=30, deadline=None)
    @given(k0=_POSITIVE, k1=_POSITIVE, x1=_RATIONAL, y1=_RATIONAL,
           w0=st.tuples(_RATIONAL, _RATIONAL, _RATIONAL),
           w1s=st.tuples(_RATIONAL, _RATIONAL, _RATIONAL))
    def test_closed_form_matches_elimination_off_the_circle(self, k0, k1, x1, y1, w0, w1s):
        # The closed form holds for all rationals with y1 != 0, not only on
        # the unit circle; x1^2 + y1^2 = 1 is excluded to show it.
        assume(y1 and x1 * x1 + y1 * y1 != 1)
        assert (critical_eliminant_exact(k0, k1, x1, y1, w0, w1s).coeffs
                == _ref_critical_eliminant_exact(k0, k1, x1, y1, w0, w1s).coeffs)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_closed_form_matches_elimination_on_random_floats(self, seed):
        inp = _random_instance(random.Random(seed))
        ref = _ref_critical_eliminant_exact(
            inp.k0, inp.k1, inp.x1, inp.y1, inp.w0.as_tuple(), inp.w1star.as_tuple())
        assert critical_eliminant(inp).coeffs == ref.coeffs

    def test_float_parameters_read_the_fraction_pair(self):
        # every parameter type's integer ratio is read directly; floats,
        # ints, fractions and numpy.float64 must all give the integers of
        # the all-Fraction oracle
        rng = random.Random(37)
        specials = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, 0.1, -2.5]
        others = [3, -7, 0, Fraction(2, 3), Fraction(-5, 12), np.float64(0.3), np.float64(-0.0)]
        pools = [
            lambda: rng.uniform(-3.0, 3.0),
            lambda: rng.choice(specials),
            lambda: rng.choice(others),
            lambda: math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1000, 1000)),
        ]
        for _ in range(300):
            params = [rng.choice(pools)() for _ in range(8)]
            k0, k1, x1, y1, a0, b0, a1, b1 = params
            args = (k0, k1, x1, y1, (a0, b0, 0.25), (a1, b1, -0.5))
            got = lambert_pp._quartic_integers(*args)
            assert got == _fraction_quartic_integers(*args)
            assert all(type(c) is int for c in got[0]) and type(got[1]) is int

    def test_closed_form_is_the_symbolic_resultant(self):
        # With every parameter a symbol, Res_sy(q1, Res_sx(q2, jac)) is
        # l^3 times the quartic that the production numerators give over
        # d^5, for every common denominator d: an identity, not a sample.
        (k0, k1, x1, y1, w0x, w0y, w0z, w1x, w1y, w1z,
         l, sx, sy, d) = sp.symbols("k0 k1 x1 y1 w0x w0y w0z w1x w1y w1z l sx sy d")
        q1 = l**2 + l * sy - k0
        q2 = l**2 + l * (x1 * sy - y1 * sx) - k1
        cost = ((sx - w0x) ** 2 + (sy + l - w0y) ** 2 + w0z**2
                + (w1x - sx + l * y1) ** 2 + (w1y - sy - l * x1) ** 2 + w1z**2)
        jac = sp.Matrix([[sp.diff(p, v) for v in (sx, sy, l)]
                         for p in (cost, q1, q2)]).det()
        eliminant = sp.resultant(q1, sp.resultant(q2, sp.expand(jac), sx), sy)
        params = (k0, k1, x1, y1, w0x, w0y, w1x, w1y)
        c0, c1, c3, c4 = lambert_pp._quartic_numerators(*(d * p for p in params), d)
        quartic = sp.expand(c4 * l**4 + c3 * l**3 + c1 * l + c0)
        assert sp.expand(d**5 * eliminant - l**3 * quartic) == 0


class TestStationarityResidual:
    def test_matches_least_squares_defect(self):
        # Arbitrary points, not only critical ones, so the residual is often
        # large; the cross-product form must equal the least-squares defect.
        rng = random.Random(16)
        for _ in range(200):
            inp = _random_instance(rng)
            x1, y1 = inp.x1, inp.y1
            lz = rng.choice((-1, 1)) * rng.uniform(0.05, 3.0)
            sx, sy = rng.uniform(-2, 2), rng.uniform(-2, 2)
            args = (lz, sx, sy, x1, y1, inp.w0, inp.w1star)
            want = _lstsq_residual(*args)
            got = lambert_pp._stationarity_residual(*args)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


class TestGeneralCase:
    def test_pinned_regression_roots_and_costs(self):
        sols = solve_general(REGRESSION_INPUT)
        assert len(sols) == 2
        roots = sorted(s.orbit1.l.z for s in sols)
        for got, want in zip(roots, REGRESSION_ROOTS):
            assert got == pytest.approx(want, abs=1e-9)
        assert sols[0].f2 == pytest.approx(REGRESSION_F2[0], abs=1e-8)
        assert sols[1].f2 == pytest.approx(REGRESSION_F2[1], abs=1e-8)
        assert sols[0].case_tag == "general"

    def test_zero_burn_instance(self):
        sols = solve_general(ZERO_BURN_INPUT)
        assert sols[0].f2 == pytest.approx(0.0, abs=1e-12)
        assert sols[0].orbit1.l.z == pytest.approx(1.0, abs=1e-12)
        assert (sols[0].w0star - ZERO_BURN_INPUT.w0).norm() < 1e-9
        assert sols[1].f2 == pytest.approx(ZERO_BURN_SECOND_F2, abs=1e-8)

    def test_candidates_satisfy_endpoint_constraints(self):
        rng = random.Random(14)
        for _ in range(25):
            inp = _random_instance(rng)
            for sol in solve_general(inp):
                dr0, dr1, dw0, dw1 = _endpoint_residuals(inp, sol)
                assert dr0 < 1e-10
                assert dr1 < 1e-10
                assert dw0 < 1e-11
                assert dw1 < 1e-11
                assert sol.stationarity_residual < 1e-8
                lz, sx, sy = sol.orbit1.l.z, sol.orbit1.s.x, sol.orbit1.s.y
                assert sol.stationarity_residual == pytest.approx(_lstsq_residual(
                    lz, sx, sy, inp.x1, inp.y1, inp.w0, inp.w1star), abs=1e-13)

    def test_candidates_sorted_with_single_minimum_flag(self):
        rng = random.Random(15)
        for _ in range(10):
            sols = solve_general(_random_instance(rng))
            costs = [s.f2 for s in sols]
            assert costs == sorted(costs)
            assert [s.is_minimum for s in sols] == [True] + [False] * (len(sols) - 1)

    def test_requires_canonical_frame(self):
        with pytest.raises(ValueError, match="canonical"):
            solve_general(LambertInput(r0=Vec3(0, 2, 0), r1=Vec3(-3, 0, 0),
                                       w0=Vec3(0, 1, 0), w1star=Vec3(1, 0, 0)))
        with pytest.raises(ValueError, match="canonical"):
            solve_general(LambertInput(r0=Vec3(1, 0, 0), r1=Vec3(0, 1, 1),
                                       w0=Vec3(0, 1, 0), w1star=Vec3(1, 0, 0)))

    def test_collinear_canonical_input_raises(self):
        with pytest.raises(CollinearInput):
            solve_general(LambertInput(r0=Vec3(1, 0, 0), r1=Vec3(4, 0, 0),
                                       w0=Vec3(0, 1, 0), w1star=Vec3(0, 0.5, 0)))


class TestAlignedSame:
    def test_velocity_average(self):
        sol = solve_aligned_same(LambertInput(
            r0=Vec3(2, 0, 0), r1=Vec3(2, 0, 0),
            w0=Vec3(1, 0, 0), w1star=Vec3(0, 1, 0)))
        # One point, two burns: the optimum splits the jump evenly.
        assert sol.w0star.as_tuple() == pytest.approx((0.5, 0.5, 0.0), abs=1e-15)
        assert sol.w1 == sol.w0star
        assert sol.f2 == pytest.approx(1.0, rel=1e-14)
        assert sol.case_tag == "aligned_same"
        assert sol.is_minimum
        assert sol.stationarity_residual < 1e-14

    def test_no_gap_means_no_cost(self):
        w = Vec3(0.1, 0.9, 0.2)
        sol = solve_aligned_same(LambertInput(
            r0=Vec3(0, 0, 1.5), r1=Vec3(0, 0, 1.5), w0=w, w1star=w))
        assert sol.f2 == 0.0
        assert (sol.w0star - w).norm() == 0.0

    def test_orbit_passes_through_the_point(self):
        inp = LambertInput(r0=Vec3(1.3, -0.2, 0.4), r1=Vec3(1.3, -0.2, 0.4),
                           w0=Vec3(0.2, 0.8, -0.1), w1star=Vec3(-0.3, 0.7, 0.2))
        sol = solve_aligned_same(inp)
        dr0, dr1, dw0, dw1 = _endpoint_residuals(inp, sol)
        assert max(dr0, dr1) < 1e-12
        assert max(dw0, dw1) < 1e-12

    def test_radius_mismatch(self):
        with pytest.raises(RadiusMismatch):
            solve_aligned_same(LambertInput(
                r0=Vec3(1, 0, 0), r1=Vec3(2, 0, 0),
                w0=Vec3(0, 1, 0), w1star=Vec3(0, 1, 0)))

    def test_rejects_non_parallel_input(self):
        with pytest.raises(ValueError, match="parallel"):
            solve_aligned_same(LambertInput(
                r0=Vec3(1, 0, 0), r1=Vec3(0, 1, 0),
                w0=Vec3(0, 1, 0), w1star=Vec3(1, 0, 0)))
        with pytest.raises(ValueError, match="parallel"):
            solve_aligned_same(LambertInput(
                r0=Vec3(1, 0, 0), r1=Vec3(-1, 0, 0),
                w0=Vec3(0, 1, 0), w1star=Vec3(0, -1, 0)))

    def test_unbound_average_velocity_raises(self):
        # The averaged velocity exceeds escape speed at the point, so no
        # bound orbit exists; the failure is reported, not papered over.
        with pytest.raises(NotElliptic):
            solve_aligned_same(LambertInput(
                r0=Vec3(1, 0, 0), r1=Vec3(1, 0, 0),
                w0=Vec3(0, 1.5, 0), w1star=Vec3(0, 1.5, 0)))

    def test_radial_average_velocity_raises(self):
        with pytest.raises(DegenerateOrbit):
            solve_aligned_same(LambertInput(
                r0=Vec3(1, 0, 0), r1=Vec3(1, 0, 0),
                w0=Vec3(0.5, 0, 0), w1star=Vec3(0.3, 0, 0)))


class TestAlignedOpposite:
    def test_worked_example(self):
        # k0 = 1, k1 = 2: the orbit scale is forced to |l|^2 = 3/2, so the
        # transverse speed leaving r0 is sqrt(2/3) and the arrival speed is
        # twice that, oppositely directed.  The general-case solver converges
        # to exactly this transfer as the arrival direction approaches the
        # antipode (f2 -> 0.434353847766977).
        speed = math.sqrt(2.0 / 3.0)
        sol = solve_aligned_opposite(LambertInput(
            r0=Vec3(1, 0, 0), r1=Vec3(-0.5, 0, 0),
            w0=Vec3(0, 1, 0), w1star=Vec3(0, -1, 0)))
        assert sol.w0star.as_tuple() == pytest.approx((0.0, speed, 0.0), abs=1e-14)
        assert sol.w1.as_tuple() == pytest.approx((0.0, -2.0 * speed, 0.0), abs=1e-14)
        assert sol.f2 == pytest.approx((speed - 1) ** 2 + (2 * speed - 1) ** 2,
                                       rel=1e-13)
        assert sol.f2 == pytest.approx(0.434353847766977, abs=1e-12)
        assert sol.case_tag == "aligned_opposite"
        assert sol.stationarity_residual < 1e-12

    def test_axial_components_average(self):
        sol = solve_aligned_opposite(LambertInput(
            r0=Vec3(2, 0, 0), r1=Vec3(-1, 0, 0),
            w0=Vec3(0.3, 0.7, 0.1), w1star=Vec3(-0.1, -0.6, 0.2)))
        assert sol.w0star.x == pytest.approx(0.5 * (0.3 - 0.1), abs=1e-14)
        assert sol.w1.x == pytest.approx(sol.w0star.x, abs=1e-14)

    def test_matches_general_case_limit(self):
        # Tilt the arrival direction slightly off the antipode: the planar
        # solver's minimum must approach the aligned closed form.
        aligned = solve_aligned_opposite(LambertInput(
            r0=Vec3(1, 0, 0), r1=Vec3(-0.5, 0, 0),
            w0=Vec3(0, 1, 0), w1star=Vec3(0, -1, 0)))
        eps = 1e-5
        ang = math.pi - eps
        tilted = LambertInput(
            r0=Vec3(1, 0, 0),
            r1=Vec3(math.cos(ang) / 2.0, math.sin(ang) / 2.0, 0.0),
            w0=Vec3(0, 1, 0), w1star=Vec3(0, -1, 0))
        near = solve_general(tilted)
        assert near[0].f2 == pytest.approx(aligned.f2, abs=1e-6)

    def test_symmetric_instance_costs_nothing(self):
        # Equal radii and velocities already on one circular orbit.
        sol = solve_aligned_opposite(LambertInput(
            r0=Vec3(1, 0, 0), r1=Vec3(-1, 0, 0),
            w0=Vec3(0, 1, 0), w1star=Vec3(0, -1, 0)))
        assert sol.f2 == pytest.approx(0.0, abs=1e-15)
        assert sol.w0star.as_tuple() == pytest.approx((0, 1, 0), abs=1e-15)

    def test_degenerate_tie_still_connects_endpoints(self):
        # Radial-only endpoint velocities leave the transverse direction
        # completely free; whichever is picked must still give a transfer
        # through both points.
        inp = LambertInput(r0=Vec3(1, 0, 0), r1=Vec3(-2, 0, 0),
                           w0=Vec3(0.2, 0, 0), w1star=Vec3(-0.1, 0, 0))
        sol = solve_aligned_opposite(inp)
        dr0, dr1, dw0, dw1 = _endpoint_residuals(inp, sol)
        assert max(dr0, dr1) < 1e-12
        assert max(dw0, dw1) < 1e-12

    def test_numpy_float_components(self):
        # a Vec3 built from numpy.float64 components is kept as given; its
        # arithmetic with numpy scalars must still give Vec3s, not arrays
        args = dict(r0=(2.0, 0.0, 0.0), r1=(-1.0, 0.0, 0.0),
                    w0=(0.3, 0.7, 0.1), w1star=(-0.1, -0.6, 0.2))
        plain = solve_aligned_opposite(LambertInput(**{k: Vec3(*v) for k, v in args.items()}))
        numpy_inp = LambertInput(**{k: Vec3(*np.array(v)) for k, v in args.items()})
        assert type(numpy_inp.w0.x) is np.float64
        sol = solve_aligned_opposite(numpy_inp)
        assert type(sol.w0star) is Vec3 and type(sol.w1) is Vec3
        assert sol.f2 == plain.f2
        assert sol.w0star == plain.w0star and sol.w1 == plain.w1

    @staticmethod
    def _random_opposite(rng):
        u = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)).unit()
        helper = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        while u.cross(helper).norm() < 0.3:
            helper = Vec3(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        tangent = u.cross(helper).unit()
        k0 = math.exp(rng.uniform(-0.5, 0.5))
        k1 = math.exp(rng.uniform(-0.5, 0.5))
        noise = Vec3(rng.gauss(0, 0.05), rng.gauss(0, 0.05), rng.gauss(0, 0.05))
        noise2 = Vec3(rng.gauss(0, 0.05), rng.gauss(0, 0.05), rng.gauss(0, 0.05))
        return LambertInput(
            r0=(1.0 / k0) * u,
            r1=(-1.0 / k1) * u,
            w0=math.sqrt(k0) * tangent + noise,
            w1star=-math.sqrt(k1) * tangent + noise2,
        )

    def test_momentum_and_radius_consistency(self):
        rng = random.Random(16)
        for _ in range(20):
            inp = self._random_opposite(rng)
            sol = solve_aligned_opposite(inp)
            h0 = inp.r0.cross(sol.w0star)
            h1 = inp.r1.cross(sol.w1)
            assert (h0 - h1).norm() < 1e-12 * max(1.0, h0.norm())
            dr0, dr1, dw0, dw1 = _endpoint_residuals(inp, sol)
            assert max(dr0, dr1) < 1e-10
            assert max(dw0, dw1) < 1e-11

    def test_first_order_optimality_by_finite_differences(self):
        # Parametrize the feasible transfers directly — shared line velocity
        # component and transverse-direction angle, with the transverse
        # speeds pinned by the radius constraints — and check that the
        # returned solution is a stationary point of the cost over that
        # two-parameter family.
        rng = random.Random(17)
        for _ in range(5):
            inp = self._random_opposite(rng)
            sol = solve_aligned_opposite(inp)
            u = inp.r0.unit()
            t0 = (sol.w0star - sol.w0star.dot(u) * u).unit()
            n0 = u.cross(t0)
            k0, k1 = inp.k0, inp.k1
            speed = k0 / math.sqrt(0.5 * (k0 + k1))
            ratio = k1 / k0

            def cost(axial: float, phi: float) -> float:
                t_hat = math.cos(phi) * t0 + math.sin(phi) * n0
                w0s = axial * u + speed * t_hat
                w1 = axial * u - (ratio * speed) * t_hat
                return ((w0s - inp.w0).dot(w0s - inp.w0)
                        + (inp.w1star - w1).dot(inp.w1star - w1))

            a0 = sol.w0star.dot(u)
            assert cost(a0, 0.0) == pytest.approx(sol.f2, rel=1e-12)
            h = 1e-6
            assert abs(cost(a0 + h, 0.0) - cost(a0 - h, 0.0)) / (2 * h) < 1e-6
            assert abs(cost(a0, h) - cost(a0, -h)) / (2 * h) < 1e-6

    def test_rejects_non_antiparallel_input(self):
        with pytest.raises(ValueError, match="antiparallel"):
            solve_aligned_opposite(LambertInput(
                r0=Vec3(1, 0, 0), r1=Vec3(2, 0, 0),
                w0=Vec3(0, 1, 0), w1star=Vec3(0, 1, 0)))


class TestSolveDispatch:
    def test_general_dispatch_matches_manual_pipeline(self):
        inp = LambertInput(r0=Vec3(0, 2, 0), r1=Vec3(-3, 0, 0),
                           w0=Vec3(0.1, 0.6, 0.05), w1star=Vec3(0.3, -0.5, 0.0))
        via_solve = solve(inp)
        framed, frame = canonical_frame(inp)
        manual = solve_general(framed, frame)
        assert len(via_solve) == len(manual)
        for a, b in zip(via_solve, manual):
            assert a.f2 == b.f2
            assert (a.orbit1.l - b.orbit1.l).norm() == 0.0

    def test_collinear_dispatch(self):
        same = solve(LambertInput(r0=Vec3(0, 3, 0), r1=Vec3(0, 3, 0),
                                  w0=Vec3(0.5, 0, 0), w1star=Vec3(0, 0, 0.5)))
        assert [s.case_tag for s in same] == ["aligned_same"]
        opp = solve(LambertInput(r0=Vec3(0, 1, 0), r1=Vec3(0, -2, 0),
                                 w0=Vec3(1, 0, 0), w1star=Vec3(-0.7, 0, 0)))
        assert [s.case_tag for s in opp] == ["aligned_opposite"]

    def test_frame_invariance(self):
        rng = random.Random(18)
        for _ in range(10):
            canon = _random_instance(rng)
            base = solve_general(canon)
            axes = _random_rotation(rng)
            world = LambertInput(
                r0=_rotate(axes, canon.r0), r1=_rotate(axes, canon.r1),
                w0=_rotate(axes, canon.w0), w1star=_rotate(axes, canon.w1star))
            rotated = solve(world)
            assert len(rotated) == len(base)
            for a, b in zip(rotated, base):
                assert a.f2 == pytest.approx(b.f2, rel=1e-10, abs=1e-10)
                assert (a.orbit1.l - _rotate(axes, b.orbit1.l)).norm() < 1e-9
                assert (a.orbit1.s - _rotate(axes, b.orbit1.s)).norm() < 1e-9
                assert (a.w0star - _rotate(axes, b.w0star)).norm() < 1e-9

    def test_world_frame_solution_checks_out_in_world_frame(self):
        inp = LambertInput(r0=Vec3(0, 2, 0), r1=Vec3(-3, 0, 0),
                           w0=Vec3(0.1, 0.6, 0.05), w1star=Vec3(0.3, -0.5, 0.0))
        for sol in solve(inp):
            dr0, dr1, dw0, dw1 = _endpoint_residuals(inp, sol)
            assert max(dr0, dr1) < 1e-10
            assert max(dw0, dw1) < 1e-11


# ``solve`` on four seeded random instances (``random.Random(1414)``): per
# solution the case tag, f2 and the refined root l_z, frozen bit for bit.
# Root refinement is exact bisection followed by a float Newton polish, so a
# change to its arithmetic that alters any decision moves these floats.
FROZEN_SOLVE = (
    (("general", 0.3645145764205894, 1.3312443371738207), ("general", 6.835473712803009, -4.01296430765507)),
    (("general", 0.03276030812180069, 0.8297831532003391), ("general", 5.301711871212304, -0.8870458372854859)),
    (("general", 0.6948743831276649, 1.1245588685908798), ("general", 5.693446979929322, -1.9984195178659112)),
    (("general", 0.04473245953164108, 0.9885294961340678), ("general", 7.002028901424868, -1.1240496820244426)),
)


def test_frozen_solve_outputs():
    rng = random.Random(1414)
    for want in FROZEN_SOLVE:
        sols = solve(_random_instance(rng))
        assert tuple((s.case_tag, s.f2, s.orbit1.l.z) for s in sols) == want


class TestInvariantBattery:
    def test_two_hundred_random_instances(self):
        rng = random.Random(20260822)
        for _ in range(200):
            inp = _random_instance(rng)
            sols = solve_general(inp)
            for sol in sols:
                dr0, dr1, dw0, dw1 = _endpoint_residuals(inp, sol)
                assert max(dr0, dr1) < 1e-10
                assert sol.stationarity_residual < 1e-8
            _, oracle_value = fixed_endpoint_min(inp, "f2", ORACLE_CFG)
            assert sols[0].f2 <= oracle_value + 1e-6
