"""Tests for the (l, s) orbit model.

Cross-checks are against a classical perifocal-frame propagator written
directly from textbook two-body formulas (kept independent of the
package's own vector identities).
"""

import math
import random

import numpy as np
import pytest

from orbita.kepler import (
    DegenerateOrbit,
    NotElliptic,
    Orbit,
    OrbitPoint,
    Vec3,
    circular_orbit,
    orbit_as_dict,
    orbit_from_dict,
    orbit_from_h_e,
    orbit_geometry,
    orbit_to_h_e,
    plane_basis,
    radius_inverse,
    velocity_at,
)

Z = Vec3(0.0, 0.0, 1.0)
ZERO = Vec3(0.0, 0.0, 0.0)


def rotate(v: Vec3, axis: Vec3, angle: float) -> Vec3:
    """Rodrigues rotation of v about a unit axis."""
    k = axis.unit()
    c, s = math.cos(angle), math.sin(angle)
    return v * c + k.cross(v) * s + k * (k.dot(v) * (1.0 - c))


def classical_state(p, e, nu, mu=1.0):
    """Textbook perifocal position/velocity at true anomaly nu."""
    r = p / (1.0 + e * math.cos(nu))
    pos = Vec3(r * math.cos(nu), r * math.sin(nu), 0.0)
    vmag = math.sqrt(mu / p)
    vel = Vec3(-vmag * math.sin(nu), vmag * (e + math.cos(nu)), 0.0)
    return pos, vel


def h_e_from_state(pos, vel, mu=1.0):
    """Momentum and eccentricity vectors from a state, textbook way."""
    h = pos.cross(vel)
    e_vec = vel.cross(h) * (1.0 / mu) - pos.unit()
    return h, e_vec


def random_orbit(rng, max_ecc=0.95):
    axis = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
    while axis.norm() < 0.1:
        axis = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
    lmag = rng.uniform(0.3, 3.0)
    l = axis.unit() * lmag
    u, v = plane_basis(l)
    ecc = rng.uniform(0.0, max_ecc)
    phase = rng.uniform(0.0, 2 * math.pi)
    s = (u * math.cos(phase) + v * math.sin(phase)) * (ecc * lmag)
    return Orbit(l=l, s=s)


def point_on(orbit, theta):
    u, v = plane_basis(orbit.l)
    return OrbitPoint(orbit, u * math.cos(theta) + v * math.sin(theta))


class TestVec3:
    def test_arithmetic(self):
        a, b = Vec3(1, 2, 3), Vec3(-2, 0.5, 4)
        assert (a + b).as_tuple() == (-1, 2.5, 7)
        assert (a - b).as_tuple() == (3, 1.5, -1)
        assert (2 * a).as_tuple() == (2, 4, 6)
        assert (-a).as_tuple() == (-1, -2, -3)
        assert a.dot(b) == pytest.approx(-2 + 1 + 12)

    def test_cross_identities(self):
        a, b = Vec3(1, 2, 3), Vec3(-2, 0.5, 4)
        c = a.cross(b)
        assert c.dot(a) == pytest.approx(0.0, abs=1e-14)
        assert c.dot(b) == pytest.approx(0.0, abs=1e-14)
        # Lagrange identity.
        assert c.dot(c) == pytest.approx(
            a.dot(a) * b.dot(b) - a.dot(b) ** 2, rel=1e-14
        )

    def test_unit(self):
        u = Vec3(3, 4, 0).unit()
        assert (u.x, u.y) == pytest.approx((0.6, 0.8))
        with pytest.raises(DegenerateOrbit):
            ZERO.unit()

    def test_fields_are_immutable(self):
        v = Vec3(1.0, 2.0, 3.0)
        for name in ("x", "y", "z"):
            with pytest.raises(AttributeError):
                setattr(v, name, 0.0)
        assert v == Vec3(1.0, 2.0, 3.0)

    def test_equal_vectors_compare_and_hash_equal(self):
        a, b = Vec3(1.0, -0.5, 3.0), Vec3(1.0, -0.5, 3.0)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Vec3(1.0, -0.5, 3.5)
        # a tuple: equal to the plain tuple of the same floats
        assert a == (1.0, -0.5, 3.0)

    def test_repr(self):
        assert repr(Vec3(1.0, 2.0, 3.0)) == "Vec3(x=1.0, y=2.0, z=3.0)"

    @pytest.mark.parametrize(
        "expr, expected",
        [
            (lambda v, w: 2 * v, (2.0, -4.0, 6.5)),
            (lambda v, w: 2.0 * v, (2.0, -4.0, 6.5)),
            (lambda v, w: np.float64(2.0) * v, (2.0, -4.0, 6.5)),
            (lambda v, w: v * 2, (2.0, -4.0, 6.5)),
            (lambda v, w: v + w, (1.5, -2.0, 7.25)),
            (lambda v, w: v - w, (0.5, -2.0, -0.75)),
            (lambda v, w: -v, (-1.0, 2.0, -3.25)),
        ],
        ids=["int*v", "float*v", "np.float64*v", "v*int", "v+w", "v-w", "-v"],
    )
    def test_operators_are_componentwise(self, expr, expected):
        # not tuple repetition or concatenation, which would give 6 or 9 items
        got = expr(Vec3(1.0, -2.0, 3.25), Vec3(0.5, 0.0, 4.0))
        assert type(got) is Vec3
        assert got.as_tuple() == expected

    def test_unpacks(self):
        x, y, z = Vec3(1.0, 2.0, 3.0)
        assert (x, y, z) == (1.0, 2.0, 3.0)


class TestOrbitValidation:
    def test_valid(self):
        o = Orbit(l=Z, s=Vec3(0.5, 0, 0))
        assert o.eccentricity() == pytest.approx(0.5)
        assert o.semilatus() == pytest.approx(1.0)

    def test_not_elliptic(self):
        with pytest.raises(NotElliptic):
            Orbit(l=Z, s=Vec3(1.0, 0, 0))
        with pytest.raises(NotElliptic):
            Orbit(l=Z, s=Vec3(1.5, 0, 0))

    def test_tiny_l_rejected(self):
        with pytest.raises(DegenerateOrbit):
            Orbit(l=Vec3(0, 0, 1e-10), s=ZERO)

    def test_orthogonality_snap(self):
        # A violation below 1e-12 is projected out, not rejected.
        o = Orbit(l=Z, s=Vec3(0.5, 0, 1e-13))
        assert abs(o.l.dot(o.s)) < 1e-25
        assert o.s.x == pytest.approx(0.5)

    def test_orthogonality_violation_rejected(self):
        with pytest.raises(DegenerateOrbit):
            Orbit(l=Z, s=Vec3(0.5, 0, 1e-6))


class TestOrbitPoint:
    def test_in_plane_unit_ok(self):
        o = Orbit(l=Z, s=ZERO)
        pt = OrbitPoint(o, Vec3(1, 0, 0))
        assert pt.rhat.as_tuple() == (1, 0, 0)

    def test_non_unit_rejected(self):
        o = Orbit(l=Z, s=ZERO)
        with pytest.raises(DegenerateOrbit):
            OrbitPoint(o, Vec3(1, 1, 0))

    def test_out_of_plane_rejected(self):
        o = Orbit(l=Z, s=ZERO)
        with pytest.raises(DegenerateOrbit):
            OrbitPoint(o, Vec3(0, 0, 1))
        with pytest.raises(DegenerateOrbit):
            OrbitPoint(o, Vec3(math.cos(1e-3), 0, math.sin(1e-3)))

    def test_small_drift_snapped(self):
        o = Orbit(l=Z, s=ZERO)
        pt = OrbitPoint(o, Vec3(1.0, 0, 1e-13))
        assert abs(pt.rhat.dot(o.l)) < 1e-25
        assert pt.rhat.norm() == pytest.approx(1.0, abs=1e-15)


class TestFromHE:
    def test_circular_unit(self):
        o = orbit_from_h_e(Z, ZERO, mu=1.0)
        assert o.l.as_tuple() == (0, 0, 1)
        assert o.s.as_tuple() == (0, 0, 0)

    def test_defining_formulas(self):
        # l = sqrt(mu) h/|h|^2 = (0,0,2)/4 = (0,0,0.5);
        # s = l x e = (0,0,0.5) x (0.5,0,0) = (0, 0.25, 0).
        o = orbit_from_h_e(Vec3(0, 0, 2), Vec3(0.5, 0, 0), mu=1.0)
        assert o.l.as_tuple() == pytest.approx((0, 0, 0.5), abs=1e-15)
        assert o.s.as_tuple() == pytest.approx((0, 0.25, 0), abs=1e-15)
        h, e = orbit_to_h_e(o, mu=1.0)
        assert h.as_tuple() == pytest.approx((0, 0, 2), abs=1e-14)
        assert e.as_tuple() == pytest.approx((0.5, 0, 0), abs=1e-14)

    def test_not_elliptic(self):
        with pytest.raises(NotElliptic):
            orbit_from_h_e(Z, Vec3(1.2, 0, 0))

    def test_degenerate_h(self):
        with pytest.raises(DegenerateOrbit):
            orbit_from_h_e(ZERO, Vec3(0.5, 0, 0))
        with pytest.raises(DegenerateOrbit):
            orbit_from_h_e(Z, Vec3(0.5, 0, 0), mu=-1.0)

    def test_off_plane_e_rejected(self):
        with pytest.raises(DegenerateOrbit):
            orbit_from_h_e(Z, Vec3(0.5, 0, 0.2))

    def test_roundtrip_100_random(self):
        rng = random.Random(20260822)
        for _ in range(100):
            mu = rng.uniform(0.25, 4.0)
            h = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))
            if h.norm() < 0.1:
                h = h + Vec3(0.5, 0, 0)
            h = h * rng.uniform(0.5, 3.0)
            u, v = plane_basis(h)
            phase = rng.uniform(0, 2 * math.pi)
            e = (u * math.cos(phase) + v * math.sin(phase)) * rng.uniform(0, 0.97)
            o = orbit_from_h_e(h, e, mu=mu)
            h2, e2 = orbit_to_h_e(o, mu=mu)
            assert (h2 - h).norm() <= 1e-12 * max(1.0, h.norm())
            assert (e2 - e).norm() <= 1e-12

    def test_mu_scaling(self):
        o = Orbit(l=Z, s=Vec3(0.3, 0, 0))
        h1, e1 = orbit_to_h_e(o, mu=1.0)
        h4, e4 = orbit_to_h_e(o, mu=4.0)
        assert (h4 - 2.0 * h1).norm() < 1e-15
        assert (e4 - e1).norm() < 1e-15


class TestRadiusVelocity:
    def test_circular_radius_and_velocity(self):
        o = Orbit(l=Z, s=ZERO)
        pt = OrbitPoint(o, Vec3(1, 0, 0))
        assert radius_inverse(pt) == pytest.approx(1.0)
        assert velocity_at(pt).as_tuple() == pytest.approx((0, 1, 0), abs=1e-15)

    def test_radius_expansion(self):
        # (s x l).rhat with l = z-hat, s = (0, s0y, 0), rhat = x-hat is s0y.
        for s0y in (0.0, 0.2, 0.7, -0.4):
            o = Orbit(l=Z, s=Vec3(0, s0y, 0))
            pt = OrbitPoint(o, Vec3(1, 0, 0))
            assert radius_inverse(pt) == pytest.approx(1.0 + s0y, abs=1e-15)

    def test_perigee_apogee_ratio(self):
        o = orbit_from_h_e(Z, Vec3(0.5, 0, 0))
        r_peri = 1.0 / radius_inverse(OrbitPoint(o, Vec3(1, 0, 0)))
        r_apo = 1.0 / radius_inverse(OrbitPoint(o, Vec3(-1, 0, 0)))
        assert r_apo / r_peri == pytest.approx(3.0, rel=1e-13)

    def test_against_classical_propagator(self):
        rng = random.Random(7)
        for _ in range(40):
            p = rng.uniform(0.3, 4.0)
            ecc = rng.uniform(0.0, 0.9)
            nu = rng.uniform(0, 2 * math.pi)
            mu = rng.uniform(0.5, 2.0)
            axis = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0)
            ang = rng.uniform(0, 2 * math.pi)
            pos, vel = classical_state(p, ecc, nu, mu)
            pos, vel = rotate(pos, axis, ang), rotate(vel, axis, ang)
            h, e_vec = h_e_from_state(pos, vel, mu)
            o = orbit_from_h_e(h, e_vec, mu=mu)
            pt = OrbitPoint(o, pos.unit())
            assert radius_inverse(pt) == pytest.approx(1.0 / pos.norm(), rel=1e-11)
            w = velocity_at(pt)
            assert (w * math.sqrt(mu) - vel).norm() < 1e-11 * max(1.0, vel.norm())

    def test_flip_l_flips_tangential_part(self):
        o = Orbit(l=Z, s=Vec3(0.4, 0, 0))
        o_flip = Orbit(l=-Z, s=Vec3(0.4, 0, 0))
        rhat = Vec3(0, 1, 0)
        w = velocity_at(OrbitPoint(o, rhat))
        w_flip = velocity_at(OrbitPoint(o_flip, rhat))
        assert (w + w_flip - 2.0 * o.s).norm() < 1e-15

    def test_energy_constant_along_orbit(self):
        rng = random.Random(99)
        for _ in range(5):
            o = random_orbit(rng)
            energies = []
            for k in range(16):
                pt = point_on(o, 2 * math.pi * k / 16)
                w = velocity_at(pt)
                energies.append(0.5 * w.dot(w) - radius_inverse(pt))
            assert max(energies) - min(energies) < 1e-10


class TestCircularOrbit:
    def test_unit(self):
        o = circular_orbit(1.0, Z)
        assert o.l.as_tuple() == (0, 0, 1)
        assert o.s.as_tuple() == (0, 0, 0)

    def test_radius_four(self):
        assert circular_orbit(4.0, Z).l.norm() == pytest.approx(0.5)

    def test_retrograde(self):
        o = circular_orbit(2.0, Vec3(0, 0, -1))
        assert o.l.z == pytest.approx(-1 / math.sqrt(2))

    def test_invalid(self):
        with pytest.raises(DegenerateOrbit):
            circular_orbit(0.0, Z)
        with pytest.raises(DegenerateOrbit):
            circular_orbit(-1.0, Z)
        with pytest.raises(DegenerateOrbit):
            circular_orbit(1.0, ZERO)

    def test_radius_realized(self):
        o = circular_orbit(2.5, Vec3(1, 1, 1))
        for theta in (0.0, 1.0, 2.5, 4.0):
            pt = point_on(o, theta)
            assert radius_inverse(pt) == pytest.approx(1 / 2.5, rel=1e-14)
            assert velocity_at(pt).norm() == pytest.approx(o.l.norm(), rel=1e-14)


class TestOrbitGeometry:
    def test_circular_flags_undefined_apogee(self):
        g = orbit_geometry(circular_orbit(1.0, Z))
        assert g.eccentricity == 0.0
        assert g.apogee_dir is None

    def test_eccentricity(self):
        g = orbit_geometry(Orbit(l=Z, s=Vec3(0.5, 0, 0)))
        assert g.eccentricity == pytest.approx(0.5)

    def test_semilatus(self):
        g = orbit_geometry(Orbit(l=Vec3(0, 0, 0.5), s=ZERO))
        assert g.semilatus == pytest.approx(4.0)

    def test_apogee_direction(self):
        e_vec = Vec3(0.5, 0, 0)
        o = orbit_from_h_e(Z, e_vec)
        g = orbit_geometry(o)
        assert g.apogee_dir is not None
        assert (g.apogee_dir - Vec3(-1, 0, 0)).norm() < 1e-14
        # Apogee direction actually attains the maximum radius.
        r_apo = 1.0 / radius_inverse(OrbitPoint(o, g.apogee_dir))
        r_other = 1.0 / radius_inverse(OrbitPoint(o, Vec3(0, 1, 0)))
        assert r_apo > r_other


class TestInvariantSuite:
    """Identity checks reused (at larger scale) by the acceptance suite."""

    def test_conic_identity(self):
        rng = random.Random(1234)
        for _ in range(50):
            o = random_orbit(rng)
            _, e_vec = orbit_to_h_e(o)
            p = o.semilatus()
            pt = point_on(o, rng.uniform(0, 2 * math.pi))
            rinv = radius_inverse(pt)
            assert rinv > 0
            r = pt.rhat * (1.0 / rinv)
            assert abs(r.norm() + e_vec.dot(r) - p) < 1e-10 * max(1.0, p)

    def test_momentum_reconstruction(self):
        rng = random.Random(77)
        for _ in range(50):
            o = random_orbit(rng)
            pt = point_on(o, rng.uniform(0, 2 * math.pi))
            r = pt.rhat * (1.0 / radius_inverse(pt))
            h_n = r.cross(velocity_at(pt))
            expect = o.l * (1.0 / o.l.dot(o.l))
            assert (h_n - expect).norm() < 1e-10

    def test_energy_relation(self):
        rng = random.Random(55)
        for _ in range(50):
            o = random_orbit(rng)
            pt = point_on(o, rng.uniform(0, 2 * math.pi))
            w = velocity_at(pt)
            lhs = (2.0 * radius_inverse(pt) - w.dot(w)) / o.l.dot(o.l)
            assert lhs == pytest.approx(1.0 - o.eccentricity() ** 2, abs=1e-10)

    def test_rotation_equivariance(self):
        rng = random.Random(31)
        for _ in range(25):
            o = random_orbit(rng)
            pt = point_on(o, rng.uniform(0, 2 * math.pi))
            axis = Vec3(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1) + 2.0)
            ang = rng.uniform(0, 2 * math.pi)
            w = velocity_at(pt)
            o_rot = Orbit(l=rotate(o.l, axis, ang), s=rotate(o.s, axis, ang))
            pt_rot = OrbitPoint(o_rot, rotate(pt.rhat, axis, ang))
            w_rot = velocity_at(pt_rot)
            assert (w_rot - rotate(w, axis, ang)).norm() < 1e-12


class TestSerialization:
    def test_roundtrip(self):
        o = Orbit(l=Vec3(0.1, -0.2, 0.9), s=Vec3(0.09, 0.27, 0.05))
        d = orbit_as_dict(o)
        assert set(d) == {"l", "s"}
        o2 = orbit_from_dict(d)
        assert (o2.l - o.l).norm() == 0.0
        assert (o2.s - o.s).norm() == 0.0

    def test_malformed(self):
        with pytest.raises(DegenerateOrbit):
            orbit_from_dict({"l": [0, 0, 1]})
