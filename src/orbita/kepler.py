"""Orbit representation and conversions.

An elliptic orbit is stored as the vector pair ``(l, s)``:

- ``l`` points along the orbital angular momentum, with magnitude
  ``1/sqrt(p)`` for semi-latus rectum ``p`` (the gravitational parameter
  is absorbed: ``l = sqrt(mu) * h / |h|^2`` for momentum vector ``h``);
- ``s`` is the velocity-offset vector (``s = l x e`` for eccentricity
  vector ``e``), lying in the orbit plane.

Consequences used throughout the package:

- normalized velocity at unit position ``rhat``: ``w = s + l x rhat``
  (the physical velocity is ``sqrt(mu) * w``);
- inverse radius: ``1/r = |l|^2 + (s x l) . rhat``, always positive on an
  ellipse;
- orthogonality ``l . s = 0``; ellipticity ``|s| < |l|``.

``mu`` enters only at the conversion boundary (``orbit_from_h_e`` /
``orbit_to_h_e``); every other operation works in normalized units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "Vec3",
    "Orbit",
    "OrbitPoint",
    "OrbitGeometry",
    "NotElliptic",
    "DegenerateOrbit",
    "orbit_from_h_e",
    "orbit_to_h_e",
    "radius_inverse",
    "velocity_at",
    "circular_orbit",
    "orbit_geometry",
    "plane_basis",
    "orbit_as_dict",
    "orbit_from_dict",
]

_ORTHO_SNAP = 1e-12
_TINY = 1e-9
_CIRCULAR_EPS = 1e-9

# Vec3 arithmetic builds its results with tuple.__new__: one call, where the
# generated NamedTuple constructor makes two
_new = tuple.__new__


class NotElliptic(ValueError):
    """The data describes a parabolic or hyperbolic trajectory
    (``|s| >= |l|``, equivalently eccentricity >= 1)."""


class DegenerateOrbit(ValueError):
    """The data does not describe a usable orbit or orbit point
    (non-finite vector norms, vanishing angular momentum, non-orthogonal
    vectors beyond snapping tolerance, zero direction, non-positive ``mu``
    or radius)."""


class Vec3(NamedTuple):
    """Immutable 3-vector of floats.

    A tuple: it unpacks as ``x, y, z = v`` and compares equal to a plain
    tuple of the same floats.  ``+``, ``-`` and ``*`` are the vector
    operations, not tuple concatenation or repetition.  NumPy ufuncs defer
    to it, so ``numpy.float64(2.0) * v`` is a ``Vec3`` too, not an array.
    """

    x: float
    y: float
    z: float

    __array_ufunc__ = None

    def __add__(self, other: "Vec3") -> "Vec3":
        return _new(Vec3, (self.x + other.x, self.y + other.y, self.z + other.z))

    def __sub__(self, other: "Vec3") -> "Vec3":
        return _new(Vec3, (self.x - other.x, self.y - other.y, self.z - other.z))

    def __mul__(self, c: float) -> "Vec3":
        return _new(Vec3, (self.x * c, self.y * c, self.z * c))

    __rmul__ = __mul__

    def __neg__(self) -> "Vec3":
        return _new(Vec3, (-self.x, -self.y, -self.z))

    def dot(self, other: "Vec3") -> float:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return _new(
            Vec3,
            (
                self.y * other.z - self.z * other.y,
                self.z * other.x - self.x * other.z,
                self.x * other.y - self.y * other.x,
            ),
        )

    def norm(self) -> float:
        return math.sqrt(self.dot(self))

    def unit(self) -> "Vec3":
        n = self.norm()
        if n < 1e-15:
            raise DegenerateOrbit("cannot normalize a (near-)zero vector")
        return self * (1.0 / n)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    @classmethod
    def of(cls, seq) -> "Vec3":
        x, y, z = seq
        return cls(float(x), float(y), float(z))


ZERO = Vec3(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Orbit:
    """Elliptic orbit ``(l, s)``.

    Construction validates the invariants: finite ``|l|`` and ``|s|``,
    ``|l|`` bounded away from zero, ``|s| < |l|`` (elliptic), and
    ``l . s = 0``.  Tiny orthogonality violations (relative 1e-12) are
    snapped away by projecting ``s`` onto the plane normal to ``l``; larger
    ones raise :class:`DegenerateOrbit`, as do non-finite components and
    norms that overflow.
    """

    l: Vec3
    s: Vec3

    def __post_init__(self):
        ln = self.l.norm()
        sn = self.s.norm()
        # a NaN or infinite component, or a norm that overflows, is not finite
        if not (math.isfinite(ln) and math.isfinite(sn)):
            raise DegenerateOrbit(f"non-finite |l| = {ln!r} or |s| = {sn!r}")
        if ln <= _TINY:
            raise DegenerateOrbit(f"|l| = {ln:.3e} is too small")
        if sn >= ln:
            raise NotElliptic(
                f"|s| = {sn:.12g} >= |l| = {ln:.12g} (not an ellipse)"
            )
        d = self.l.dot(self.s)
        if d != 0.0:
            if abs(d) > _ORTHO_SNAP * max(1.0, ln * sn):
                raise DegenerateOrbit(
                    f"l.s = {d:.3e} exceeds the orthogonality tolerance"
                )
            object.__setattr__(self, "s", self.s - self.l * (d / (ln * ln)))

    def eccentricity(self) -> float:
        return self.s.norm() / self.l.norm()

    def semilatus(self) -> float:
        n2 = self.l.dot(self.l)
        return 1.0 / n2


@dataclass(frozen=True)
class OrbitPoint:
    """An orbit together with a unit position direction on it.

    ``rhat`` must be unit length and lie in the orbit plane
    (``rhat . l = 0``); both are checked to 1e-12 and snapped to exact
    when the violation is below tolerance.
    """

    orbit: Orbit
    rhat: Vec3

    def __post_init__(self):
        r = self.rhat
        n = r.norm()
        if abs(n - 1.0) > _ORTHO_SNAP * 4:
            raise DegenerateOrbit(f"|rhat| = {n:.12g} is not 1")
        l = self.orbit.l
        ln = l.norm()
        d = r.dot(l)
        if abs(d) > _ORTHO_SNAP * max(1.0, ln):
            raise DegenerateOrbit(
                f"rhat.l = {d:.3e}: position direction is out of the orbit plane"
            )
        if d != 0.0 or n != 1.0:
            r = r - l * (d / (ln * ln))
            object.__setattr__(self, "rhat", r * (1.0 / r.norm()))


@dataclass(frozen=True)
class OrbitGeometry:
    """Classical shape of an orbit: eccentricity, semi-latus rectum, and
    the unit direction toward apogee (``None`` for near-circular orbits,
    where it is undefined)."""

    eccentricity: float
    semilatus: float
    apogee_dir: Vec3 | None


def orbit_from_h_e(h: Vec3, e: Vec3, mu: float = 1.0) -> Orbit:
    """Orbit from a momentum vector ``h`` and eccentricity vector ``e``.

    ``l = sqrt(mu) * h / |h|^2`` and ``s = l x e``.  ``e`` must lie in
    the orbit plane (``h . e = 0``) and strictly inside the unit disc.
    """
    if mu <= 0:
        raise DegenerateOrbit("mu must be positive")
    hn = h.norm()
    if hn <= _TINY:
        raise DegenerateOrbit("momentum vector is (near-)zero")
    en = e.norm()
    if en >= 1.0:
        raise NotElliptic(f"|e| = {en:.12g} >= 1")
    d = h.dot(e)
    if abs(d) > _ORTHO_SNAP * max(1.0, hn * en):
        raise DegenerateOrbit("eccentricity vector is not in the orbit plane")
    if d != 0.0:
        e = e - h * (d / (hn * hn))
    l = h * (math.sqrt(mu) / (hn * hn))
    return Orbit(l=l, s=l.cross(e))


def orbit_to_h_e(o: Orbit, mu: float = 1.0) -> tuple[Vec3, Vec3]:
    """Inverse of :func:`orbit_from_h_e`:
    ``h = sqrt(mu) * l / |l|^2``, ``e = (s x l) / |l|^2``."""
    if mu <= 0:
        raise DegenerateOrbit("mu must be positive")
    ln2 = o.l.dot(o.l)
    h = o.l * (math.sqrt(mu) / ln2)
    e = o.s.cross(o.l) * (1.0 / ln2)
    return h, e


def radius_inverse(pt: OrbitPoint) -> float:
    """``1/r`` at the point: ``|l|^2 + (s x l) . rhat`` (always positive
    on an ellipse)."""
    o = pt.orbit
    return o.l.dot(o.l) + o.s.cross(o.l).dot(pt.rhat)


def velocity_at(pt: OrbitPoint) -> Vec3:
    """Normalized velocity at the point: ``w = s + l x rhat``.

    Multiply by ``sqrt(mu)`` to obtain the physical velocity.
    """
    o = pt.orbit
    return o.s + o.l.cross(pt.rhat)


def circular_orbit(radius: float, axis: Vec3) -> Orbit:
    """Circular orbit of the given radius about the given plane axis:
    ``l = axis_unit / sqrt(radius)``, ``s = 0``."""
    if radius <= 0:
        raise DegenerateOrbit("radius must be positive")
    n = axis.unit()
    return Orbit(l=n * (1.0 / math.sqrt(radius)), s=ZERO)


def orbit_geometry(o: Orbit) -> OrbitGeometry:
    """Eccentricity ``|s|/|l|``, semi-latus rectum ``1/|l|^2``, and the
    unit apogee direction (``None`` when eccentricity < 1e-9)."""
    ln = o.l.norm()
    sn = o.s.norm()
    ecc = sn / ln
    semilatus = 1.0 / (ln * ln)
    if ecc < _CIRCULAR_EPS:
        apogee = None
    else:
        # eccentricity vector points at perigee; apogee is opposite.
        e_vec = o.s.cross(o.l)
        apogee = -e_vec * (1.0 / e_vec.norm())
    return OrbitGeometry(eccentricity=ecc, semilatus=semilatus, apogee_dir=apogee)


def plane_basis(l: Vec3) -> tuple[Vec3, Vec3]:
    """Two orthonormal vectors spanning the plane normal to ``l``.

    Deterministic: picks the world axis least aligned with ``l`` as the
    seed, so nearby ``l`` give nearby bases.
    """
    n = l.unit()
    ax, ay, az = abs(n.x), abs(n.y), abs(n.z)
    if ax <= ay and ax <= az:
        seed = Vec3(1.0, 0.0, 0.0)
    elif ay <= az:
        seed = Vec3(0.0, 1.0, 0.0)
    else:
        seed = Vec3(0.0, 0.0, 1.0)
    u = seed - n * seed.dot(n)
    u = u * (1.0 / u.norm())
    v = n.cross(u)
    return u, v


def orbit_as_dict(o: Orbit) -> dict:
    """JSON-ready mapping ``{"l": [x, y, z], "s": [x, y, z]}``."""
    return {"l": list(o.l.as_tuple()), "s": list(o.s.as_tuple())}


def orbit_from_dict(d: dict) -> Orbit:
    """Inverse of :func:`orbit_as_dict`."""
    try:
        return Orbit(l=Vec3.of(d["l"]), s=Vec3.of(d["s"]))
    except (KeyError, TypeError) as exc:
        raise DegenerateOrbit(f"malformed orbit mapping: {exc}") from exc
