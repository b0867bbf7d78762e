"""Minimum-fuel two-impulse orbit transfers, solved exactly.

Orbits are carried in a square-root-of-gravitational-parameter-normalized
form: an orbit is the pair of vectors ``(l, s)`` with ``l`` along the
angular momentum (``|l| = 1 / sqrt(semi-latus rectum)`` in canonical units)
and ``s`` the velocity-offset vector, so that the normalized velocity at a
position with unit vector ``rhat`` is ``w = s + l x rhat``.  Impulse sizes
are distances ``|w_after - w_before|`` in this normalized velocity space.

Subpackages / modules:

- ``poly_kernel``   exact rational polynomial arithmetic, Sylvester
  resultants, real-root isolation by Descartes' rule of signs
- ``kepler``        orbit and orbit-point types, conversions, geometry
- ``transfer_model`` multi-impulse transfer plans, validation, costs
- ``lambert_pp``    minimum-energy fixed-endpoint transfers (both endpoint
  positions given)
- ``hohmann``       circle-to-circle transfers, coplanar and out-of-plane
- ``rotated_ellipses`` minimum-fuel transfers between a pair of equal
  ellipses rotated against each other
- ``oracle``        independent brute-force / numeric verification
"""

__version__ = "0.1.0"

__all__ = [
    "poly_kernel",
    "kepler",
    "transfer_model",
    "lambert_pp",
    "hohmann",
    "rotated_ellipses",
    "oracle",
]
