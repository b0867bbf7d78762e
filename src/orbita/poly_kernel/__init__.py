"""Exact polynomial kernel: rational arithmetic, resultants, real roots.

Public surface:

- types: ``MPoly``, ``RatPoly`` (arithmetic as operators, ``partial``,
  ``subs`` and ``divexact`` as methods; ``MPoly`` also splits by parity in
  one variable, ``parity_parts``, and returns its primitive integer
  multiple, ``primitive``), ``RootInterval``
- elimination: ``sylvester_resultant``, ``sylvester_degree_bound``,
  ``quadratic_resultant`` (the degree-2 closed form on coefficient lists
  over any exact ring, e.g. ``QuadPair``, an element of ``Z[X]/(X^2 - m)``),
  ``interpolate_checked`` (exact interpolation at integer nodes, checked
  at one spare node), ``euclidean_last_linear``.  The solvers call neither
  ``sylvester_degree_bound`` nor ``euclidean_last_linear``: the tests and
  the antipodal certificate (``tests/antipodal_certificate.py``) read the
  bound, and ``euclidean_last_linear`` is kept for its own tests and for
  the benchmark tracer, which wraps that name in ``rotated_ellipses``
- roots: ``strip_known_factors`` (exact division by known factors, a
  ``NotAFactor`` when one does not divide; the solvers take their cores
  from closed forms, and the tests strip with it to check them),
  ``isolate_real_roots`` and
  ``refine_root`` (on the square-free part; no multiplicities; bisection
  on integer numerators over one shared denominator, ``Fraction`` only at
  the interval endpoints; refinement predicts its bisection cell from a
  float root and confirms it with two exact signs; isolation bisects by
  Descartes' rule of signs on a square-free part certified modulo a prime)
- errors: ``PolyKernelError``, ``DegenerateInput``, ``ChainCollapse``,
  ``NotAFactor``

Rationals are ``fractions.Fraction`` (coefficients may also be plain
``int``), and the kernel has one implementation, in pure Python: the
sparse term loops live in ``mpoly`` and the dense coefficient-list loops
in ``dense``.
"""

from .errors import ChainCollapse, DegenerateInput, NotAFactor, PolyKernelError
from .euclid import euclidean_last_linear
from .mpoly import MPoly, RatPoly
from .resultant import (
    QuadPair,
    interpolate_checked,
    quadratic_resultant,
    sylvester_degree_bound,
    sylvester_resultant,
)
from .roots import (
    RootInterval,
    isolate_real_roots,
    refine_root,
    strip_known_factors,
)

__all__ = [
    "MPoly",
    "RatPoly",
    "RootInterval",
    "QuadPair",
    "sylvester_resultant",
    "sylvester_degree_bound",
    "quadratic_resultant",
    "interpolate_checked",
    "euclidean_last_linear",
    "strip_known_factors",
    "isolate_real_roots",
    "refine_root",
    "PolyKernelError",
    "DegenerateInput",
    "ChainCollapse",
    "NotAFactor",
]

