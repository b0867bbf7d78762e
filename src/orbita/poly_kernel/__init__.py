"""Exact polynomial kernel: rational arithmetic, resultants, real roots.

Public surface:

- types: ``MPoly``, ``RatPoly``, ``RootInterval``
- arithmetic: ``mpoly_arith``, ``mpoly_partial`` (also available as
  operators / methods on ``MPoly``)
- elimination: ``sylvester_resultant``, ``euclidean_last_linear``
- roots: ``strip_known_factors``, ``isolate_real_roots``, ``refine_root``,
  ``sturm_chain``
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
from .resultant import sylvester_resultant
from .roots import (
    RootInterval,
    isolate_real_roots,
    refine_root,
    strip_known_factors,
    sturm_chain,
)

__all__ = [
    "MPoly",
    "RatPoly",
    "RootInterval",
    "mpoly_arith",
    "mpoly_partial",
    "sylvester_resultant",
    "euclidean_last_linear",
    "strip_known_factors",
    "isolate_real_roots",
    "refine_root",
    "sturm_chain",
    "PolyKernelError",
    "DegenerateInput",
    "ChainCollapse",
    "NotAFactor",
]


def mpoly_arith(a: MPoly, b: MPoly, op: str) -> MPoly:
    """Combine two polynomials: ``op`` is '+', '-' or '*'."""
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    raise DegenerateInput(f"unknown operation {op!r}")


def mpoly_partial(p: MPoly, var: str) -> MPoly:
    """Partial derivative of ``p`` with respect to ``var``."""
    return p.partial(var)
