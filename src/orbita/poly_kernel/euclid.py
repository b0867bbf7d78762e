"""Euclidean pseudo-remainder chains down to a linear element.

Back-substitution steps in the elimination pipelines need, for two
polynomials sharing a root, the degree-1 element of their remainder chain
in one variable: its two coefficients give the shared coordinate as an
exact ratio.  Only the ratio matters, so every chain element is reduced to
its integer-primitive part to keep coefficients small.
"""

from __future__ import annotations

import math

from .errors import ChainCollapse, DegenerateInput
from .mpoly import MPoly
from .resultant import _prem_coeffs

__all__ = ["euclidean_last_linear"]


def euclidean_last_linear(p: MPoly, q: MPoly, var: str) -> tuple[MPoly, MPoly]:
    """Coefficients ``(u1, u0)`` of the degree-1 chain element
    ``u1*var + u0``.

    Runs the pseudo-remainder chain of ``p`` and ``q`` in ``var`` until an
    element of degree exactly 1 appears; raises ``ChainCollapse`` if the
    chain skips degree 1 (a nonzero-constant remainder — the inputs are
    coprime in ``var``) or terminates early on a common factor of degree
    two or more.  Elements are scaled to be integer and primitive; the
    ratio ``-u0/u1`` is invariant under that scaling.
    """
    if p.is_zero() or q.is_zero():
        raise DegenerateInput("zero polynomial in remainder chain")
    p, q = MPoly.align(p, q)
    if var not in p.vars:
        raise DegenerateInput(f"unknown variable {var!r}")
    if p.degree(var) < 1 or q.degree(var) < 1:
        raise DegenerateInput(
            f"both inputs must have positive degree in {var!r}"
        )
    f = p.primitive().coeffs_in(var)
    g = q.primitive().coeffs_in(var)
    if len(f) - 1 < len(g) - 1:
        f, g = g, f
    while True:
        r, _ = _prem_coeffs(f, g)
        if not r:
            raise ChainCollapse(
                f"remainder chain ended above degree 1 "
                f"(common factor of degree {len(g) - 1})"
            )
        r = _primitive_coeffs(r)
        dr = len(r) - 1
        if dr == 1:
            return r[1], r[0]
        if dr < 1:
            raise ChainCollapse(
                "remainder chain skipped degree 1 (nonzero constant remainder)"
            )
        f, g = g, r


def _primitive_coeffs(r: list[MPoly]) -> list[MPoly]:
    g = 0
    for c in r:
        for v in c.terms.values():
            g = math.gcd(g, int(v))
            if g == 1:
                return r
    if g <= 1:
        return r
    return [
        MPoly(c.vars, {k: v // g for k, v in c.terms.items()}) for c in r
    ]
