"""Build the integer tables of ``orbita.elimination_tables`` with sympy.

    python tests/generate_elimination_tables.py

rewrites ``src/orbita/elimination_tables.py`` from the symbolic
constructions below, in which ``s0x`` and ``s0y`` are symbols (about 15 s on
one core).  The tests import this module and prove that the committed
literals equal these constructions term by term.

- The mirror pair: ``stat_l`` and ``stat_t`` of
  ``rotated_ellipses._mirror_pipeline``, each divided by its positive
  integer content.  Their l-leading coefficients are ``1 - x0^2`` and
  ``y0``, free of ``s0x`` and ``s0y``, so ``Res_l`` of the pair commutes with
  every specialization of ``(s0x, s0y)`` (Collins, J. ACM 1971).  The
  resultant, reduced on the burn circle ``x0^2 = 1 - y0^2``, is
  ``E + x0 O`` with ``E`` and ``O`` polynomials in ``(y0, s0x, s0y)``.
- The antipodal pair: ``first``, ``second`` and ``t0`` of
  ``rotated_ellipses._antipodal_equations`` as polynomials in
  ``(l, x0, s1y, s0x, s0y)``: the same formulas, the two exact divisions by
  ``l^3 (l-1)^4 (l+1)^2`` and ``l^2 (l-1)^3 (l+1)^2`` taken symbolically
  (a nonzero remainder raises), each result divided by its positive integer
  content.  The ``/ s0x`` of the production build is taken symbolically too:
  ``(s0x d - s1x_num) / s0x = d - x0 (l s1y - s0y)``, so no power of
  ``s0x`` is multiplied in and the tables carry the production sign.
"""

from __future__ import annotations

import sys
from functools import lru_cache, reduce
from math import gcd
from pathlib import Path

import sympy as sp

ROOT = Path(__file__).resolve().parents[1]
TABLE_PATH = ROOT / "src" / "orbita" / "elimination_tables.py"

L, X0, Y0, S1Y, SX, SY = sp.symbols("l x0 y0 s1y s0x s0y")
MIRROR_VARS = (Y0, SX, SY)
ANTIPODAL_VARS = (L, X0, S1Y, SX, SY)


def _primitive(poly: sp.Poly) -> sp.Poly:
    """``poly`` divided by the positive gcd of its integer coefficients."""
    g = reduce(gcd, (int(c) for c in poly.coeffs()))
    return poly.exquo_ground(g)


@lru_cache(maxsize=1)
def mirror_pair() -> tuple[sp.Poly, sp.Poly]:
    """``(stat_l, stat_t)`` in ``(l, x0, y0, s0x, s0y)``, primitive over Z."""
    gap = SY * L * X0 - (1 + X0 * SY - Y0 * SX - L * L)
    cost = (
        (SX * SX + (1 - L) ** 2) * L * L * X0 * X0
        + gap * gap
        + 2 * (1 - L) * (X0 * SY - Y0 * SX) * L * L * X0 * X0
        - 2 * (1 - L) * (1 + X0 * SY - Y0 * SX - L * L) * L * X0 * X0
    )
    stat_l = L * sp.diff(cost, L) - 2 * cost
    stat_t = X0 * X0 * sp.diff(cost, Y0) - Y0 * (X0 * sp.diff(cost, X0) - 2 * cost)
    gens = (L, X0, Y0, SX, SY)
    return _primitive(sp.Poly(stat_l, *gens)), _primitive(sp.Poly(stat_t, *gens))


@lru_cache(maxsize=1)
def mirror_parts() -> tuple[sp.Poly, sp.Poly]:
    """``(E, O)`` in ``(y0, s0x, s0y)``: ``Res_l(stat_l, stat_t)`` is
    ``E + x0 O`` modulo ``x0^2 + y0^2 - 1``."""
    stat_l, stat_t = mirror_pair()
    res = sp.resultant(stat_l.as_expr(), stat_t.as_expr(), L)
    parts = [sp.Integer(0), sp.Integer(0)]
    for (i, j, a, b), c in sp.Poly(res, X0, Y0, SX, SY).terms():
        parts[i % 2] += c * (1 - Y0 * Y0) ** (i // 2) * Y0**j * SX**a * SY**b
    even, odd = (sp.Poly(p, *MIRROR_VARS) for p in parts)
    return even, odd


@lru_cache(maxsize=1)
def antipodal_pair() -> tuple[sp.Poly, sp.Poly, sp.Poly]:
    """``(first, second, t0)`` in ``(l, x0, s1y, s0x, s0y)``, primitive over Z."""
    d = L * (1 - L * L)
    s1x_num = X0 * (L * S1Y - SY) * SX
    y0_num = 1 - L * L
    p0 = sp.expand(
        (SX * d - s1x_num) ** 2
        + (SY * d - S1Y * d) ** 2
        + ((1 - L) * d) ** 2
        + 2 * (1 - L) * d * ((SY - S1Y) * X0 * d - (d - X0 * (L * S1Y - SY)) * y0_num)
    )
    t0 = sp.expand(
        2 * sp.diff(p0, X0) * d * d + SX * SX * X0 * (sp.diff(p0, L) * d - 2 * p0 * sp.diff(d, L))
    )

    def parity_parts(w) -> tuple[sp.Expr, sp.Expr]:
        parts = [sp.Integer(0), sp.Integer(0)]
        for (k,), c in sp.Poly(w, X0).terms():
            parts[k % 2] += c * X0**k
        return parts[0], parts[1]

    p0_e, p0_o = parity_parts(p0)

    def balance(w, divisor) -> sp.Poly:
        w_e, w_o = parity_parts(sp.expand(w))
        quotient, rest = sp.div(
            sp.Poly(w_o * p0_e - w_e * p0_o, *ANTIPODAL_VARS), sp.Poly(divisor, *ANTIPODAL_VARS)
        )
        if not rest.is_zero:
            raise ArithmeticError(f"the balance is not divisible by {divisor}")
        return _primitive(quotient)

    first = balance(sp.diff(p0, S1Y) ** 2, L**3 * (L - 1) ** 4 * (L + 1) ** 2)
    second = balance(t0 * t0, L**2 * (L - 1) ** 3 * (L + 1) ** 2)
    return first, second, _primitive(sp.Poly(t0, *ANTIPODAL_VARS))


def rows(poly: sp.Poly) -> tuple[tuple[int, ...], ...]:
    """The terms of ``poly`` as ``(*exponents, coefficient)``, sorted."""
    return tuple(sorted(tuple(e) + (int(c),) for e, c in poly.terms()))


def tables() -> dict[str, tuple[tuple[int, ...], ...]]:
    """Every table of the module, by name."""
    even, odd = mirror_parts()
    first, second, t0 = antipodal_pair()
    return {
        "MIRROR_EVEN": rows(even),
        "MIRROR_ODD": rows(odd),
        "ANTIPODAL_FIRST": rows(first),
        "ANTIPODAL_SECOND": rows(second),
        "ANTIPODAL_T0": rows(t0),
    }


HEADER = '''"""Integer coefficient tables of the symmetric-family elimination data.

Generated by ``python tests/generate_elimination_tables.py``; do not edit.
Each table is a tuple of rows ``(*exponents, coefficient)``, written one row
per line in a string: a string compiles in a fraction of the time a tuple
literal of this size takes when no bytecode cache is written.  The tests
prove, with ``s0x`` and ``s0y`` as symbols, that every table equals its
construction in that script.

- ``MIRROR_EVEN`` and ``MIRROR_ODD``, rows ``(y0, s0x, s0y, c)``: the parity
  parts ``E`` and ``O`` of the mirror pair resultant.  With ``stat_l`` and
  ``stat_t`` the primitive integer pair of ``rotated_ellipses`` with
  ``s0x`` and ``s0y`` kept as symbols (l-leading coefficients ``1 - x0^2``
  and ``y0``), ``Res_l(stat_l, stat_t) = E + x0 O`` on the burn circle
  ``x0^2 = 1 - y0^2``.
- ``ANTIPODAL_FIRST``, ``ANTIPODAL_SECOND`` and ``ANTIPODAL_T0``, rows
  ``(l, x0, s1y, s0x, s0y, c)``: the antipodal pair ``first`` and ``second``
  and the tangential derivative ``t0`` of ``rotated_ellipses``, each a
  positive integer multiple of the production formulas with ``s0x`` and
  ``s0y`` kept as symbols.
"""


def _table(text: str, width: int) -> tuple[tuple[int, ...], ...]:
    """The rows of ``text``, ``width`` integers each."""
    values = map(int, text.split())
    return tuple(zip(*[values] * width))
'''


def render() -> str:
    """The text of the table module."""
    out = [HEADER]
    for name, table in tables().items():
        out.append(f'\n\n{name} = _table(\n    """\n')
        out.extend(" ".join(map(str, row)) + "\n" for row in table)
        out.append(f'""",\n    {len(table[0])},\n)\n')
    return "".join(out)


def main() -> int:
    TABLE_PATH.write_text(render())
    print(f"wrote {TABLE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
