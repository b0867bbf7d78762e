"""Certificate: the antipodal eliminant factors in closed form on every input.

The identity.  Let ``first`` and ``second`` be the antipodal pair of
``rotated_ellipses._antipodal_pair`` with ``s0x`` and ``s0y`` kept as
symbols ``sx`` and ``sy`` (the formulas of
``elimination_oracles.built_antipodal_equations``, without ``primitive()``;
the tables ``ANTIPODAL_FIRST`` and ``ANTIPODAL_SECOND`` that production
evaluates are positive integer multiples of them, which the tests check):
integer polynomials in ``(sx, sy, l, x0, s1y)``.  Both are odd in ``x0``, of
s1y-degree 2 and 5, so ``R = Res_s1y(first, second)`` is ``x0^7`` times a
polynomial in ``x0^2``: ``R = sum_j a_j(l, sx, sy) x0^(7 + 2j)`` for
``0 <= j <= top``.  On the burn circle ``x0^2 = r = 1 - (1 - l^2)^2/sx^2``,

    H~ = sx^(2 top) * sum_j a_j r^j

is a polynomial in ``(l, sx, sy)``.  With ``a = sy^2/(sx^2 + sy^2)``,
``k = 1 - sx^2`` and ``F = q2 c3 c3' q4 C^4 Q5 Q5'`` the product of
``_antipodal_factors(a, k)``, let ``A`` be the total degree of ``F`` in
``a`` (7) and ``P~ = (sx^2 + sy^2)^A F``, a polynomial.  The claim is

    (sx^2 + sy^2)^A H~ = lc_l(H~) * l^11 (l-1)^10 (l+1)^10 * P~.

The argument.  Write ``D(l, sx, sy)`` for the left side minus the right.

- Degrees.  Each l-coefficient of ``R`` has degree at most ``B_x`` in sx
  and ``B_y`` in sy, the weighted Sylvester row bounds of the pair
  (``sylvester_degree_bound`` with weights ``{"sx": 1}`` and
  ``{"sy": 1}``).  ``r`` adds ``2 top`` in sx, so every l-coefficient of
  ``H~``, its leading one included, has sx-degree at most
  ``B_x + 2 top`` and sy-degree at most ``B_y``.  ``P~`` is built here from
  ``_antipodal_factors`` itself and its degrees read off.  So every
  l-coefficient of ``D`` has sx-degree at most
  ``D_x = max(2A, deg_sx P~) + B_x + 2 top`` and sy-degree at most
  ``D_y = max(2A, deg_sy P~) + B_y``.
- Grid.  At every point of ``S_x x S_y`` (``|S_x| > D_x``,
  ``|S_y| > D_y``) the specialized pair keeps both s1y-degrees, so its
  Sylvester matrix is the specialized one and ``Res_s1y`` commutes with
  the specialization.  The per-input route below (node values in
  ``Z[X]/(X^2 - N D)``, checked interpolation within the degree bound, one
  node compared with ``Res_s1y`` over ``Z[x0]``) then gives a nonzero
  multiple of ``H~`` there, asserts degree 69, divides out
  ``l^11 (l-1)^10 (l+1)^10`` exactly and divides the rest by the seven
  factors to a nonzero constant.  So ``H~ = kappa l^11 (l-1)^10 (l+1)^10 F``
  at that point, with ``kappa`` its l^69 coefficient, and ``D`` vanishes
  there identically in ``l``.  Any l-coefficient of ``H~`` above 69 also
  vanishes on the grid.
- Conclusion.  A polynomial of degree at most ``D_x`` in sx and ``D_y`` in
  sy that vanishes on ``S_x x S_y`` is zero (Alon, Combinatorial
  Nullstellensatz, 1999, Lemma 2.1; Collins, J. ACM 1971, for the
  evaluation route).  So every l-coefficient of ``D`` is zero, ``H~`` has
  l-degree 69 and the identity holds.

Per input, ``_antipodal_pipeline`` therefore builds the factors directly
and only guards the cases the identity cannot exclude: a vanishing
``lc_l(H~)``, or an s1y-degree that drops.

Run ``python tests/antipodal_certificate.py`` from a checkout to check the
whole grid (a few minutes on one core).  It writes ``CERT_antipodal.json``
at the repository root, prints it as one JSON line and exits nonzero if any
grid point fails.  The tests import this module: it holds the per-input
route as the oracle, and ``tests/test_rotated_ellipses.py`` recomputes the
bounds and the digest of the symbolic polynomials against the saved
certificate, so an edit to the equations or the factors fails there until
the certificate is re-run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import sys
import time
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from orbita.poly_kernel import (  # noqa: E402
    DegenerateInput,
    MPoly,
    NotAFactor,
    RatPoly,
    interpolate_checked,
    strip_known_factors,
    sylvester_degree_bound,
    sylvester_resultant,
)
from orbita.poly_kernel.dense import primitive, u_eval  # noqa: E402
from orbita.poly_kernel.mpoly import unpack  # noqa: E402
from orbita.rotated_ellipses import (  # noqa: E402
    _ANTIPODAL_UNITS,
    _S1Y_DEGREES,
    _X0_LOW,
    PipelineDegreeMismatch,
    _antipodal_factors,
    _antipodal_node_setup,
    _antipodal_node_value,
    _antipodal_pair,
)

CERT_PATH = ROOT / "CERT_antipodal.json"
SYMBOLS = ("sx", "sy", "l", "x0", "s1y")
PAIR_VARS = ("l", "x0", "s1y")
# grid heights: S_x = {i/211}, S_y = {j/223}, i, j = 1, 2, ...; every point
# has 0 < sx, 0 < sy and sx^2 + sy^2 < 1
GRID_DENOMINATORS = (211, 223)


# --------------------------------------------------------------------------
# the symbolic pair and factor product
# --------------------------------------------------------------------------


@lru_cache(maxsize=1)
def symbolic_pair() -> tuple[MPoly, MPoly]:
    """``(first, second)`` of ``_antipodal_pair`` with ``s0x = sx``
    and ``s0y = sy`` symbolic, without ``primitive()``.  The ``/ s0x`` of the
    ``MPoly`` build is taken symbolically: ``(s0x d - s1x_num) / s0x`` is
    ``d - x0 (l s1y - sy)``."""
    sx, sy, l, x0, s1y = (MPoly.variable(v, SYMBOLS) for v in SYMBOLS)
    one = MPoly.const(1, SYMBOLS)

    d = l * (one - l * l)
    s1x_num = x0 * (l * s1y - sy) * sx
    y0_num = one - l * l

    p0 = (
        (sx * d - s1x_num) ** 2
        + (sy * d - s1y * d) ** 2
        + ((one - l) * d) ** 2
        + 2 * (one - l) * d * ((sy - s1y) * x0 * d - (d - x0 * (l * s1y - sy)) * y0_num)
    )
    t0 = 2 * p0.partial("x0") * d * d + sx * sx * x0 * (
        p0.partial("l") * d - 2 * p0 * d.partial("l")
    )
    p0_e, p0_o = p0.parity_parts("x0")

    def balance(w: MPoly) -> MPoly:
        w_e, w_o = w.parity_parts("x0")
        return w_o * p0_e - w_e * p0_o

    first = balance(p0.partial("s1y") ** 2).divexact(l**3 * (l - one) ** 4 * (l + one) ** 2)
    second = balance(t0 * t0).divexact(l**2 * (l - one) ** 3 * (l + one) ** 2)
    return first, second


@lru_cache(maxsize=1)
def symbolic_factor_product() -> tuple[MPoly, int]:
    """``(P~, A)``: ``P~ = (sx^2 + sy^2)^A F`` in ``(sx, sy, l)`` with ``F``
    the product of ``_antipodal_factors`` and ``A`` its total degree in
    ``a``.  The factors are built by ``_antipodal_factors`` itself on
    symbolic ``a`` and ``k``; each coefficient ``a^i k^j`` then becomes
    ``sy^(2i) (sx^2 + sy^2)^(d - i) (1 - sx^2)^j``, with ``d`` the factor's
    degree in ``a``."""
    ak = ("a", "k")
    V = ("sx", "sy", "l")
    sx, sy, l = (MPoly.variable(v, V) for v in V)
    e2 = sx * sx + sy * sy
    k = 1 - sx * sx
    product = MPoly.const(1, V)
    total = 0
    for factor, mult in _antipodal_factors(MPoly.variable("a", ak), MPoly.variable("k", ak)):
        coeffs = [c if isinstance(c, MPoly) else MPoly.const(c, ak) for c in factor.coeffs]
        deg_a = max(c.degree("a") for c in coeffs)
        homog = MPoly.zero(V)
        for e, c in enumerate(coeffs):
            for key, v in c.terms.items():
                i, j = unpack(key, 2)
                homog = homog + v * (sy * sy) ** i * e2 ** (deg_a - i) * k**j * l**e
        product = product * homog**mult
        total += deg_a * mult
    return product, total


def degree_bounds() -> dict[str, int]:
    """The degree bounds of the identity, recomputed from the symbolic
    pair and the factor list; see the module docstring."""
    first, second = symbolic_pair()
    product, total = symbolic_factor_product()
    top = (sylvester_degree_bound(first, second, "s1y", {"x0": 1}) - _X0_LOW) // 2
    res_sx = sylvester_degree_bound(first, second, "s1y", {"sx": 1})
    res_sy = sylvester_degree_bound(first, second, "s1y", {"sy": 1})
    return {
        "res_sx": res_sx,
        "res_sy": res_sy,
        "top": top,
        "A": total,
        "product_sx": product.degree("sx"),
        "product_sy": product.degree("sy"),
        "D_x": max(2 * total, product.degree("sx")) + res_sx + 2 * top,
        "D_y": max(2 * total, product.degree("sy")) + res_sy,
    }


def digest() -> str:
    """SHA-256 of the symbolic pair and of ``P~``, term by term."""
    first, second = symbolic_pair()
    product, _ = symbolic_factor_product()
    text = "\n--\n".join(p.dump() for p in (first, second, product))
    return hashlib.sha256(text.encode()).hexdigest()


def check_symbolic_structure() -> None:
    """What the identity rests on before any grid point: both polynomials
    odd in ``x0``, of s1y-degrees ``_S1Y_DEGREES`` summing to ``_X0_LOW``, so
    ``Res_s1y = x0^7 H(l, x0^2)``; ``P~`` of l-degree 38 with leading
    coefficient ``(sx^2 + sy^2)^A``, so ``F`` is monic."""
    first, second = symbolic_pair()
    for p, deg in zip((first, second), _S1Y_DEGREES):
        even, _ = p.parity_parts("x0")
        if not even.is_zero() or p.degree("s1y") != deg:
            raise PipelineDegreeMismatch("symbolic antipodal pair: not odd in x0 or wrong s1y-degree")
    if sum(_S1Y_DEGREES) != _X0_LOW:
        raise PipelineDegreeMismatch("x0-degree of Res_s1y's lowest term differs from _X0_LOW")
    product, total = symbolic_factor_product()
    V = product.vars
    lead = product.coeffs_in("l")[-1]
    if product.degree("l") != 38 or lead != (MPoly.variable("sx", V) ** 2 + MPoly.variable("sy", V) ** 2) ** total:
        raise PipelineDegreeMismatch("P~ is not (sx^2 + sy^2)^A times a monic degree-38 product")


def specialize(p: MPoly, s0x, s0y) -> MPoly:
    """``p`` at ``sx = s0x``, ``sy = s0y``, as a polynomial in (l, x0, s1y)
    (``sx`` and ``sy`` lead ``SYMBOLS``, so the other exponents stay)."""
    q = p.subs("sx", Fraction(s0x)).subs("sy", Fraction(s0y))
    return MPoly.from_dict(PAIR_VARS, {unpack(key, 5)[2:]: c for key, c in q.terms.items()})


# --------------------------------------------------------------------------
# the per-input route, kept as the oracle
# --------------------------------------------------------------------------


def _antipodal_node_value_poly(first: MPoly, second: MPoly, radius, top: int, c: int):
    """``_antipodal_node_value`` through ``Z[x0]``: the univariate s1y
    resultant of the integer polynomials ``first`` and ``second`` at
    ``l = c``, checked to be odd in x0 with lowest power 7 and within the
    x0-degree bound ``7 + 2 top``, then reduced at ``x0^2 = r(c)``: the
    value is ``D^top * sum_j a_j r(c)^j``.
    """
    f = first.subs("l", c)
    g = second.subs("l", c)
    if f.degree("s1y") < first.degree("s1y") or g.degree("s1y") < second.degree("s1y"):
        return None
    inner = sylvester_resultant(f, g, "s1y").to_ratpoly("x0").coeffs
    if any(inner[:_X0_LOW]) or any(inner[_X0_LOW + 1 :: 2]):
        raise PipelineDegreeMismatch(
            f"Res_s1y at l = {c} is not odd in x0 with lowest power >= {_X0_LOW}"
        )
    odd = inner[_X0_LOW::2]
    if len(odd) > top + 1:
        raise PipelineDegreeMismatch(
            f"Res_s1y at l = {c} exceeds its x0-degree bound {_X0_LOW + 2 * top}"
        )
    n, d = u_eval(radius[0], c), radius[1]
    acc, d_pow = 0, 1
    for j in range(top, -1, -1):
        acc = acc * n + (odd[j] * d_pow if j < len(odd) else 0)
        d_pow *= d
    return acc


def _check_node(first: MPoly, second: MPoly, radius, top: int, h: list[int]) -> None:
    """Compare ``h`` with :func:`_antipodal_node_value_poly` at the first
    node ``c = 2, -2, 3, ...`` where ``h(c) != 0`` (h vanishes at 0 and
    +-1) and neither s1y-degree drops.  This asserts the ``x0^7 H(x0^2)``
    signature and the x0-degree bound, which the ring values cannot show,
    and that the ring route agrees with the polynomial route."""
    for c in (s * k for k in itertools.count(2) for s in (1, -1)):
        hc = u_eval(h, c)
        if not hc:
            continue
        v = _antipodal_node_value_poly(first, second, radius, top, c)
        if v is None:
            continue
        if v != hc:
            raise PipelineDegreeMismatch(
                f"antipodal eliminant: ring value at l = {c} differs from Res_s1y over Z[x0]"
            )
        return


def eliminant(first: MPoly, second: MPoly, s0x) -> tuple[RatPoly, int]:
    """``(h, bound)``: the degree-69 eliminant ``h(l)``, a fixed multiple of
    ``H(l, r(l))``, interpolated from ring node values within the weighted
    Sylvester bound ``bound`` (102 so far), checked at a spare node and
    against ``Res_s1y`` over ``Z[x0]`` at one node.

    A real burn latitude ``y0 = (1 - l^2)/s0x`` puts the burn on the circle
    ``x0^2 = r(l)``; with weight 2 on x0, ``r(l)`` keeps the weight of
    ``x0^2``, so the weighted row bound less 14 (for ``x0^7``) bounds the
    degree of ``h``.
    """
    bound = sylvester_degree_bound(first, second, "s1y", {"l": 1, "x0": 2}) - 2 * _X0_LOW
    if bound < 69:
        raise PipelineDegreeMismatch(
            f"antipodal degree bound is {bound}, below the expected degree 69"
        )
    first_rows, second_rows, radius, top = _antipodal_node_setup(first.terms, second.terms, s0x)
    try:
        coeffs = interpolate_checked(
            lambda c: _antipodal_node_value(first_rows, second_rows, radius, top, c),
            bound,
        )
    except DegenerateInput as exc:
        raise PipelineDegreeMismatch(f"antipodal eliminant: {exc}") from exc
    h = RatPoly(coeffs, "l")
    if h.degree() != 69:
        raise PipelineDegreeMismatch(
            f"antipodal eliminant has degree {h.degree()}, expected 69"
        )
    _check_node(first, second, radius, top, h.coeffs)
    return h, bound


def core_of(h: RatPoly) -> RatPoly:
    """The primitive integer core: ``h`` with ``l^11 (l-1)^10 (l+1)^10``
    divided out exactly (``NotAFactor`` if they do not divide)."""
    ints, _ = primitive(h.to_int_coeffs()[0])
    return strip_known_factors(RatPoly(ints, "l"), list(_ANTIPODAL_UNITS))


def prove_factorization(core: RatPoly, factors) -> None:
    """``core`` divided by the factors is a nonzero constant, exactly."""
    try:
        rest = strip_known_factors(core, list(factors))
    except NotAFactor as exc:
        raise PipelineDegreeMismatch(
            f"antipodal core of degree {core.degree()} is not q2 c3 c3' q4 C^4 Q5 Q5': {exc}"
        ) from exc
    if rest.degree() != 0:
        raise PipelineDegreeMismatch(
            f"antipodal core has degree {core.degree()}, expected 38 = q2 c3 c3' q4 C^4 Q5 Q5'"
        )


def factors_at(s0x, s0y):
    return _antipodal_factors(s0y * s0y / (s0x * s0x + s0y * s0y), 1 - s0x * s0x)


def oracle(s0x, s0y) -> tuple[RatPoly, RatPoly, int]:
    """``(h, core, bound)`` by the per-input route on the production pair,
    with the factorization of the core proven exactly."""
    first, second = (MPoly(PAIR_VARS, terms) for terms in _antipodal_pair(s0x, s0y))
    h, bound = eliminant(first, second, s0x)
    core = core_of(h)
    prove_factorization(core, factors_at(s0x, s0y))
    return h, core, bound


# --------------------------------------------------------------------------
# the grid
# --------------------------------------------------------------------------


def grid(bounds: dict[str, int]) -> tuple[list[Fraction], list[Fraction]]:
    """``S_x`` and ``S_y``, one point more than each degree bound."""
    dx, dy = GRID_DENOMINATORS
    return (
        [Fraction(i, dx) for i in range(1, bounds["D_x"] + 2)],
        [Fraction(j, dy) for j in range(1, bounds["D_y"] + 2)],
    )


def check_point(s0x: Fraction, s0y: Fraction) -> None:
    """The per-input route on the symbolic pair specialized at one grid
    point; raises ``PipelineDegreeMismatch`` (or ``NotAFactor``) on any
    failure."""
    first, second = (specialize(p, s0x, s0y) for p in symbolic_pair())
    if (first.degree("s1y"), second.degree("s1y")) != _S1Y_DEGREES:
        raise PipelineDegreeMismatch(
            f"an s1y-leading coefficient vanishes at sx = {s0x}, sy = {s0y}"
        )
    first, second = first.primitive(), second.primitive()
    h, _ = eliminant(first, second, s0x)
    prove_factorization(core_of(h), factors_at(s0x, s0y))


def run(log=None) -> dict:
    """Check every grid point; the certificate as a dict."""
    start = time.perf_counter()
    check_symbolic_structure()
    bounds = degree_bounds()
    s_x, s_y = grid(bounds)
    failed = []
    for count, (s0x, s0y) in enumerate(itertools.product(s_x, s_y), 1):
        try:
            check_point(s0x, s0y)
        except (ArithmeticError, ValueError) as exc:
            failed.append({"sx": str(s0x), "sy": str(s0y), "error": f"{type(exc).__name__}: {exc}"})
        if log is not None and count % 200 == 0:
            print(f"{count} points, {len(failed)} failed, {time.perf_counter() - start:.0f} s", file=log)
    points = len(s_x) * len(s_y)
    return {
        "identity": "(sx^2 + sy^2)^A H~ = lc_l(H~) l^11 (l-1)^10 (l+1)^10 P~",
        "bounds": bounds,
        "D_x": bounds["D_x"],
        "D_y": bounds["D_y"],
        "S_x": [str(v) for v in s_x],
        "S_y": [str(v) for v in s_y],
        "points": points,
        "passed": points - len(failed),
        "failed": failed,
        "digest": digest(),
        "wall_s": round(time.perf_counter() - start, 1),
        "machine": f"{os.cpu_count()} cores, Python {platform.python_version()}, one process",
        "command": "python tests/antipodal_certificate.py",
    }


def main() -> int:
    cert = run(log=sys.stderr)
    CERT_PATH.write_text(json.dumps(cert, indent=1) + "\n")
    print(json.dumps(cert))
    return 0 if cert["passed"] == cert["points"] and not cert["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
