"""Kernel tests: exact arithmetic, resultants, chains, root isolation."""

import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elimination_oracles import bezout_resultant
from orbita.poly_kernel import (
    ChainCollapse,
    DegenerateInput,
    MPoly,
    NotAFactor,
    QuadPair,
    RatPoly,
    RootInterval,
    euclidean_last_linear,
    isolate_real_roots,
    quadratic_resultant,
    refine_root,
    strip_known_factors,
    sylvester_resultant,
)
from orbita.poly_kernel import roots as roots_mod
from orbita.poly_kernel.dense import (
    divexact,
    gcd_poly,
    prem,
    primitive,
    sign_at,
    squarefree_part,
    u_derivative,
    u_trim,
)
from orbita.poly_kernel import resultant as resultant_mod
from orbita.poly_kernel.resultant import interpolate_checked, newton_interpolate
from orbita.poly_kernel.mpoly import pack, unpack

V2 = ("x", "y")
X = MPoly.variable("x", V2)
Y = MPoly.variable("y", V2)


def _random_mpoly(rng, variables, max_deg=3, max_terms=6, rational=False):
    p = MPoly(variables)
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = tuple(rng.randrange(0, max_deg + 1) for _ in variables)
        c = rng.randrange(-9, 10)
        if rational:
            c = Fraction(c, rng.randrange(1, 7))
        if c:
            p = p + MPoly.from_dict(variables, {exps: c})
    return p


def _to_sympy(p: MPoly, syms):
    total = sp.Integer(0)
    for k, c in p.terms.items():
        exps = unpack(k, len(p.vars))
        mono = sp.Integer(1)
        for s, e in zip(syms, exps):
            mono *= s**e
        cf = sp.Rational(int(c.numerator), int(c.denominator)) if not isinstance(c, int) else sp.Integer(c)
        total += cf * mono
    return total


class TestPacking:
    def test_roundtrip(self):
        for exps in [(0, 0), (1, 2), (65535, 3), (7, 65535)]:
            assert unpack(pack(exps), 2) == exps

    def test_lex_order_matches_int_order(self):
        rng = random.Random(7)
        vecs = [tuple(rng.randrange(0, 30) for _ in range(3)) for _ in range(60)]
        by_key = sorted(vecs, key=pack)
        assert by_key == sorted(vecs)


class TestMPolyArithmetic:
    def test_ring_identities(self):
        rng = random.Random(42)
        for _ in range(25):
            a = _random_mpoly(rng, V2, rational=True)
            b = _random_mpoly(rng, V2)
            c = _random_mpoly(rng, V2)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a - a == MPoly.zero(V2)
            assert a + b == b + a

    def test_partial_product_rule(self):
        rng = random.Random(3)
        for _ in range(15):
            a = _random_mpoly(rng, V2)
            b = _random_mpoly(rng, V2)
            lhs = (a * b).partial("x")
            rhs = a.partial("x") * b + a * b.partial("x")
            assert lhs == rhs

    def test_auto_union_of_variables(self):
        p = MPoly.variable("x", ("x",))
        q = MPoly.variable("z", ("z",))
        s = p + q
        assert set(s.active_vars()) == {"x", "z"}
        assert s.degree("x") == 1 and s.degree("z") == 1

    def test_subs_and_eval(self):
        p = X * X * Y - 2 * Y + 3
        assert p.subs("x", Fraction(2)).subs("y", Fraction(5)).constant() == 4 * 5 - 10 + 3
        assert p.eval_exact({"x": Fraction(1, 2), "y": Fraction(4)}) == Fraction(1, 4) * 4 - 8 + 3
        assert p.eval_float({"x": 0.5, "y": 4.0}) == pytest.approx(-4.0)

    def test_divexact_roundtrip_and_failure(self):
        rng = random.Random(11)
        for _ in range(20):
            a = _random_mpoly(rng, V2)
            b = _random_mpoly(rng, V2)
            if a.is_zero() or b.is_zero():
                continue
            assert (a * b).divexact(b) == a
        with pytest.raises(NotAFactor):
            (X * X + 1).divexact(X + 1)

    def test_pow_and_scalars(self):
        assert (X + 1) ** 3 == X**3 + 3 * X * X + 3 * X + 1
        assert (X * 2) / 2 == X
        assert (X * Fraction(3, 4)) / Fraction(3, 4) == X

    def test_clear_denominators(self):
        p = X * Fraction(1, 6) + Y * Fraction(3, 4)
        cleared, m = p.clear_denominators()
        assert m == 12
        assert cleared == X * 2 + Y * 9

    def test_clear_denominators_returns_an_integer_polynomial_itself(self):
        p = X**3 * Y * 4 - X * Y * 7 + Y * Y + 3
        point = {"x": Fraction(-2, 3), "y": Fraction(5, 7)}
        before = p.eval_exact(point)
        cleared, m = p.clear_denominators()
        assert cleared is p and m == 1
        x, y = point["x"], point["y"]
        assert p.eval_exact(point) == before == x**3 * y * 4 - x * y * 7 + y * y + 3
        # a Fraction of denominator 1 is still converted to int
        q = MPoly(V2, {k: Fraction(c) for k, c in p.terms.items()})
        cleared, m = q.clear_denominators()
        assert cleared is not q and m == 1
        assert all(type(c) is int for c in cleared.terms.values())
        assert cleared == p and q.eval_exact(point) == before

    def test_primitive_keeps_the_sign(self):
        p = -(X * Fraction(2, 3) + Y * Fraction(4, 9))
        prim = p.primitive()
        assert prim == -(X * 3 + Y * 2)
        assert all(type(c) is int for c in prim.terms.values())
        assert (X * 4 - 6).primitive() == X * 2 - 3

    def test_parity_parts(self):
        p = X**3 * Y + X * X * 5 - X * Y * Fraction(1, 2) + Y * Y - 7
        even, odd = p.parity_parts("x")
        assert even == X * X * 5 + Y * Y - 7
        assert odd == X**3 * Y - X * Y * Fraction(1, 2)
        point = {"x": Fraction(-2, 3), "y": Fraction(5)}
        assert (even - odd).eval_exact({"x": Fraction(2, 3), "y": Fraction(5)}) == p.eval_exact(point)
        assert p.parity_parts("y") == (X * X * 5 + Y * Y - 7, X**3 * Y - X * Y * Fraction(1, 2))

    def test_coeffs_in(self):
        p = X * X * Y + X * 3 + 7
        cs = p.coeffs_in("x")
        assert len(cs) == 3
        assert cs[0] == MPoly.const(7, V2)
        assert cs[1] == MPoly.const(3, V2)
        assert cs[2] == Y

    def test_dump_is_sorted_and_complete(self):
        p = X * X - Y * 5 + 1
        lines = p.dump().splitlines()
        assert lines == ["1 * x^2", "-5 * y", "1"]


class TestRatPoly:
    def test_to_int_coeffs(self):
        p = RatPoly([Fraction(1, 2), Fraction(-2, 3), 1])
        ints, m = p.to_int_coeffs()
        assert m == 6 and ints == [3, -4, 6]

    def test_eval(self):
        p = RatPoly([1, 0, -1])  # 1 - t^2
        assert p.eval_q(Fraction(1, 2)) == Fraction(3, 4)
        assert p.eval_float(3.0) == -8.0


class TestResultant:
    def test_circle_and_line(self):
        r = sylvester_resultant(X * X + Y * Y - 1, X - Y, "x")
        assert r == Y * Y * 2 - 1

    def test_two_linears_value_and_sign(self):
        # Res(x-a, x-b) = a - b under the convention that the first
        # argument's coefficients occupy the top rows
        a, b = Fraction(3), Fraction(5)
        r = sylvester_resultant(X - MPoly.const(a, V2), X - MPoly.const(b, V2), "x")
        assert r.constant() == a - b

    def test_vanishes_iff_common_root(self):
        shared = X - 2
        p = shared * (X - 5)
        q = shared * (X + 7)
        assert sylvester_resultant(p, q, "x").is_zero()
        q2 = (X - 3) * (X + 7)
        assert not sylvester_resultant(p, q2, "x").is_zero()

    def test_rejects_zero_or_constant(self):
        with pytest.raises(DegenerateInput):
            sylvester_resultant(MPoly.zero(V2), X, "x")
        with pytest.raises(DegenerateInput):
            sylvester_resultant(Y + 1, X + 1, "x")  # first has degree 0 in x

    @pytest.mark.parametrize(
        "dp,dq",
        [(1, 4), (4, 1), (2, 5), (5, 2), (3, 3), (4, 3)],
        ids=["lin-first", "lin-second", "quad-first", "quad-second", "cubic", "quartic-cubic"],
    )
    def test_strategy_paths_match_sympy(self, dp, dq):
        """Every dispatch path (linear, quadratic, Bareiss, interpolation)
        must reproduce the textbook Sylvester determinant."""
        rng = random.Random(100 * dp + dq)
        sx, sy = sp.symbols("x y")
        for trial in range(6):
            p = _random_univar_in_x(rng, dp, rational=trial % 2 == 0)
            q = _random_univar_in_x(rng, dq)
            mine = sylvester_resultant(p, q, "x")
            ref = sp.resultant(
                sp.Poly(_to_sympy(p, (sx, sy)), sx),
                sp.Poly(_to_sympy(q, (sx, sy)), sx),
            )
            assert _to_sympy(mine, (sx, sy)).equals(sp.sympify(ref) if not hasattr(ref, "as_expr") else ref.as_expr())

    def test_quadratic_no_middle_term_path(self):
        # x^2 + (y^2 - 1) against a degree-7 polynomial: parity split path
        rng = random.Random(9)
        sx, sy = sp.symbols("x y")
        quad = X * X + Y * Y - 1
        g = _random_univar_in_x(rng, 7)
        mine = sylvester_resultant(quad, g, "x")
        ref = sp.resultant(
            sp.Poly(_to_sympy(quad, (sx, sy)), sx),
            sp.Poly(_to_sympy(g, (sx, sy)), sx),
        )
        assert _to_sympy(mine, (sx, sy)).equals(ref.as_expr() if hasattr(ref, "as_expr") else sp.sympify(ref))

    def test_three_variables_interpolated(self):
        rng = random.Random(21)
        V3 = ("x", "y", "z")
        sx, sy, sz = sp.symbols("x y z")
        for trial in range(3):
            p = _random_mpoly(rng, V3, max_deg=2, max_terms=5) + MPoly.variable("x", V3) ** 3
            q = _random_mpoly(rng, V3, max_deg=2, max_terms=5) + MPoly.variable("x", V3) ** 4
            mine = sylvester_resultant(p, q, "x")
            ref = sp.resultant(
                sp.Poly(_to_sympy(p, (sx, sy, sz)), sx),
                sp.Poly(_to_sympy(q, (sx, sy, sz)), sx),
            )
            assert _to_sympy(mine, (sx, sy, sz)).equals(
                ref.as_expr() if hasattr(ref, "as_expr") else sp.sympify(ref)
            )

    def test_dense_in_reads_the_packed_exponent_of_each_variable(self):
        # one active variable in any position of three, with degrees up to
        # the packed field's top bits
        V3 = ("x", "y", "z")
        for i, var in enumerate(V3):
            for coeffs in ([5], [0, -3, 0, 7], [1] + [0] * 299 + [-2], [0] * 40000 + [9]):
                exps = [tuple(k if j == i else 0 for j in range(3)) for k in range(len(coeffs))]
                p = MPoly.from_dict(V3, {e: c for e, c in zip(exps, coeffs) if c})
                assert resultant_mod._dense_in(p, var) == coeffs
        assert resultant_mod._dense_in(MPoly.zero(V3), "y") == []

    def test_scaling_rule(self):
        # Res(c*p, q) = c^deg(q) * Res(p, q)
        p = X * X * X - Y
        q = X * X + Y * Y - 2
        base = sylvester_resultant(p, q, "x")
        scaled = sylvester_resultant(p * Fraction(3, 7), q, "x")
        assert scaled == base * (Fraction(3, 7) ** 2)


class TestQuadraticResultantRing:
    """The quadratic-resultant formula on coefficients in Z[X]/(X^2 - m)."""

    @staticmethod
    def _pair(coeff, sx, m):
        # an integer polynomial in x reduced mod x^2 - m, as e + o X
        rem = sp.rem(sp.Poly(coeff, sx), sp.Poly(sx**2 - m, sx))
        c = rem.all_coeffs()[::-1] + [0, 0]
        return QuadPair(int(c[0]), int(c[1]), m)

    @pytest.mark.parametrize("dg", [2, 3, 5])
    def test_matches_sympy_mod_x2_minus_m(self, dg):
        rng = random.Random(dg)
        sx, sv = sp.symbols("x v")
        checked = 0
        for m in (2, -3, 7, 9, 13):  # 9: a square, the ring has zero divisors
            for _ in range(4):
                qc = [sum(rng.randrange(-4, 5) * sx**e for e in range(3)) for _ in range(3)]
                gc = [sum(rng.randrange(-4, 5) * sx**e for e in range(4)) for _ in range(dg + 1)]
                if qc[-1] == 0 or gc[-1] == 0:
                    continue
                fq = [self._pair(c, sx, m) for c in qc]
                fg = [self._pair(c, sx, m) for c in gc]
                if not fq[-1].norm():
                    continue
                got = quadratic_resultant(fq, fg)
                quad = sum(c * sv**j for j, c in enumerate(qc))
                g = sum(c * sv**j for j, c in enumerate(gc))
                ref = self._pair(sp.resultant(quad, g, sv), sx, m)
                assert (got.e, got.o) == (ref.e, ref.o)
                checked += 1
        assert checked >= 15

    def test_pair_arithmetic(self):
        a, b = QuadPair(3, -2, 5), QuadPair(-1, 4, 5)
        prod = a * b
        assert (prod.e, prod.o) == (3 * -1 + 5 * -2 * 4, 3 * 4 + -2 * -1)
        assert ((prod - a).e, (prod + a).o) == (prod.e - 3, prod.o - 2)
        back = prod.divexact(b)
        assert (back.e, back.o) == (3, -2)
        assert QuadPair(0, 0, 5).is_zero() and not a.is_zero()

    def test_inexact_norm_division_raises(self):
        with pytest.raises(NotAFactor):
            QuadPair(1, 0, 2).divexact(QuadPair(3, 0, 2))
        with pytest.raises(NotAFactor):
            QuadPair(4, 1, 3).divexact(QuadPair(2, 0, 3))  # even part divides, odd not
        with pytest.raises(DegenerateInput):
            QuadPair(1, 0, 4).divexact(QuadPair(2, 1, 4))  # norm 4 - 4 = 0


# two polynomials of one degree 1-4 in x with nonzero tops, as coefficient
# lists in x of coefficient lists in y (degree <= 2)
_COEFFS_IN_Y = st.lists(st.integers(-5, 5), min_size=1, max_size=3)
_EQUAL_DEGREE_PAIRS = st.integers(1, 4).flatmap(
    lambda n: st.tuples(*[st.lists(_COEFFS_IN_Y, min_size=n + 1, max_size=n + 1)] * 2)
).filter(lambda fg: any(fg[0][-1]) and any(fg[1][-1]))


class TestBezoutResultant:
    """Res(f, g) as the n x n Bezout determinant, by Bareiss with row swaps:
    the mirror ring route's oracle, kept in ``elimination_oracles``."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_quadpair_matches_sympy_mod_x2_minus_m(self, n):
        rng = random.Random(100 + n)
        sx, sv = sp.symbols("x v")
        pair = TestQuadraticResultantRing._pair
        checked = 0
        for m in (-3, -8, -15, 7):  # not squares: Z[X]/(X^2 - m) is a domain
            for _ in range(3):
                fc = [sum(rng.randrange(-4, 5) * sx**e for e in range(3)) for _ in range(n + 1)]
                gc = [sum(rng.randrange(-4, 5) * sx**e for e in range(3)) for _ in range(n + 1)]
                if fc[-1] == 0 or gc[-1] == 0:
                    continue
                got = bezout_resultant([pair(c, sx, m) for c in fc], [pair(c, sx, m) for c in gc])
                f = sum(c * sv**j for j, c in enumerate(fc))
                g = sum(c * sv**j for j, c in enumerate(gc))
                ref = pair(sp.resultant(f, g, sv), sx, m)
                assert (got.e, got.o) == (ref.e, ref.o)
                checked += 1
        assert checked >= 10

    @settings(max_examples=40, deadline=None)
    @given(_EQUAL_DEGREE_PAIRS)
    def test_mpoly_matches_sylvester(self, fg):
        def poly(coeffs):
            return MPoly.from_dict(
                V2, {(i, j): c for i, cy in enumerate(coeffs) for j, c in enumerate(cy) if c}
            )

        fc, gc = ([poly([cy]) for cy in side] for side in fg)
        assert bezout_resultant(fc, gc) == sylvester_resultant(poly(fg[0]), poly(fg[1]), "x")

    def test_zero_first_pivot_takes_a_row_swap(self):
        f, g = [1, 2, 0, 1], [2, 4, 1, 1]  # B[0][0] = f1 g0 - f0 g1 = 0
        assert f[1] * g[0] - f[0] * g[1] == 0
        got = bezout_resultant([QuadPair(c, 0, -3) for c in f], [QuadPair(c, 0, -3) for c in g])
        v = sp.symbols("v")
        ref = sp.resultant(sum(c * v**j for j, c in enumerate(f)), sum(c * v**j for j, c in enumerate(g)), v)
        assert ref != 0 and (got.e, got.o) == (int(ref), 0)

    def test_unequal_degrees_rejected(self):
        with pytest.raises(DegenerateInput):
            bezout_resultant([QuadPair(1, 0, -3)] * 3, [QuadPair(1, 0, -3)] * 4)


class TestEvalExact:
    def test_matches_sympy_at_negative_zero_and_dyadic_points(self):
        rng = random.Random(17)
        V3 = ("x", "y", "z")
        syms = sp.symbols("x y z")
        points = [
            {"x": -0.375, "y": 0.0, "z": 2.5},
            {"x": Fraction(-7, 3), "y": 1.25, "z": -3},
            {"x": 0, "y": -0.0078125, "z": Fraction(5, 11)},
            {"x": 1e-300, "y": -2.0**60, "z": 0.1},
        ]
        for _ in range(8):
            p = _random_mpoly(rng, V3, max_deg=4, max_terms=8, rational=True)
            expr = _to_sympy(p, syms)
            for pt in points:
                subs = {s: sp.Rational(*Fraction(pt[str(s)]).as_integer_ratio()) for s in syms}
                ref = sp.Rational(expr.subs(subs))
                got = p.eval_exact(pt)
                assert isinstance(got, Fraction)
                assert (got.numerator, got.denominator) == (int(ref.p), int(ref.q))
                assert p.eval_float(pt) == float(got)

    def test_partial_assignment_raises(self):
        p = X * X * Fraction(1, 3) - Y
        with pytest.raises(DegenerateInput):
            p.eval_exact({"x": 0.5})
        with pytest.raises(DegenerateInput):
            p.eval_float({"y": 2.0})
        # an unassigned variable that does not occur is fine
        assert (X * Fraction(2, 3)).eval_exact({"x": 3}) == 2
        assert MPoly.zero(V2).eval_exact({}) == 0


class TestNewtonInterpolate:
    def test_scalar_values_match_sympy(self):
        rng = random.Random(5)
        t = sp.Symbol("t")
        for n in (1, 2, 5, 12):
            nodes = rng.sample(range(-30, 31), n)
            values = [rng.randrange(-10**9, 10**9) for _ in nodes]
            values[0] = Fraction(values[0], 7)
            mine = newton_interpolate(nodes, values)
            ref = sp.Poly(sp.interpolate(list(zip(nodes, values)), t), t)
            expected = [Fraction(int(c.p), int(c.q)) for c in reversed(ref.all_coeffs())]
            while mine and not mine[-1]:
                mine.pop()
            assert mine == expected

    def test_mpoly_values_match_sympy(self):
        rng = random.Random(9)
        sx, sy, t = sp.symbols("x y t")
        nodes = [0, 1, -1, 2, -2, 3]
        values = [_random_mpoly(rng, V2, rational=True) for _ in nodes]
        mine = newton_interpolate(nodes, values)
        got = sum(_to_sympy(c, (sx, sy)) * t**e for e, c in enumerate(mine))
        ref = sp.interpolate([(x, _to_sympy(v, (sx, sy))) for x, v in zip(nodes, values)], t)
        assert sp.expand(got - ref) == 0

    def test_integer_polynomial_stays_in_the_integers(self):
        coeffs = [3, -7, 0, 11, 2**70 + 1, -5]
        nodes = [0, 1, -1, 2, -2, 3]
        values = [sum(c * x**e for e, c in enumerate(coeffs)) for x in nodes]
        mine = newton_interpolate(nodes, values)
        assert mine == coeffs
        assert all(type(c) is int for c in mine)

    def test_repeated_node_rejected(self):
        with pytest.raises(DegenerateInput):
            newton_interpolate([0, 1, 1], [1, 2, 3])


class TestInterpolateChecked:
    def test_skips_nodes_and_recovers_the_polynomial(self):
        coeffs = [4, 0, -3, 2**65 + 7]
        seen = []

        def value_at(c):
            seen.append(c)
            return None if c == 1 else sum(a * c**e for e, a in enumerate(coeffs))

        assert interpolate_checked(value_at, 3) == coeffs
        assert seen == [0, 1, -1, 2, -2, 3]  # node 1 skipped, 3 is the spare

    def test_degree_above_the_bound_misses_the_spare_node(self):
        coeffs = [1, -2, 0, 5]  # degree 3 = bound + 1
        with pytest.raises(DegenerateInput, match="spare node"):
            interpolate_checked(
                lambda c: sum(a * c**e for e, a in enumerate(coeffs)), 2
            )


def _random_univar_in_x(rng, deg, rational=False):
    """Random polynomial with exact degree ``deg`` in x, mixed y content."""
    p = MPoly(V2)
    for e in range(deg):
        if rng.random() < 0.7:
            c = rng.randrange(-5, 6)
            if c:
                p = p + MPoly.from_dict(V2, {(e, rng.randrange(0, 3)): c})
    lead_c = Fraction(rng.randrange(1, 5), rng.randrange(1, 4)) if rational else rng.randrange(1, 5)
    p = p + MPoly.from_dict(V2, {(deg, rng.randrange(0, 2)): lead_c})
    return p


class TestEuclideanLastLinear:
    def test_reaches_linear(self):
        # p and q share structure so the chain passes through degree 1
        p = (X - Y) * (X + 2)
        q = (X - Y) * (X - 3)
        u1, u0 = euclidean_last_linear(p, q, "x")
        # the linear element is proportional to x - y: root x = -u0/u1 = y
        assert (-u0).divexact(u1) == Y

    def test_coprime_linears_collapse(self):
        with pytest.raises(ChainCollapse):
            euclidean_last_linear(X - 1, X - 2, "x")

    def test_high_degree_common_factor_collapse(self):
        shared = X * X + Y + 1
        with pytest.raises(ChainCollapse):
            euclidean_last_linear(shared * (X + 1), shared * (X - 1), "x")

    def test_ratio_scaling_invariance(self):
        p = (X - Y) * (X * X + 3)
        q = (X - Y) * (X - 7)
        u1a, u0a = euclidean_last_linear(p, q, "x")
        u1b, u0b = euclidean_last_linear(p * 6, q * Fraction(2, 3), "x")
        assert u1a * u0b == u1b * u0a  # same ratio


class TestRootIsolation:
    def test_simple_cubic(self):
        p = RatPoly([-6, 11, -6, 1])  # (t-1)(t-2)(t-3)
        ivs = isolate_real_roots(p)
        assert len(ivs) == 3
        roots = [refine_root(p, iv) for iv in ivs]
        assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    def test_intervals_disjoint_sorted_halfopen(self):
        p = RatPoly([-6, 11, -6, 1])
        ivs = isolate_real_roots(p, Fraction(1), Fraction(3))
        # root at lo=1 excluded, root at hi=3 included
        roots = sorted(refine_root(p, iv) for iv in ivs)
        assert roots == pytest.approx([2.0, 3.0], abs=1e-12)
        for a, b in zip(ivs, ivs[1:]):
            assert Fraction(a.hi) <= Fraction(b.lo)

    def test_multiplicities(self):
        # (t-1)^3 (t+2)^2: each multiple root is isolated once
        t = sp.Symbol("t")
        ex = sp.expand((t - 1) ** 3 * (t + 2) ** 2)
        p = RatPoly([int(ex.coeff(t, i)) for i in range(6)], "t")
        roots = sorted(refine_root(p, iv) for iv in isolate_real_roots(p))
        want = sorted(float(r) for r in set(sp.Poly(ex, t).real_roots()))
        assert roots == pytest.approx(want, abs=1e-12)

    def test_no_real_roots(self):
        assert isolate_real_roots(RatPoly([1, 0, 1])) == []

    def test_root_count_against_sympy(self):
        rng = random.Random(17)
        t = sp.Symbol("t")
        for _ in range(12):
            coeffs = [rng.randrange(-9, 10) for _ in range(rng.randrange(3, 9))]
            if not any(coeffs) or coeffs[-1] == 0:
                continue
            p = RatPoly(coeffs, "t")
            ivs = isolate_real_roots(p)
            expected = sp.count_roots(sp.Poly(list(reversed(coeffs)), t))
            assert len(ivs) == expected

    def test_refine_tolerance_and_exact_rational_root(self):
        p = RatPoly([-2, 0, 1])  # t^2 - 2
        ivs = isolate_real_roots(p, Fraction(0), Fraction(2))
        assert len(ivs) == 1
        r = refine_root(p, ivs[0], tol=1e-13)
        assert abs(r - 2**0.5) < 1e-13
        # hi endpoint exactly a root
        p2 = RatPoly([-2, 1])  # t - 2
        ivs2 = isolate_real_roots(p2, Fraction(0), Fraction(2))
        assert len(ivs2) == 1 and Fraction(ivs2[0].hi) == Fraction(2)
        assert refine_root(p2, ivs2[0]) == 2.0

    def test_huge_coefficients(self):
        # far outside float range: exact bisection must not care
        big = 10**400
        p = RatPoly([-2 * big, 0, big])  # big*(t^2 - 2)
        ivs = isolate_real_roots(p, Fraction(1), Fraction(2))
        assert len(ivs) == 1
        assert abs(refine_root(p, ivs[0]) - 2**0.5) < 1e-13

    def test_zero_poly_rejected(self):
        with pytest.raises(DegenerateInput):
            isolate_real_roots(RatPoly([]))


class TestSharedDecomposition:
    """One square-free part per polynomial, shared by every isolation
    window and by refinement, on a product shaped like the
    antipodal eliminant (A^2 B^7 C^8) plus a rational root of multiplicity
    3.  Each distinct root is isolated once, wherever its multiplicity."""

    T = sp.Symbol("t")
    EXPR = (T**2 - 2) ** 2 * (T - 3) ** 7 * (T**2 + T - 1) ** 8 * (T + 1) ** 3

    def _poly(self):
        ex = sp.Poly(sp.expand(self.EXPR), self.T)
        return RatPoly([int(c) for c in reversed(ex.all_coeffs())], "t")

    def _expected(self, lo, hi):
        """Distinct real roots in (lo, hi], from sympy."""
        return sorted(
            float(r) for r in set(sp.Poly(self.EXPR, self.T).real_roots()) if lo < r <= hi
        )

    def _got(self, p, lo, hi):
        return sorted(refine_root(p, iv) for iv in isolate_real_roots(p, lo, hi))

    def _check(self, p, lo, hi):
        assert self._got(p, lo, hi) == pytest.approx(self._expected(lo, hi), abs=1e-12)

    def test_computed_once(self, monkeypatch):
        # one decomposition for both windows and every refinement; in it
        # the certificate fails on the repeated roots, and the one exact
        # square-free part is taken of the degree-30 input
        calls = []

        def counting(a):
            calls.append(len(a) - 1)
            return squarefree_part(a)

        monkeypatch.setattr(roots_mod, "squarefree_part", counting)
        roots_mod._decompose.cache_clear()
        p = self._poly()
        ivs = isolate_real_roots(p, Fraction(-4), Fraction(1)) + isolate_real_roots(
            p, Fraction(1), Fraction(4)
        )
        assert len(ivs) == 6
        for iv in ivs:
            refine_root(p, iv)
        assert roots_mod._decompose.cache_info().misses == 1
        assert calls == [30]

    def test_multiplicities_full_line(self):
        p = self._poly()
        got = self._got(p, None, None)
        assert len(got) == 6
        assert got == pytest.approx(self._expected(-10, 10), abs=1e-12)

    def test_multiplicities_two_windows(self):
        p = self._poly()
        self._check(p, Fraction(-4), Fraction(1))
        self._check(p, Fraction(1), Fraction(4))

    def test_multiplicities_roots_at_both_endpoints(self):
        # lo = -1 and hi = 3 are roots: -1 is excluded, 3 is reported, and
        # the interior is isolated on the deflated square-free part
        p = self._poly()
        self._check(p, Fraction(-1), Fraction(3))
        ivs = isolate_real_roots(p, Fraction(-1), Fraction(3))
        assert Fraction(ivs[-1].hi) == 3 and refine_root(p, ivs[-1]) == 3.0
        self._check(p, Fraction(-3), Fraction(-1))

    def test_rational_coefficients_share_the_integer_key(self):
        p = self._poly()
        scaled = RatPoly([Fraction(c, 7) for c in p.coeffs], "t")
        roots_mod._decompose.cache_clear()
        isolate_real_roots(p, Fraction(1), Fraction(4))
        isolate_real_roots(scaled, Fraction(1), Fraction(4))
        assert roots_mod._decompose.cache_info().misses == 1


# ------------------------------- Sturm and Fraction reference bisection ---
#
# The isolation and refinement loops as they ran on ``Fraction`` objects,
# counting roots with Sturm chains, before the kernel moved to integer
# numerators over a shared denominator and then to Descartes' rule of
# signs.  Kept as the oracle: the kernel must take the same decisions, so
# its intervals must be equal and its floats repr-identical.


def sturm_chain(coeffs: list[int]) -> list[list[int]]:
    """Canonical Sturm chain of an integer polynomial.

    Each next element is the negated true remainder of the previous two,
    up to a positive constant: when the pseudo-remainder multiplier
    ``lead**k`` is negative the pseudo-remainder is kept as-is instead of
    negated.  Elements are reduced to primitive parts (positive content),
    which preserves all signs.
    """
    f = u_trim(list(coeffs))
    if not f:
        raise DegenerateInput("zero polynomial has no Sturm chain")
    chain = [f]
    if len(f) == 1:
        return chain
    g, _ = primitive(u_derivative(f))
    chain.append(g)
    while True:
        r, lead, k = prem(chain[-2], chain[-1])
        if not r:
            return chain
        if lead > 0 or k % 2 == 0:
            r = [-c for c in r]
        r, _ = primitive(r)
        chain.append(r)


def _variations(chain, num, den):
    """Sign variations of the chain at ``num/den`` (zeros skipped)."""
    count = 0
    prev = 0
    for poly in chain:
        s = sign_at(poly, num, den)
        if s:
            if prev and s != prev:
                count += 1
            prev = s
    return count


def test_sturm_chain_endpoints():
    # x^2 - 2: the chain ends in a constant, and counts the two roots
    chain = sturm_chain([-2, 0, 1])
    assert len(chain) == 3 and len(chain[-1]) == 1
    assert _variations(chain, -2, 1) - _variations(chain, 2, 1) == 2


def _ref_sign(coeffs, x):
    num, den = Fraction(x).as_integer_ratio()
    return sign_at(coeffs, num, den)


def _ref_var(chain, x):
    num, den = Fraction(x).as_integer_ratio()
    return _variations(chain, num, den)


def _ref_split_point(sqf, a, b):
    for num, den in ((1, 2), (1, 3), (2, 5), (3, 7), (5, 11), (7, 13)):
        mid = a + (b - a) * Fraction(num, den)
        if _ref_sign(sqf, mid) != 0:
            return mid
    raise DegenerateInput("could not find a non-root split point")


def _ref_sqf_and_chain(p):
    coeffs = u_trim(p.to_int_coeffs()[0])
    sqf, _ = squarefree_part(coeffs)
    return coeffs, sqf, sturm_chain(sqf)


def _ref_isolate_real_roots(p, lo=None, hi=None):
    coeffs, sqf, full_chain = _ref_sqf_and_chain(p)
    if len(coeffs) == 1:
        return []
    full_sqf = sqf
    if lo is None or hi is None:
        bound = roots_mod._cauchy_bound(coeffs)
        lo = -bound if lo is None else Fraction(lo)
        hi = bound if hi is None else Fraction(hi)
    else:
        lo, hi = Fraction(lo), Fraction(hi)
    out = []
    if _ref_sign(sqf, lo) == 0:
        sqf = divexact(sqf, [-lo.numerator, lo.denominator])
    hi_is_root = _ref_sign(sqf, hi) == 0
    if hi_is_root:
        sqf = divexact(sqf, [-hi.numerator, hi.denominator])
    chain = full_chain if sqf is full_sqf else sturm_chain(sqf)
    interior_hi = hi
    if hi_is_root:
        v_hi = _ref_var(chain, hi)
        delta = (hi - lo) / 1024
        while _ref_var(chain, hi - delta) != v_hi:
            delta = delta / 2
        interior_hi = hi - delta
    stack = [(lo, interior_hi, _ref_var(chain, lo), _ref_var(chain, interior_hi))]
    while stack:
        a, b, va, vb = stack.pop()
        n = va - vb
        if n <= 0:
            continue
        if n == 1:
            out.append(RootInterval(a, b))
            continue
        mid = _ref_split_point(sqf, a, b)
        vm = _ref_var(chain, mid)
        stack.append((a, mid, va, vm))
        stack.append((mid, b, vm, vb))
    if hi_is_root:
        out.append(RootInterval(interior_hi, hi))
    out.sort(key=lambda iv: Fraction(iv.lo))
    return out


def _ref_refine_root(p, interval, tol=1e-13):
    _, sqf, chain = _ref_sqf_and_chain(p)
    a, b = Fraction(interval.lo), Fraction(interval.hi)
    sb = _ref_sign(sqf, b)
    if sb == 0:
        return float(b)
    sa = _ref_sign(sqf, a)
    if sa == 0:
        # a simple root at the open end: the sign just right of it is the
        # derivative's
        sa = _ref_sign(chain[1], a)
    if sa == sb:
        raise DegenerateInput("interval does not bracket a sign change")
    target = Fraction(tol)
    while b - a > target * max(Fraction(1), abs(a + b) / 2):
        mid = (a + b) / 2
        sm = _ref_sign(sqf, mid)
        if sm == 0:
            return float(mid)
        if sm == sa:
            a = mid
        else:
            b = mid
    return _ref_newton_polish(sqf, float((a + b) / 2), float(a), float(b))


def _ref_newton_polish(sqf, x0, lo, hi):
    scale = max(abs(c) for c in sqf)
    fc = [float(Fraction(c, scale)) for c in sqf]
    dfc = [c * i for i, c in enumerate(fc)][1:]

    def ev(cs, x):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    best, best_val, x = x0, abs(ev(fc, x0)), x0
    for _ in range(2):
        d = ev(dfc, x)
        if d == 0.0 or not math.isfinite(d):
            break
        x_new = x - ev(fc, x) / d
        if not (lo <= x_new <= hi) or not math.isfinite(x_new):
            break
        x = x_new
        v = abs(ev(fc, x))
        if v < best_val:
            best, best_val = x, v
    return best


# Square-free integer polynomials with some rational roots (so that window
# ends land on roots), rational windows with non-dyadic ends, and a
# tolerance from 1e-13 to 1e-6.
_SMALL_Q = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))
_REF_CASES = st.tuples(
    st.lists(st.integers(-20, 20), min_size=1, max_size=7),
    st.lists(_SMALL_Q, max_size=4),
    st.tuples(_SMALL_Q, _SMALL_Q),
    st.sampled_from([1e-13, 1e-10, 3e-8, 1e-6]),
)


def _ref_case(cofactor, rational_roots, ends):
    if not any(cofactor):
        cofactor = [1]
    p = RatPoly(cofactor, "x")
    for r in rational_roots:
        p = p * RatPoly([-r, 1], "x")
    sqf, _ = squarefree_part(u_trim(p.to_int_coeffs()[0]))
    lo, hi = sorted(ends)
    if lo == hi:
        hi = lo + Fraction(7, 3)
    return RatPoly(sqf, "x"), lo, hi


class TestIntegerBisectionMatchesFractionReference:
    """Descartes bisection on integer numerators against the Sturm
    bisection on ``Fraction`` objects.  The intervals are equal, which
    implies the same root count per window and each interval nested in the
    oracle's; the floats are repr-identical, the end-to-end check."""

    @settings(max_examples=200, deadline=None)
    @given(_REF_CASES)
    # a second root inside the first slice (hi - (hi - lo)/1024, hi] that
    # isolation reserves for a root at hi
    @example(([1], [Fraction(1), Fraction(4999, 5000)], (Fraction(0), Fraction(1)), 1e-13))
    # a root at hi and one exactly at the end of the first slice: the slice
    # holds no other root, and the interior ends on a root
    @example(([1], [Fraction(1), Fraction(1023, 1024)], (Fraction(0), Fraction(1)), 1e-13))
    # a root at hi and a complex pair 1e-5 off the first slice's midpoint:
    # two variations there, and Descartes bisection of the slice finds no
    # real root, as Sturm counting does
    @example(
        (
            [Fraction(2047, 2048) ** 2 + Fraction(1, 10**10), -Fraction(2047, 1024), 1],
            [Fraction(1)],
            (Fraction(0), Fraction(1)),
            1e-13,
        )
    )
    # a root at the open end lo, next to a root inside
    @example(([1], [Fraction(-1, 3), Fraction(-1, 3) + Fraction(1, 10**6)], (Fraction(-1, 3), Fraction(2)), 1e-13))
    @example(([-5, 0, 1], [Fraction(-2)], (Fraction(-2), Fraction(3)), 1e-10))
    # roots at the window midpoint 1/2 and at 1/3: both bisections nudge
    # the split point off 1/2, then off 1/3, to 2/5
    @example(([1], [Fraction(1, 2), Fraction(1, 3)], (Fraction(0), Fraction(1)), 1e-13))
    # one root at the midpoint with a complex pair 0.1 off it: three
    # variations on (0, 1), where Sturm counts one root; Descartes splits,
    # nudges off the root, and returns the Sturm cell (0, 1]
    @example(([26, -100, 100], [Fraction(1, 2)], (Fraction(0), Fraction(1)), 1e-13))
    # coefficients near 10^400, beyond float range
    @example(([-2 * 10**400 + 1, 3, 10**400], [Fraction(1, 3)], (Fraction(-2), Fraction(2)), 1e-10))
    def test_same_intervals_and_floats(self, case):
        cofactor, rational_roots, ends, tol = case
        p, lo, hi = _ref_case(cofactor, rational_roots, ends)
        for window in ((lo, hi), (None, None)):
            got = isolate_real_roots(p, *window)
            assert got == _ref_isolate_real_roots(p, *window)
            sqf = u_trim(p.to_int_coeffs()[0])
            for iv in got:
                x = refine_root(p, iv, tol)
                assert repr(x) == repr(_ref_refine_root(p, iv, tol))
                # an exact sign change across x -+ tol max(1, |x|)
                fx = Fraction(x)
                delta = Fraction(tol) * max(Fraction(1), abs(fx))
                assert _ref_sign(sqf, fx - delta) * _ref_sign(sqf, fx + delta) < 0

    def test_root_at_the_open_end(self):
        # x (x - 1e-6): the root 0 is the open end of (0, 1]; the old fixed
        # inward step (b - a)/65536 jumped past the root at 1e-6
        p = RatPoly([0, Fraction(-1, 10**6), 1], "x")
        ivs = isolate_real_roots(p, 0, 1)
        assert ivs == [RootInterval(Fraction(0), Fraction(1))]
        x = refine_root(p, ivs[0])
        assert abs(x - 1e-6) < 1e-13
        assert repr(x) == repr(_ref_refine_root(p, ivs[0]))


class TestStripKnownFactors:
    def test_strip_and_fail(self):
        t = RatPoly([0, 1], "t")
        p = t * t * (t - 1) * (t - 1) * (t + 5)
        stripped = strip_known_factors(p, [(t, 2), (RatPoly([-1, 1], "t"), 2)])
        assert stripped == RatPoly([5, 1], "t")
        with pytest.raises(NotAFactor):
            strip_known_factors(p, [(RatPoly([-7, 1], "t"), 1)])

    def test_non_monic_rational_factor(self):
        # the quotient comes back exactly, with the factor's leading
        # coefficient and content put back, not as a primitive multiple
        t = RatPoly([0, 1], "t")
        factor = RatPoly([Fraction(-1, 3), 0, Fraction(3, 2)], "t")
        rest = RatPoly([Fraction(5, 7), Fraction(-2, 9), 0, Fraction(11, 4)], "t")
        p = factor * factor * factor * rest * (t + 2)
        stripped = strip_known_factors(p, [(factor, 3), (t * 4 + 8, 1)])
        assert stripped == rest * Fraction(1, 4)
        assert strip_known_factors(p, [(factor * Fraction(-6, 5), 2)]) == (
            factor * rest * (t + 2) * Fraction(25, 36)
        )
        with pytest.raises(NotAFactor):
            strip_known_factors(p, [(factor, 4)])

    def test_rejects_constant_factor(self):
        with pytest.raises(DegenerateInput):
            strip_known_factors(RatPoly([1, 1]), [(RatPoly([2]), 1)])


class TestRootInterval:
    def test_fields_and_helpers(self):
        iv = RootInterval(Fraction(1, 2), Fraction(3, 4))
        assert (iv.lo, iv.hi) == (Fraction(1, 2), Fraction(3, 4))
        assert iv.midpoint() == Fraction(5, 8)
        assert iv.width() == Fraction(1, 4)


# --------------------- predicted bisection, certified square-free parts ---
#
# Oracles: the exact decomposition (``dense.squarefree_part`` on every
# input, then the primitive derivative), and the exact bisection loop of
# ``refine_root`` forced by declining every predicted cell, besides the
# ``Fraction`` reference above.


def _exact_decompose(coeffs):
    sqf, _ = squarefree_part(list(coeffs))
    scale = max(abs(c) for c in sqf)
    fc = [c / scale for c in sqf]
    dfc = [c * i for i, c in enumerate(fc)][1:]
    return sqf, primitive(u_derivative(sqf))[0], fc, dfc


def _exact_bisection_refine(p, iv, tol=1e-13):
    real = roots_mod._predicted_cell
    roots_mod._predicted_cell = lambda *args: None
    try:
        return refine_root(p, iv, tol)
    finally:
        roots_mod._predicted_cell = real


def _factored(roots_with_mult, cluster, quadratic, scale):
    x = RatPoly([0, 1], "x")
    p = RatPoly([scale], "x")
    for r, m in roots_with_mult:
        for _ in range(m):
            p = p * (x - r)
    if cluster is not None:
        # a second root 10^-k away from the first
        r, k = roots_with_mult[0][0], cluster
        p = p * (x - (r + Fraction(1, 10**k)))
    if quadratic:
        p = p * (x * x + quadratic)
    return p


# rational roots on a grid with dyadic and non-dyadic points, repeated up
# to three times; an optional cluster partner; an optional irreducible
# quadratic; a scale beyond float range
_KERNEL_CASES = st.tuples(
    st.lists(
        st.tuples(
            st.builds(Fraction, st.integers(-24, 24), st.sampled_from([1, 2, 3, 4, 7, 8])),
            st.integers(1, 3),
        ),
        min_size=1,
        max_size=4,
        unique_by=lambda t: t[0],
    ),
    st.one_of(st.none(), st.sampled_from([3, 6, 9])),
    st.sampled_from([0, 1, 2, 5]),
    st.sampled_from([1, 10**400, 3**900]),
    st.sampled_from([1e-13, 1e-10, 1e-6]),
)


class TestPredictedBisection:
    @settings(max_examples=80, deadline=None)
    @given(_KERNEL_CASES)
    def test_decomposition_matches_the_exact_squarefree_part(self, case):
        p = _factored(*case[:4])
        coeffs = tuple(u_trim(p.to_int_coeffs()[0]))
        got = roots_mod._decompose.__wrapped__(coeffs)
        want = _exact_decompose(coeffs)
        assert got[:2] == want[:2]
        assert repr(got[2:]) == repr(want[2:])

    @settings(max_examples=80, deadline=None)
    @given(_KERNEL_CASES)
    def test_same_floats_as_exact_bisection(self, case):
        p = _factored(*case[:4])
        tol = case[4]
        ends = sorted(r for r, _ in case[0])
        # the full line, and windows whose open end lo is a root
        windows = [(None, None), (ends[0], ends[0] + 5), (ends[0] - 1, ends[-1])]
        for window in windows:
            for iv in isolate_real_roots(p, *window):
                x = refine_root(p, iv, tol)
                assert repr(x) == repr(_exact_bisection_refine(p, iv, tol))
                assert repr(x) == repr(_ref_refine_root(p, iv, tol))

    def _signs_and_cells(self, monkeypatch):
        signs, cells = [], []
        real_sign, real_cell = roots_mod.sign_at, roots_mod._predicted_cell

        def counting_sign(*args):
            signs.append(args[1:])
            return real_sign(*args)

        def recording_cell(*args):
            cells.append(real_cell(*args))
            return cells[-1]

        monkeypatch.setattr(roots_mod, "sign_at", counting_sign)
        monkeypatch.setattr(roots_mod, "_predicted_cell", recording_cell)
        return signs, cells

    @pytest.mark.parametrize(
        "coeffs",
        [
            [-2, 0, 1],  # sqrt 2
            [-6, 11, -6, 1],  # 1, 2, 3
            [1, 2, 0, 2, 1],  # the out-of-plane window quartic
            [-2 * 10**400, 0, 10**400],  # beyond float range
            [Fraction(-7, 3), 5, 0, -11, 0, 1],
        ],
    )
    def test_at_most_four_signs_per_root(self, monkeypatch, coeffs):
        p = RatPoly(coeffs, "x")
        ivs = isolate_real_roots(p)
        assert ivs
        signs, cells = self._signs_and_cells(monkeypatch)
        for iv in ivs:
            del signs[:]
            x = refine_root(p, iv)
            assert cells[-1] is not None
            assert len(signs) <= 4
            assert repr(x) == repr(_ref_refine_root(p, iv))

    def test_root_at_a_dyadic_midpoint(self, monkeypatch):
        # (2x - 1)(x - 3) on (0, 1]: the first midpoint is the root, where
        # the exact loop stops with sm == 0; the predicted cell ends there,
        # so its sign is 0 and the exact loop runs
        p = RatPoly([3, -7, 2], "x")
        iv = RootInterval(Fraction(0), Fraction(1))
        _, cells = self._signs_and_cells(monkeypatch)
        assert refine_root(p, iv) == 0.5
        assert cells == [None]
        assert repr(_ref_refine_root(p, iv)) == repr(0.5)

    def test_root_at_the_open_lo_end(self, monkeypatch):
        # x (x - 1/3) on (0, 1]: the sign just right of the root 0 is the
        # derivative's there; the prediction still holds
        p = RatPoly([0, Fraction(-1, 3), 1], "x")
        iv = RootInterval(Fraction(0), Fraction(1))
        _, cells = self._signs_and_cells(monkeypatch)
        x = refine_root(p, iv)
        assert cells[-1] is not None
        assert repr(x) == repr(_exact_bisection_refine(p, iv)) == repr(_ref_refine_root(p, iv))

    def test_clustered_roots_fall_back_to_exact_bisection(self, monkeypatch):
        # (x - 1)(x - 1 - 2^-60): both roots round to the float 1.0.  At
        # tol = 1e-13 the isolating intervals are already narrow enough; at
        # tol = 1e-20 the float root cannot be placed in a cell that narrow,
        # the prediction is declined and the exact loop gives the float
        p = RatPoly([-1, 1], "x") * RatPoly([-(1 + Fraction(1, 2**60)), 1], "x")
        ivs = isolate_real_roots(p)
        assert len(ivs) == 2
        _, cells = self._signs_and_cells(monkeypatch)
        for iv in ivs:
            for tol in (1e-13, 1e-20):
                x = refine_root(p, iv, tol)
                assert repr(x) == repr(_exact_bisection_refine(p, iv, tol))
                assert repr(x) == repr(_ref_refine_root(p, iv, tol))
        assert None in cells


# ------------------------------------------ Descartes cells and certificate ---


def _sturm_count_open(sqf, lo, hi):
    """Distinct roots of the square-free ``sqf`` in the open ``(lo, hi)``."""
    chain = sturm_chain(sqf)
    return _ref_var(chain, lo) - _ref_var(chain, hi) - (_ref_sign(sqf, hi) == 0)


class TestDescartesCells:
    @settings(max_examples=150, deadline=None)
    @given(_REF_CASES)
    def test_variations_bound_the_root_count_by_an_even_excess(self, case):
        p, lo, hi = _ref_case(*case[:3])
        sqf = u_trim(p.to_int_coeffs()[0])
        na, nb, den = roots_mod._common_denominator(lo, hi)
        q = roots_mod._affine(sqf, na, nb - na, den)
        count = _sturm_count_open(sqf, lo, hi)
        excess = roots_mod._descartes(q) - count
        assert excess >= 0 and excess % 2 == 0
        assert roots_mod._has_root(q) == (count > 0)

    @pytest.mark.parametrize("num, k", [(1, 2), (1, 3), (2, 5), (7, 13)])
    def test_halves_are_the_cell_polynomials_of_the_parts(self, num, k):
        q = roots_mod._affine([3, -7, 0, 2, 5], -3, 4, 7)  # the cell (-3/7, 1/7)
        left, right = roots_mod._halves(q, num, k)
        split = num * 4  # -3/7 + 4 num/(7 k) = (-3 k + split)/(7 k)
        assert left == roots_mod._affine([3, -7, 0, 2, 5], -3 * k, split, 7 * k)
        assert right == roots_mod._affine([3, -7, 0, 2, 5], -3 * k + split, 4 * k - split, 7 * k)


class _Fallbacks:
    """Counts the exact square-free parts ``_decompose`` falls back to."""

    def __init__(self, monkeypatch):
        self.degrees = []
        monkeypatch.setattr(roots_mod, "squarefree_part", self._counting)
        roots_mod._decompose.cache_clear()

    def _counting(self, a):
        self.degrees.append(len(a) - 1)
        return squarefree_part(a)


def _same_as_oracle(p, lo=None, hi=None):
    got = isolate_real_roots(p, lo, hi)
    assert got == _ref_isolate_real_roots(p, lo, hi)
    for iv in got:
        assert repr(refine_root(p, iv)) == repr(_ref_refine_root(p, iv))
    return got


class TestSquarefreeCertificate:
    P = roots_mod._CERTIFICATE_PRIME

    def test_x2_minus_p_takes_the_exact_fallback(self, monkeypatch):
        # square-free over Q, but x^2 modulo p: gcd(x^2, 2x) = x
        fallbacks = _Fallbacks(monkeypatch)
        coeffs = [-self.P, 0, 1]
        assert not roots_mod._squarefree_mod_p(coeffs)
        p = RatPoly(coeffs, "x")
        assert len(_same_as_oracle(p)) == 2
        assert len(_same_as_oracle(p, Fraction(0), Fraction(self.P))) == 1
        assert fallbacks.degrees == [2]
        assert roots_mod._decompose(tuple(coeffs))[0] == coeffs

    @pytest.mark.parametrize("coeffs_of", [lambda P: [-2, 0, P], lambda P: [-1, -1, 0, 3 * P]])
    def test_leading_coefficient_divisible_by_p(self, monkeypatch, coeffs_of):
        fallbacks = _Fallbacks(monkeypatch)
        coeffs = coeffs_of(self.P)
        _same_as_oracle(RatPoly(coeffs, "x"))
        assert fallbacks.degrees == [len(coeffs) - 1]
        assert roots_mod._decompose(tuple(coeffs))[0] == coeffs

    def test_repeated_roots_take_the_exact_square_free_part(self, monkeypatch):
        t = sp.Symbol("t")
        ex = sp.Poly(sp.expand((t - 1) ** 3 * (t + 2) ** 2), t)
        coeffs = [int(c) for c in reversed(ex.all_coeffs())]
        fallbacks = _Fallbacks(monkeypatch)
        sqf = roots_mod._decompose(tuple(coeffs))[0]
        assert fallbacks.degrees == [5]
        assert sqf == squarefree_part(coeffs)[0] == [-2, 1, 1]
        _same_as_oracle(RatPoly(coeffs, "t"))

    def test_certified_input_takes_no_fallback(self, monkeypatch):
        fallbacks = _Fallbacks(monkeypatch)
        coeffs = [-6, 11, -6, 1]
        assert roots_mod._squarefree_mod_p(coeffs)
        assert len(_same_as_oracle(RatPoly(coeffs, "x"))) == 3
        assert fallbacks.degrees == []

    @settings(max_examples=60, deadline=None)
    @given(_KERNEL_CASES)
    def test_every_cell_polynomial_is_square_free(self, case):
        # inputs with roots of multiplicity up to 3: whatever the certificate
        # says, every polynomial the Descartes cells see is square-free
        p = _factored(*case[:4])
        seen = []
        real = roots_mod._descartes

        def checking(q):
            seen.append(q)
            return real(q)

        roots_mod._descartes = checking
        roots_mod._decompose.cache_clear()
        try:
            ends = sorted(r for r, _ in case[0])
            for window in ((None, None), (ends[0] - 1, ends[-1])):
                isolate_real_roots(p, *window)
        finally:
            roots_mod._descartes = real
        assert seen
        for q in seen:
            assert len(gcd_poly(q, u_derivative(q))) == 1
