"""Kernel tests: exact arithmetic, resultants, chains, root isolation."""

import math
import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbita.poly_kernel import (
    ChainCollapse,
    DegenerateInput,
    MPoly,
    NotAFactor,
    QuadPair,
    RatPoly,
    RootInterval,
    bezout_resultant,
    euclidean_last_linear,
    isolate_real_roots,
    quadratic_resultant,
    refine_root,
    strip_known_factors,
    sturm_chain,
    sylvester_resultant,
)
from orbita.poly_kernel import roots as roots_mod
from orbita.poly_kernel.dense import divexact, sign_at, squarefree_part, u_trim
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
    """Res(f, g) as the n x n Bezout determinant, by Bareiss with row swaps."""

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

    def test_sturm_chain_endpoints(self):
        chain = sturm_chain([-2, 0, 1])
        assert len(chain) >= 2

    def test_zero_poly_rejected(self):
        with pytest.raises(DegenerateInput):
            isolate_real_roots(RatPoly([]))


class TestSharedDecomposition:
    """One square-free part and Sturm chain per polynomial, shared by every
    isolation window and by refinement, on a product shaped like the
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
        calls = []
        real = roots_mod.squarefree_part

        def counting(a):
            calls.append(len(a) - 1)
            return real(a)

        monkeypatch.setattr(roots_mod, "squarefree_part", counting)
        roots_mod._decompose.cache_clear()
        p = self._poly()
        ivs = isolate_real_roots(p, Fraction(-4), Fraction(1)) + isolate_real_roots(
            p, Fraction(1), Fraction(4)
        )
        assert len(ivs) == 6
        for iv in ivs:
            refine_root(p, iv)
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


# ------------------------------------------- Fraction reference bisection ---
#
# The isolation and refinement loops as they ran on ``Fraction`` objects
# before the kernel moved to integer numerators over a shared denominator.
# Kept as the oracle: the kernel must take the same decisions, so its
# intervals must be equal and its floats repr-identical.


def _ref_sign(coeffs, x):
    num, den = Fraction(x).as_integer_ratio()
    return sign_at(coeffs, num, den)


def _ref_var(chain, x):
    num, den = Fraction(x).as_integer_ratio()
    return roots_mod._variations(chain, num, den)


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
    @settings(max_examples=200, deadline=None)
    @given(_REF_CASES)
    # a second root inside the first slice (hi - (hi - lo)/1024, hi] that
    # isolation reserves for a root at hi
    @example(([1], [Fraction(1), Fraction(4999, 5000)], (Fraction(0), Fraction(1)), 1e-13))
    # a root at the open end lo, next to a root inside
    @example(([1], [Fraction(-1, 3), Fraction(-1, 3) + Fraction(1, 10**6)], (Fraction(-1, 3), Fraction(2)), 1e-13))
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
