"""Exact sparse multivariate and dense univariate rational polynomials.

``MPoly`` stores terms as a dict mapping a packed integer exponent vector
to a nonzero exact coefficient (``int`` or ``fractions.Fraction``).  Each
variable owns 16 bits of the key, first variable in the highest bits, so
comparing packed keys as integers is lexicographic order on exponent
vectors.  Degrees above 65535 in any one variable are not representable;
the solvers here stay far below that.

``RatPoly`` is the dense univariate companion (coefficient list, lowest
degree first) used by root isolation and by resultant evaluation nodes.

The sparse term loops (``terms_*``) live here and the dense ones in
``dense``; the kernel has one implementation, in pure Python, and its
rationals are ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .dense import u_add, u_eval, u_mul, u_neg, u_scale, u_sub
from .errors import DegenerateInput, NotAFactor

SHIFT = 16
MASK = (1 << SHIFT) - 1


def pack(exps: Sequence[int]) -> int:
    """Pack an exponent tuple into the integer key."""
    key = 0
    for e in exps:
        key = (key << SHIFT) | e
    return key


def unpack(key: int, nvars: int) -> tuple[int, ...]:
    """Unpack an integer key into an exponent tuple."""
    out = [0] * nvars
    for i in range(nvars - 1, -1, -1):
        out[i] = key & MASK
        key >>= SHIFT
    return tuple(out)


# ------------------------------------------------------- sparse term loops
#
# Term dicts map packed exponent -> nonzero coefficient; coefficients are
# only combined with ``+ - *``.


def terms_add(a, b):
    """Sum of two sparse term dicts."""
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def terms_sub(a, b):
    """Difference of two sparse term dicts."""
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        if s is None:
            out[k] = -c
        else:
            s = s - c
            if s:
                out[k] = s
            else:
                del out[k]
    return out


def terms_neg(a):
    """Negation of a sparse term dict."""
    return {k: -c for k, c in a.items()}


def terms_mul(a, b):
    """Product of two sparse term dicts (exponent keys add)."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = ka + kb
            s = get(k)
            if s is None:
                out[k] = ca * cb
            else:
                s = s + ca * cb
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out


def terms_scale(a, c):
    """Sparse term dict times a nonzero scalar."""
    return {k: v * c for k, v in a.items()}


def _is_exact_scalar(c) -> bool:
    return isinstance(c, int) or (
        hasattr(c, "numerator") and hasattr(c, "denominator")
    )


class MPoly:
    """Sparse exact multivariate polynomial over the rationals."""

    __slots__ = ("vars", "terms")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, variables: Sequence[str], terms: Mapping[int, object] | None = None):
        self.vars: tuple[str, ...] = tuple(variables)
        self.terms: dict = dict(terms) if terms else {}

    # -------------------------------------------------------- constructors

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "MPoly":
        return cls(variables)

    @classmethod
    def const(cls, c, variables: Sequence[str] = ()) -> "MPoly":
        p = cls(variables)
        if c:
            p.terms[0] = c
        return p

    @classmethod
    def variable(cls, name: str, variables: Sequence[str]) -> "MPoly":
        variables = tuple(variables)
        i = variables.index(name)
        p = cls(variables)
        p.terms[1 << (SHIFT * (len(variables) - 1 - i))] = 1
        return p

    @classmethod
    def from_dict(cls, variables: Sequence[str], d: Mapping[Sequence[int], object]) -> "MPoly":
        """Build from ``{exponent tuple: coefficient}``; zeros are dropped."""
        p = cls(variables)
        for exps, c in d.items():
            if c:
                p.terms[pack(exps)] = c
        return p

    # ------------------------------------------------------------ queries

    @property
    def nvars(self) -> int:
        return len(self.vars)

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant(self):
        """The value of a constant polynomial."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and 0 in self.terms:
            return self.terms[0]
        raise DegenerateInput("polynomial is not constant")

    def _var_index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise DegenerateInput(f"unknown variable {var!r} (have {self.vars})") from None

    def _var_shift(self, var: str) -> int:
        return SHIFT * (len(self.vars) - 1 - self._var_index(var))

    def degree(self, var: str) -> int:
        """Degree in one variable; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if var not in self.vars:
            return 0
        sh = self._var_shift(var)
        return max((k >> sh) & MASK for k in self.terms)

    def active_vars(self) -> tuple[str, ...]:
        """Variables that actually occur with positive exponent."""
        if not self.terms:
            return ()
        n = self.nvars
        seen = [False] * n
        for k in self.terms:
            kk = k
            for i in range(n - 1, -1, -1):
                if kk & MASK:
                    seen[i] = True
                kk >>= SHIFT
        return tuple(v for v, s in zip(self.vars, seen) if s)

    # ---------------------------------------------------------- alignment

    def map_vars(self, variables: Sequence[str]) -> "MPoly":
        """Re-embed into a (super)set of variables, possibly reordered."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        n_old = self.nvars
        out = MPoly(variables)
        if not self.terms:
            return out
        pos = []
        for v in self.vars:
            try:
                pos.append(variables.index(v))
            except ValueError:
                raise DegenerateInput(
                    f"variable {v!r} missing from target variables {variables}"
                ) from None
        n_new = len(variables)
        shifts = [SHIFT * (n_new - 1 - p) for p in pos]
        for k, c in self.terms.items():
            exps = unpack(k, n_old)
            key = 0
            for e, sh in zip(exps, shifts):
                key |= e << sh
            out.terms[key] = c
        return out

    @staticmethod
    def align(a: "MPoly", b: "MPoly") -> tuple["MPoly", "MPoly"]:
        """Bring two polynomials onto a shared variable tuple (union)."""
        if a.vars == b.vars:
            return a, b
        merged = list(a.vars)
        for v in b.vars:
            if v not in merged:
                merged.append(v)
        t = tuple(merged)
        return a.map_vars(t), b.map_vars(t)

    # --------------------------------------------------------- arithmetic

    def _coerce(self, other) -> "MPoly | None":
        if isinstance(other, MPoly):
            return other
        if _is_exact_scalar(other):
            return MPoly.const(other, self.vars)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = MPoly.align(self, o)
        return MPoly(a.vars, terms_add(a.terms, b.terms))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = MPoly.align(self, o)
        return MPoly(a.vars, terms_sub(a.terms, b.terms))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = MPoly.align(o, self)
        return MPoly(a.vars, terms_sub(a.terms, b.terms))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_const() and not isinstance(other, MPoly):
            c = o.constant()
            if not c:
                return MPoly(self.vars)
            return MPoly(self.vars, terms_scale(self.terms, c))
        a, b = MPoly.align(self, o)
        return MPoly(a.vars, terms_mul(a.terms, b.terms))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, MPoly):
            if other.is_const():
                other = other.constant()
            else:
                return NotImplemented
        if not _is_exact_scalar(other):
            return NotImplemented
        if not other:
            raise DegenerateInput("division by zero")
        return self * (1 / Fraction(other))

    def __neg__(self):
        return MPoly(self.vars, terms_neg(self.terms))

    def __pow__(self, n: int):
        if n < 0:
            raise DegenerateInput("negative power")
        result = MPoly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = MPoly.align(self, o)
        if len(a.terms) != len(b.terms):
            return False
        for k, c in a.terms.items():
            if k not in b.terms or b.terms[k] != c:
                return False
        return True

    # ------------------------------------------------------------ calculus

    def partial(self, var: str) -> "MPoly":
        """Partial derivative."""
        if var not in self.vars:
            return MPoly(self.vars)
        sh = self._var_shift(var)
        step = 1 << sh
        out = MPoly(self.vars)
        for k, c in self.terms.items():
            e = (k >> sh) & MASK
            if e:
                out.terms[k - step] = c * e
        return out

    # ------------------------------------------------------- substitution

    def subs(self, var: str, value) -> "MPoly":
        """Substitute an exact rational value for one variable."""
        if var not in self.vars:
            return self
        sh = self._var_shift(var)
        step = MASK << sh
        # group by exponent of var, then Horner over the groups
        groups: dict[int, dict] = {}
        for k, c in self.terms.items():
            e = (k >> sh) & MASK
            groups.setdefault(e, {})[k & ~step] = c
        acc: dict = {}
        for e in range(max(groups), -1, -1) if groups else []:
            if acc:
                acc = terms_scale(acc, value) if value else {}
            g = groups.get(e)
            if g:
                acc = terms_add(acc, g)
        return MPoly(self.vars, acc)

    def eval_exact(self, assignment: Mapping[str, object]) -> Fraction:
        """Fully evaluate at exact rationals (floats convert exactly).

        Integer arithmetic throughout: the coefficient denominators are
        cleared once, and each variable, last first, is summed out at
        ``p/q`` in homogenised form, ``sum_k c_k p^k q^(d-k)`` with ``d``
        the variable's degree, so one ``Fraction`` is built at the end.
        An active variable missing from ``assignment`` raises
        ``DegenerateInput``.
        """
        cleared, den = self.clear_denominators()
        terms = cleared.terms
        for v in reversed(self.vars):
            deg = max((k & MASK for k in terms), default=0)
            if v not in assignment:
                if deg:
                    raise DegenerateInput(f"no value for the active variable {v!r}")
                terms = {k >> SHIFT: c for k, c in terms.items()}
                continue
            p, q = Fraction(assignment[v]).as_integer_ratio()
            p_pow, q_pow = [1], [1]
            for _ in range(deg):
                p_pow.append(p_pow[-1] * p)
                q_pow.append(q_pow[-1] * q)
            weights = [p_pow[k] * q_pow[deg - k] for k in range(deg + 1)]
            summed: dict = {}
            for k, c in terms.items():
                rest = k >> SHIFT
                summed[rest] = summed.get(rest, 0) + c * weights[k & MASK]
            terms = summed
            den *= q_pow[deg]
        return Fraction(terms.get(0, 0), den)

    def eval_float(self, assignment: Mapping[str, float]) -> float:
        """Evaluate at floats, exactly, then round once at the end.

        Robust against coefficients far outside float range: the floats are
        converted to exact rationals, the evaluation is exact, and only the
        final value is rounded.
        """
        return float(self.eval_exact(assignment))

    def parity_parts(self, var: str) -> tuple["MPoly", "MPoly"]:
        """``(even, odd)`` with ``self = even + odd``: the terms of even
        and of odd degree in ``var``, so ``self(-var) = even - odd``."""
        sh = self._var_shift(var)
        parts: tuple[dict, dict] = ({}, {})
        for k, c in self.terms.items():
            parts[(k >> sh) & 1][k] = c
        return MPoly(self.vars, parts[0]), MPoly(self.vars, parts[1])

    def coeffs_in(self, var: str) -> list["MPoly"]:
        """Dense coefficient list with respect to one variable, lowest first.

        Each coefficient keeps the full variable tuple (with ``var`` absent
        from its support).  Empty list for the zero polynomial.
        """
        if not self.terms:
            return []
        sh = self._var_shift(var)
        step = MASK << sh
        deg = self.degree(var)
        out = [MPoly(self.vars) for _ in range(deg + 1)]
        for k, c in self.terms.items():
            e = (k >> sh) & MASK
            out[e].terms[k & ~step] = c
        return out

    # ----------------------------------------------------- exact division

    def _lead_key(self) -> int:
        return max(self.terms)

    def divexact(self, divisor: "MPoly") -> "MPoly":
        """Exact multivariate division; raises ``NotAFactor`` otherwise."""
        if divisor.is_zero():
            raise DegenerateInput("division by zero polynomial")
        a, b = MPoly.align(self, divisor)
        if a.is_zero():
            return MPoly(a.vars)
        n = len(a.vars)
        rem = dict(a.terms)
        bk = b._lead_key()
        bc = b.terms[bk]
        bexp = unpack(bk, n)
        quot: dict = {}
        bt = b.terms
        while rem:
            rk = max(rem)
            rexp = unpack(rk, n)
            if any(re < be for re, be in zip(rexp, bexp)):
                raise NotAFactor("division leaves a nonzero remainder")
            qk = rk - bk
            c = rem[rk]
            qc = Fraction(c) / bc if not isinstance(c, int) or not isinstance(bc, int) or c % bc else c // bc
            quot[qk] = qc
            for k2, c2 in bt.items():
                kk = qk + k2
                s = rem.get(kk)
                if s is None:
                    rem[kk] = -qc * c2
                else:
                    s = s - qc * c2
                    if s:
                        rem[kk] = s
                    else:
                        del rem[kk]
            if rk in rem:
                raise NotAFactor("division leaves a nonzero remainder")
        return MPoly(a.vars, quot)

    # ------------------------------------------------------ denominators

    def clear_denominators(self) -> tuple["MPoly", int]:
        """Return ``(M * self, M)`` with integer coefficients, M a positive int.

        A polynomial whose coefficients are all ``int`` already comes back
        as itself with ``M = 1``, not copied; callers only read the result.
        """
        if all(type(c) is int for c in self.terms.values()):
            return self, 1
        m = 1
        for c in self.terms.values():
            d = int(c.denominator) if not isinstance(c, int) else 1
            m = m * d // math.gcd(m, d)
        if m == 1:
            out = MPoly(self.vars, {k: int(c) for k, c in self.terms.items()})
            return out, 1
        out = MPoly(self.vars)
        for k, c in self.terms.items():
            num, den = int(c.numerator), int(c.denominator)
            out.terms[k] = num * (m // den)
        return out, m

    def primitive(self) -> "MPoly":
        """The primitive integer multiple of ``self``: denominators
        cleared, then the positive integer content divided out, so the
        sign is kept."""
        cleared, _ = self.clear_denominators()
        g = cleared.content_int()
        if g > 1:
            return MPoly(cleared.vars, {k: c // g for k, c in cleared.terms.items()})
        return cleared

    def content_int(self) -> int:
        """GCD of all (integer) coefficients; 0 for the zero polynomial."""
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, int(c))
            if g == 1:
                return 1
        return g

    # -------------------------------------------------------------- debug

    def dump(self) -> str:
        """Full, deterministic listing: one term per line, sorted by
        exponent vector."""
        if not self.terms:
            return "0"
        lines = []
        n = self.nvars
        for k in sorted(self.terms, reverse=True):
            exps = unpack(k, n)
            mono = " ".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.vars, exps)
                if e
            )
            c = self.terms[k]
            lines.append(f"{c} * {mono}" if mono else f"{c}")
        return "\n".join(lines)

    def __repr__(self):
        degs = {v: self.degree(v) for v in self.active_vars()}
        return f"MPoly(vars={self.vars}, terms={len(self.terms)}, degrees={degs})"

    # ------------------------------------------------------- conversions

    def to_ratpoly(self, var: str | None = None) -> "RatPoly":
        """Convert a (at most) univariate polynomial to dense form."""
        active = self.active_vars()
        if len(active) > 1:
            raise DegenerateInput(f"not univariate: active variables {active}")
        if var is None:
            var = active[0] if active else (self.vars[0] if self.vars else "x")
        if var not in self.vars:
            if active:
                raise DegenerateInput(f"active variable is {active[0]!r}, not {var!r}")
            return RatPoly([self.terms.get(0, 0)] if self.terms else [], var)
        sh = self._var_shift(var)
        deg = self.degree(var)
        if deg < 0:
            return RatPoly([], var)
        coeffs = [0] * (deg + 1)
        for k, c in self.terms.items():
            coeffs[(k >> sh) & MASK] = c
        return RatPoly(coeffs, var)


class RatPoly:
    """Dense exact univariate polynomial, lowest-degree coefficient first."""

    __slots__ = ("coeffs", "var")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, coeffs: Iterable[object] = (), var: str = "x"):
        c = list(coeffs)
        while c and not c[-1]:
            c.pop()
        self.coeffs: list = c
        self.var = var

    # ------------------------------------------------------------ queries

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, RatPoly):
            if len(self.coeffs) != len(other.coeffs):
                return False
            return all(a == b for a, b in zip(self.coeffs, other.coeffs))
        if _is_exact_scalar(other):
            if not other:
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    # --------------------------------------------------------- arithmetic

    def _coerce(self, other) -> "RatPoly | None":
        if isinstance(other, RatPoly):
            return other
        if _is_exact_scalar(other):
            return RatPoly([other], self.var)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatPoly(u_add(self.coeffs, o.coeffs), self.var)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatPoly(u_sub(self.coeffs, o.coeffs), self.var)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatPoly(u_sub(o.coeffs, self.coeffs), self.var)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not isinstance(other, RatPoly):
            return RatPoly(u_scale(self.coeffs, other), self.var)
        return RatPoly(u_mul(self.coeffs, o.coeffs), self.var)

    __rmul__ = __mul__

    def __neg__(self):
        return RatPoly(u_neg(self.coeffs), self.var)

    # -------------------------------------------------------- evaluation

    def eval_q(self, x):
        """Exact evaluation at a rational point."""
        return u_eval(self.coeffs, x)

    def eval_float(self, x: float) -> float:
        """Evaluate at a float, exactly, rounding once at the end."""
        return float(u_eval(self.coeffs, Fraction(x)))

    # ------------------------------------------------------- conversions

    def to_int_coeffs(self) -> tuple[list[int], int]:
        """Clear denominators: ``(coeffs of M * self as ints, M)``."""
        m = 1
        for c in self.coeffs:
            d = int(c.denominator) if not isinstance(c, int) else 1
            m = m * d // math.gcd(m, d)
        out = []
        for c in self.coeffs:
            if isinstance(c, int):
                out.append(c * m)
            else:
                num, den = int(c.numerator), int(c.denominator)
                out.append(num * (m // den))
        return out, m

    def __repr__(self):
        return f"RatPoly({self.var}, deg={self.degree()})"
