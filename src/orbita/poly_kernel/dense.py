"""Dense univariate helpers: coefficient-list arithmetic, content, exact
division, pseudo-remainders, fraction-free determinants, exact sign
evaluation.

Polynomials here are plain Python lists, lowest degree first, no trailing
zeros (zero polynomial = empty list).  The ``u_*`` arithmetic loops only
combine coefficients with ``+ - *``, so they serve ``int`` and
``fractions.Fraction`` coefficients alike (``RatPoly`` uses them); the rest
works on ints.  These are the workhorse representations inside resultants
(Bareiss elimination entries) and exact square-free parts, where exactness
and big-integer speed matter most.  The kernel has one implementation, in pure
Python.
"""

from __future__ import annotations

import math

from .errors import DegenerateInput, NotAFactor


def u_trim(a):
    """Drop trailing zeros in place; return the list."""
    while a and not a[-1]:
        a.pop()
    return a


def u_add(a, b):
    """Sum of two dense coefficient lists."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return u_trim(out)


def u_sub(a, b):
    """Difference of two dense coefficient lists."""
    n = max(len(a), len(b))
    out = list(a) + [0] * (n - len(a))
    for i, c in enumerate(b):
        out[i] = out[i] - c
    return u_trim(out)


def u_neg(a):
    """Negation of a dense coefficient list."""
    return [-c for c in a]


def u_mul(a, b):
    """Product of two dense coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if len(a) > len(b):
        a, b = b, a
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return u_trim(out)


def u_scale(a, c):
    """Dense coefficient list times a scalar (may be zero)."""
    if not c:
        return []
    return [v * c for v in a]


def u_eval(a, x):
    """Evaluate a dense coefficient list at ``x`` by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def u_derivative(a):
    """Derivative of a dense coefficient list."""
    return u_trim([c * i for i, c in enumerate(a)][1:])


def content(a: list[int]) -> int:
    """Positive GCD of the coefficients (0 for the zero polynomial)."""
    g = 0
    for c in a:
        if c:
            g = math.gcd(g, c)
            if g == 1:
                return 1
    return g


def primitive(a: list[int]) -> tuple[list[int], int]:
    """``(a / content, content)``; sign of the polynomial is preserved."""
    g = content(a)
    if g <= 1:
        return list(a), max(g, 1)
    return [c // g for c in a], g


def divexact(a: list[int], b: list[int]) -> list[int]:
    """Exact division of integer polynomials; raises ``NotAFactor``."""
    if not b:
        raise DegenerateInput("division by zero polynomial")
    if not a:
        return []
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        raise NotAFactor("degree of divisor exceeds degree of dividend")
    rem = list(a)
    lead = b[-1]
    quot = [0] * (da - db + 1)
    for i in range(da - db, -1, -1):
        top = rem[i + db]
        if not top:
            continue
        q, r = divmod(top, lead)
        if r:
            raise NotAFactor("leading coefficient does not divide")
        quot[i] = q
        for j in range(db + 1):
            rem[i + j] -= q * b[j]
    if any(rem[:db]):
        raise NotAFactor("division leaves a nonzero remainder")
    return u_trim(quot)


def prem(a: list[int], b: list[int]) -> tuple[list[int], int, int]:
    """Pseudo-remainder of ``a`` by ``b``.

    Returns ``(r, lead, k)`` with ``lead = leading coefficient of b`` and
    ``lead**k * a = q*b + r`` for some integer-coefficient quotient, and
    ``deg r < deg b``.  ``k`` counts the reduction steps actually taken
    (at most ``deg a - deg b + 1``).
    """
    if not b:
        raise DegenerateInput("pseudo-division by zero polynomial")
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return list(a), b[-1], 0
    lead = b[-1]
    r = list(a)
    k = 0
    while len(r) - 1 >= db:
        top = r[-1]
        dr = len(r) - 1
        # r <- lead*r - top*x^(dr-db)*b    (drops degree dr)
        new = [lead * c for c in r[:-1]]
        off = dr - db
        for j in range(db):
            new[off + j] -= top * b[j]
        k += 1
        r = u_trim(new)
        if not r:
            break
    return r, lead, k


def gcd_poly(a: list[int], b: list[int]) -> list[int]:
    """GCD of integer polynomials via the primitive pseudo-remainder chain.

    Result is primitive with positive leading coefficient (or the content
    GCD when one input is zero).
    """
    if not a:
        g, _ = primitive(b)
        return [-c for c in g] if g and g[-1] < 0 else g
    if not b:
        g, _ = primitive(a)
        return [-c for c in g] if g and g[-1] < 0 else g
    f, _ = primitive(a)
    g, _ = primitive(b)
    if len(f) < len(g):
        f, g = g, f
    while True:
        r, _, _ = prem(f, g)
        if not r:
            break
        r, _ = primitive(r)
        f, g = g, r
    if g[-1] < 0:
        g = [-c for c in g]
    return g


def squarefree_part(a: list[int]) -> tuple[list[int], list[int]]:
    """``(squarefree part, gcd(a, a'))``, both primitive, leading > 0."""
    if not a:
        raise DegenerateInput("zero polynomial has no square-free part")
    if len(a) <= 2:
        p, _ = primitive(a)
        if p[-1] < 0:
            p = [-c for c in p]
        return p, [1]
    g = gcd_poly(a, u_derivative(a))
    if len(g) == 1:
        p, _ = primitive(a)
        if p[-1] < 0:
            p = [-c for c in p]
        return p, [1]
    sf = divexact(a, g)
    sf, _ = primitive(sf)
    if sf[-1] < 0:
        sf = [-c for c in sf]
    return sf, g


def sign_at(a: list[int], num: int, den: int) -> int:
    """Exact sign of ``a(num/den)`` for ``den > 0``, all-integer arithmetic."""
    if not a:
        return 0
    acc = a[-1]
    dp = 1
    for i in range(len(a) - 2, -1, -1):
        dp *= den
        acc = acc * num + a[i] * dp
    return (acc > 0) - (acc < 0)


def bareiss_det(m: list[list[list[int]]]) -> list[int]:
    """Determinant of a matrix of dense integer polynomials.

    Fraction-free Bareiss elimination: every division is exact.  Entries
    are consumed destructively; pass a fresh matrix.
    """
    n = len(m)
    if n == 0:
        return [1]
    sign = 1
    prev: list[int] = [1]
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return []
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, n):
                num = u_sub(u_mul(pivot, row_i[j]), u_mul(head, m[k][j]))
                row_i[j] = divexact(num, prev) if len(prev) > 1 or prev[0] != 1 else num
            row_i[k] = []
        prev = pivot
    det = m[n - 1][n - 1]
    return u_neg(det) if sign < 0 else det
