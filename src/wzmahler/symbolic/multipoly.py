"""Exact polynomials and rational functions in the two summation indices
(n, k), with Fraction coefficients.

Degrees stay tiny (<= 8), so GCDs use content extraction plus a primitive
pseudo-remainder sequence one variable at a time: simple, exact, fast enough.
Rational functions are kept in a canonical form (coprime, denominator a
primitive integer polynomial with positive leading coefficient) so equality
is structural.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from math import gcd as _int_gcd
from typing import Iterable

Exponent = tuple[int, int]  # (degree in n, degree in k)


def _lex_key(e: Exponent):
    return e


class MultiPoly:
    """Polynomial in n and k over Fraction, sparse dict representation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[Exponent, Fraction] | None = None):
        clean: dict[Exponent, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c:
                    clean[(int(e[0]), int(e[1]))] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, c) -> "MultiPoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        if name == "n":
            return cls({(1, 0): Fraction(1)})
        if name == "k":
            return cls({(0, 1): Fraction(1)})
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def linear(cls, c0, cn, ck) -> "MultiPoly":
        return cls({(0, 0): Fraction(c0), (1, 0): Fraction(cn), (0, 1): Fraction(ck)})

    # -- structure -----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self, var: str) -> int:
        idx = 0 if var == "n" else 1
        return max((e[idx] for e in self.coeffs), default=-1)

    def leading(self) -> tuple[Exponent, Fraction]:
        e = max(self.coeffs, key=_lex_key)
        return e, self.coeffs[e]

    def terms(self) -> Iterable[tuple[Exponent, Fraction]]:
        return sorted(self.coeffs.items(), key=lambda t: _lex_key(t[0]), reverse=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.terms()))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other) -> "MultiPoly":
        other = _coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MultiPoly(out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "MultiPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = _coerce(other)
        out: dict[Exponent, Fraction] = {}
        for (a1, a2), c in self.coeffs.items():
            for (b1, b2), d in other.coeffs.items():
                e = (a1 + b1, a2 + b2)
                out[e] = out.get(e, Fraction(0)) + c * d
        return MultiPoly(out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, m: int) -> "MultiPoly":
        if m < 0:
            raise ValueError("negative power of a polynomial")
        out = MultiPoly.const(1)
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def scale(self, c) -> "MultiPoly":
        c = Fraction(c)
        return MultiPoly({e: v * c for e, v in self.coeffs.items()})

    def eval(self, n, k) -> Fraction:
        n, k = Fraction(n), Fraction(k)
        total = Fraction(0)
        for (a, b), c in self.coeffs.items():
            total += c * n ** a * k ** b
        return total

    def eval_num(self, n, k):
        """Evaluate with arbitrary numeric types (e.g. mpf)."""
        total = 0
        for (a, b), c in self.coeffs.items():
            total = total + (n ** a) * (k ** b) * c.numerator / c.denominator
        return total

    def shift(self, dn, dk) -> "MultiPoly":
        """Substitute n -> n + dn, k -> k + dk (dn, dk rational)."""
        n = MultiPoly.var("n") + MultiPoly.const(Fraction(dn))
        k = MultiPoly.var("k") + MultiPoly.const(Fraction(dk))
        out = MultiPoly()
        for (a, b), c in self.coeffs.items():
            out = out + (n ** a * k ** b).scale(c)
        return out

    # -- string form -----------------------------------------------------
    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for (a, b), c in self.terms():
            factors = []
            if c != 1 or (a == 0 and b == 0):
                factors.append(str(c) if c > 0 or not parts else f"({c})")
            if a:
                factors.append("n" if a == 1 else f"n**{a}")
            if b:
                factors.append("k" if b == 1 else f"k**{b}")
            parts.append("*".join(factors) if factors else str(c))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


def _coerce(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    return MultiPoly.const(x)


ZERO = MultiPoly()
ONE = MultiPoly.const(1)


# ---------------------------------------------------------------------------
# univariate helpers (dense lists of Fractions, low degree first)
# ---------------------------------------------------------------------------

def _uni_trim(p: list[Fraction]) -> list[Fraction]:
    while p and not p[-1]:
        p.pop()
    return p


def _uni_primitive_int(p: list[Fraction]) -> list[int]:
    """Primitive integer form with positive leading coefficient."""
    if not p:
        return []
    lcm = 1
    for c in p:
        lcm = lcm * c.denominator // _int_gcd(lcm, c.denominator)
    ints = [c.numerator * (lcm // c.denominator) for c in p]
    g = 0
    for v in ints:
        g = _int_gcd(g, v)
    if g:
        ints = [v // g for v in ints]
    if ints and ints[-1] < 0:
        ints = [-v for v in ints]
    return ints


def _uni_prem_int(a: list[int], b: list[int]) -> list[int]:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while a and len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = [lb * c for c in a]
        for i, c in enumerate(b):
            a[i + shift] -= la * c
        while a and a[-1] == 0:
            a.pop()
    return a


def _int_primitive(p: list[int]) -> list[int]:
    g = 0
    for v in p:
        g = _int_gcd(g, v)
    if g:
        p = [v // g for v in p]
    if p and p[-1] < 0:
        p = [-v for v in p]
    return p


def _uni_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic univariate gcd via primitive integer PRS (no coefficient blowup)."""
    A = _uni_primitive_int(_uni_trim(list(a)))
    B = _uni_primitive_int(_uni_trim(list(b)))
    if len(A) < len(B):
        A, B = B, A
    while B:
        R = _int_primitive(_uni_prem_int(A, B))
        A, B = B, R
    if not A:
        return []
    lead = A[-1]
    return [Fraction(c, lead) for c in A]


# ---------------------------------------------------------------------------
# bivariate gcd:  view as polynomials in n whose coefficients live in Q[k]
# ---------------------------------------------------------------------------

def _as_n_poly(p: MultiPoly) -> list[list[Fraction]]:
    """coefficients[i] = dense k-poly multiplying n**i"""
    dn = p.degree("n")
    out: list[list[Fraction]] = [[] for _ in range(dn + 1)]
    for (a, b), c in p.coeffs.items():
        row = out[a]
        while len(row) <= b:
            row.append(Fraction(0))
        row[b] += c
    return [_uni_trim(row) for row in out]


def _from_n_poly(rows: list[list[Fraction]]) -> MultiPoly:
    coeffs: dict[Exponent, Fraction] = {}
    for a, row in enumerate(rows):
        for b, c in enumerate(row):
            if c:
                coeffs[(a, b)] = c
    return MultiPoly(coeffs)


def _kdiv_exact(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """exact division in Q[k]; raises if the remainder is nonzero"""
    a = list(a)
    out = [Fraction(0)] * (max(len(a) - len(b) + 1, 0))
    db, lb = len(b) - 1, b[-1]
    while a and len(a) - 1 >= db:
        q = a[-1] / lb
        shift = len(a) - 1 - db
        out[shift] = q
        for i, c in enumerate(b):
            a[i + shift] -= q * c
        _uni_trim(a)
    if a:
        raise ArithmeticError("inexact univariate division")
    return _uni_trim(out)


def _content_k(rows: list[list[Fraction]]) -> list[Fraction]:
    g: list[Fraction] = []
    for row in rows:
        if row:
            g = _uni_gcd(g, row) if g else [c / row[-1] for c in row]
    return g if g else []


def _primitive_n(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    cont = _content_k(rows)
    if not cont or cont == [Fraction(1)]:
        return rows, [Fraction(1)]
    return [_kdiv_exact(r, cont) if r else [] for r in rows], cont


def _keval(row: list[Fraction], c: Fraction) -> Fraction:
    total = Fraction(0)
    for coef in reversed(row):
        total = total * c + coef
    return total


def _eval_at_k(rows: list[list[Fraction]], c: Fraction) -> list[Fraction]:
    return _uni_trim([_keval(r, c) for r in rows])


def _lagrange(points: list[tuple[Fraction, Fraction]]) -> list[Fraction]:
    """Interpolating polynomial through (x, y) pairs, dense coefficients."""
    result = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            # basis *= (x - xj)
            basis = [Fraction(0)] + basis
            for t in range(len(basis) - 1):
                basis[t] -= xj * basis[t + 1]
            denom *= xi - xj
        scale = yi / denom
        for t, coef in enumerate(basis):
            result[t] += scale * coef
    return _uni_trim(result)


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """GCD in Q[n,k], leading (lex) coefficient normalized to 1.

    Computed by evaluation in k / interpolation with deterministic trial
    division; the pseudo-remainder route blows up in coefficient size at the
    degrees the shift-composition checks produce (deg ~ 13 in each variable).
    """
    if p.is_zero:
        return _monic(q)
    if q.is_zero:
        return _monic(p)
    a_rows, ca = _primitive_n(_as_n_poly(p))
    b_rows, cb = _primitive_n(_as_n_poly(q))
    cont = _uni_gcd(ca, cb)
    cont_poly = _from_n_poly([cont]) if cont else ONE

    if len(a_rows) == 1 or len(b_rows) == 1:
        # one argument has n-degree 0 and is primitive, so the n-part is 1
        return _monic(cont_poly)

    lc_a, lc_b = a_rows[-1], b_rows[-1]
    gamma = _uni_gcd(lc_a, lc_b)  # the gcd's leading n-coefficient divides this
    dk_bound = min(max(len(r) for r in a_rows), max(len(r) for r in b_rows)) - 1
    npoints = len(gamma) - 1 + dk_bound + 1

    for attempt in range(16):
        images: list[tuple[Fraction, list[Fraction]]] = []
        deg = None
        c = Fraction(attempt * 64)  # fresh point window per attempt
        while len(images) < max(npoints, 1):
            c += 1
            if _keval(lc_a, c) == 0 or _keval(lc_b, c) == 0 or _keval(gamma, c) == 0:
                continue
            g_c = _uni_gcd(_eval_at_k(a_rows, c), _eval_at_k(b_rows, c))
            d_c = len(g_c) - 1
            if d_c == 0:
                return _monic(cont_poly)
            if deg is None or d_c < deg:
                deg = d_c
                images = []
            if d_c == deg:
                scale = _keval(gamma, c)
                images.append((c, [v * scale for v in g_c]))
        # interpolate each n-coefficient as a polynomial in k
        rows: list[list[Fraction]] = []
        for j in range(deg + 1):
            pts = [(c, img[j] if j < len(img) else Fraction(0)) for c, img in images]
            rows.append(_lagrange(pts))
        cand_rows, _ = _primitive_n(rows)
        cand = _from_n_poly(cand_rows)
        try:
            poly_divexact(p, cand)
            poly_divexact(q, cand)
        except ArithmeticError:
            continue
        return _monic(cand * cont_poly)
    raise ArithmeticError("bivariate gcd interpolation did not stabilize")


def _monic(p: MultiPoly) -> MultiPoly:
    if p.is_zero:
        return p
    _, lead = p.leading()
    return p.scale(1 / lead)


def poly_divexact(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Exact division p/d via lex-leading-term reduction."""
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = p
    out: dict[Exponent, Fraction] = {}
    de, dc = d.leading()
    while not rem.is_zero:
        re, rc = rem.leading()
        ea, eb = re[0] - de[0], re[1] - de[1]
        if ea < 0 or eb < 0:
            raise ArithmeticError("inexact polynomial division")
        q = rc / dc
        out[(ea, eb)] = out.get((ea, eb), Fraction(0)) + q
        rem = rem - d * MultiPoly({(ea, eb): q})
    return MultiPoly(out)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """num/den in canonical form: coprime, den a primitive integer polynomial
    with positive lex-leading coefficient."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce(num)
        den = ONE if den is None else _coerce(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            self.num, self.den = ZERO, ONE
            return
        g = poly_gcd(num, den)
        if g.degree("n") > 0 or g.degree("k") > 0 or g.leading()[1] != 1:
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        # scale so den has primitive integer coefficients, positive lead
        denoms = [c.denominator for c in den.coeffs.values()]
        lcm = 1
        for d in denoms:
            lcm = lcm * d // _int_gcd(lcm, d)
        nums = [abs(c.numerator * (lcm // c.denominator)) for c in den.coeffs.values()]
        g_int = 0
        for v in nums:
            g_int = _int_gcd(g_int, v)
        scale = Fraction(lcm, g_int if g_int else 1)
        if den.leading()[1] < 0:
            scale = -scale
        self.num = num.scale(scale)
        self.den = den.scale(scale)

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(MultiPoly.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatFunc):
            other = RatFunc.const(other)
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other) -> "RatFunc":
        other = _coerce_rf(other)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_coerce_rf(other))

    def __rsub__(self, other):
        return _coerce_rf(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = _coerce_rf(other)
        # cross-cancel first so chained products stay small
        n1, d2 = _cancel(self.num, other.den)
        n2, d1 = _cancel(other.num, self.den)
        return RatFunc(n1 * n2, d1 * d2)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce_rf(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        n1, n2 = _cancel(self.num, other.num)
        d1, d2 = _cancel(self.den, other.den)
        return RatFunc(n1 * d2, d1 * n2)

    def __rtruediv__(self, other):
        return _coerce_rf(other) / self

    def __pow__(self, m: int) -> "RatFunc":
        if m >= 0:
            return RatFunc(self.num ** m, self.den ** m)
        if self.is_zero:
            raise ZeroDivisionError("negative power of zero")
        return RatFunc(self.den ** (-m), self.num ** (-m))

    def eval(self, n, k) -> Fraction:
        d = self.den.eval(n, k)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at (n, k) = ({n}, {k})")
        return self.num.eval(n, k) / d

    def eval_num(self, n, k):
        return self.num.eval_num(n, k) / self.den.eval_num(n, k)

    def shift(self, dn, dk) -> "RatFunc":
        return RatFunc(self.num.shift(dn, dk), self.den.shift(dn, dk))

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def _cancel(p: MultiPoly, q: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    g = poly_gcd(p, q)
    if g.degree("n") > 0 or g.degree("k") > 0:
        return poly_divexact(p, g), poly_divexact(q, g)
    return p, q


def _coerce_rf(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, MultiPoly):
        return RatFunc(x)
    return RatFunc.const(x)


def ratfunc_arith(a: RatFunc, b: RatFunc, op: str) -> RatFunc:
    """Dispatch form of the four exact operations."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# parsing:  python expression syntax over n, k with integer/rational literals
# ---------------------------------------------------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse an expression like '-n/(2*(n+k))' into a canonical RatFunc."""
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse {text!r}: {exc}") from None
    return _from_ast(tree.body)


def _from_ast(node) -> RatFunc:
    if isinstance(node, ast.Constant):
        if isinstance(node.value, int):
            return RatFunc.const(node.value)
        raise ValueError(f"non-integer literal {node.value!r}")
    if isinstance(node, ast.Name):
        return RatFunc(MultiPoly.var(node.id))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        val = _from_ast(node.operand)
        return -val if isinstance(node.op, ast.USub) else val
    if isinstance(node, ast.BinOp) and isinstance(node.op, _ALLOWED_BINOPS):
        left, right = _from_ast(node.left), _from_ast(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
        if isinstance(node.op, ast.Pow):
            if not (isinstance(node.right, ast.Constant) and isinstance(node.right.value, int)):
                raise ValueError("exponent must be an integer literal")
            return left ** node.right.value
    raise ValueError(f"unsupported syntax element {ast.dump(node)}")
