"""Exact polynomials and rational functions in the two summation indices
(n, k), with Fraction coefficients.

A RatFunc is num/den exactly as built: arithmetic multiplies straight
through and never reduces to lowest terms, so there is no GCD anywhere.
Equality is decided by cross-multiplication (a == b iff
a.num * b.den == b.num * a.den) and a RatFunc is zero iff its numerator is.
Equal values need not share a structure, so RatFunc is unhashable.
Prefactors parsed from text are kept as written.  ``RatFunc.int_ratio``
fixes k and evaluates the rest on integers, which is how the series layer
steps a sum whose term ratio comes from a WZ pair.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable

Exponent = tuple[int, int]  # (degree in n, degree in k)


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

    def terms(self) -> Iterable[tuple[Exponent, Fraction]]:
        return sorted(self.coeffs.items(), reverse=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiPoly) and self.coeffs == other.coeffs

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

    def div_k(self) -> "MultiPoly":
        """self / k, exactly; ValueError unless k divides every term."""
        if any(b == 0 for _, b in self.coeffs):
            raise ValueError(f"k does not divide {self}")
        return MultiPoly({(a, b - 1): c for (a, b), c in self.coeffs.items()})

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


ONE = MultiPoly.const(1)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """num/den as built, never reduced; only a zero denominator is refused."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = _coerce(num)
        self.den = ONE if den is None else _coerce(den)
        if self.den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(MultiPoly.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        other = _coerce_rf(other)
        return self.num * other.den == other.num * self.den

    __hash__ = None

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
        return RatFunc(self.num * other.num, self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce_rf(other)
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce_rf(other) / self

    def __pow__(self, m: int) -> "RatFunc":
        if m >= 0:
            return RatFunc(self.num ** m, self.den ** m)
        return RatFunc(self.den ** (-m), self.num ** (-m))

    def eval(self, n, k) -> Fraction:
        d = self.den.eval(n, k)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at (n, k) = ({n}, {k})")
        return self.num.eval(n, k) / d

    def shift(self, dn, dk) -> "RatFunc":
        return RatFunc(self.num.shift(dn, dk), self.den.shift(dn, dk))

    def int_ratio(self, k) -> Callable[[int], tuple[int, int]]:
        """The map n -> (p, q) of integers with p/q = self(n, k) at a fixed
        rational k = a/b.  Both polynomials are taken times the lcm of their
        coefficient denominators and b^(degree in k), which makes their
        coefficients in n integers, so each call is two Horner passes on ints."""
        a, b = Fraction(k).as_integer_ratio()
        polys = (self.num, self.den)
        top = max((e for p in polys for _, e in p.coeffs), default=0)
        scale = lcm(*(c.denominator for p in polys for c in p.coeffs.values()))

        def in_n(poly):  # highest degree first
            out = [0] * (1 + max((d for d, _ in poly.coeffs), default=0))
            for (d, e), c in poly.coeffs.items():
                out[-1 - d] += c.numerator * (scale // c.denominator) * a ** e * b ** (top - e)
            return out

        num, den = in_n(self.num), in_n(self.den)

        def ratio(n):
            p = q = 0
            for c in num:
                p = p * n + c
            for c in den:
                q = q * n + c
            return p, q
        return ratio

    def __str__(self) -> str:
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def _coerce_rf(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, MultiPoly):
        return RatFunc(x)
    return RatFunc.const(x)


# ---------------------------------------------------------------------------
# parsing:  python expression syntax over n, k with integer/rational literals
# ---------------------------------------------------------------------------

_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def parse_ratfunc(text: str) -> RatFunc:
    """Parse an expression like '-n/(2*(n+k))' into a RatFunc."""
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
