"""Exact polynomials and rational functions in the two summation indices
(n, k), with rational coefficients held as integers over one denominator.

A MultiPoly stores ``ints``, a dict of int coefficients, and ``den``, a
positive int, in lowest terms: the gcd of ``den`` and every coefficient is
1, so equal polynomials have equal fields.  Sums and products run on ints
only, combining denominators by lcm or product; a coefficient becomes a
Fraction only where a value or a string is produced.

A RatFunc is num/den exactly as built: arithmetic multiplies straight
through and never reduces to lowest terms, so there is no polynomial GCD
anywhere.  Equality is decided by cross-multiplication (a == b iff
a.num * b.den == b.num * a.den) and a RatFunc is zero iff its numerator is.
Equal values need not share a structure, so RatFunc is unhashable.  The
prefactors that ``pairs`` writes as RatFunc expressions in n and k are
kept as written.  ``RatFunc.int_ratio`` fixes k and evaluates the rest on
integers, which is how the series layer steps a sum whose term ratio comes
from a WZ pair.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from numbers import Rational
from typing import Callable, Iterable

Exponent = tuple[int, int]  # (degree in n, degree in k)


def _ratio(c) -> tuple[int, int]:
    """(p, q) with c == p/q and q > 0, in lowest terms."""
    if isinstance(c, Rational):
        return int(c.numerator), int(c.denominator)
    return Fraction(c).as_integer_ratio()


class MultiPoly:
    """Polynomial in n and k: sparse int coefficients ``ints`` over ``den``."""

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: dict[Exponent, Fraction] | None = None):
        pairs = {(int(a), int(b)): _ratio(c) for (a, b), c in (coeffs or {}).items()}
        den = lcm(*(q for _, q in pairs.values()))
        self._set({e: p * (den // q) for e, (p, q) in pairs.items()}, den)

    def _set(self, ints: dict[Exponent, int], den: int) -> None:
        ints = {e: c for e, c in ints.items() if c}
        g = gcd(den, *ints.values())
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
            den //= g
        self.ints, self.den = ints, den

    @classmethod
    def _of(cls, ints: dict[Exponent, int], den: int) -> "MultiPoly":
        """ints/den brought to lowest terms; den must be positive."""
        out = cls.__new__(cls)
        out._set(ints, den)
        return out

    # -- constructors -------------------------------------------------
    @classmethod
    def const(cls, c) -> "MultiPoly":
        p, q = _ratio(c)
        return cls._of({(0, 0): p}, q)

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        if name == "n":
            return cls._of({(1, 0): 1}, 1)
        if name == "k":
            return cls._of({(0, 1): 1}, 1)
        raise ValueError(f"unknown variable {name!r}")

    @classmethod
    def linear(cls, c0, cn, ck) -> "MultiPoly":
        return cls({(0, 0): c0, (1, 0): cn, (0, 1): ck})

    # -- structure -----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.ints

    def terms(self) -> Iterable[tuple[Exponent, Fraction]]:
        return [(e, Fraction(c, self.den)) for e, c in sorted(self.ints.items(), reverse=True)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly) and self.den == other.den
                and self.ints == other.ints)

    def __bool__(self):
        return bool(self.ints)

    # -- arithmetic ------------------------------------------------------
    def __add__(self, other) -> "MultiPoly":
        other = _coerce(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {e: c * s for e, c in self.ints.items()}
        for e, c in other.ints.items():
            out[e] = out.get(e, 0) + c * t
        return MultiPoly._of(out, den)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of({e: -c for e, c in self.ints.items()}, self.den)

    def __sub__(self, other) -> "MultiPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "MultiPoly":
        other = _coerce(other)
        out: dict[Exponent, int] = {}
        get = out.get
        right = other.ints.items()
        for (a1, a2), c in self.ints.items():
            for (b1, b2), d in right:
                e = (a1 + b1, a2 + b2)
                out[e] = get(e, 0) + c * d
        return MultiPoly._of(out, self.den * other.den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, m: int) -> "MultiPoly":
        if m < 0:
            raise ValueError("negative power of a polynomial")
        out = ONE
        base = self
        while m:
            if m & 1:
                out = out * base
            base = base * base
            m >>= 1
        return out

    def eval(self, n, k) -> Fraction:
        """The exact value at rational (n, k) = (p/q, r/s): every term is put
        over den * q^A * s^B (A, B the top degrees) and summed as an int."""
        (p, q), (r, s) = _ratio(n), _ratio(k)
        top_a = max((a for a, _ in self.ints), default=0)
        top_b = max((b for _, b in self.ints), default=0)
        total = sum(c * p ** a * q ** (top_a - a) * r ** b * s ** (top_b - b)
                    for (a, b), c in self.ints.items())
        return Fraction(total, self.den * q ** top_a * s ** top_b)

    def div_k(self) -> "MultiPoly":
        """self / k, exactly; ValueError unless k divides every term."""
        if any(b == 0 for _, b in self.ints):
            raise ValueError(f"k does not divide {self}")
        return MultiPoly._of({(a, b - 1): c for (a, b), c in self.ints.items()}, self.den)

    def shift(self, dn, dk) -> "MultiPoly":
        """Substitute n -> n + dn, k -> k + dk (dn, dk rational).

        With dn = p/q and dk = r/s, the term c n^a k^b becomes
        c (qn + p)^a (sk + r)^b / (q^a s^b); everything is put over
        den * q^A * s^B and expanded by the binomial theorem."""
        (p, q), (r, s) = _ratio(dn), _ratio(dk)
        top_a = max((a for a, _ in self.ints), default=0)
        top_b = max((b for _, b in self.ints), default=0)

        def rows(top, x, y):  # row m: the coefficients of (y t + x)^m y^(top-m)
            return [[comb(m, i) * x ** (m - i) * y ** (top - m + i) for i in range(m + 1)]
                    for m in range(top + 1)]

        in_n, in_k = rows(top_a, p, q), rows(top_b, r, s)
        out: dict[Exponent, int] = {}
        for (a, b), c in self.ints.items():
            row_k = in_k[b]
            for i, u in enumerate(in_n[a]):
                cu = c * u
                for j, v in enumerate(row_k):
                    out[(i, j)] = out.get((i, j), 0) + cu * v
        return MultiPoly._of(out, self.den * q ** top_a * s ** top_b)

    # -- string form -----------------------------------------------------
    def __str__(self) -> str:
        if not self.ints:
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
        denominators and b^(degree in k), which makes their coefficients in n
        integers, so each call is two Horner passes on ints."""
        a, b = _ratio(k)
        polys = (self.num, self.den)
        top = max((e for p in polys for _, e in p.ints), default=0)
        scale = lcm(self.num.den, self.den.den)

        def in_n(poly):  # highest degree first
            out = [0] * (1 + max((d for d, _ in poly.ints), default=0))
            mult = scale // poly.den
            for (d, e), c in poly.ints.items():
                out[-1 - d] += c * mult * a ** e * b ** (top - e)
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
