"""Exact polynomials and rational functions in the two summation indices
(n, k), with rational coefficients held as integers over one denominator.

A MultiPoly stores ``ints``, a dict of int coefficients, and ``den``, a
positive int, in lowest terms: the gcd of ``den`` and every coefficient is
1, so equal polynomials have equal fields.  Sums and products run on ints
only, combining denominators by lcm or product; a coefficient becomes a
Fraction only where a value or a string is produced.

A Product keeps a polynomial as a product of factors: a rational content,
primitive integer linear forms with multiplicities, and the few non-linear
factors as written, each a primitive int coefficient dict.  Products
multiply by merging factors and are multiplied out only when a caller asks
for ``poly``.  A Gamma quotient of ``hyperterm`` is a product of linear
forms, and so is a pair's prefactor but for one numerator, so the WZ
decision can clear denominators by their least common multiple (``wz``).

A RatFunc is num/den, two Products, exactly as built: arithmetic multiplies
straight through and never reduces to lowest terms, so there is no
polynomial GCD anywhere; a sum multiplies both sides out into one new
factor.  A RatFunc is zero iff its numerator is.  Equal values need not
share a structure (a and b are equal iff a.num * b.den and b.num * a.den
multiply out to the same polynomial), so RatFunc defines no value equality
and is unhashable, and so are the records that hold one.
``RatFunc.int_ratio`` fixes k and multiplies each side's
factors out in n on integers, which is how the series layer steps a sum
whose term ratio comes from a WZ pair.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from typing import Callable, Iterable

Exponent = tuple[int, int]  # (degree in n, degree in k)
Ints = dict[Exponent, int]
Form = tuple[int, int, int]  # c0 + cn*n + ck*k
_LINEAR = ((0, 0), (1, 0), (0, 1))  # the exponents of c0, cn, ck
_K: Form = (0, 0, 1)


def _ratio(c) -> tuple[int, int]:
    """(p, q) with c == p/q and q > 0, in lowest terms, for an int or Fraction."""
    return (c, 1) if type(c) is int else (c.numerator, c.denominator)


def _mul_ints(x: Ints, y: Ints) -> Ints:
    out: Ints = {}
    get = out.get
    right = y.items()
    for (a1, a2), c in x.items():
        for (b1, b2), d in right:
            e = (a1 + b1, a2 + b2)
            out[e] = get(e, 0) + c * d
    return out


def _shift_ints(x: Ints, dn: int, dk: int) -> Ints:
    """x at (n + dn, k + dk), integer dn and dk, by the binomial theorem."""
    out: Ints = {}
    for (a, b), c in x.items():
        for i in range(a + 1):
            cu = c * comb(a, i) * dn ** (a - i)
            for j in range(b + 1):
                out[i, j] = out.get((i, j), 0) + cu * comb(b, j) * dk ** (b - j)
    return out


class MultiPoly:
    """Polynomial in n and k: sparse int coefficients ``ints`` over ``den``."""

    __slots__ = ("ints", "den")

    def __init__(self, ints: Ints, den: int = 1):
        """ints/den brought to lowest terms; den must be positive."""
        ints = {e: c for e, c in ints.items() if c}
        g = gcd(den, *ints.values())
        if g != 1:
            ints = {e: c // g for e, c in ints.items()}
            den //= g
        self.ints, self.den = ints, den

    def terms(self) -> Iterable[tuple[Exponent, Fraction]]:
        return [(e, Fraction(c, self.den)) for e, c in sorted(self.ints.items(), reverse=True)]

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {e: c * s for e, c in self.ints.items()}
        for e, c in other.ints.items():
            out[e] = out.get(e, 0) + c * t
        return MultiPoly(out, den)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        return MultiPoly(_mul_ints(self.ints, other.ints), self.den * other.den)

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


class Product:
    """p/q * prod(form**m for form, m in forms.items()) * prod(polys).

    p/q is the content, brought to lowest terms with q > 0; the zero
    polynomial has p = 0 and no factors.  ``forms`` maps primitive integer
    linear forms (c0, cn, ck), the first nonzero of cn, ck positive, to
    multiplicities (a zero one is no factor), so equal linear factors share
    one key; ``polys`` are the non-linear factors, primitive int coefficient
    dicts.  Never mutated once built."""

    __slots__ = ("p", "q", "forms", "polys")

    def __init__(self, p: int = 1, q: int = 1, forms: dict[Form, int] | None = None,
                 polys: tuple[Ints, ...] = ()):
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        self.p, self.q = p // g, q // g
        self.forms = forms if p and forms else {}
        self.polys = polys if p else ()

    @classmethod
    def linear(cls, c0: int, cn: int, ck: int, q: int = 1) -> "Product":
        """(c0 + cn*n + ck*k)/q for ints, as content times a primitive form."""
        if not (cn or ck):
            return cls(c0, q)
        g = gcd(c0, cn, ck) if (cn or ck) > 0 else -gcd(c0, cn, ck)
        return cls(g, q, {(c0 // g, cn // g, ck // g): 1})

    @classmethod
    def of(cls, x) -> "Product":
        """A MultiPoly, int or Fraction as a Product: its content split off,
        a linear rest kept as a form, any other rest as one factor."""
        if not isinstance(x, MultiPoly):
            return cls(*_ratio(x))
        if x.ints.keys() <= set(_LINEAR):
            return cls.linear(*(x.ints.get(e, 0) for e in _LINEAR), x.den)
        g = gcd(*x.ints.values())
        return cls(g, x.den, None, ({e: c // g for e, c in x.ints.items()},))

    @property
    def is_zero(self) -> bool:
        return not self.p

    @property
    def poly(self) -> MultiPoly:
        factors = [dict(zip(_LINEAR, form)) for form, m in self.forms.items() for _ in range(m)]
        return MultiPoly(reduce(_mul_ints, factors + list(self.polys), {(0, 0): self.p}), self.q)

    def __mul__(self, other: "Product") -> "Product":
        forms = dict(self.forms)
        for f, m in other.forms.items():
            forms[f] = forms.get(f, 0) + m
        return Product(self.p * other.p, self.q * other.q, forms, self.polys + other.polys)

    def __pow__(self, m: int) -> "Product":
        if m < 0:
            raise ValueError("negative power of a polynomial")
        return Product(self.p ** m, self.q ** m, {f: e * m for f, e in self.forms.items()},
                       self.polys * m)

    def div_k(self) -> "Product":
        """self / k, exactly; ValueError unless k is one of its factors."""
        if self.p and not self.forms.get(_K):
            raise ValueError(f"k is not a factor of {self.poly}")
        forms = dict(self.forms)
        forms[_K] = forms.get(_K, 0) - 1  # dropped again if self is zero
        return Product(self.p, self.q, forms, self.polys)

    def shift(self, dn: int, dk: int) -> "Product":
        """n -> n + dn, k -> k + dk for integer dn, dk: a form keeps its cn
        and ck, so it stays primitive and distinct forms stay distinct."""
        return Product(self.p, self.q,
                       {(c0 + cn * dn + ck * dk, cn, ck): m
                        for (c0, cn, ck), m in self.forms.items()},
                       tuple(_shift_ints(x, dn, dk) for x in self.polys))

    def in_n(self, a: int, b: int) -> tuple[list[int], int]:
        """(coefficients, d): at k = a/b, self == poly(n) / d with poly's
        integer coefficients listed highest degree first, d = q b^e for e
        the factors' summed degree in k."""
        factors = [([cn * b, c0 * b + ck * a], 1) if ck else ([cn, c0], 0)
                   for (c0, cn, ck), m in self.forms.items() for _ in range(m)]
        for x in self.polys:
            top = max(j for _, j in x)
            coeffs = [0] * (1 + max(d for d, _ in x))
            for (d, j), c in x.items():
                coeffs[-1 - d] += c * a ** j * b ** (top - j)
            factors.append((coeffs, top))
        out, e = [self.p], 0
        for coeffs, top in factors:
            nxt = [0] * (len(out) + len(coeffs) - 1)
            for i, u in enumerate(out):
                for j, v in enumerate(coeffs):
                    nxt[i + j] += u * v
            out, e = nxt, e + top
        return out, self.q * b ** e


def _coerce(x) -> Product:
    return x if isinstance(x, Product) else Product.of(x)


class RatFunc:
    """num/den, two Products, as built and never reduced; only a zero
    denominator is refused."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        self.num = _coerce(num)
        self.den = Product() if den is None else _coerce(den)
        if self.den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(Product.of(c))

    __hash__ = None  # see the module docstring

    def __add__(self, other) -> "RatFunc":
        other = _coerce_rf(other)
        num = self.num.poly * other.den.poly + other.num.poly * self.den.poly
        return RatFunc(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return self * -1

    def __sub__(self, other) -> "RatFunc":
        return self + (-_coerce_rf(other))

    def __mul__(self, other) -> "RatFunc":
        other = _coerce_rf(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce_rf(other)
        return RatFunc(self.num * other.den, self.den * other.num)

    def __pow__(self, m: int) -> "RatFunc":
        return RatFunc(self.num ** m, self.den ** m)

    def eval(self, n, k) -> Fraction:
        """The exact value at rational (n, k), by ``int_ratio``'s Horner
        passes taken at a Fraction n."""
        p, q = self.int_ratio(k)(Fraction(n))
        if q == 0:
            raise ZeroDivisionError(f"denominator vanishes at (n, k) = ({n}, {k})")
        return p / q

    def shift(self, dn: int, dk: int) -> "RatFunc":
        return RatFunc(self.num.shift(dn, dk), self.den.shift(dn, dk))

    def int_ratio(self, k) -> Callable[[int], tuple[int, int]]:
        """The map n -> (p, q) of integers with p/q = self(n, k) at a fixed
        rational k = a/b.  Each side's factors are taken at k, times b per
        unit of degree in k, and multiplied out in n once (``in_n``); each
        side's leftover denominator, over their gcd, joins the other's
        coefficients, so each call is two Horner passes on ints."""
        a, b = _ratio(k)
        (top, s), (bottom, t) = self.num.in_n(a, b), self.den.in_n(a, b)
        g = gcd(s, t)
        num, den = [c * (t // g) for c in top], [c * (s // g) for c in bottom]

        def ratio(n):
            p = q = 0
            for c in num:
                p = p * n + c
            for c in den:
                q = q * n + c
            return p, q
        return ratio

    def __str__(self) -> str:
        num, den = self.num.poly, self.den.poly
        if den.ints == {(0, 0): den.den}:  # den == 1
            return str(num)
        return f"({num}) / ({den})"


def _coerce_rf(x) -> RatFunc:
    return x if isinstance(x, RatFunc) else RatFunc(x)
