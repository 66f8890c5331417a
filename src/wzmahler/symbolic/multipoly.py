"""Exact polynomials and rational functions in the two summation indices
(n, k), on integers.

A Product is a polynomial kept as a product of factors: a rational content,
primitive integer linear forms with multiplicities, and the few non-linear
factors as written, each a primitive int coefficient dict.  Products
multiply by merging factors.  They add as polynomials: a sum of two
polynomials of degree at most 1 is one primitive linear form again, and
any other sum is multiplied out (``expand``) into its content and one
non-linear factor.  A product of primitive polynomials is primitive, so
the expansion p * prod(factors) over q is in lowest terms: equal
polynomials expand to the same ints over the same q, and that is what a
Product prints.  A Gamma quotient of ``hyperterm`` is a product of linear
forms, and so is a pair's prefactor but for one numerator, so the WZ
decision can clear denominators by their least common multiple (``wz``).

A RatFunc is num/den, two Products, exactly as built: it multiplies and
divides straight through and never reduces to lowest terms, so there is no
polynomial GCD anywhere; a sum is written over a common denominator as a
sum of Products.  A RatFunc is zero iff its numerator is.  Equal values
need not share a structure (a and b are equal iff a.num * b.den and
b.num * a.den expand alike), so neither type defines value equality, and a
RatFunc, like the records that hold one, is unhashable.
``RatFunc.int_ratio`` fixes k and multiplies each side's factors out in n
on integers, which is how the series layer steps a sum whose term ratio
comes from a WZ pair.  A coefficient becomes a Fraction only where a value
or a string is produced.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import comb, gcd, lcm
from typing import Callable

Exponent = tuple[int, int]  # (degree in n, degree in k)
Ints = dict[Exponent, int]
Form = tuple[int, int, int]  # c0 + cn*n + ck*k
_LINEAR = ((0, 0), (1, 0), (0, 1))  # the exponents of c0, cn, ck
_LINEAR_SET = frozenset(_LINEAR)
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
    def of(cls, ints: Ints, q: int = 1) -> "Product":
        """sum(c n^a k^b for (a, b), c in ints.items())/q: its content split
        off, a linear rest kept as a form, any other rest as one factor."""
        ints = {e: c for e, c in ints.items() if c}
        if ints.keys() <= _LINEAR_SET:
            return cls.linear(*(ints.get(e, 0) for e in _LINEAR), q)
        g = gcd(*ints.values())
        return cls(g, q, None, ({e: c // g for e, c in ints.items()},))

    @property
    def is_zero(self) -> bool:
        return not self.p

    def expand(self) -> Ints:
        """The int coefficients of q * self, multiplied out, zeros dropped;
        no product is formed for a content times at most one factor."""
        factors = [dict(zip(_LINEAR, form)) for form, m in self.forms.items() for _ in range(m)]
        factors += self.polys
        if not factors:
            return {(0, 0): self.p} if self.p else {}
        first = {e: self.p * c for e, c in factors[0].items() if c}
        if len(factors) == 1:
            return first
        return {e: c for e, c in reduce(_mul_ints, factors[1:], first).items() if c}

    def __add__(self, other) -> "Product":
        other = _coerce(other)
        q = lcm(self.q, other.q)
        s, t = q // self.q, q // other.q
        out = {e: c * s for e, c in self.expand().items()}
        for e, c in other.expand().items():
            out[e] = out.get(e, 0) + c * t
        return Product.of(out, q)

    def __neg__(self) -> "Product":
        return Product(-self.p, self.q, self.forms, self.polys)

    def __sub__(self, other) -> "Product":
        return self + -_coerce(other)

    def __mul__(self, other) -> "Product":
        other = _coerce(other)
        forms = dict(self.forms)
        for f, m in other.forms.items():
            forms[f] = forms.get(f, 0) + m
        return Product(self.p * other.p, self.q * other.q, forms, self.polys + other.polys)

    __rmul__ = __mul__

    def __pow__(self, m: int) -> "Product":
        if m < 0:
            raise ValueError("negative power of a polynomial")
        return Product(self.p ** m, self.q ** m, {f: e * m for f, e in self.forms.items()},
                       self.polys * m)

    def div_k(self) -> "Product":
        """self / k, exactly; ValueError unless k is one of its factors."""
        if self.p and not self.forms.get(_K):
            raise ValueError(f"k is not a factor of {self}")
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

    def __str__(self) -> str:
        """The expanded polynomial, highest exponent (n, k) first."""
        parts = []
        for (a, b), c in sorted(self.expand().items(), reverse=True):
            c = Fraction(c, self.q)
            factors = []
            if c != 1 or (a == 0 and b == 0):
                factors.append(str(c) if c > 0 or not parts else f"({c})")
            if a:
                factors.append("n" if a == 1 else f"n**{a}")
            if b:
                factors.append("k" if b == 1 else f"k**{b}")
            parts.append("*".join(factors))
        return " + ".join(parts) or "0"


def _coerce(x) -> Product:
    return x if isinstance(x, Product) else Product(*_ratio(x))


class RatFunc:
    """num/den, two Products (or ints or Fractions), as built and never
    reduced; only a zero denominator is refused."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        self.num, self.den = _coerce(num), _coerce(den)
        if self.den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")

    __hash__ = None  # see the module docstring

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
        den = str(self.den)
        return str(self.num) if den == "1" else f"({self.num}) / ({den})"


def _coerce_rf(x) -> RatFunc:
    return x if isinstance(x, RatFunc) else RatFunc(x)
