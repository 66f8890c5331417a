"""Canonical Gamma-product form of proper hypergeometric terms in (n, k).

A term is  pre(n,k) * base**(cn*n + ck*k) * prod Gamma(c0 + cn*n + ck*k)**e.
Storing Pochhammer symbols as Gamma quotients makes the two operations that
matter uniform:

* integer shifts in n or k turn each Gamma factor into a rising-product
  rational factor, and
* quotients of comparable terms reduce to rational functions by matching
  Gamma arguments within classes that differ by integers (Abel summation of
  the exponents along each class gives the exact telescoped product).

Coefficients of the Gamma arguments are rationals: the second WZ pair uses
arguments like 1 + k/2 + n, so half-integer k-coefficients are required.

Everything here is exact: ``term_shift_ratio`` gives the quotients behind
both the WZ certificates and the registry's log 2 term ratios, and
``term_eval_exact`` evaluates a term where it is rational.  A quotient's
rising products join its numerator or denominator as linear factors of a
``Product``, next to the prefactors' own factors, and are not multiplied
out: the WZ decision clears them by their lcm, and the series layer
multiplies them out in n only, at a fixed k.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, floor, lcm, prod
from typing import NamedTuple

from ..context import NonComparableError, PoleError
from .multipoly import Product, RatFunc


class LinForm(NamedTuple):
    """c0 + cn*n + ck*k with rational coefficients."""

    c0: Fraction
    cn: Fraction
    ck: Fraction

    def eval(self, n, k) -> Fraction:
        return self.c0 + self.cn * Fraction(n) + self.ck * Fraction(k)


class HyperTerm(NamedTuple):
    """gammas: ((LinForm, exponent), ...);  geom: base**(g_cn*n + g_ck*k)."""

    gammas: tuple[tuple[LinForm, int], ...]
    base: Fraction
    g_cn: int
    g_ck: int
    pre: RatFunc

    __hash__ = None  # pre is a RatFunc, which is unhashable

    @classmethod
    def build(cls, gammas, base=1, g_cn=0, g_ck=0, pre=None) -> "HyperTerm":
        """The canonical term: rows (c0, cn, ck) of rationals with equal
        arguments merged, zero exponents and Gamma(1) = Gamma(2) = 1
        dropped, and the rest in ascending order.  The rows are merged and
        sorted as integer triples over the lcm d of their denominators,
        which orders them as the LinForms they stand for."""
        rows = [(lf, int(e)) for lf, e in gammas]
        d = lcm(*(c.denominator for lf, _ in rows for c in lf))
        merged: dict[tuple[int, int, int], int] = {}
        for lf, e in rows:
            key = tuple(c.numerator * (d // c.denominator) for c in lf)
            merged[key] = merged.get(key, 0) + e
        clean = sorted((key, e) for key, e in merged.items()
                       if e and not (key[1] == key[2] == 0 and key[0] in (d, 2 * d)))
        # one Fraction per distinct coefficient: a build's few recur
        coef = {c: Fraction(c, d) for c in {c for key, _ in clean for c in key}}
        gammas = tuple((LinForm(*map(coef.__getitem__, key)), e) for key, e in clean)
        base = Fraction(base)
        g_cn, g_ck = int(g_cn), int(g_ck)
        if base == 0:
            raise ValueError("geometric base must be nonzero")
        if g_cn == 0 and g_ck == 0:
            base = Fraction(1)
        if base == 1:
            g_cn = g_ck = 0
        elif 0 < base < 1:
            base, g_cn, g_ck = 1 / base, -g_cn, -g_ck
        if not isinstance(pre, RatFunc):
            pre = RatFunc(1 if pre is None else pre)
        return cls(gammas, base, g_cn, g_ck, pre)


def term_cross_ratio(a: HyperTerm, b: HyperTerm, dn: int = 0, dk: int = 0) -> RatFunc:
    """Exact a(n+dn, k+dk) / b(n, k) for integers dn, dk, as a rational
    function, or NonComparableError.

    The constant part of a's shifted geometric factor, an integer power of
    the base, joins the numerator.  The Gamma rows are taken as integer
    triples over the lcm d of their denominators, shifted as ints, and
    grouped by (cn, ck, c0 mod 1), that is by c0 mod d; inside a group the
    exponents must sum to zero, and Abel summation over the sorted arguments
    telescopes the quotient into rising products.
    """
    if (a.base, a.g_cn, a.g_ck) != (b.base, b.g_cn, b.g_ck):
        raise NonComparableError(f"geometric parts (base, cn, ck) differ: {a[1:4]} vs {b[1:4]}")
    pre = a.pre.shift(dn, dk) * RatFunc(a.base ** (a.g_cn * dn + a.g_ck * dk))
    # one numerator and one denominator, each a Product; not reduced
    num, den = pre.num * b.pre.den, pre.den * b.pre.num
    d = lcm(*(c.denominator for lf, _ in a.gammas + b.gammas for c in lf))
    net: dict[tuple, int] = {}
    for sign, t, sn, sk in ((1, a, dn, dk), (-1, b, 0, 0)):
        for lf, e in t.gammas:
            c0, cn, ck = (c.numerator * (d // c.denominator) for c in lf)
            key = (c0 + cn * sn + ck * sk, cn, ck)
            net[key] = net.get(key, 0) + sign * e
    groups: dict[tuple, list] = {}
    for (c0, cn, ck), e in net.items():
        if e:
            groups.setdefault((cn, ck, c0 % d), []).append((c0, e))
    for (cn, ck, frac), members in groups.items():
        members.sort()
        if sum(e for _, e in members) != 0:
            raise NonComparableError(f"unmatched Gamma factors in the class "
                                     f"(cn, ck, c0 mod 1) = {(cn, ck, frac)}/{d}")
        running = 0
        for (c0, e), (nxt, _) in zip(members, members[1:]):
            running += e
            if running == 0:
                continue
            # the rising product L (L+1) ... (L+gap-1), L = (c0 + cn*n + ck*k)/d
            block = prod((Product.linear(c0 + j * d, cn, ck, d)
                          for j in range((nxt - c0) // d)), start=Product()) ** abs(running)
            if running < 0:
                num = num * block
            else:
                den = den * block
    return RatFunc(num, den)


def term_shift_ratio(t: HyperTerm, dn: int, dk: int) -> RatFunc:
    """T(n+dn, k+dk) / T(n, k) as an exact rational function."""
    return term_cross_ratio(t, t, dn, dk)


def term_eval_exact(t: HyperTerm, n, k) -> Fraction:
    """Exact rational value at indices where the term is rational.

    Gamma factors are grouped by the fractional part of their evaluated
    argument; non-integer classes must have exponent sum zero (their Gamma(r)
    reference values cancel, leaving integer rising products), integer-class
    factors are factorials.
    """
    n, k = Fraction(n), Fraction(k)
    classes: dict[Fraction, list[tuple[Fraction, int]]] = {}
    for lf, e in t.gammas:
        x = lf.eval(n, k)
        frac = x - floor(x)
        classes.setdefault(frac, []).append((x, e))
    num = den = 1
    for frac, members in classes.items():
        if frac == 0:
            for x, e in members:
                if x <= 0:
                    if e > 0:
                        raise PoleError(f"Gamma pole at integer argument {x}")
                    return Fraction(0)
                f = factorial(int(x) - 1) ** abs(e)
                if e > 0:
                    num *= f
                else:
                    den *= f
            continue
        if sum(e for _, e in members) != 0:
            raise ValueError("term is not rational at this point: unbalanced "
                             f"Gamma class with fractional part {frac}")
        ref = min(x for x, _ in members)
        p, q = ref.numerator, ref.denominator
        for x, e in members:
            # Gamma(x)/Gamma(ref) = prod_{j<m} (p + j q)/q^m, m = x - ref
            m = int(x - ref)
            a, b = prod(range(p, p + m * q, q)) ** abs(e), q ** (m * abs(e))
            num, den = (num * a, den * b) if e > 0 else (num * b, den * a)
    total = Fraction(num, den)
    if t.base != 1:
        expo = t.g_cn * n + t.g_ck * k
        if expo.denominator != 1:
            raise ValueError("geometric factor is irrational at this point")
        total *= t.base ** int(expo)
    return total * t.pre.eval(n, k)
