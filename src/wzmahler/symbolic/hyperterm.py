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
``term_eval_exact`` evaluates a term where it is rational.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, floor, prod
from typing import NamedTuple

from ..context import NonComparableError, PoleError
from .multipoly import MultiPoly, RatFunc


class LinForm(NamedTuple):
    """c0 + cn*n + ck*k with rational coefficients."""

    c0: Fraction
    cn: Fraction
    ck: Fraction

    def shifted(self, dn, dk) -> "LinForm":
        return LinForm(self.c0 + self.cn * dn + self.ck * dk, self.cn, self.ck)

    def as_poly(self) -> MultiPoly:
        return MultiPoly.linear(self.c0, self.cn, self.ck)

    def eval(self, n, k) -> Fraction:
        return self.c0 + self.cn * Fraction(n) + self.ck * Fraction(k)


_DROPPABLE_CONSTANTS = {Fraction(1), Fraction(2)}  # Gamma(1) = Gamma(2) = 1


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
        merged: dict[LinForm, int] = {}
        for lf, e in gammas:
            if not isinstance(lf, LinForm):
                lf = LinForm(*map(Fraction, lf))
            merged[lf] = merged.get(lf, 0) + int(e)
        clean = []
        for lf, e in merged.items():
            if e == 0:
                continue
            if lf.cn == 0 and lf.ck == 0 and lf.c0 in _DROPPABLE_CONSTANTS:
                continue
            clean.append((lf, e))
        clean.sort(key=lambda t: (t[0], t[1]))
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
        if pre is None:
            pre = RatFunc.const(1)
        elif not isinstance(pre, RatFunc):
            pre = RatFunc.const(pre)
        return cls(tuple(clean), base, g_cn, g_ck, pre)

    def shifted(self, dn: int, dk: int) -> "HyperTerm":
        """T(n+dn, k+dk) with the constant part of the geometric factor folded
        into the prefactor (always an integer power of the base here)."""
        gammas = [(lf.shifted(dn, dk), e) for lf, e in self.gammas]
        const_exp = self.g_cn * dn + self.g_ck * dk
        pre = self.pre.shift(dn, dk) * RatFunc.const(self.base ** const_exp)
        return HyperTerm.build(gammas, self.base, self.g_cn, self.g_ck, pre)


def _rising_product(lf: LinForm, gap: int) -> MultiPoly:
    """(lf)(lf+1)...(lf+gap-1) as a polynomial."""
    out = MultiPoly.const(1)
    for j in range(gap):
        out = out * LinForm(lf.c0 + j, lf.cn, lf.ck).as_poly()
    return out


def term_cross_ratio(a: HyperTerm, b: HyperTerm) -> RatFunc:
    """Exact a/b as a rational function, or NonComparableError.

    Gamma arguments are grouped by (cn, ck, c0 mod 1); inside a group the
    exponents must sum to zero, and Abel summation over the sorted arguments
    telescopes the quotient into rising products.
    """
    if (a.base, a.g_cn, a.g_ck) != (b.base, b.g_cn, b.g_ck):
        raise NonComparableError(
            f"geometric parts differ: {a.base}^({a.g_cn}n+{a.g_ck}k) vs "
            f"{b.base}^({b.g_cn}n+{b.g_ck}k)")
    net: dict[LinForm, int] = {}
    for lf, e in a.gammas:
        net[lf] = net.get(lf, 0) + e
    for lf, e in b.gammas:
        net[lf] = net.get(lf, 0) - e
    groups: dict[tuple, list[tuple[LinForm, int]]] = {}
    for lf, e in net.items():
        if e == 0:
            continue
        frac = lf.c0 - floor(lf.c0)
        groups.setdefault((lf.cn, lf.ck, frac), []).append((lf, e))
    # accumulate one numerator and one denominator; the quotient is not reduced
    num = a.pre.num * b.pre.den
    den = a.pre.den * b.pre.num
    for key, members in groups.items():
        members.sort(key=lambda t: t[0].c0)
        if sum(e for _, e in members) != 0:
            raise NonComparableError(
                f"unmatched Gamma factors in class cn={key[0]}, ck={key[1]}, "
                f"c0 mod 1 = {key[2]}")
        running = 0
        for (lf, e), (nxt, _) in zip(members, members[1:]):
            running += e
            if running == 0:
                continue
            gap = nxt.c0 - lf.c0
            assert gap == int(gap) and gap > 0
            block = _rising_product(lf, int(gap))
            if running < 0:
                num = num * block ** (-running)
            else:
                den = den * block ** running
    return RatFunc(num, den)


def term_shift_ratio(t: HyperTerm, dn: int, dk: int) -> RatFunc:
    """T(n+dn, k+dk) / T(n, k) as an exact rational function."""
    return term_cross_ratio(t.shifted(dn, dk), t)


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
