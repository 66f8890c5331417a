"""The three WZ pairs of the paper, in canonical Gamma-product form.

A pair's F and G share one kernel K: Gamma rows (c0, cn, ck, exponent), each
the factor Gamma(c0 + cn*n + ck*k)**exponent, and a geometric factor
(base, cn, ck), that is base**(cn*n + ck*k).  F = pre_F K and G = pre_G K,
each prefactor a RatFunc whose numerator and denominator are written as
Product expressions in n and k.

Written so, a prefactor is a product of factors: a product merges its
operands' factors, a sum of linear forms is one primitive linear form, and
only a sum of higher degree (one numerator in pair-3 and in
pair-divergent) is multiplied out, into a factor of its own.  A prefactor
is otherwise kept as written, so write it in lowest terms: a common factor
of its numerator and denominator is not cancelled, and at a point where
that factor vanishes the prefactor raises instead of evaluating.
"""

from __future__ import annotations

from fractions import Fraction

from .hyperterm import HyperTerm
from .multipoly import Product, RatFunc
from .wz import WZPair

_h = Fraction(1, 2)

# (1/2+k)_n (1/2)_n (1/2)_k^2 / ((1+k)_n (1)_n (1)_k^2)
_PAIR_1 = ((_h, 1, 1, 1), (_h, 1, 0, 1), (_h, 0, 1, 1), (_h, 0, 0, -3),
           (1, 1, 1, -1), (1, 1, 0, -1), (1, 0, 1, -1)), (1, 0, 0)

# 16^(-n) (1/2+k)_n^2 (1/2)_n (1/2)_k^2 / ((1+k/2)_n (1/2+k/2)_n (1)_n (1)_k^2)
_PAIR_3 = ((_h, 1, 1, 2), (_h, 1, 0, 1), (_h, 0, 0, -3),
           (1, 1, _h, -1), (1, 0, _h, 1), (_h, 1, _h, -1), (_h, 0, _h, 1),
           (1, 1, 0, -1), (1, 0, 1, -2)), (16, -1, 0)

# 16^n (1/2)_n (1+k/2)_n (1/2+k/2)_n / ((1)_n (1+k)_n^2)
_PAIR_DIVERGENT = ((_h, 1, 0, 1), (_h, 0, 0, -1), (1, 1, _h, 1), (1, 0, _h, -1),
                   (_h, 1, _h, 1), (_h, 0, _h, -1), (1, 1, 0, -1), (1, 0, 1, 2),
                   (1, 1, 1, -2)), (16, 1, 0)


def _pair(name, kernel, pre_f: RatFunc, pre_g: RatFunc) -> WZPair:
    rows, (base, g_cn, g_ck) = kernel
    t = HyperTerm.build([((c0, cn, ck), e) for c0, cn, ck, e in rows], base, g_cn, g_ck)
    return WZPair(t._replace(pre=pre_f), t._replace(pre=pre_g), name)


def builtin_pairs() -> dict[str, WZPair]:
    """pair-1, pair-3 and pair-divergent by name, built afresh on each call."""
    n, k = Product.linear(0, 1, 0), Product.linear(0, 0, 1)
    pairs = (
        _pair("pair-1", _PAIR_1,
              RatFunc(-n, 2 * (n + k)),
              RatFunc(k * (4 * n + 2 * k + 1), 2 * (n + k) * (2 * n + 1))),
        _pair("pair-3", _PAIR_3,
              RatFunc(-4 * n, 2 * n + k),
              RatFunc(k * (2 * (15 * n + 2) * (2 * n + 1) ** 2
                           + k * ((2 * n + 1) * (86 * n + 19) + 4 * k * (20 * n + 7)
                                  + 12 * k ** 2)),
                      2 * (2 * n + k + 1) ** 2 * (2 * n + k) * (2 * n + 1))),
        _pair("pair-divergent", _PAIR_DIVERGENT,
              RatFunc(n, (2 * n + k) ** 2),
              RatFunc(-(3 * k ** 3 + k ** 2 * (20 * n + 3) + k * n * (43 * n + 12)
                        + n ** 2 * (30 * n + 11)),
                      n * (2 * n + k) ** 2 * (2 * n + k + 1))),
    )
    return {pair.name: pair for pair in pairs}
