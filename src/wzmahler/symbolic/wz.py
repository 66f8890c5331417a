"""Exact verification of the WZ functional equation
F(n+1,k) - F(n,k) = G(n,k+1) - G(n,k).

Dividing through by F turns the claim into a rational-function identity

    Q1 - 1 = Q3 - Q2,   Q1 = F(n+1,k)/F,  Q2 = G/F,  Q3 = G(n,k+1)/F,

so a pair certifies exactly when Q1 - 1 - Q3 + Q2 is the zero rational
function.  ``wz_verify`` decides it through F's kernel K (its Gamma and
geometric factors, prefactor 1) instead: with F = pre_F K the same
combination is (A - pre_F - C + D)/pre_F for A = F(n+1,k)/K, C = G(n,k+1)/K
and D = G/K, so it vanishes exactly when A - pre_F - C + D does.  Each of
the four terms is a Product over a Product, mostly of linear forms.  They
are multiplied by the least common multiple L of their denominators (the
lcm of the linear factors times every non-linear one), the linear factors
that all four numerators then share are divided out, and only what is left
is added up, which multiplies it out on ints.  Multiplying by L and dividing
by the shared factors both scale the sum by a nonzero polynomial, so the
pair certifies exactly when that leftover is the zero polynomial; when it
is not, the leftover is the report's witness.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import NamedTuple

from .hyperterm import HyperTerm, term_cross_ratio
from .multipoly import Product, RatFunc


class WZPair(NamedTuple):
    F: HyperTerm
    G: HyperTerm
    name: str

    __hash__ = None  # F and G are unhashable HyperTerms


class CertificateReport(NamedTuple):
    name: str
    passed: bool
    witness: Product  # the leftover polynomial, zero exactly when passed

    __hash__ = None  # a Product has no value equality (see multipoly)

    def __str__(self):
        if self.passed:
            return f"{self.name}: PASS (certificate polynomial == 0)"
        return f"{self.name}: FAIL, witness numerator {self.witness}"


def _leftover(terms: list[RatFunc]) -> Product:
    """sum(terms) times the lcm L of their denominators, over the linear
    factors that all the scaled numerators share, as described above."""
    top: dict = {}
    for t in terms:
        for f, m in t.den.forms.items():
            top[f] = max(top.get(f, 0), m)
    # term i times L: its numerator times L's linear factors less its own
    # denominator's and times every other term's non-linear denominators
    scaled = [t.num * Product(t.den.q, t.den.p,
                              {f: m - t.den.forms.get(f, 0) for f, m in top.items()},
                              tuple(x for j, u in enumerate(terms) if j != i for x in u.den.polys))
              for i, t in enumerate(terms)]
    shared = {f: min(x.forms.get(f, 0) for x in scaled) for f in scaled[0].forms}
    return reduce(add, (Product(x.p, x.q, {f: m - shared.get(f, 0) for f, m in x.forms.items()},
                                x.polys) for x in scaled))


def wz_verify(pair: WZPair) -> CertificateReport:
    f, g = pair.F, pair.G
    kernel = f._replace(pre=RatFunc(1))
    left = _leftover([term_cross_ratio(f, kernel, 1, 0), f.pre * -1,
                      term_cross_ratio(g, kernel, 0, 1) * -1, term_cross_ratio(g, kernel)])
    return CertificateReport(pair.name, left.is_zero, left)
