"""Exact verification of the WZ functional equation
F(n+1,k) - F(n,k) = G(n,k+1) - G(n,k).

Dividing through by F turns the claim into a rational-function identity

    Q1 - 1 = Q3 - Q2,   Q1 = F(n+1,k)/F,  Q2 = G/F,  Q3 = G(n,k+1)/F,

so a pair certifies exactly when Q1 - 1 - Q3 + Q2 is the zero rational
function, that is when its numerator over the common denominator is the
zero polynomial.  A failed check carries that nonzero (unreduced) numerator
as its witness.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .hyperterm import HyperTerm, term_cross_ratio, term_shift_ratio
from .multipoly import MultiPoly, RatFunc


class WZPair(NamedTuple):
    F: HyperTerm
    G: HyperTerm
    name: str

    __hash__ = None  # F and G are unhashable HyperTerms


class CertificateReport(NamedTuple):
    name: str
    passed: bool
    certificate: RatFunc
    witness: MultiPoly | None

    __hash__ = None  # certificate is an unhashable RatFunc

    def __str__(self):
        if self.passed:
            return f"{self.name}: PASS (certificate polynomial == 0)"
        return f"{self.name}: FAIL, witness numerator {self.witness}"


def certificate_components(pair: WZPair) -> tuple[RatFunc, RatFunc, RatFunc]:
    """(Q1, Q2, Q3) for the pair, all exact."""
    q1 = term_shift_ratio(pair.F, 1, 0)
    q2 = term_cross_ratio(pair.G, pair.F)
    q3 = term_cross_ratio(pair.G.shifted(0, 1), pair.F)
    return q1, q2, q3


def wz_verify(pair: WZPair) -> CertificateReport:
    q1, q2, q3 = certificate_components(pair)
    cert = q1 - RatFunc.const(1) - q3 + q2
    if cert.is_zero:
        return CertificateReport(pair.name, True, cert, None)
    return CertificateReport(pair.name, False, cert, cert.num)


def certificate_random_probe(pair: WZPair, points: int = 20, seed: int = 0) -> bool:
    """Probabilistic cross-check: evaluate Q1 - 1 - Q3 + Q2 at random rational
    points, skipping those where a denominator vanishes; must agree with the
    exact zero test of ``wz_verify``."""
    q1, q2, q3 = certificate_components(pair)
    rng = random.Random(seed)
    done = 0
    while done < points:
        n = Fraction(rng.randint(1, 400), rng.randint(1, 40))
        k = Fraction(rng.randint(1, 400), rng.randint(1, 40))
        try:
            val = q1.eval(n, k) - 1 - q3.eval(n, k) + q2.eval(n, k)
        except ZeroDivisionError:
            continue
        if val != 0:
            return False
        done += 1
    return True
