"""Generalized hypergeometric series pFq evaluated by term recurrence.

The parameters and z enter the term ratio as exact integer pairs.  A
series with a non-positive integer top parameter -N is a polynomial, its
terms past t_N exactly 0: its N + 1 terms are summed in exact rationals at
any z and rounded once (``fixedpoint.rounded_quotient``).  Any other series
has its terms stepped on integers by ``series.ratio_series``, and whether
it converges is decided from p and q before any term is summed:

* p > q + 1: it diverges at every z != 0;
* p = q + 1: it converges for |z| < 1, and on |z| = 1 only when the
  parameter excess s = sum(bottoms) - sum(tops) is positive, with terms
  decaying like n**(-1-s);
* p <= q: it converges for every z, its term ratio falling like 1/n; it
  is summed for |z| <= 1, and DomainError refuses a larger |z|, where
  the terms could outgrow the guard bits.

Inside the unit disk, and for p <= q on its boundary too, the tail is
bounded geometrically.  A sum at z = 1 is first tried by Gosper's algorithm
(``gosper``): when its partial sums are hypergeometric and their
antidifference vanishes at infinity, the sum is an exact rational, rounded
once.  Any other with p = q + 1 goes through the Richardson engine.  Either
route leaves a note, "pFq by Gosper certificate, degree d" or "pFq by
Richardson extrapolation".
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from mpmath import mp, mpf

from ..context import (DEFAULT_CTX, ConvergenceError, DivergentSeriesError,
                       DomainError, PrecisionCtx, to_mpf, to_tol)
from ..fixedpoint import as_ratio, rounded_quotient
from ..series import (count_terms, note, ratio_series, richardson_sum,
                      sum_geometric)
from .gosper import gosper_sum


def pfq_eval(tops, bottoms, z, ctx: PrecisionCtx = DEFAULT_CTX,
             tol=None) -> mpf:
    """Sum pFq(tops; bottoms; z) to tolerance (default: ctx.default_tol),
    exactly when it terminates, and at z = 1 exactly when it has a Gosper
    certificate."""
    with ctx.workprec(64):
        # each parameter, and z below, as an exact integer pair for the
        # term ratio
        tops_q = [as_ratio(a) for a in tops]
        bottoms_q = [as_ratio(b) for b in bottoms]
        z = to_mpf(z)
        zn, zd = as_ratio(z)
        if tol is not None:
            tol = to_tol(tol)
        if any(d == 1 and a <= 0 for a, d in bottoms_q):
            raise DomainError("bottom parameter is a non-positive integer")
        p, q = len(tops_q), len(bottoms_q)
        name = f"{p}F{q}"
        scale_n = prod(d for _, d in bottoms_q)
        scale_d = prod(d for _, d in tops_q)

        # t_n = t_{n-1} z prod(a + n-1) / (n prod(b + n-1))
        def step(n):
            num = zn * scale_n * prod(a + (n - 1) * d for a, d in tops_q)
            den = zd * scale_d * n * prod(b + (n - 1) * d for b, d in bottoms_q)
            return num, den

        last = min((-a for a, d in tops_q if d == 1 and a <= 0), default=None)
        if last is not None:  # a polynomial of degree last in z
            if last >= ctx.max_terms:
                raise ConvergenceError(f"{name} terminates after {last + 1} "
                                       f"terms, past max_terms={ctx.max_terms}")
            count_terms(last + 1)
            total = Fraction(1)  # 1 + r_1 (1 + r_2 (...)), r_n = t_n/t_{n-1}
            for n in range(last, 0, -1):
                total = 1 + total * Fraction(*step(n))
            return rounded_quotient(total.numerator, total.denominator)
        if p > q + 1 and zn:
            raise DivergentSeriesError(f"{name} diverges at every z != 0")
        if abs(zn) > zd:  # a p <= q series converges, but is not summed
            raise (DivergentSeriesError if p > q else DomainError)(
                f"{name} at |z| = {mp.nstr(abs(z), 8)} > 1")
        if abs(zn) == zd:
            scale = scale_n * scale_d
            excess = Fraction(sum(a * scale // d for a, d in bottoms_q)
                              - sum(a * scale // d for a, d in tops_q), scale)
            if p > q and excess <= 0:
                raise DivergentSeriesError(
                    f"parameter excess {mp.nstr(to_mpf(excess), 8)} <= 0 at |z| = 1")
            # z = -1 with positive excess: alternating, summed directly below
            if zn == 1:
                exact = gosper_sum(tops_q, bottoms_q, excess, ctx.max_terms)
                if exact is not None:
                    value, degree = exact
                    note(f"{name} by Gosper certificate, degree {degree}")
                    return rounded_quotient(value.numerator, value.denominator)

        terms = ratio_series(step, lambda n: (1, 1))
        if tol is None:
            tol = ctx.default_tol
        n0 = max((abs(a) // d for a, d in tops_q + bottoms_q), default=1) + 2
        if p <= q:
            # past n - 1 >= 2 (n0 - 1), above every |parameter| twice, each
            # top over its bottom is at most 3 and each bottom left over at
            # most 1: the ratio is at most |z| 3^p/n <= 1/2 from n >= 2 3^p
            return +sum_geometric(terms, tol, head=2 * n0 + 2 * 3 ** p,
                                  max_terms=ctx.max_terms)
        if z == 1:
            note(f"{name} by Richardson extrapolation")
            return +richardson_sum(terms, tol, max_terms=ctx.max_terms)
        # term ratio tends to |z|; past n0 it is within (1+|z|)/2
        bound = (1 + abs(z)) / 2 if abs(z) < 1 else mpf("0.999")
        return +sum_geometric(terms, tol, ratio=bound, head=n0,
                              max_terms=ctx.max_terms)
