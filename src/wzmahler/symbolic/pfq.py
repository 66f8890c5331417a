"""Generalized hypergeometric series pFq evaluated by term recurrence.

The parameters and z enter the term ratio as exact integer pairs, and the
terms are stepped on integers by ``series.ratio_series``.  Inside the unit
disk the tail is bounded geometrically.  At z = 1 the series converges only
when the parameter excess s = sum(bottoms) - sum(tops) is positive, with
terms decaying like n**(-1-s); those sums go through the Richardson engine.
"""

from __future__ import annotations

from math import prod

from mpmath import isint, mp, mpf

from ..context import (DEFAULT_CTX, DivergentSeriesError, DomainError,
                       PrecisionCtx, to_mpf)
from ..series import as_ratio, ratio_series, richardson_sum, sum_geometric


def pfq_eval(tops, bottoms, z, ctx: PrecisionCtx = DEFAULT_CTX,
             tol=None) -> mpf:
    """Sum pFq(tops; bottoms; z) to tolerance (default: ctx.default_tol)."""
    with ctx.workprec(64):
        # each parameter, and z below, as an exact integer pair for the
        # term ratio
        tops_q = [as_ratio(a) for a in tops]
        bottoms_q = [as_ratio(b) for b in bottoms]
        tops = [to_mpf(a) for a in tops]
        bottoms = [to_mpf(b) for b in bottoms]
        z = to_mpf(z)
        tol = mpf(tol) if tol is not None else ctx.default_tol
        for b in bottoms:
            if b <= 0 and isint(b):
                raise DomainError("bottom parameter is a non-positive integer")
        if abs(z) > 1:
            raise DivergentSeriesError(f"|z| = {mp.nstr(abs(z), 8)} > 1")
        if abs(z) == 1:
            excess = sum(bottoms) - sum(tops)
            if excess <= 0:
                raise DivergentSeriesError(
                    f"parameter excess {mp.nstr(excess, 8)} <= 0 at |z| = 1")
            # z = -1 with positive excess: alternating, summed directly below

        # t_n = t_{n-1} z prod(a + n-1) / (n prod(b + n-1))
        zn, zd = as_ratio(z)
        scale_n = prod(d for _, d in bottoms_q)
        scale_d = prod(d for _, d in tops_q)

        def step(n):
            num = zn * scale_n * prod(a + (n - 1) * d for a, d in tops_q)
            den = zd * scale_d * n * prod(b + (n - 1) * d for b, d in bottoms_q)
            return num, den

        terms = ratio_series(step, lambda n: (1, 1))
        if z == 1:
            return +richardson_sum(terms, tol, max_terms=ctx.max_terms)
        # term ratio tends to |z|; past n0 it is within (1+|z|)/2
        n0 = int(max((abs(a) for a in tops + bottoms), default=1)) + 2
        bound = (1 + abs(z)) / 2 if abs(z) < 1 else mpf("0.999")
        return +sum_geometric(terms, tol, ratio=bound, head=n0,
                              max_terms=ctx.max_terms)
