"""Generalized hypergeometric series pFq evaluated by term recurrence.

Inside the unit disk the tail is bounded geometrically.  At z = 1 the series
converges only when the parameter excess s = sum(bottoms) - sum(tops) is
positive, with terms decaying like n**(-1-s); those sums go through the
Richardson engine.
"""

from __future__ import annotations

from mpmath import isint, mp, mpf

from ..context import (DivergentSeriesError, DomainError, PrecisionCtx,
                       ensure_ctx, to_mpf)
from ..series import count_terms, richardson_sum, sum_geometric


def pfq_eval(tops, bottoms, z, ctx: PrecisionCtx | None = None,
             tol=None) -> mpf:
    """Sum pFq(tops; bottoms; z) to tolerance (default: ctx.target_tol)."""
    ctx = ensure_ctx(ctx)
    with ctx.workprec(64):
        tops = [to_mpf(a) for a in tops]
        bottoms = [to_mpf(b) for b in bottoms]
        z = to_mpf(z)
        tol = mpf(tol) if tol is not None else ctx.target_tol
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

        def ratio(n):
            num = mpf(1)
            for a in tops:
                num *= a + n
            den = mpf(n + 1)
            for b in bottoms:
                den *= b + n
            return num / den * z

        def terms():
            t = mpf(1)
            n = 0
            while True:
                yield t
                t = t * ratio(n)
                n += 1

        if z == 1:
            return +richardson_sum(terms, tol, max_terms=ctx.max_terms)
        # term ratio tends to |z|; past n0 it is within (1+|z|)/2
        n0 = int(max((abs(a) for a in tops + bottoms), default=1)) + 2
        bound = (1 + abs(z)) / 2 if abs(z) < 1 else mpf("0.999")
        gen = terms()
        head = mpf(0)
        for _ in range(n0):
            head += next(gen)
        count_terms(n0)
        tail = sum_geometric(gen, tol, ratio=bound, max_terms=ctx.max_terms)
        return +(head + tail)
