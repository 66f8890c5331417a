"""Generalized hypergeometric series pFq evaluated by term recurrence.

The parameters and z enter the term ratio as exact integer pairs, and the
terms are stepped on integers by ``series.ratio_series``.  Inside the unit
disk the tail is bounded geometrically.  At z = 1 the series converges only
when the parameter excess s = sum(bottoms) - sum(tops) is positive, with
terms decaying like n**(-1-s).  Such a sum is first tried by Gosper's
algorithm (``gosper``): when its partial sums are hypergeometric and their
antidifference vanishes at infinity, the sum is an exact rational, rounded
once.  Any other goes through the Richardson engine.  Either route leaves a
note, "pFq by Gosper certificate, degree d" or "pFq by Richardson
extrapolation".
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from ..context import (DEFAULT_CTX, DivergentSeriesError, DomainError,
                       PrecisionCtx, to_mpf, to_tol)
from ..series import (as_ratio, note, ratio_series, richardson_sum,
                      sum_geometric)
from .gosper import gosper_sum


def pfq_eval(tops, bottoms, z, ctx: PrecisionCtx = DEFAULT_CTX,
             tol=None) -> mpf:
    """Sum pFq(tops; bottoms; z) to tolerance (default: ctx.default_tol),
    at z = 1 exactly when it has a Gosper certificate."""
    with ctx.workprec(64):
        # each parameter, and z below, as an exact integer pair for the
        # term ratio
        tops_q = [as_ratio(a) for a in tops]
        bottoms_q = [as_ratio(b) for b in bottoms]
        z = to_mpf(z)
        zn, zd = as_ratio(z)
        if tol is not None:
            tol = to_tol(tol)
        if any(q == 1 and p <= 0 for p, q in bottoms_q):
            raise DomainError("bottom parameter is a non-positive integer")
        if abs(zn) > zd:
            raise DivergentSeriesError(f"|z| = {mp.nstr(abs(z), 8)} > 1")
        name = f"{len(tops_q)}F{len(bottoms_q)}"
        scale_n = prod(d for _, d in bottoms_q)
        scale_d = prod(d for _, d in tops_q)
        if abs(zn) == zd:
            scale = scale_n * scale_d
            excess = Fraction(sum(p * scale // q for p, q in bottoms_q)
                              - sum(p * scale // q for p, q in tops_q), scale)
            if excess <= 0:
                raise DivergentSeriesError(
                    f"parameter excess {mp.nstr(to_mpf(excess), 8)} <= 0 at |z| = 1")
            # z = -1 with positive excess: alternating, summed directly below
            if zn == 1:
                exact = gosper_sum(tops_q, bottoms_q, excess, ctx.max_terms)
                if exact is not None:
                    value, degree = exact
                    note(f"{name} by Gosper certificate, degree {degree}")
                    return mp.make_mpf(from_rational(value.numerator, value.denominator,
                                                     mp.prec, round_nearest))

        # t_n = t_{n-1} z prod(a + n-1) / (n prod(b + n-1))
        def step(n):
            num = zn * scale_n * prod(a + (n - 1) * d for a, d in tops_q)
            den = zd * scale_d * n * prod(b + (n - 1) * d for b, d in bottoms_q)
            return num, den

        terms = ratio_series(step, lambda n: (1, 1))
        if tol is None:
            tol = ctx.default_tol
        if z == 1:
            note(f"{name} by Richardson extrapolation")
            return +richardson_sum(terms, tol, max_terms=ctx.max_terms)
        # term ratio tends to |z|; past n0 it is within (1+|z|)/2
        n0 = max((abs(p) // q for p, q in tops_q + bottoms_q), default=1) + 2
        bound = (1 + abs(z)) / 2 if abs(z) < 1 else mpf("0.999")
        return +sum_geometric(terms, tol, ratio=bound, head=n0,
                              max_terms=ctx.max_terms)
