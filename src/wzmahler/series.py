"""Series summation engines: direct with geometric tail bounds, and Richardson
extrapolation for series whose partial sums have an asymptotic 1/n expansion.

The Richardson path is what makes the 1/n^2-tail sums (central-binomial
squared over 16^n and friends) reachable at 1e-30..1e-40 with a couple of
hundred terms instead of 1e30 of them.  Working precision is escalated with
the extrapolation depth because the binomial weights grow like 2**(1.5*N).
"""

from __future__ import annotations

from typing import Callable, Iterable

from mpmath import mp, mpf, richardson, workprec

from .context import ConvergenceError


class TermCounter:
    """Mutable tally of series terms consumed, for run reports."""

    def __init__(self):
        self.count = 0

    def add(self, n: int):
        self.count += n


def sum_geometric(terms: Iterable, tol, *, ratio: float = 0.5,
                  max_terms: int = 500_000, counter: TermCounter | None = None):
    """Sum a series whose term ratio is eventually bounded by ``ratio`` < 1.

    Stops once the geometric tail bound |t|*ratio/(1-ratio) stays below tol
    for two consecutive terms (guards parity-structured series).
    """
    ratio = mpf(ratio)
    if not ratio < 1:
        raise ValueError("ratio bound must be < 1")
    tail_factor = ratio / (1 - ratio)
    total = mpf(0)
    small = 0
    n = 0
    for t in terms:
        total += t
        n += 1
        if abs(t) * tail_factor < tol:
            small += 1
            if small >= 2:
                break
        else:
            small = 0
        if n >= max_terms:
            raise ConvergenceError(
                f"series did not reach tol={mp.nstr(mpf(tol), 5)} in {max_terms} terms")
    if counter is not None:
        counter.add(n)
    return total


def richardson_sum(term: Callable[[int], mpf], tol, *, start: int = 0,
                   max_terms: int = 500_000,
                   counter: TermCounter | None = None) -> mpf:
    """Accelerated value of sum_{n>=start} term(n).

    ``term`` must evaluate at the current mpmath working precision and decay
    like a smooth asymptotic series in 1/n.  Convergence is declared when two
    consecutive extrapolation depths agree to tol/4.
    """
    tol = mpf(tol)
    base_prec = mp.prec
    sizes = [48, 72, 108, 162, 243, 364]
    prev = None
    used = 0
    for N in sizes:
        if start + N > max_terms:
            break
        with workprec(base_prec + 64 + int(1.8 * N)):
            s = mpf(0)
            partials = []
            for n in range(start, start + N):
                s += term(n)
                partials.append(s)
            used = N
            est, _weights = richardson(partials)
            # cross-check against a shallower extrapolation of the same data
            est_lo, _ = richardson(partials[: (3 * N) // 4])
        if prev is not None and abs(est - prev) < tol / 4 and abs(est - est_lo) < tol / 4:
            if counter is not None:
                counter.add(used)
            return +est
        prev = est
    raise ConvergenceError("Richardson extrapolation did not stabilize "
                           f"at tol={mp.nstr(tol, 5)}")
