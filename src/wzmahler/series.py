"""Series summation engines: direct with geometric tail bounds, and Richardson
extrapolation for series whose partial sums have an asymptotic 1/n expansion,
plus the term tally both report into.

The Richardson path is what makes the 1/n^2-tail sums (central-binomial
squared over 16^n and friends) reachable at 1e-30..1e-40 with a couple of
hundred terms instead of 1e30 of them.  Working precision is escalated with
the extrapolation depth because the binomial weights grow like 2**(1.5*N).

A caller describes a series by a zero-argument factory ``terms`` whose call
yields its terms: ``sum_geometric`` consumes one ``terms()``, and
``richardson_sum`` calls ``terms`` afresh at each extrapolation depth.
Every summation reports the terms it used through ``count_terms`` to the
innermost open ``TermCounter``.
"""

from __future__ import annotations

from contextvars import ContextVar
from itertools import islice
from typing import Callable, Iterable

from mpmath import mp, mpf, richardson, workprec

from .context import ConvergenceError

# the innermost open TermCounter of the running context
_ACTIVE: ContextVar[TermCounter | None] = ContextVar("term_counter", default=None)


class TermCounter:
    """Tally of the series terms summed inside ``with TermCounter() as c:``,
    read as ``c.count``.  Counters nest: terms count toward the innermost
    open one only, and terms summed outside any counter are not counted."""

    def __init__(self):
        self.count = 0

    def __enter__(self):
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.reset(self._token)


def count_terms(n: int) -> None:
    """Add n summed terms to the innermost open TermCounter, if any."""
    counter = _ACTIVE.get()
    if counter is not None:
        counter.count += n


def sum_geometric(terms: Iterable, tol, *, ratio: float = 0.5,
                  max_terms: int = 500_000):
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
    count_terms(n)
    return total


def richardson_sum(terms: Callable[[], Iterable], tol, *,
                   max_terms: int = 500_000) -> mpf:
    """Accelerated value of the series ``terms()`` yields.

    The terms must decay like a smooth asymptotic series in 1/n.  ``terms``
    is called afresh at each extrapolation depth, inside that depth's working
    precision, so the terms are computed at it.  Convergence is declared when
    two consecutive extrapolation depths agree to tol/4.
    """
    tol = mpf(tol)
    base_prec = mp.prec
    sizes = [48, 72, 108, 162, 243, 364]
    prev = None
    for N in sizes:
        if N > max_terms:
            break
        with workprec(base_prec + 64 + int(1.8 * N)):
            s = mpf(0)
            partials = []
            for t in islice(terms(), N):
                s += t
                partials.append(s)
            est, _weights = richardson(partials)
            # cross-check against a shallower extrapolation of the same data
            est_lo, _ = richardson(partials[: (3 * N) // 4])
        if prev is not None and abs(est - prev) < tol / 4 and abs(est - est_lo) < tol / 4:
            count_terms(N)
            return +est
        prev = est
    raise ConvergenceError("Richardson extrapolation did not stabilize "
                           f"at tol={mp.nstr(tol, 5)}")
