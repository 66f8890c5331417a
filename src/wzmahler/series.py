"""Series summation on integers: one fixed-point term interface, two
finishers (a geometric tail bound and Richardson extrapolation), and the
term tally both report into.

A series is a callable ``terms(bits)`` that yields its terms as Python
integers in fixed point, t_n ~ terms_n * 2^bits.  ``ratio_series`` builds
one from the rational part of a term ratio and a weight, each a function
n -> (p, q) of integer pairs, and a constant factor x of the ratio.  An
argument that is not rational (z in Lambda_s(z), r^2 = (alpha/4)^2 in
m(alpha) below 4) enters as x, floored once to the fixed point, so the
pairs stay as narrow as the integers of the rational part and a step costs
what a rational series' step does.  The finishers size ``bits`` from the
tolerance, sum the integers and round once to an mpf:

* ``tol_bits(tol)`` is the shared width, min(mp.prec, t) + GUARD with
  t = 1 - floor(log2 tol), so 2^-t <= tol/2: a sum at 1e-42 (t = 141) is
  stepped at 205 bits at 256 bits of working precision or at 1024, and a
  tol finer than the working precision resolves at mp.prec + GUARD, the
  widest any sum is stepped.
* ``sum_geometric`` sums at ``tol_bits(tol)`` until the geometric tail
  bound |t| ratio/(1 - ratio) stays below tol for two consecutive terms.
* ``richardson_sum`` extrapolates the partial sums at depths 48, 72,
  108, ... with mpmath.richardson's N-term weights, evaluated as one exact
  integer dot product (``richardson_estimate``).  The weights of depth d
  sum to about 2^(1.53 d) (2^104.5 at 72, 2^556 at 364), so the terms are
  stepped at ``tol_bits(tol)`` + ceil(1.8 d) bits for the deepest depth d
  of a generation: depths 48 to 108 first, and only a sum that has not
  settled by then is stepped again at the width of 364.  That is what
  makes the 1/n^2-tail sums (central-binomial squared over 16^n and friends)
  reachable at 1e-30..1e-40 with a couple of hundred terms instead of
  1e30 of them.

Every summation reports the terms it used through ``count_terms`` to the
innermost open ``TermCounter``, which also collects the notes of ``note``.
``shared`` memoises a quantity for the process and charges its stored count
and notes to every caller.
"""

from __future__ import annotations

from contextvars import ContextVar
from functools import cache, wraps
from itertools import count, islice
from math import ceil, comb, factorial, inf
from operator import mul
from typing import Callable, Iterator

from mpmath import ldexp, mp, mpf

from .context import ConvergenceError
from .fixedpoint import as_ratio, to_fixed

# terms(bits) -> the terms as integers at ``bits`` fractional bits
Series = Callable[[int], Iterator[int]]

GUARD = 64  # fractional bits the finishers carry beyond their tolerance
_DEPTHS = (48, 72, 108, 162, 243, 364)  # Richardson's partial-sum counts
_FIRST = 3  # the depths that the first generation of terms serves

# the innermost open TermCounter of the running context
_ACTIVE: ContextVar[TermCounter | None] = ContextVar("term_counter", default=None)


class TermCounter:
    """Tally of the series terms summed inside ``with TermCounter() as c:``,
    read as ``c.count``, and the notes the work inside left, ``c.notes``.
    Counters nest: terms and notes go to the innermost open one only, and
    outside any counter they are dropped."""

    def __init__(self):
        self.count = 0
        self.notes = []

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


def note(text: str) -> None:
    """Add a note to the innermost open TermCounter, if any."""
    counter = _ACTIVE.get()
    if counter is not None:
        counter.notes.append(text)


def shared(fn: Callable) -> Callable:
    """Memoise ``fn`` for the life of the process on its exact arguments.

    The key is the call's positional and keyword arguments as given: mpf,
    mpc, Fraction, int and PrecisionCtx hash and compare by value, so the
    key holds each argument's exact value and the context's bits and
    max_terms.  On a miss ``fn`` runs inside a fresh ``TermCounter``, and
    its value, term count and notes are stored; an exception is not.  On
    every call, hit or miss, the stored count and notes go to the caller's
    open counter, so what a caller is charged does not depend on which
    call came first.  ``cache_clear()`` empties the memo.
    """
    memo = {}

    @wraps(fn)
    def call(*args, **kwargs):
        key = (args, tuple(kwargs.items()))
        hit = memo.get(key)
        if hit is None:
            with TermCounter() as scope:
                value = fn(*args, **kwargs)
            hit = memo[key] = (value, scope.count, tuple(scope.notes))
        value, n, notes = hit
        count_terms(n)
        for text in notes:
            note(text)
        return value

    call.cache_clear = memo.clear
    return call


def ratio_series(step: Callable, weight: Callable, *, start: int = 0,
                 x=None) -> Series:
    """The series sum_{n>=start} weight(n) c_n with c_0 = 1 and
    c_n = c_{n-1} step(n) x, where step and weight map n to an integer pair
    (p, q) standing for p/q, and x, a constant factor of the term ratio
    (none if None), is an int, Fraction or mpf (``as_ratio``).

    The pairs carry only the rational part of the ratio, so they stay as
    narrow as its integers; x is floored once to x_f = floor(x 2^bits) and
    applied after the pair: c <- floor(c p/q), then
    c <- floor(c x_f 2^-bits).  Each floor costs under one unit of 2^-bits,
    weighted by |x| <= 1 for the first; the floor of x_f, weighted by
    |c_(n-1) p/q| <= 1, adds under one unit more.  So a step adds under 1
    unit without x and under 3 with it, and where |step(n) x| <= 1 the
    errors do not grow: c_n is within n units (3n with x), and the n-th
    term, floored once more, within n |weight(n)| + 1
    (3n |weight(n)| + 1)."""
    def terms(bits):
        c = 1 << bits
        xf = None if x is None else to_fixed(x, bits)
        for n in count():
            if n:
                p, q = step(n)
                c = c * p // q
                if xf is not None:
                    c = c * xf >> bits
            if n >= start:
                p, q = weight(n)
                yield c * p // q
    return terms


def tol_bits(tol) -> int:
    """The fixed-point width that resolves tol: min(mp.prec, t) + GUARD
    fractional bits, with 2^-t <= |tol|/2.  For an mpf, t = 1 -
    floor(log2 |tol|), read off its exponent; any other tol = p/q
    (``as_ratio``) takes t = 2 + bitlen(q) - bitlen(p), at most one more.
    The cap keeps every width at or below mp.prec + GUARD."""
    if isinstance(tol, mpf):
        t = 2 - mp.mag(tol)
    else:
        p, q = as_ratio(tol)
        t = 2 + q.bit_length() - abs(p).bit_length()
    return min(mp.prec, t) + GUARD


def sum_geometric(terms: Series, tol, *, ratio=0.5, head: int = 0,
                  max_terms: int = 500_000) -> mpf:
    """Sum a series whose term ratio is bounded by ``ratio`` < 1 from term
    ``head`` on, at B = ``tol_bits(tol)`` fractional bits.

    Stops once the geometric tail bound |t|*ratio/(1-ratio) stays below tol
    for two consecutive terms past the head (guards parity-structured
    series).  Each of the n terms summed carries the few units of 2^-B of
    its own floors (``ratio_series``).  Where t <= mp.prec, B = t + GUARD
    puts a unit at 2^-(GUARD+1) tol or below, so the rounding stays far
    below tol; a finer tol (t > mp.prec) is summed at the cap,
    B = mp.prec + GUARD, with a few units of 2^-B a term.  A tol below
    2^-(mp.prec + GUARD) can never be met, and raises ConvergenceError
    before any term is summed.
    """
    rp, rq = as_ratio(ratio)
    if not rp < rq:
        raise ValueError("ratio bound must be < 1")
    bits = tol_bits(tol)
    limit = to_fixed(tol, bits) * (rq - rp)  # |t| rp < limit: below tol
    if limit == 0:
        raise ConvergenceError(
            f"tol={mp.nstr(mpf(tol), 5)} is below the resolution 2^-{bits} "
            f"of the working precision ({mp.prec} bits)")
    # for an integer t, |t| rp < limit is |t| < ceil(limit/rp): one
    # comparison a term, however wide the pair of an mpf ratio is
    small_t = -(-limit // rp) if rp > 0 else inf
    total = small = n = 0
    for t in terms(bits):
        total += t
        n += 1
        if n > head and abs(t) < small_t:
            small += 1
            if small >= 2:
                break
        else:
            small = 0
        if n >= max_terms:
            raise ConvergenceError(
                f"series did not reach tol={mp.nstr(mpf(tol), 5)} in {max_terms} terms")
    count_terms(n)
    return ldexp(mpf(total), -bits)


@cache
def _richardson_weights(n: int) -> tuple[tuple[int, ...], int]:
    """((-1)^(n-k) C(n,k) (n+k)^n for k = 0..n), n!"""
    return (tuple((-1) ** (n - k) * comb(n, k) * (n + k) ** n for k in range(n + 1)),
            factorial(n))


def richardson_estimate(partials: list[int]) -> int:
    """mpmath.richardson's extrapolate of at least three partial sums S_j,
    as an exact integer dot product floored once:
    (1/N!) sum_{k<=N} (-1)^(N-k) C(N,k) (N+k)^N S_{N+k}, N = len//2 - 1,
    taken over the even-index S_j when the last three do not move
    monotonically (an oscillating sequence)."""
    a, b, c = partials[-3:]
    if (c > b) - (c < b) != (b > a) - (b < a):
        partials = partials[::2]
    n = len(partials) // 2 - 1
    weights, nfact = _richardson_weights(n)
    return sum(map(mul, weights, partials[n:])) // nfact


def richardson_sum(terms: Series, tol, *, max_terms: int = 500_000) -> mpf:
    """Accelerated value of the series ``terms``.

    The terms must decay like a smooth asymptotic series in 1/n.  They are
    extrapolated at each depth N <= max_terms in turn.  Convergence is
    declared when two consecutive depths agree to tol/4 and each depth
    agrees to tol/4 with the extrapolation of its first three quarters.
    A max_terms below the first depth, 48, raises ConvergenceError naming
    the term budget before any term is stepped.

    The weights of depth d, over N!, sum to about 2^(1.53 d) (2^104.5 at
    72, 2^160 at 108, 2^556 at 364) and scale the rounding of the partial
    sums by as much, so a generation of terms is stepped at
    ``tol_bits(tol)`` + ceil(1.8 d) bits for its deepest depth d, and the
    rounding that reaches an estimate stays below 2^-(GUARD+1) tol per
    unit of the partial sums, as in ``sum_geometric``.  The first
    generation serves the depths up to 108.  If none of them settles, the
    terms are stepped again from the first one, at the width of the
    deepest depth; the last depth tried is extrapolated again, as the one
    the next depth is compared with.  Every term stepped counts, those of
    both generations.
    """
    depths = [d for d in _DEPTHS if d <= max_terms]
    if not depths:
        raise ConvergenceError(
            f"Richardson extrapolation budget exhausted: its first depth "
            f"takes {_DEPTHS[0]} terms, max_terms={max_terms}")
    stepped = tried = 0  # terms stepped and depths tried, earlier generations
    for last in (min(_FIRST, len(depths)), len(depths)):
        if last == tried:
            continue
        bits = tol_bits(tol) + ceil(1.8 * depths[last - 1])
        gate = to_fixed(tol, bits)  # 4 |est - other| < gate: within tol/4
        gen = terms(bits)
        partials, s, prev = [], 0, None
        for depth in depths[max(tried - 1, 0):last]:
            for t in islice(gen, depth - len(partials)):
                s += t
                partials.append(s)
            est = richardson_estimate(partials)
            # cross-check against a shallower extrapolation of the same data
            est_lo = richardson_estimate(partials[: (3 * depth) // 4])
            if (prev is not None and 4 * abs(est - prev) < gate
                    and 4 * abs(est - est_lo) < gate):
                count_terms(stepped + depth)
                return ldexp(mpf(est), -bits)
            prev = est
        stepped, tried = stepped + len(partials), last
    raise ConvergenceError("Richardson extrapolation did not stabilize "
                           f"at tol={mp.nstr(mpf(tol), 5)}")
