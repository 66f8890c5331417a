"""Series engines on integers, the Richardson dot product, and the term
counter they report into."""

import random
from fractions import Fraction
from math import ceil

import pytest
from mpmath import ldexp, mpf, pi, richardson, workprec

from wzmahler.context import ConvergenceError
from wzmahler.series import (GUARD, TermCounter, as_ratio, count_terms, note,
                             ratio_series, richardson_estimate, richardson_sum,
                             shared, sum_geometric, to_fixed, tol_bits)

# 1 + 1/2 + 1/4 + ...
_halving = ratio_series(lambda n: (1, 2), lambda n: (1, 1))
# 1 + 1/4 + 1/9 + ...
_inverse_squares = ratio_series(lambda n: (n * n, (n + 1) ** 2), lambda n: (1, 1))


def test_sum_geometric_rejects_ratio_and_budget():
    for ratio in (1, 1.5):
        with pytest.raises(ValueError):
            sum_geometric(_halving, mpf(10) ** -30, ratio=ratio)
    with pytest.raises(ConvergenceError):
        sum_geometric(_halving, mpf(10) ** -30, ratio=0.5, max_terms=20)


def test_sum_geometric_refuses_tol_below_resolution():
    # a tol under 2^-(prec + GUARD) floors to 0 in fixed point, so no term
    # could ever meet it: the sum raises before pulling a single term
    pulled = []

    def counting(bits):
        for t in _halving(bits):
            pulled.append(t)
            yield t

    with workprec(128):
        with pytest.raises(ConvergenceError, match="resolution"):
            sum_geometric(counting, mpf(2) ** -(128 + GUARD + 1), ratio=0.5)
        assert pulled == []
        assert sum_geometric(counting, mpf(2) ** -(128 + GUARD), ratio=0.5) == 2
    assert pulled


def test_sum_geometric_needs_two_small_terms_in_a_row():
    # 1 + 0 + 1/2 + 0 + 1/4 + ...: every zero term is small, so a rule that
    # stopped at the first small term would return 1
    parity = ratio_series(lambda n: (1, 2) if n % 2 == 0 else (1, 1),
                          lambda n: (1 - n % 2, 1))
    tol = mpf(10) ** -30
    with workprec(256), TermCounter() as counter:
        s = sum_geometric(parity, tol, ratio=0.5)
        assert abs(s - 2) < tol
    # stops at 2^-100, the first nonzero term below tol, which follows a zero
    assert counter.count == 2 * 100 + 1


def test_sum_geometric_head_is_not_tested():
    # 0 + 0 + 0 + 1 + 1/2 + ...: without the head the zeros would stop it
    late = ratio_series(lambda n: (1, 2) if n > 3 else (1, 1),
                        lambda n: (int(n >= 3), 1))
    with workprec(128), TermCounter() as counter:
        assert sum_geometric(late, mpf(10) ** -20, ratio=0.5, head=3) > 1
    assert counter.count > 60


def _random_step(rng):
    """A positive rational step (P(n), Q(n)) whose limit is below 1/2."""
    deg = rng.randint(1, 3)
    p = [rng.randint(1, 9) for _ in range(deg + 1)]
    q = [rng.randint(1, 9) for _ in range(deg)] + [rng.randint(2 * p[-1] + 1, 40)]
    return lambda n: (sum(c * n ** i for i, c in enumerate(p)),
                      sum(c * n ** i for i, c in enumerate(q)))


def test_integer_partial_sums_against_fractions():
    # random rational-ratio series: every integer partial sum, and the value
    # sum_geometric returns, lie within 2^-prec of the exact Fraction sums
    rng = random.Random(11)
    for prec in (64, 200):
        bits = prec + GUARD
        for _ in range(5):
            step = _random_step(rng)
            a, b = rng.randint(-9, 9), rng.randint(1, 9)
            weight = lambda n, a=a, b=b: (a * n + 1, b * n + 1)
            start = rng.randint(0, 2)
            series = ratio_series(step, weight, start=start)
            with workprec(prec), TermCounter() as counter:
                val = sum_geometric(series, mpf(2) ** -prec, ratio=Fraction(1, 2))
            exact, c, got = Fraction(0), Fraction(1), 0
            terms = series(bits)
            for n in range(start + counter.count):
                if n:
                    c *= Fraction(*step(n))
                if n >= start:
                    exact += c * Fraction(*weight(n))
                    got += next(terms)
                    assert abs(Fraction(got, 1 << bits) - exact) < Fraction(1, 1 << prec)
            # one rounding to prec bits on top
            err = abs(Fraction(*as_ratio(val)) - exact)
            assert err < Fraction(1, 1 << prec) * max(1, abs(exact))


def _random_x(rng, prec):
    """A constant ratio factor in (-1/2, 1/2): a Fraction, or an mpf whose
    mantissa fills prec bits, as an irrational argument's does."""
    if rng.random() < 0.5:
        b = rng.randint(2, 10 ** 6)
        return Fraction(rng.randint(-b + 1, b - 1), 2 * b)
    with workprec(prec):
        return mpf(rng.randint(-(1 << prec) + 1, (1 << prec) - 1)) / (2 << prec)


def test_ratio_factor_terms_against_fractions():
    # ratio_series with a constant factor x of the ratio against exact
    # Fraction terms: where |x| <= 1 and every step p/q and partial product
    # c_(n-1) p/q lies in [0, 1], the n-th term is within
    # 3n |weight(n)| + 1 units of 2^-bits, and sum_geometric's value within
    # 2^-prec of the exact sum
    rng = random.Random(29)
    for prec in (64, 200):
        bits = prec + GUARD
        for _ in range(6):
            a, b = rng.randint(0, 6), rng.randint(1, 9)
            c, d = a + rng.randint(0, 4), b + rng.randint(0, 4)
            step = lambda n, a=a, b=b, c=c, d=d: (a * n + b, c * n + d)
            e, f = rng.randint(-9, 9), rng.randint(1, 9)
            weight = lambda n, e=e, f=f: (e * n + 1, f * n + 1)
            x, start = _random_x(rng, prec + 64), rng.randint(0, 2)
            xq = Fraction(*as_ratio(x))
            series = ratio_series(step, weight, start=start, x=x)
            with workprec(prec), TermCounter() as counter:
                val = sum_geometric(series, mpf(2) ** -prec,
                                    ratio=Fraction(1, 2))
            exact, cn = Fraction(0), Fraction(1)
            terms = series(bits)
            for n in range(start + counter.count):
                if n:
                    cn *= Fraction(*step(n)) * xq
                if n >= start:
                    w = Fraction(*weight(n))
                    exact += cn * w
                    t = next(terms)
                    assert abs(t - cn * w * (1 << bits)) < 3 * n * abs(w) + 1
            err = abs(Fraction(*as_ratio(val)) - exact)
            assert err < Fraction(1, 1 << prec) * max(1, abs(exact))


def test_richardson_estimate_against_mpmath():
    bits = 400
    alternating = ratio_series(lambda n: (-n * n, (n + 1) ** 2), lambda n: (1, 1))

    def partials(series, count):
        out, s = [], 0
        for _, t in zip(range(count), series(bits)):
            s += t
            out.append(s)
        return out

    inverse_squares = partials(_inverse_squares, 48)
    oscillating = partials(alternating, 48)
    for seq in (inverse_squares, inverse_squares[:36], oscillating, oscillating[:37]):
        est = richardson_estimate(seq)
        with workprec(bits + 300):
            ref, _ = richardson([ldexp(mpf(s), -bits) for s in seq])
            assert abs(ldexp(mpf(est), -bits) - ref) < mpf(2) ** (1 - bits)
    # the oscillating partial sums are extrapolated from their even-index half
    assert richardson_estimate(oscillating) == richardson_estimate(oscillating[::2])
    with workprec(bits):
        assert abs(ldexp(mpf(richardson_estimate(oscillating)), -bits)
                   - pi ** 2 / 12) < mpf(10) ** -12


def test_to_fixed_is_exact():
    with workprec(100):
        third = mpf(1) / 3
    assert as_ratio(third) == (third.man, 2 ** -third.exp)
    assert to_fixed(Fraction(-1, 3), 10) == -342
    assert to_fixed(third, 200) == third.man << (200 + third.exp)


def test_richardson_sum_inverse_squares():
    calls = []

    def terms(bits):
        calls.append(bits)
        return _inverse_squares(bits)

    with workprec(256), TermCounter() as counter:
        s = richardson_sum(terms, mpf(10) ** -30)
        assert abs(s - pi ** 2 / 6) < mpf(10) ** -30
    # the terms are computed once, at the width of the first generation's
    # deepest depth (108) over the tol's own width (t = 101 for 1e-30, not
    # the working precision), and the depth reached (72) is what counts
    assert counter.count == 72
    assert calls == [101 + GUARD + ceil(1.8 * 108)]


def test_richardson_sum_regenerates_at_the_width_of_its_depth():
    # 1e-60 does not settle by depth 108: the terms are stepped again, from
    # the first, at the width of the deepest depth (364), the sum settles at
    # depth 162, and the terms of both generations count; every width is
    # the tol's (t = 201 for 1e-60, 101 for 1e-30) plus the depth's
    calls = []

    def terms(bits):
        calls.append(bits)
        return _inverse_squares(bits)

    with workprec(256), TermCounter() as counter:
        s = richardson_sum(terms, mpf(10) ** -60)
        assert abs(s - pi ** 2 / 6) < mpf(10) ** -60
    assert calls == [201 + GUARD + ceil(1.8 * d) for d in (108, 364)]
    assert counter.count == 108 + 162
    # a budget below 108 sizes the only generation for its own deepest depth
    calls.clear()
    with workprec(256), TermCounter() as counter:
        s = richardson_sum(terms, mpf(10) ** -30, max_terms=80)
        assert abs(s - pi ** 2 / 6) < mpf(10) ** -30
    assert calls == [101 + GUARD + ceil(1.8 * 72)] and counter.count == 72


def test_width_comes_from_tol_not_the_working_precision():
    # seeded tols from 1e-15 to 1e-90: both finishers step the same integers
    # under workprec(400) and workprec(700), at tol_bits(tol) (+ the depth's
    # bits for Richardson), and return the same value (the 700-bit one
    # rounded to 400 bits), within tol of the closed form: geometric
    # sum_n x^n = 1/(1-x) and sum_n (n+1) x^n = 1/(1-x)^2 for x <= 2/5,
    # and 1/n^2 tails sum_n 1/(n+1)^2 = pi^2/6 and
    # sum_n 2/((n+1)(n+2)) = 2
    rng = random.Random(40)
    for _ in range(6):
        digits = rng.randint(15, 90)
        tol = mpf(10) ** -digits
        a, b = rng.randint(1, 40), rng.randint(100, 1000)
        x = Fraction(a, b)
        cases = [
            (sum_geometric, ratio_series(lambda n: (1, 1), lambda n: (1, 1), x=x),
             {"ratio": x}, lambda: 1 / (1 - mpf(a) / b)),
            (sum_geometric, ratio_series(lambda n: (1, 1), lambda n: (n + 1, 1), x=x),
             {"ratio": 2 * x}, lambda: 1 / (1 - mpf(a) / b) ** 2),
            (richardson_sum, _inverse_squares, {}, lambda: pi ** 2 / 6),
            (richardson_sum, ratio_series(lambda n: (n, n + 2), lambda n: (1, 1)),
             {}, lambda: mpf(2))]
        for finisher, series, kwargs, exact in cases:
            seen = {}
            for prec in (400, 700):
                calls = []

                def terms(bits):
                    calls.append(bits)
                    return series(bits)

                with workprec(prec):
                    width = tol_bits(tol)
                    seen[prec] = (finisher(terms, tol, **kwargs), calls)
            (lo, lo_calls), (hi, hi_calls) = seen[400], seen[700]
            # the least t with 2^-t <= tol/2, and GUARD bits more
            t = width - GUARD
            assert mpf(2) ** -t <= tol / 2 < mpf(2) ** (1 - t)
            depth = 0 if finisher is sum_geometric else ceil(1.8 * 108)
            assert lo_calls == hi_calls and lo_calls[0] == width + depth
            with workprec(400):
                assert +hi == lo
                assert abs(lo - exact()) < tol, (finisher.__name__, digits)


def test_richardson_sum_failures():
    harmonic = ratio_series(lambda n: (n, n + 1), lambda n: (1, 1))
    with workprec(256):
        with pytest.raises(ConvergenceError):
            richardson_sum(harmonic, mpf(10) ** -30)
        with pytest.raises(ConvergenceError):
            richardson_sum(_inverse_squares, mpf(10) ** -30, max_terms=47)


def test_nested_counters_do_not_leak():
    with TermCounter() as outer:
        count_terms(3)
        with TermCounter() as inner:
            count_terms(5)
            sum_geometric(_halving, mpf(10) ** -10, ratio=0.5)
        count_terms(1)
    assert outer.count == 4
    assert inner.count > 5


def test_count_outside_a_counter_is_dropped():
    count_terms(7)
    sum_geometric(_halving, mpf(10) ** -10, ratio=0.5)
    with TermCounter() as counter:
        pass
    assert counter.count == 0


def test_outer_counter_restored_after_exception():
    with TermCounter() as outer:
        with pytest.raises(ConvergenceError):
            with TermCounter() as inner:
                count_terms(2)
                sum_geometric(_halving, mpf(10) ** -30, ratio=0.5, max_terms=20)
        count_terms(3)
    assert (outer.count, inner.count) == (3, 2)


def test_shared_charges_every_caller_the_same():
    # a memo hit replays the stored terms and notes into the caller's open
    # counter, so two separate counters see the same; outside any counter
    # the replay is dropped, and the stored tally stays the miss's own
    runs = []

    @shared
    def quantity(x, *, scale=1):
        runs.append(x)
        count_terms(3)
        with TermCounter():  # an inner scope keeps its own tally
            count_terms(100)
        note(f"quantity at {x}")
        return scale * sum_geometric(_halving, mpf(10) ** -10, ratio=0.5)

    quantity(mpf(2))
    tallies = []
    for _ in range(2):
        with TermCounter() as counter:
            value = quantity(mpf(2))
        tallies.append((counter.count, counter.notes))
    assert runs == [2]
    assert tallies[0] == tallies[1] and tallies[0][0] > 3
    assert tallies[0][1] == ["quantity at 2.0"]
    # keys are the exact arguments: an equal value of another type hits, a
    # keyword or another value misses
    assert quantity(Fraction(2)) is value and quantity(2) is value
    assert quantity(mpf(2), scale=2) == 2 * value and quantity(mpf(3))
    assert runs == [2, 2, 3]
    quantity.cache_clear()
    assert quantity(mpf(2)) == value and runs == [2, 2, 3, 2]
