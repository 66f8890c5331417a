"""Series engines and the term counter they report into."""

from itertools import count

import pytest
from mpmath import mp, mpf, pi, workprec

from wzmahler.context import ConvergenceError
from wzmahler.series import (TermCounter, count_terms, richardson_sum,
                             sum_geometric)


def _halving():
    return (mpf(1) / 2 ** n for n in count())


def test_sum_geometric_rejects_ratio_and_budget():
    for ratio in (1, 1.5):
        with pytest.raises(ValueError):
            sum_geometric(_halving(), mpf(10) ** -30, ratio=ratio)
    with pytest.raises(ConvergenceError):
        sum_geometric(_halving(), mpf(10) ** -30, ratio=0.5, max_terms=20)


def test_sum_geometric_needs_two_small_terms_in_a_row():
    # 1 + 0 + 1/2 + 0 + 1/4 + ...: every zero term is small, so a rule that
    # stopped at the first small term would return 1
    def parity():
        for n in count():
            yield mpf(1) / 2 ** (n // 2) if n % 2 == 0 else mpf(0)

    tol = mpf(10) ** -30
    with workprec(256), TermCounter() as counter:
        s = sum_geometric(parity(), tol, ratio=0.5)
        assert abs(s - 2) < tol
    # stops at 2^-100, the first nonzero term below tol, which follows a zero
    assert counter.count == 2 * 100 + 1


def test_richardson_sum_inverse_squares():
    precs = []

    def terms():
        precs.append(mp.prec)
        return (1 / mpf(n) ** 2 for n in count(1))

    with workprec(256), TermCounter() as counter:
        s = richardson_sum(terms, mpf(10) ** -30)
        assert abs(s - pi ** 2 / 6) < mpf(10) ** -30
    # one fresh factory call per depth, at that depth's working precision
    assert counter.count == 72
    assert precs == [256 + 64 + int(1.8 * 48), 256 + 64 + int(1.8 * 72)]


def test_richardson_sum_failures():
    with workprec(256):
        with pytest.raises(ConvergenceError):
            richardson_sum(lambda: (1 / mpf(n) for n in count(1)), mpf(10) ** -30)
        with pytest.raises(ConvergenceError):
            richardson_sum(lambda: (1 / mpf(n) ** 2 for n in count(1)),
                           mpf(10) ** -30, max_terms=47)


def test_nested_counters_do_not_leak():
    with TermCounter() as outer:
        count_terms(3)
        with TermCounter() as inner:
            count_terms(5)
            sum_geometric(_halving(), mpf(10) ** -10, ratio=0.5)
        count_terms(1)
    assert outer.count == 4
    assert inner.count > 5


def test_count_outside_a_counter_is_dropped():
    count_terms(7)
    sum_geometric(_halving(), mpf(10) ** -10, ratio=0.5)
    with TermCounter() as counter:
        pass
    assert counter.count == 0


def test_outer_counter_restored_after_exception():
    with TermCounter() as outer:
        with pytest.raises(ConvergenceError):
            with TermCounter() as inner:
                count_terms(2)
                sum_geometric(_halving(), mpf(10) ** -30, ratio=0.5, max_terms=20)
        count_terms(3)
    assert (outer.count, inner.count) == (3, 2)
