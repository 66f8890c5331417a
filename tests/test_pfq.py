"""Generalized hypergeometric evaluation: closed forms, divergence guards,
agreement with mpmath's independent implementation, and the exact
unit-argument route by Gosper's algorithm, against sympy's."""

from fractions import Fraction
from math import comb

import pytest
import sympy as sp
from mpmath import hyper, mp, mpf, pi, sqrt, workprec
from sympy.concrete.gosper import gosper_term

from wzmahler import ConvergenceError, DivergentSeriesError, DomainError, PrecisionCtx
from wzmahler.registry import _finite_lhs, run_check
from wzmahler.series import TermCounter, ratio_series, richardson_sum
from wzmahler.symbolic.gosper import gosper_sum
from wzmahler.symbolic.pfq import pfq_eval

CTX = PrecisionCtx(bits=192)


def test_empty_sum_at_zero():
    assert pfq_eval([mpf(1) / 2, mpf(1) / 2], [1], 0, CTX) == 1


def test_4f3_telescoping_value():
    # 4F3(1,1,2,2; 2,2,3; 1): the term is 2/((n+1)(n+2)), so the sum
    # telescopes to exactly 2
    with workprec(260):
        oracle = mpf(0)
        for n in range(100000):
            oracle += mpf(2) / ((n + 1) * (n + 2))
        # partial sum error is 2/(N+2)
        val = pfq_eval([1, 1, 2, 2], [2, 2, 3], 1, CTX, tol=mpf(10) ** -30)
        assert abs(val - 2) < mpf(10) ** -29
        assert abs(oracle - 2) < mpf("2.1e-5")


def test_divergence_detection():
    with pytest.raises(DivergentSeriesError):
        pfq_eval([mpf(1) / 2, mpf(1) / 2], [1], 1, CTX)  # excess 0
    with pytest.raises(DivergentSeriesError):
        pfq_eval([1, 1], [2], mpf("1.5"), CTX)  # |z| > 1


def test_convergence_decided_by_p_against_q():
    # p > q + 1 diverges at every z != 0, and is refused before a term is
    # summed; a terminating top keeps it a polynomial; p = q + 1 keeps the
    # parameter excess test at |z| = 1; p <= q converges for every z and is
    # summed for |z| <= 1
    for z in (1, mpf("0.5"), mpf(10) ** -30, -1):
        with TermCounter() as counter, pytest.raises(
                DivergentSeriesError, match="3F1 diverges at every z != 0"):
            pfq_eval([1, 1, 1], [5], z, CTX)
        assert counter.count == 0
    assert pfq_eval([1, 1, 1], [5], 0, CTX) == 1
    with workprec(260):
        got = pfq_eval([-3, 1, 2], [], mpf("0.5"), CTX)
        assert abs(got - hyper([-3, 1, 2], [], mpf("0.5"))) < mpf(10) ** -50
    with pytest.raises(DivergentSeriesError, match="parameter excess"):
        pfq_eval([5, 1], [2], 1, CTX)
    with pytest.raises(DomainError, match="1F2 at |z| = 2.0 > 1"):
        pfq_eval([5], [1, 1], 2, CTX)


@pytest.mark.parametrize("tops, bottoms", [
    ([5], [1, 1]), ([], [1]), ([], []), ([2, 3], [4, 5]),
    ([mpf(1) / 3], [mpf(7) / 2, 2]), ([mpf(-9) / 2], [mpf(-11) / 4, 3]),
    ([7, 7, 7], [mpf(1) / 2, mpf(3) / 2, 4])])
def test_p_at_most_q_on_the_unit_circle_matches_mpmath(tops, bottoms):
    # 1F2(5; 1, 1; 1) raised "parameter excess -3 <= 0" although it
    # converges; at z = +-1 each sum now meets mpmath's hyper
    tol = mpf(10) ** -45
    with workprec(260):
        for z in (1, -1):
            got = pfq_eval(tops, bottoms, z, CTX, tol=tol)
            assert abs(got - hyper(tops, bottoms, z)) < tol, z


def test_terminating_series_summed_at_any_z():
    # a non-positive integer top makes pFq a polynomial: at |z| > 1 these
    # raised DivergentSeriesError (p > q) or DomainError (p <= q), though
    # mpmath's hyper gives 13, -2/7, -1/4 and 2713; each is summed exactly
    # over its N + 1 terms and rounded once, and a non-terminating series
    # there still raises, as does a polynomial longer than max_terms
    cases = (([-2, 1, 1], [], 2, 13), ([-3, 2], [5], 3, Fraction(-2, 7)),
             ([-2], [3], 5, Fraction(-1, 4)), ([-4, 1], [], -3, 2713))
    with CTX.workprec(64):  # pfq_eval's own precision
        for tops, bottoms, z, want in cases:
            with TermCounter() as counter:
                got = pfq_eval(tops, bottoms, z, CTX)
            assert got == mpf(want.numerator) / want.denominator
            assert abs(got - hyper(tops, bottoms, z)) < mpf(10) ** -70
            assert counter.count == 1 - max(a for a in tops if a <= 0)
    with pytest.raises(DivergentSeriesError, match="3F0 diverges"):
        pfq_eval([2, 1, 1], [], 2, CTX)
    with pytest.raises(DomainError, match="1F1 at"):
        pfq_eval([2], [3], 5, CTX)
    with pytest.raises(ConvergenceError, match="terminates after 21 terms"):
        pfq_eval([-20], [3], 5, PrecisionCtx(max_terms=20))


def test_bottom_pole_rejected():
    with pytest.raises(DomainError):
        pfq_eval([1, 1], [-2], mpf(1) / 2, CTX)


def test_matches_mpmath_inside_disk():
    with workprec(260):
        cases = [
            ([mpf(1) / 2, mpf(1) / 2], [mpf(1)], mpf(9) / 25),
            ([mpf(1) / 3, mpf(2) / 3], [mpf(1)], mpf(5) / 32),
            ([mpf(1) / 4], [mpf(7) / 3], mpf(-1) / 2),
        ]
        for tops, bottoms, z in cases:
            mine = pfq_eval(tops, bottoms, z, CTX, tol=mpf(10) ** -45)
            ref = hyper(tops, bottoms, z)
            assert abs(mine - ref) < mpf(10) ** -44


def test_accelerated_unit_argument_matches_mpmath():
    with workprec(260):
        for m in (2, 5, 8):
            mine = pfq_eval([1, 1, 2 * m, 2 * m], [m + 1, m + 1, 2 * m + 1], 1,
                            CTX, tol=mpf(10) ** -18)
            ref = hyper([1, 1, 2 * m, 2 * m], [m + 1, m + 1, 2 * m + 1], 1)
            assert abs(mine - ref) < mpf(10) ** -16, f"m={m}"


def test_m2_unit_argument_exact_rational():
    # the finite identity at m = 2 forces 4F3(1,1,4,4;3,3,5;1) = 58/27
    with workprec(260):
        val = pfq_eval([1, 1, 4, 4], [3, 3, 5], 1, CTX, tol=mpf(10) ** -25)
        assert abs(val - mpf(58) / 27) < mpf(10) ** -23


# 4F3(1, 1, 2m, 2m; m+1, m+1, 2m+1; 1) for m = 1..8, the finite family's sum
FINITE_4F3 = {1: Fraction(2), 2: Fraction(58, 27), 3: Fraction(1937, 1000),
              4: Fraction(220718, 128625), 5: Fraction(6212629, 4000752),
              6: Fraction(710364359, 493055640), 7: Fraction(103325120747, 75795445440),
              8: Fraction(348508475578, 266468362875)}


def _family(m):
    return [(1, 1), (1, 1), (2 * m, 1), (2 * m, 1)], [(m + 1, 1), (m + 1, 1), (2 * m + 1, 1)]


def test_gosper_sums_the_finite_family_exactly():
    # sum_{n<m} (30n+11)/((2n)(2n+1)) C(2n,n)^2
    #   = -4 + sum_{n<m} 6 C(2n,n)/n + C(2m,m)^2/(2m) 4F3(...; 1),
    # exactly in Fractions, with the left side also as the registry rounds it
    with TermCounter() as counter:
        for m, value in FINITE_4F3.items():
            got, degree = gosper_sum(*_family(m), Fraction(1), 10 ** 6)
            assert (got, degree) == (value, 2 * m - 2), m
            lhs = sum((Fraction(30 * n + 11, 2 * n * (2 * n + 1)) * comb(2 * n, n) ** 2
                       for n in range(1, m)), Fraction(0))
            rhs = (-4 + sum((Fraction(6 * comb(2 * n, n), n) for n in range(1, m)), Fraction(0))
                   + Fraction(comb(2 * m, m) ** 2, 2 * m) * got)
            assert lhs == rhs, m
            with workprec(200):
                assert _finite_lhs(PrecisionCtx(), m) == mpf(lhs.numerator) / lhs.denominator
    # x's degree is bounded by 2m - 2, where its antidifference still
    # vanishes at infinity: 2m - 1 coefficients, each counted
    assert counter.count == sum(2 * m - 1 for m in FINITE_4F3)


def test_sympy_agrees_the_finite_family_is_gosper_summable():
    n = sp.Symbol("n", integer=True, nonnegative=True)
    for m in FINITE_4F3:
        term = (sp.factorial(n) * sp.rf(2 * m, n) ** 2
                / (sp.rf(m + 1, n) ** 2 * sp.rf(2 * m + 1, n)))
        assert gosper_term(term, n) is not None, m


def test_gosper_route_is_exact_and_noted():
    # 4F3(1,1,2,2; 2,2,3; 1) = sum 2/((n+1)(n+2)) = 2, exactly, with no tol
    with TermCounter() as counter:
        assert pfq_eval([1, 1, 2, 2], [2, 2, 3], 1, CTX) == 2
    assert counter.notes == ["4F3 by Gosper certificate, degree 0"]
    assert counter.count == 1  # x = -1, a constant


def test_gosper_route_keeps_the_term_budget():
    # m = 8 solves for 15 coefficients: within a budget of 15, refused at
    # 14, where Richardson (its first depth is 48) cannot run either
    tops, bottoms = [1, 1, 16, 16], [9, 9, 17]
    with TermCounter() as counter:
        pfq_eval(tops, bottoms, 1, PrecisionCtx(bits=192, max_terms=15))
    assert counter.count == 15
    with pytest.raises(ConvergenceError, match="budget exhausted: its first "
                       "depth takes 48 terms, max_terms=14"):
        pfq_eval(tops, bottoms, 1, PrecisionCtx(bits=192, max_terms=14))


def test_registry_family_takes_the_gosper_route_at_every_m():
    rep = run_check("finite-4f3", PrecisionCtx(bits=256))
    assert rep.status == "PASS"
    assert rep.notes.count("4F3 by Gosper certificate") == 8
    assert "Richardson" not in rep.notes


def test_zeta2_has_no_certificate_and_keeps_richardson():
    # 3F2(1,1,1; 2,2; 1) = zeta(2) = pi^2/6 is not Gosper-summable; it is
    # the Richardson value of the terms 1/(n+1)^2, unchanged, at the same
    # precision and tolerance
    tol = mpf(10) ** -40
    n = sp.Symbol("n", integer=True, nonnegative=True)
    assert gosper_term(1 / (n + 1) ** 2, n) is None
    assert gosper_sum([(1, 1)] * 3, [(2, 1), (2, 1)], Fraction(1), 10 ** 6) is None
    # 3F2(1,1,1; 2,3; 1) = 2 zeta(2) - 2 leaves room for a constant x, which
    # the identity's constant coefficient then refutes
    with TermCounter() as counter:
        assert gosper_sum([(1, 1)] * 3, [(2, 1), (3, 1)], Fraction(2), 10 ** 6) is None
    assert counter.count == 1
    assert gosper_term(2 / ((n + 1) ** 2 * (n + 2)), n) is None
    with workprec(260):
        with TermCounter() as counter:
            got = pfq_eval([1, 1, 1], [2, 2], 1, CTX, tol=tol)
        with CTX.workprec(64):
            ref = +richardson_sum(ratio_series(lambda k: (k * k, (k + 1) ** 2),
                                               lambda k: (1, 1)), tol)
        assert got == ref
        assert abs(got - pi ** 2 / 6) < tol
    assert counter.notes == ["3F2 by Richardson extrapolation"]


def test_summable_term_not_vanishing_at_infinity_falls_through():
    # t_n = (1/3)_n (5/3)_n / (2)_n^2 is Gosper-summable: with
    # T_n = (1/3)_n (5/3)_n / (n!)^2, t_n = -(9/4) (T_{n+1} - T_n).  But T_n
    # tends to 1/(Gamma(1/3) Gamma(5/3)) = 3 sqrt(3)/(4 pi), not to 0, so
    # the sum 3F2(1/3, 5/3, 1; 2, 2; 1) = 9/4 - 27 sqrt(3)/(16 pi) is not
    # -T_0 and the Richardson route sums it
    n = sp.Symbol("n", integer=True, nonnegative=True)
    third = sp.Rational(1, 3)
    assert gosper_term(sp.rf(third, n) * sp.rf(5 * third, n) / sp.rf(2, n) ** 2, n) is not None
    tops = [Fraction(1, 3), Fraction(5, 3), 1]
    assert gosper_sum([(1, 3), (5, 3), (1, 1)], [(2, 1), (2, 1)], Fraction(1), 10 ** 6) is None
    tol = mpf(10) ** -40
    with workprec(260):
        with TermCounter() as counter:
            got = pfq_eval(tops, [2, 2], 1, CTX, tol=tol)
        assert abs(got - (mpf(9) / 4 - 27 * sqrt(3) / (16 * pi))) < tol
    assert counter.notes == ["3F2 by Richardson extrapolation"]


def test_gosper_with_rational_parameters_and_fewer_tops():
    # 2F1(1, 1/2; 5/2; 1) = sum (3/4)/((n+1/2)(n+3/2)) = 3/2 (Gauss), and
    # 1F1(2; 3; 1) = sum 2(n+1)/(n+2)! = 2, whose terms decay factorially
    assert gosper_sum([(1, 1), (1, 2)], [(5, 2)], Fraction(1), 10 ** 6) == (Fraction(3, 2), 0)
    assert gosper_sum([(2, 1)], [(3, 1)], Fraction(1), 10 ** 6) == (Fraction(2), 0)
    assert pfq_eval([1, Fraction(1, 2)], [Fraction(5, 2)], 1, CTX) == mpf(3) / 2
