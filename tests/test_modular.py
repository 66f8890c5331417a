"""Theta function, x(q) from the cubic theta functions, the signature-3 nome
and J-expression, and the degree-2 modular relation."""

import random
from fractions import Fraction

import pytest
from mpmath import (cbrt, exp, gamma, hyp2f1, jtheta, log, mp, mpf, pi, sqrt,
                    workprec)

import wzmahler.modular as modular_module
from wzmahler import DomainError, PrecisionCtx
from wzmahler.modular import (cubic_theta_ratio, j3_from_beta,
                              modular_relation, phi_theta, q3_from_beta,
                              xq_product)
from wzmahler.symbolic.pfq import pfq_eval

CTX = PrecisionCtx(bits=256)
TOL = mpf(2) ** -200


def test_phi_basic():
    assert phi_theta(0, CTX) == 1
    with workprec(300):
        # classical value at q = e^(-pi): phi = pi^(1/4)/Gamma(3/4)
        val = phi_theta(exp(-pi), CTX)
        assert abs(val - pi ** (mpf(1) / 4) / gamma(mpf(3) / 4)) < TOL
        # doubled-precision direct-sum oracle
        with workprec(700):
            q = exp(-pi)
            oracle = 1 + 2 * sum(q ** (n * n) for n in range(1, 40))
        assert abs(val - oracle) < TOL


@pytest.mark.parametrize("bits", [64, 256, 512, 1024])
def test_phi_theta_against_jtheta(bits):
    # phi(q) against mpmath's jtheta(3, 0, q) at bits + 64, to within the
    # docstring's 2^-(bits+16), on q = 0, +-0.9 and ten seeded q in
    # (-0.9, 0.9); at q = -0.9 phi is about 1e-5, so the bound is absolute
    rng = random.Random(bits)
    ctx = PrecisionCtx(bits=bits)
    qs = [mpf(0), mpf("0.9"), mpf("-0.9")] \
        + [mpf(rng.uniform(-0.9, 0.9)) for _ in range(10)]
    for q in qs:
        with workprec(bits + 64):
            assert abs(phi_theta(q, ctx) - jtheta(3, 0, q)) \
                < mpf(2) ** -(bits + 16), q


def test_phi_product_inequality():
    with workprec(300):
        for q in (mpf(1) / 10, mpf(1) / 3, mpf(7) / 10):
            assert phi_theta(q, CTX) * phi_theta(-q, CTX) <= phi_theta(q, CTX) ** 2


def test_xq_basic_and_bertin_values():
    assert xq_product(0, CTX) == 1
    with workprec(300):
        q0 = q3_from_beta(Fraction(5, 32), CTX)
        assert abs(xq_product(q0, CTX) - mpf(32) / 27) < TOL
        s5 = sqrt(mpf(5))
        assert abs(xq_product(sqrt(q0), CTX) - (7 + s5) ** 3 / 108) < TOL
        assert abs(xq_product(q0 ** 2, CTX) - (7 - s5) ** 3 / 108) < TOL


def eta_product(q, bits):
    """The reference x(q) = 1 + 27 q prod_{n>=1} ((1-q^(3n))/(1-q^n))^12 at
    bits + 64, stopped once the log-tail 13 sum_{m>n} |q|^m is below
    2^-(bits+64)."""
    with workprec(bits + 64):
        q = mpf(q)
        eps = mpf(2) ** -(bits + 64)
        prod, n = mpf(1), 1
        while True:
            qn = q ** n
            prod *= ((1 - qn ** 3) / (1 - qn)) ** 12
            if 13 * abs(qn) * abs(q) / (1 - abs(q)) < eps:
                return 1 + 27 * q * prod
            n += 1


@pytest.mark.parametrize("bits", [256, 512])
def test_xq_theta_series_matches_eta_product(bits):
    # the two bertin-n-form nomes besides the fixed q, to relative
    # 2^-(bits+16); at q = 0.9, b(q) ~ 2^-53 tests the bits xq_product adds
    ctx = PrecisionCtx(bits=bits)
    with workprec(bits + 64):
        qs = [mpf(q) for q in ("0", "0.01", "-0.01", "0.1", "-0.1", "0.2",
                               "0.5", "-0.5", "0.9")]
        s5 = sqrt(mpf(5))
        qs += [q3_from_beta(1 - 108 / (7 + sign * s5) ** 3, ctx) for sign in (1, -1)]
        for q in qs:
            ref = eta_product(q, bits)
            assert abs(xq_product(q, ctx) / ref - 1) < mpf(2) ** -(bits + 16)
    assert xq_product(0, ctx) == 1


@pytest.mark.parametrize("bits", [256, 512])
def test_cubic_theta_ratio_is_cube_root_of_xq(bits):
    # 3 a(q)/b(q), the registry's alpha, is 3 x(q)^(1/3) with no cube root
    # taken: on the two bertin-n-form nomes and q = 0.1, 0.2, to relative
    # 2^-(bits+16)
    ctx = PrecisionCtx(bits=bits)
    with workprec(bits + 64):
        s5 = sqrt(mpf(5))
        qs = [q3_from_beta(1 - 108 / (7 + sign * s5) ** 3, ctx) for sign in (1, -1)]
        for q in qs + [mpf("0.1"), mpf("0.2")]:
            ref = 3 * cbrt(xq_product(q, ctx))
            assert abs(3 * cubic_theta_ratio(q, ctx) / ref - 1) < mpf(2) ** -(bits + 16)


def test_xq_domain():
    for q in (1, -1, mpf("1.5")):
        for f in (xq_product, cubic_theta_ratio):
            with pytest.raises(DomainError):
                f(q, CTX)


def test_q_inversion_signature3():
    with workprec(300):
        assert abs(q3_from_beta(Fraction(1, 2), CTX) - exp(-2 * pi / sqrt(mpf(3)))) < TOL


def test_nomes_continuous_at_half():
    # beta and 1 - beta enter the cubic AGM symmetrically, so at beta = 1/2
    # the quotient is 1; on either side the nome stays within the slope
    # times 2^-250 of exp(-2 pi/sqrt 3)
    with workprec(300):
        half, delta = mpf(1) / 2, mpf(2) ** -250
        for beta in (half - delta, half, half + delta):
            assert abs(q3_from_beta(beta, CTX) - exp(-2 * pi / sqrt(mpf(3)))) \
                < mpf(10) ** -70


def test_nomes_match_hypergeometric_quotient():
    # exp(-(pi/sin pi s) F(1-beta)/F(beta)) with both 2F1 values summed
    # directly by pfq_eval (at 0.1, 0.3, 0.7) or by mpmath's hyp2f1 (next to
    # 0 and 1, where a direct sum at 1 - beta cannot converge), against the
    # cubic AGM, to within 2^-(bits+24) relatively
    with workprec(300):
        tol = mpf(2) ** -290
        a = mpf(1) / 3
        for beta in (mpf("0.1"), mpf("0.3"), mpf("0.7")):
            top = pfq_eval([a, 1 - a], [1], 1 - beta, CTX, tol=tol)
            bot = pfq_eval([a, 1 - a], [1], beta, CTX, tol=tol)
            ref = exp(-2 * pi / sqrt(mpf(3)) * top / bot)
            assert abs(q3_from_beta(beta, CTX) / ref - 1) < mpf(2) ** -280
    for bits in (256, 512):
        ctx = PrecisionCtx(bits=bits)
        for beta in (mpf(10) ** -6, 1 - mpf(10) ** -6):
            with workprec(bits + 96):
                ref = exp(-2 * pi / sqrt(mpf(3))
                          * hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, 1 - beta)
                          / hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, beta))
                assert abs(q3_from_beta(beta, ctx) / ref - 1) < mpf(2) ** -(bits + 24)


def test_q_inversion_domain():
    for beta in (0, 1, -2, 2):
        with pytest.raises(DomainError):
            q3_from_beta(beta, CTX)


def test_theta_involution():
    # phi^4(-q)/phi^4(q) at q = e^(-pi x) and at e^(-pi/x) sum to 1
    with workprec(300):
        for x in (mpf(1) / 2, mpf(1), mpf(2)):
            a = (phi_theta(-exp(-pi * x), CTX) / phi_theta(exp(-pi * x), CTX)) ** 4
            b = (phi_theta(-exp(-pi / x), CTX) / phi_theta(exp(-pi / x), CTX)) ** 4
            assert abs(a + b - 1) < TOL


def test_j3_bertin_value():
    assert j3_from_beta(Fraction(5, 32)) == Fraction(256, 135)
    # and it matches the Bertin curve's invariant exactly
    g2, g3 = Fraction(432), Fraction(-1188)
    assert j3_from_beta(Fraction(5, 32)) == g2 ** 3 / (g2 ** 3 - 27 * g3 ** 2)


def test_j3_pole_structure():
    # (1-b)^3 * j3(b) = (1+8b)^3/(64b) exactly, finite as b -> 1
    for beta in (Fraction(9, 10), Fraction(99, 100), Fraction(999, 1000)):
        assert (1 - beta) ** 3 * j3_from_beta(beta) == (1 + 8 * beta) ** 3 / (64 * beta)
    assert (1 + 8 * Fraction(1)) ** 3 / 64 == Fraction(729, 64)


def test_j_domain_errors():
    for beta in (Fraction(0), Fraction(1)):
        with pytest.raises(DomainError):
            j3_from_beta(beta)


def test_modular_relation_trivia():
    assert modular_relation(Fraction(0), Fraction(0)) == 0
    # symmetry under swapping the arguments
    a, b = Fraction(3, 7), Fraction(2, 11)
    assert modular_relation(a, b) == modular_relation(b, a)


def test_degree2_consistency_random_beta():
    rng = random.Random(9)
    ctx = PrecisionCtx(bits=192)
    with workprec(240):
        for _ in range(4):
            beta = mpf(rng.uniform(0.1, 0.9))
            q = q3_from_beta(beta, ctx)
            for arg in (q ** mpf("0.5"), q ** 2):
                val = 1 - 1 / xq_product(arg, ctx)
                assert abs(modular_relation(val, beta)) < mpf(2) ** -96


def test_cubic_theta_ratio_lost_bits_match_mpf(monkeypatch):
    # the extra bit count lost = ceil(pi^2 |q|/(2 (1-|q|) log 2)) from floats
    # against the mpf ceiling: the values are equal bit for bit at q = 0, on
    # seeded q, and on q whose count sits within about 2^-50 of an integer
    # n, where mpf decides
    rng = random.Random(43)
    for bits in (64, 256, 1024):
        ctx = PrecisionCtx(bits=bits)
        with ctx.workprec():
            unit = 2 * log(2) / pi ** 2  # |q|/(1-|q|) = n unit gives n bits
            qs = [mpf(0)] + [mpf(rng.uniform(-0.95, 0.95)) for _ in range(6)] \
                + [n * unit / (1 + n * unit)
                   * (1 + rng.choice((-1, 1)) * mpf(2) ** -50)
                   for n in (1, 2, 7, 30)]
        runs = []
        for _ in range(2):
            cubic_theta_ratio.cache_clear()
            runs.append([cubic_theta_ratio(q, ctx)._mpf_ for q in qs])
            monkeypatch.setattr(modular_module, "float_ceil",
                                lambda x, exact: exact())
        monkeypatch.undo()
        assert runs[0] == runs[1], bits
    cubic_theta_ratio.cache_clear()
