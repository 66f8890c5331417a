"""Special-function kernel: values against independent oracles, functional
equations on random points, domain errors."""

import random
import sys
import threading
from fractions import Fraction

import pytest
from mpmath import (arg, asin, bernfrac, catalan, cbrt, clsin, exp, hyp2f1,
                    hyper, im, log, mp, mpc, mpf, pi, polylog, sin, sqrt,
                    workprec)

from wzmahler import (ConvergenceError, DivergentSeriesError, DomainError,
                      PoleError, PrecisionCtx, agm, bloch_wigner, gamma_real,
                      zeta_int)
from wzmahler.context import to_mpf
from wzmahler.numkernel import (_KERNEL, GUARD_D, LAMBDA_SWITCH,
                                _connection_integral, _stop_index,
                                _tangent_numbers, agm3, lambda_series)
from wzmahler.series import TermCounter, count_terms

CTX = PrecisionCtx(bits=256)
TOL = mpf(2) ** -200


def test_gamma_classical_values():
    with workprec(300):
        assert abs(gamma_real(mpf(1) / 2, CTX) ** 2 - pi) < TOL
        assert gamma_real(5, CTX) == 24
        # pi G(x)G(x+1)/G(x+1/2)^2 at x = 1/2 equals pi^2/2:
        # G(1/2) = sqrt(pi), G(3/2) = sqrt(pi)/2, G(1) = 1
        x = mpf(1) / 2
        combo = pi * gamma_real(x, CTX) * gamma_real(x + 1, CTX) / gamma_real(x + mpf(1) / 2, CTX) ** 2
        assert abs(combo - pi ** 2 / 2) < TOL


def test_gamma_poles():
    for x in (0, -1, -7):
        with pytest.raises(PoleError):
            gamma_real(x, CTX)


def test_gamma_recurrence_and_reflection():
    rng = random.Random(11)
    with workprec(300):
        for _ in range(40):
            x = mpf(rng.uniform(0.05, 6.0))
            assert abs(gamma_real(x + 1, CTX) - x * gamma_real(x, CTX)) \
                < TOL * gamma_real(x + 1, CTX)
        # reflection on non-integer x in (0, 1)
        for _ in range(40):
            x = mpf(rng.uniform(0.02, 0.98))
            lhs = gamma_real(x, CTX) * gamma_real(1 - x, CTX)
            assert abs(lhs - pi / sin(pi * x)) < TOL * abs(lhs)


def test_bloch_wigner_matches_polylog():
    # the 100 random points, and points on both sides of |z| = 1 and of
    # Re z = 1/2 (where the symmetries change which z is summed), near 0,
    # near infinity and next to z = 1
    rng = random.Random(5)
    points = [mpc(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(100)]
    h = mpf(2) ** -40
    for y in ("0.3", "0.8660254", "2"):
        points += [mpc(mpf("0.5") - h, y), mpc(mpf("0.5") + h, y)]
    for t in ("0.5", "1.1", "2.5"):
        u = exp(mpc(0, t))
        points += [(1 - h) * u, u, (1 + h) * u]
    points += [mpc(3, 4) * mpf(10) ** -31, mpc(-3, 4) * mpf(10) ** 29,
               mpc(1, mpf(10) ** -30), mpc(mpf(10) ** -30, mpf(10) ** 30)]
    # D = Im Li2(z) + arg(1-z) log|z| by mpmath's polylog, an independent
    # route, once at 552 bits for both precisions
    with workprec(552):
        refs = [im(polylog(2, z)) + arg(1 - z) * log(abs(z)) for z in points]
        for bits in (64, 256, 512):
            ctx = PrecisionCtx(bits=bits)
            worst = max(abs(bloch_wigner(z, ctx) - ref)
                        for z, ref in zip(points, refs))
            assert worst < mpf(2) ** -(bits + 20)


def test_bloch_wigner_clausen():
    # D(e^(i theta)) = Cl2(theta); at theta = pi/3 it is the maximum of D
    for bits in (256, 512):
        with workprec(bits + 96):
            d = bloch_wigner(exp(pi * mpc(0, 1) / 3), PrecisionCtx(bits=bits))
            assert abs(d - clsin(2, pi / 3)) < mpf(2) ** -(bits + 20)


def test_bloch_wigner_catalan():
    # oracle: D(i) = Im sum i^n/n^2 = sum_{m>=0} (-1)^m/(2m+1)^2
    with workprec(300):
        acc = mpf(0)
        for m in range(200):
            acc += mpf(-1) ** m / (2 * m + 1) ** 2
        # alternating series: error below first omitted term
        val = bloch_wigner(mpc(0, 1), CTX)
        assert abs(val - acc) < mpf(1) / 401 ** 2
        assert abs(val - catalan) < TOL


def test_bloch_wigner_budget_counts_terms():
    # the series sums the K terms B_2 .. B_2K, K the least with
    # 2.3 |w| r^(K+1)/(1-r) < 2^-(bits + 24); max_terms = K is enough
    i, rho = mpc(0, 1), exp(pi * mpc(0, 1) / 3)
    for bits, z, terms in ((256, i, 48), (256, rho, 54), (512, i, 93),
                           (512, rho, 103)):
        with workprec(bits + 64):
            w = abs(log(1 - z))
            r = (w / (2 * pi)) ** 2
            k = 0
            while 2.3 * w * r ** (k + 1) / (1 - r) >= mpf(2) ** -(bits + GUARD_D):
                k += 1
        assert k == terms
        ref = bloch_wigner(z, PrecisionCtx(bits=bits))
        assert bloch_wigner(z, PrecisionCtx(bits=bits, max_terms=k)) == ref
        with pytest.raises(ConvergenceError, match="Bloch-Wigner"):
            bloch_wigner(z, PrecisionCtx(bits=bits, max_terms=k - 1))


def _stepped_terms(r, c, eps):
    """D's term count as it was found before the log estimate: the least
    K >= 0 with c r^(K+1)/(1-r) < eps, stepping the tail bound once per
    term."""
    big_k, tail = 0, c * r / (1 - r)
    while tail >= eps:
        big_k, tail = big_k + 1, tail * r
    return big_k


def test_bloch_wigner_stop_index_matches_stepped_tail():
    # seeded z in D's reduced domain |z| <= 1, Re z <= 1/2, from |z| ~
    # 10^-(bits/4) (K = 0) to the corner e^(i pi/3): the log estimate
    # corrected by comparisons gives the stepped loop's K, and D's budget is
    # exactly K
    rng = random.Random(1907)
    for bits in (64, 256, 512):
        ctx = PrecisionCtx(bits=bits)
        seen = set()
        for _ in range(60):
            with ctx.workprec(32):
                while True:
                    z = mpf(10) ** -rng.uniform(0, bits // 4) * exp(
                        mpc(0, rng.uniform(-pi, pi)))
                    if z.real <= 0.5 and z.imag != 0:
                        break
                eps = mpf(2) ** (-(bits + GUARD_D))
                w = abs(log(1 - z))
                r, c = (w / (2 * pi)) ** 2, 2.3 * w
                want = _stepped_terms(r, c, eps)
                got = 0 if c * r / (1 - r) < eps else _stop_index(
                    r, c, eps, ctx.max_terms, "D")
            assert got == want, (bits, z)
            seen.add(min(want, 2))
            if want >= 2:
                ref = bloch_wigner(z, ctx)
                tight = PrecisionCtx(bits=bits, max_terms=want)
                assert bloch_wigner(z, tight) == ref
                with pytest.raises(ConvergenceError, match="Bloch-Wigner"):
                    bloch_wigner(z, PrecisionCtx(bits=bits, max_terms=want - 1))
        assert seen == {0, 1, 2}, bits


def _is_bernoulli(k, t):
    """B_2k = (-1)^(k-1) 2k T_k/(4^k (4^k - 1)) for t = T_k, against
    mpmath's own rational B_2k."""
    p, q = bernfrac(2 * k)
    return Fraction((-1) ** (k - 1) * 2 * k * t, 4 ** k * (4 ** k - 1)) \
        == Fraction(int(p), int(q))


def test_tangent_table_gives_exact_bernoulli_numbers():
    # B_2 .. B_400
    table = list(_tangent_numbers(200)[:200])
    for k, t in enumerate(table, 1):
        assert _is_bernoulli(k, t), k
    # a smaller request after a larger one reads the same table
    small = _tangent_numbers(10)
    assert len(small) >= 200 and small[:200] == table
    assert table[:5] == [1, 2, 16, 272, 7936]


def test_tangent_table_grows_once_under_threads():
    # eight threads extend the table at once, switching every microsecond;
    # a lost or doubled update would put a wrong T_k in the table
    n = len(_tangent_numbers(1)) + 40
    start = threading.Barrier(8)

    def extend(m):
        start.wait(timeout=60)
        _tangent_numbers(m)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=extend, args=(n - i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    table = _tangent_numbers(n)
    assert len(table) == n
    for k in range(n - 40, n + 1):
        assert _is_bernoulli(k, table[k - 1]), k


def test_bloch_wigner_vanishes_on_reals():
    for x in (mpf("0.7"), mpf(-3), mpf(2), mpf(0), mpf(1)):
        assert bloch_wigner(x, CTX) == 0
    assert bloch_wigner(mpc(5, 0), CTX) == 0


def test_bloch_wigner_conjugation():
    rng = random.Random(3)
    with workprec(300):
        for _ in range(30):
            z = mpc(rng.uniform(-2, 2), rng.uniform(0.01, 2))
            assert abs(bloch_wigner(z.conjugate(), CTX) + bloch_wigner(z, CTX)) < TOL


def test_agm_basic():
    with workprec(300):
        x = mpf("1.7")
        assert abs(agm(x, x, CTX) - x) < TOL
        # one-step invariance
        assert abs(agm(1, 2, CTX) - agm(mpf(3) / 2, sqrt(mpf(2)), CTX)) < TOL


def test_agm_oracle_doubled_precision():
    with workprec(600):
        a, b = mpf(1), sqrt(mpf(2))
        eps = mpf(2) ** -520
        while abs(a - b) > eps * a:
            a, b = (a + b) / 2, sqrt(a * b)
        oracle = a
    with workprec(300):
        val = agm(1, sqrt(mpf(2)), CTX)
        assert abs(val - oracle) < TOL
        assert mp.nstr(val, 9) == "1.19814023"


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_agm_relative_error_against_mpmath(bits):
    # agm(1, x) on 300 random x in (0.001, 1) against mpmath's agm at
    # bits + 120, to relative 2^-(bits+24)
    rng = random.Random(bits)
    ctx = PrecisionCtx(bits=bits)
    with workprec(bits + 120):
        for _ in range(300):
            x = mpf(rng.uniform(0.001, 1))
            ref = mp.agm(1, x)
            assert abs(agm(1, x, ctx) / ref - 1) < mpf(2) ** -(bits + 24)


def test_agm_domain():
    for a, b in ((0, 1), (-1, 2), (1, 0)):
        for mean in (agm, agm3):
            with pytest.raises(DomainError):
                mean(a, b, CTX)


def test_agm3_is_the_cubic_hypergeometric_function():
    # 2F1(1/3, 2/3; 1; x) = 1/agm3(1, (1-x)^(1/3)), and agm3(x, x) = x
    with workprec(300):
        assert abs(agm3(mpf("1.7"), mpf("1.7"), CTX) - mpf("1.7")) < TOL
        for x in (mpf("0.01"), mpf("0.5"), mpf("0.99")):
            ref = hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, x)
            assert abs(1 / agm3(1, cbrt(1 - x), CTX) / ref - 1) < TOL


def test_zeta_values_and_oracle():
    with workprec(300):
        assert abs(zeta_int(2, CTX) - pi ** 2 / 6) < TOL
        # low-precision oracle: direct sum with integral tail bound
        direct = sum(mpf(1) / n ** 3 for n in range(1, 4001))
        tail_hi = mpf(1) / (2 * 4000 ** 2)  # int_{4000}^inf dx/x^3
        assert abs(zeta_int(3, CTX) - direct) < tail_hi
    with pytest.raises(DomainError):
        zeta_int(1, CTX)


def test_round_trips():
    rng = random.Random(17)
    with workprec(300):
        for _ in range(60):
            x = mpf(rng.uniform(-20, 20))
            assert abs(log(exp(x)) - x) < TOL * (1 + abs(x))
            y = mpf(rng.uniform(-0.999, 0.999))
            assert abs(sin(asin(y)) - y) < TOL


KERNEL_S = (Fraction(1, 3), Fraction(1, 2))


def _lambda_direct(s, z, eps):
    """sum_{n>=1} (s)_n (1-s)_n/n!^2 z^n/n term by term from the Pochhammer
    ratio (n+s)(n+1-s)/(n+1)^2, until the geometric tail is below eps."""
    s = mpf(s.numerator) / s.denominator
    c, total, n = mpf(1), mpf(0), 0
    while True:
        c = c * (n + s) * (n + 1 - s) / (n + 1) ** 2 * z
        n += 1
        total += c / n
        if abs(c * z) / (1 - abs(z)) < eps:
            return total


def test_lambda_series_against_direct_sum():
    # both routes: z = 0.3, 0.5 (and -0.7) below the switch point, 0.7, 0.9
    # above it
    with workprec(300):
        for s in KERNEL_S:
            for z in ("0.3", "0.5", "0.7", "0.9", "-0.7"):
                z = mpf(z)
                with workprec(400):
                    ref = _lambda_direct(s, z, mpf(10) ** -60)
                got = lambda_series(s, z, CTX, tol=mpf(10) ** -48)
                assert abs(got - ref) < mpf(10) ** -45


def test_lambda_series_continuous_at_switch():
    # just below the switch point the series is summed directly, at it the
    # connection expansion takes over; both agree with the direct oracle
    with workprec(300):
        delta = mpf(2) ** -200
        for s in KERNEL_S:
            below = lambda_series(s, LAMBDA_SWITCH - delta, CTX, tol=mpf(10) ** -50)
            at = lambda_series(s, LAMBDA_SWITCH, CTX, tol=mpf(10) ** -50)
            assert abs(at - below) < mpf(10) ** -48
            with workprec(400):
                ref = _lambda_direct(s, LAMBDA_SWITCH, mpf(10) ** -60)
            assert abs(at - ref) < mpf(10) ** -48


def test_lambda_series_at_one_against_hyper():
    # Lambda_s(1) = s(1-s) 4F3(1,1,1+s,2-s; 2,2,2; 1), mpmath's own route;
    # the kernel takes it from h_0 - w D(z0)/pi
    ctx = PrecisionCtx(bits=300)
    with workprec(340):
        for s in KERNEL_S:
            sm = mpf(s.numerator) / s.denominator
            ref = sm * (1 - sm) * hyper([1, 1, 1 + sm, 2 - sm], [2, 2, 2], 1)
            assert abs(lambda_series(s, 1, ctx) - ref) < mpf(2) ** -290


def test_lambda_series_small_z_and_domain():
    with workprec(300):
        assert lambda_series(Fraction(1, 2), 0, CTX) == 0
        z = mpf(10) ** -6
        # leading term s(1-s) z
        assert abs(lambda_series(Fraction(1, 3), z, CTX) - 2 * z / 9) < z * z
    for s in (Fraction(1, 4), 0, "x"):
        with pytest.raises(DomainError):
            lambda_series(s, mpf("0.5"), CTX)
    for z in (mpf("1.01"), mpf(-1), mpf(2)):
        with pytest.raises(DivergentSeriesError):
            lambda_series(Fraction(1, 3), z, CTX)


def _c_h_terms(s):
    """(c_n, h_n) in mpf arithmetic: the term-by-term reference."""
    p, exp_h0, _, _ = _KERNEL[s]
    p = to_mpf(p)
    c, h = mpf(1), log(exp_h0)
    n = 0
    while True:
        yield c, h
        d = n * (n + 1) + p
        c = c * d / (n + 1) ** 2
        h = h - (n + 1 - 2 * p) / ((n + 1) * d)
        n += 1


def _connection_integral_mpf(s, w, tol):
    """The connection expansion summed term by term in mpf arithmetic, with
    the same tail bound and stopping rule as the integer loop."""
    kappa = sin(pi * to_mpf(s)) / pi
    logw = log(w)
    big_l = 1 - logw
    a, b, total, wpow, tail = -mpf(1), mpf(0), mpf(0), mpf(1), 1 / (1 - w)
    for m, (c, h) in enumerate(_c_h_terms(s)):
        kc = kappa * c
        a += kc * h
        b += kc
        wpow *= w
        total += wpow / (m + 1) * (a - b * (logw - mpf(1) / (m + 1)))
        bound = ((abs(a) + b * big_l) / (m + 2) + kc * (h + big_l)) \
            * wpow * w * tail
        if bound < tol:
            count_terms(m + 1)
            return total


def test_connection_expansion_matches_mpf_loop():
    # the integer loop against the mpf loop run 64 bits higher (at equal
    # precision the mpf loop's own rounding reaches 1.7 units of 2^-prec):
    # within one unit of 2^-prec, after the same number of terms
    for bits in (64, 256, 512):
        ctx = PrecisionCtx(bits=bits)
        for s in KERNEL_S:
            for w in (mpf("0.35"), mpf("0.2"), mpf("0.05"), mpf("1e-3"),
                      mpf(2) ** -40):
                for tol in (mpf(10) ** -42, mpf(2) ** -(bits + 8)):
                    with ctx.workprec(64):
                        with TermCounter() as got:
                            val = _connection_integral(s, w, tol, ctx.max_terms)
                        prec = mp.prec
                        with workprec(prec + 64), TermCounter() as want:
                            ref = _connection_integral_mpf(s, w, tol)
                        assert abs(val - ref) <= mpf(2) ** -prec, (bits, s, w)
                    assert got.count == want.count > 0, (bits, s, w)
