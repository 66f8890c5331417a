"""Special-function kernel: values against independent oracles, functional
equations on random points, domain errors."""

import random
import sys
import threading
from fractions import Fraction
from math import factorial

import pytest
from mpmath import (arg, asin, bernfrac, catalan, cbrt, clsin, ellipk, exp,
                    expjpi, gamma, hyp2f1, hyper, im, log, mp, mpc, mpf, pi,
                    polylog, quad, re, sin, sqrt, workprec)

from wzmahler import (ConvergenceError, DivergentSeriesError, DomainError,
                      PoleError, PrecisionCtx, agm, bloch_wigner, gamma_real,
                      zeta_int)
from wzmahler.context import to_mpf
from wzmahler.fixedpoint import (_TIE, float_ceil, log2, log_near_one,
                                 stop_index)
from wzmahler.numkernel import (_KERNEL, GUARD_D, LAMBDA_SWITCH,
                                _connection_integral, _tangent_numbers, agm3,
                                lambda_series, root_of_unity)
from wzmahler.series import GUARD, TermCounter, count_terms, tol_bits

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
        # reflection on non-integer x in (0, 1): below 1/2 this is the
        # kernel's own route, so only test_gamma_matches_mpmath checks it
        for _ in range(40):
            x = mpf(rng.uniform(0.02, 0.98))
            lhs = gamma_real(x, CTX) * gamma_real(1 - x, CTX)
            assert abs(lhs - pi / sin(pi * x)) < TOL * abs(lhs)


def test_gamma_matches_mpmath():
    # mpmath's gamma as the oracle, 64 bits above the working precision
    # W = bits + 32: every branch is within the docstring's 5/4 units of
    # 2^-W relative, and a positive integer gives its factorial exactly
    for bits in (64, 256, 512, 1024):
        ctx, big_w = PrecisionCtx(bits=bits), bits + 32
        with workprec(big_w):
            h = mpf(2) ** -40
            points = [mpf("1e-30"), mpf(1) / 4, mpf(1) / 3, mpf(1) / 2,
                      mpf(5) / 6, 1 + h, mpf("2.5"), mpf("7.3"), mpf("150.3"),
                      mpf(10) ** 6 + mpf(1) / 2, mpf("-2.5"), -3 + h]
        for x in points:
            with workprec(big_w + 64):
                ref = gamma(x)
                bound = mpf(5) / 4 * 2 ** -big_w * abs(ref)
                assert abs(gamma_real(x, ctx) - ref) <= bound
        for n in range(1, 26):
            assert gamma_real(n, ctx) == factorial(n - 1)


def test_gamma_budget():
    # K is the least with |B_(2K+2)|/((2K+2)(2K+1)) z0^-(2K+1) below
    # 2^-(W + 8), z0 = W//4; max_terms = K is enough, and an integer sums
    # no series
    for bits, terms in ((256, 36), (512, 66)):
        big_w = bits + 32
        k = 1
        while abs(Fraction(*bernfrac(2 * k + 2))) * 2 ** (big_w + 8) \
                >= (2 * k + 2) * (2 * k + 1) * (big_w // 4) ** (2 * k + 1):
            k += 1
        assert k == terms
        x = mpf("2.5")
        ref = gamma_real(x, PrecisionCtx(bits=bits))
        assert gamma_real(x, PrecisionCtx(bits=bits, max_terms=k)) == ref
        with pytest.raises(ConvergenceError, match="Stirling"):
            gamma_real(x, PrecisionCtx(bits=bits, max_terms=k - 1))
    tiny = PrecisionCtx(max_terms=1)
    for x in (mpf("0.25"), mpf("7.3"), mpf("-2.5")):
        with pytest.raises(ConvergenceError):
            gamma_real(x, tiny)
    with TermCounter() as counter:
        assert gamma_real(5, tiny) == 24
        gamma_real(mpf("7.3"), CTX)
    assert counter.count == 0


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
                got = 0 if c * r / (1 - r) < eps else stop_index(
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


def test_stop_index_matches_stepped_tail_at_every_precision():
    # seeded (r, c, eps) at 64..1024 bits, first = 1 and first = 0, against
    # the stepped tail; the second half of the cases put c r^(k+1)/(1-r)
    # at eps (1 +- 2^-60), a margin of 1e-18 bit that floats cannot see,
    # so the mpf comparisons decide there
    rng = random.Random(3217)
    ties = 0
    for bits in (64, 128, 256, 512, 1024):
        ctx = PrecisionCtx(bits=bits)
        eps = mpf(2) ** -(bits + GUARD_D)
        for i in range(80):
            with ctx.workprec(32):
                r = mpf(rng.uniform(0.001, 0.9)) if i % 3 else \
                    mpf(10) ** -rng.uniform(1, 30)
                if i < 40:
                    c = mpf(10) ** rng.uniform(-3, 6)
                    want = None
                else:
                    k, side = rng.randint(1, 60), rng.choice((-1, 1))
                    with workprec(bits + 200):
                        c = eps * (1 + side * mpf(2) ** -60) * (1 - r) \
                            / r ** (k + 1)
                    c = +c
                    want = k + (side > 0)
                    margin = log2(c) + (k + 1) * log2(r) - log2(1 - r) \
                        - log2(eps)
                    assert abs(margin) < _TIE
                    ties += 1
                stepped = _stepped_terms(r, c, eps)
                assert want is None or stepped == want, (bits, i)
                assert stop_index(r, c, eps, ctx.max_terms, "x", first=0) \
                    == stepped, (bits, i)
                assert stop_index(r, c, eps, ctx.max_terms, "x") \
                    == max(1, stepped), (bits, i)
                if stepped >= 2:
                    with pytest.raises(ConvergenceError, match="budget"):
                        stop_index(r, c, eps, stepped - 1, "budget")
    assert ties == 200
    # r within 2^-900 of 1, where log2 r is no float: mpf decides alone
    with workprec(1100):
        r = 1 - mpf(2) ** -1000
        assert stop_index(r, mpf(2) ** -3000, mpf(2) ** -1000, 10, "x",
                           first=0) == 0
        with pytest.raises(ConvergenceError, match="budget"):
            stop_index(r, mpf(1), mpf(2) ** -1000, 10 ** 9, "budget")


def test_float_log2_and_ceil():
    # log2 from the exponent and leading bits: no underflow at huge
    # exponents, full relative accuracy next to 1 (via log1p of x - 1)
    with workprec(2000):
        for x, want in ((mpf(2) ** -5000, -5000.0), (mpf(2) ** 7000, 7000.0),
                        (mpf(3) * mpf(2) ** -3000, -3000 + 1.584962500721156),
                        (mpf(3) ** 1200, 1200 * 1.584962500721156)):
            assert abs(log2(x) - want) <= 1e-12 * abs(want)
        for d in (mpf(2) ** -1000, -mpf(2) ** -900, mpf(10) ** -20,
                  mpf("0.3"), -mpf("0.45")):
            ref = log(1 + d, 2)
            assert abs(log2(1 + d) / ref - 1) < 2 ** -48, d
        assert log2(mpf(1)) == 0
    # float_ceil: the float's ceiling away from integers, exact() near them
    assert float_ceil(2.5, None) == 3 and float_ceil(-2.5, None) == -2
    for x in (3.0, 3 + 1e-8, 3 - 1e-8, 2.0 ** 41):
        assert float_ceil(x, lambda: "mpf") == "mpf"


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


@pytest.mark.parametrize("bits", [64, 256, 512, 1024])
def test_agm_relative_error_against_mpmath(bits):
    # agm(a, a x) on 300 seeded a in (10^-10, 10^10) and ratios x from
    # 10^-40 to 1 against mpmath's agm at bits + 120, to relative
    # 2^-(bits+24); the mean is symmetric bit for bit and agm(a, a) = a
    rng = random.Random(bits)
    ctx = PrecisionCtx(bits=bits)
    for _ in range(300):
        with ctx.workprec():
            a = mpf(rng.uniform(1, 10)) * mpf(10) ** rng.randint(-10, 10)
            b = a * (mpf(10) ** -rng.uniform(0, 40) if rng.random() < 0.8
                     else mpf(rng.uniform(0.001, 1)))
        with workprec(bits + 120):
            ref = mp.agm(a, b)
            val = agm(a, b, ctx)
            assert abs(val / ref - 1) < mpf(2) ** -(bits + 24)
        assert agm(b, a, ctx) == val
        assert agm(a, a, ctx) == a and agm(b, b, ctx) == b


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


@pytest.mark.parametrize("bits", [64, 256, 512, 1024])
def test_agm3_relative_error_against_hyp2f1(bits):
    # agm3(1, b) = 1/2F1(1/3, 2/3; 1; 1 - b^3) on 12 seeded b from 10^-13
    # to 10^13, so 1 - x from 10^-40 to 10^40, and on 4 with 0 < x < 0.7,
    # against mpmath's hyp2f1 at bits + 192 + 3.33 log10(1/y), y = 1 - x,
    # where the rounding of x costs under 2^-(bits+180) relative, to
    # relative 2^-(bits+24); agm3(b, b) = b.  Above 256 bits b stays at or
    # above 1: near x = 1 (c = a + b, its degenerate case) mpmath's hyp2f1
    # takes seconds on its first call at 512 bits and more
    rng = random.Random(bits)
    ctx = PrecisionCtx(bits=bits)
    exponents = [rng.uniform(-40, 40 if bits <= 256 else 0) for _ in range(12)] \
        + [-log(rng.uniform(0.3, 1), 10) for _ in range(4)]
    for k in exponents:
        with ctx.workprec():
            b = cbrt(mpf(10) ** -k)
        with workprec(bits + 192 + int(3.33 * max(k, 0))):
            ref = 1 / hyp2f1(mpf(1) / 3, mpf(2) / 3, 1, 1 - b ** 3)
            val = agm3(1, b, ctx)
            assert abs(val / ref - 1) < mpf(2) ** -(bits + 24), k
        assert agm3(b, b, ctx) == b


def test_root_of_unity_twelfths_exact():
    # e^(2 pi i k/12) has its rational parts exact and sqrt(3)/2 rounded
    # once; it and any other a lie within a few ulps of mpmath's
    # expjpi(2a), whose argument 2a is rounded.  i, e^(i pi/3) and
    # e^(2 pi i/3) are the values the lattice sums have always taken
    with workprec(200):
        half_root3 = sqrt(3) / 2
        assert root_of_unity(Fraction(1, 4)) == mpc(0, 1)
        assert root_of_unity(Fraction(1, 6)) == mpc(1, sqrt(3)) / 2
        assert root_of_unity(Fraction(1, 3)) == mpc(-1, sqrt(3)) / 2
        assert root_of_unity(Fraction(-5, 12)) == mpc(-half_root3, -0.5)
        for k in range(-12, 25):
            z = root_of_unity(Fraction(k, 12))
            assert abs(z - expjpi(mpf(k) / 6)) < mpf(2) ** -196, k
            assert all(abs(v) in (0, 0.5, 1, half_root3)
                       for v in (z.real, z.imag))
        for a in (Fraction(1, 5), Fraction(-3, 7)):
            assert abs(root_of_unity(a) - expjpi(2 * to_mpf(a))) \
                < mpf(2) ** -196


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


@pytest.mark.parametrize("bits", (64, 128, 256, 512, 1024))
def test_lambda_at_one_against_catalan_and_clausen(bits):
    # Lambda_{1/2}(1) = 4 log 2 - 8G/pi and Lambda_{1/3}(1) = 3 log 3 -
    # 9 Cl2(pi/3)/pi, by mpmath's catalan and clsin: D(z0) is taken at the
    # caller's bits, so within (w/pi) 2^-(bits + GUARD_D) and a rounding
    ctx = PrecisionCtx(bits=bits)
    with workprec(bits + 200):
        refs = {Fraction(1, 2): 4 * log(2) - 8 * catalan / pi,
                Fraction(1, 3): 3 * log(3) - 9 * clsin(2, pi / 3) / pi}
        for s, ref in refs.items():
            w = _KERNEL[s][2]
            got = lambda_series(s, 1, ctx)
            assert abs(got - ref) < (w / pi + mpf(2) ** -40) * mpf(2) ** -(bits + GUARD_D)
        # a tolerance the caller's bits cannot hold raises D's precision: at
        # 64 bits, Lambda_s(1) for tol 1e-42 is within tol/8 and a rounding
        if bits == 64:
            for s, ref in refs.items():
                got = lambda_series(s, 1, ctx, tol=mpf(10) ** -42)
                assert abs(got - ref) < mpf(10) ** -42 / 8 + mpf(2) ** -150


def test_log_near_one_against_mpmath():
    # log n in fixed point for n within 2^-(prec//3) of 1, on both sides of
    # 1 and at 1 itself; None elsewhere, so mpmath's log takes those
    rng = random.Random(11)
    for prec in (96, 160, 288, 576, 1088):
        with workprec(prec):
            points = [mpf(1), mpf(1) + mpf(2) ** -prec, mpf(1) - mpf(2) ** -prec]
            for _ in range(40):
                e = rng.randrange(prec // 3 + 1, prec + 1)
                points.append(1 + rng.choice((-1, 1)) * rng.random() * mpf(2) ** -e)
            for n in points:
                with workprec(3 * prec):
                    ref = log(n) * mpf(2) ** prec
                assert abs(log_near_one(n, prec) - ref) < 2
            for n in (1 + mpf(2) ** -(prec // 3 - 1), 1 - mpf(2) ** -(prec // 3 - 1),
                      mpf(2), mpf("0.25")):
                assert log_near_one(n, prec) is None


def test_lambda_series_small_z_and_domain():
    with workprec(300):
        assert lambda_series(Fraction(1, 2), 0, CTX) == 0
        z = mpf(10) ** -6
        # leading term s(1-s) z
        assert abs(lambda_series(Fraction(1, 3), z, CTX) - 2 * z / 9) < z * z
    for s in (Fraction(1, 4), 0, "x"):
        with pytest.raises(DomainError):
            lambda_series(s, mpf("0.5"), CTX)
    for z in (mpf(-1), mpf(2)):
        with pytest.raises(DivergentSeriesError):
            lambda_series(Fraction(1, 3), z, CTX)


def test_lambda_series_past_one_against_integral():
    # for 1 < z < 2 the kernel is the real part of the continued integral,
    # Lambda_s(1) + int_1^z (Re F_s(t) - 1)/t dt: Lambda_s(1) by mpmath's
    # catalan and clsin, the integral by its tanh-sinh quadrature of
    # mpmath's Re F_s, hyp2f1 for s = 1/3 and 2 K(t)/pi by ellipk for
    # s = 1/2, where hyp2f1 takes a slow route for its equal parameters.
    # Termwise, Lambda_s(z) = s(1-s) z 4F3(s+1, 2-s, 1, 1; 2, 2, 2; z), and
    # mpmath's hyper continues that past 1 itself, in a tenth of the
    # quadrature's time: it is the oracle for s = 1/3 from z = 1.2 on
    with workprec(200):
        third = mpf(1) / 3
        oracles = {
            Fraction(1, 3): (3 * log(3) - 9 * clsin(2, pi / 3) / pi,
                             lambda t: re(hyp2f1(third, 1 - third, 1, t))),
            Fraction(1, 2): (4 * log(2) - 8 * catalan / pi,
                             lambda t: 2 * re(ellipk(t)) / pi)}
        for s, (at_one, f) in oracles.items():
            for z in ("1.01", "1.2", "1.35", "1.6", "1.9"):
                z = mpf(z)
                if s == Fraction(1, 3) and z > mpf("1.01"):
                    ref = re(third * (1 - third) * z
                             * hyper([1 + third, 2 - third, 1, 1], [2, 2, 2], z))
                else:
                    ref = at_one + quad(lambda t: (f(t) - 1) / t, [1, z])
                got = lambda_series(s, z, CTX, tol=mpf(10) ** -50)
                assert abs(got - ref) < mpf(10) ** -49, (s, z)


def _c_h_terms(s):
    """(c_n, h_n) in mpf arithmetic: the term-by-term reference."""
    p, exp_h0, _ = _KERNEL[s]
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
    logw = log(abs(w))
    big_l = 1 - logw
    a, b, total, wpow, tail = -mpf(1), mpf(0), mpf(0), mpf(1), 1 / (1 - abs(w))
    for m, (c, h) in enumerate(_c_h_terms(s)):
        kc = kappa * c
        a += kc * h
        b += kc
        wpow *= w
        total += wpow / (m + 1) * (a - b * (logw - mpf(1) / (m + 1)))
        bound = ((abs(a) + b * big_l) / (m + 2) + kc * (h + big_l)) \
            * abs(wpow * w) * tail
        if bound < tol:
            count_terms(m + 1)
            return total


def test_connection_expansion_matches_mpf_loop():
    # the integer loop against the mpf loop run 64 bits higher (at equal
    # precision the mpf loop's own rounding reaches 1.7 units of 2^-prec):
    # within one unit of 2^-prec, after the same number of terms, at tols
    # of 2^-(bits + 32) and below, at which the loop keeps the working
    # precision's width; negative w, z = 1 - w past 1, alternates the
    # powers and keeps log|w|
    for bits in (64, 256, 512):
        ctx = PrecisionCtx(bits=bits)
        for s in KERNEL_S:
            for w in (mpf("0.35"), mpf("0.2"), mpf("0.05"), mpf("1e-3"),
                      mpf(2) ** -40, -mpf(2) ** -40, mpf("-0.35"),
                      mpf("-0.9")):
                for tol in (mpf(2) ** -(bits + 32), mpf(2) ** -(bits + 64)):
                    with ctx.workprec(64):
                        with TermCounter() as got:
                            val = _connection_integral(s, w, tol, ctx.max_terms)
                        prec = mp.prec
                        with workprec(prec + 64), TermCounter() as want:
                            ref = _connection_integral_mpf(s, w, tol)
                        assert abs(val - ref) <= mpf(2) ** -prec, (bits, s, w)
                    assert got.count == want.count > 0, (bits, s, w)


def test_connection_expansion_width_follows_tol():
    # at tol 1e-42 the loop is W = tol_bits(tol) = 205 bits wide, under the
    # working precision from 256 bits up: its value is the same integer at
    # 256, 512 and 1024 bits (w dyadic, so equal at each), and within 2^-W,
    # under tol/2^64, of the mpf loop run at W + 64 bits
    tol = mpf(10) ** -42
    for s in KERNEL_S:
        for w in (Fraction(3, 8), Fraction(13, 64), Fraction(1, 2 ** 40),
                  Fraction(-1, 2 ** 40), Fraction(-3, 8), Fraction(-7, 8)):
            vals = set()
            for bits in (256, 512, 1024):
                ctx = PrecisionCtx(bits=bits)
                with ctx.workprec(64):
                    width = tol_bits(tol)
                    assert width == 141 + GUARD < mp.prec
                    with TermCounter() as got:
                        vals.add(_connection_integral(s, to_mpf(w), tol,
                                                      ctx.max_terms))
            assert len(vals) == 1, (s, w)
            with workprec(width + 64), TermCounter() as want:
                ref = _connection_integral_mpf(s, to_mpf(w), tol)
                assert abs(vals.pop() - ref) <= mpf(2) ** -width, (s, w)
            assert got.count == want.count > 0, (s, w)
