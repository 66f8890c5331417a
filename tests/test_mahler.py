"""Mahler-measure evaluators: series branches, quadrature oracles, and the
relations between special values."""

import itertools
import random

import pytest
from mpmath import (acosh, cbrt, cos, expjpi, frexp, ldexp, log, mp, mpc,
                    mpf, pi, polyroots, psi, quad, sqrt, workprec)

from wzmahler import (ConvergenceError, DivergentSeriesError, DomainError,
                      PrecisionCtx, QuadratureBudgetError,
                      SlowConvergenceWarning)
from wzmahler import mahler
from wzmahler.mahler import (m_quadrature, m_series, n_quadrature, n_series,
                             rv_series, s_ratio, _cubic_root_mags,
                             _gap_below_four, _n_breakpoints, _n_integrand)
from wzmahler.series import TermCounter

CTX = PrecisionCtx(bits=256)


def _bertin_alphas():
    s5 = sqrt(mpf(5))
    return (7 + s5) / cbrt(mpf(4)), (7 - s5) / cbrt(mpf(4)), cbrt(mpf(32))


def _smyth():
    """n(0) = m(1 + x + y) = 3 sqrt3/(4 pi) L(chi_-3, 2)."""
    return 3 * sqrt(3) / (4 * pi) * (psi(1, mpf(1) / 3) - psi(1, mpf(2) / 3)) / 9


def test_branch_agreement_at_four():
    import warnings
    with workprec(300), warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowConvergenceWarning)
        lo = m_series(mpf(4) - mpf(10) ** -30, CTX, tol=mpf(10) ** -26)
        hi = m_series(mpf(4) + mpf(10) ** -30, CTX, tol=mpf(10) ** -26)
        assert abs(lo - hi) < mpf(10) ** -24


def test_series_prefix_for_small_r():
    with workprec(300):
        for r in (mpf(10) ** -6, mpf(10) ** -10):
            assert abs(m_series(4 / r, CTX) - log(4 / r)) < 2 * r * r


def test_mahler_relations_tight():
    with workprec(300):
        t = mpf(10) ** -40
        tol = mpf(10) ** -43  # per-evaluation budget below the comparison tol

        def m(a):
            return m_series(a, CTX, tol=tol)

        assert abs(11 * m(1) - m(16)) < t
        assert abs(4 * m(2) - m(8)) < t
        assert abs(m(1) + m(16) - 2 * m(5)) < t
        assert abs(m(2) + m(8) - 2 * m(3 * sqrt(mpf(2)))) < t


def test_m_series_monotone():
    with workprec(300):
        grid = [mpf(a) / 10 for a in range(5, 80, 7)]
        vals = [m_series(a, CTX, tol=mpf(10) ** -30) for a in grid]
        assert all(x < y for x, y in zip(vals, vals[1:]))


def test_domain_and_warnings():
    with pytest.raises(DomainError):
        m_series(0, CTX)
    with pytest.raises(DomainError):
        m_series(-3, CTX)
    # below 4 the binomial series of m(4r) converges like 1/n^2; a small
    # term budget runs out fast
    with pytest.warns(SlowConvergenceWarning):
        with workprec(300):
            try:
                m_series(mpf(4) - mpf(10) ** -5, PrecisionCtx(max_terms=1000),
                         tol=mpf(10) ** -8)
            except ConvergenceError:
                pass  # the warning is the contract; convergence may still fail


def test_gap_below_four_bounds_quadrature():
    # m(4) - m(4(1 - eps)) by the Jensen quadrature lies below the bound of
    # m_series's shortcut to m(4), and above 80% of it
    with workprec(300):
        m4 = m_series(4, CTX)
        for eps in (mpf(10) ** -3, mpf(10) ** -6, mpf(10) ** -12):
            gap = m4 - m_quadrature(4 * (1 - eps), CTX, tol=mpf(10) ** -20)
            bound = _gap_below_four(eps)
            assert bound * mpf("0.8") < gap <= bound, eps


def test_m_series_just_below_four_takes_m4():
    # eps = 1 - alpha/4 = 1e-29: the gap bound 2.3e-28 is below tol/2, so
    # m(4) is the answer, through the alpha >= 4 branch, instead of a direct
    # sum that runs out of its 500,000 terms
    with workprec(300), TermCounter() as counter:
        got = m_series(4 * (1 - mpf(10) ** -29), CTX, tol=mpf(10) ** -26)
        assert abs(got - m_series(4, CTX)) < mpf(10) ** -26
    assert counter.count < 1000


def test_m_series_just_above_four():
    # alpha >= 4 goes through the connection formula: no slow convergence,
    # no warning, full accuracy against the Jensen quadrature
    import warnings
    alpha = mpf(4) + mpf(10) ** -5
    with workprec(300), warnings.catch_warnings():
        warnings.simplefilter("error", SlowConvergenceWarning)
        ser = m_series(alpha, CTX, tol=mpf(10) ** -42)
        quad_val = m_quadrature(alpha, CTX, tol=mpf(10) ** -40)
        assert abs(ser - quad_val) < mpf(10) ** -40


def test_s_ratio_values():
    with workprec(300):
        assert s_ratio(1, CTX) == 1
        assert abs(s_ratio(mpf(1) / 4, CTX) - 11) < mpf(10) ** -38
        assert abs(s_ratio(mpf(1) / 2, CTX) - 4) < mpf(10) ** -38
    with pytest.raises(DomainError):
        s_ratio(0, CTX)
    with pytest.raises(DomainError):
        s_ratio(mpf("1.5"), CTX)


def test_rv_series_basics():
    with workprec(300):
        assert rv_series(0, CTX) == 0
        x = mpf(1) / 1000
        # leading term is 6x; remainder starts at order x^2
        assert abs(rv_series(x, CTX) - 6 * x) < 50 * x * x
    with pytest.raises(DivergentSeriesError):
        rv_series(mpf(1), CTX)
    with pytest.raises(DivergentSeriesError):
        rv_series(mpf("0.04"), CTX)  # 27 x = 1.08 >= 1


def test_quadrature_oracle_equivalence():
    # the two m(alpha) routes are independent: binomial series vs Jensen
    # quadrature; they must agree to 1e-6 (they actually do far better)
    with workprec(300):
        for a in (1, 2, 5, 8, 16):
            assert abs(m_series(mpf(a), CTX) - m_quadrature(mpf(a), CTX)) < mpf(10) ** -6
        a = 3 * sqrt(mpf(2))
        assert abs(m_series(a, CTX) - m_quadrature(a, CTX)) < mpf(10) ** -6


def test_m_quadrature_alpha_zero():
    # for alpha = 0 the inner Jensen integral vanishes a.e.
    assert m_quadrature(0, CTX) == 0


def test_m_integrand_symmetry():
    # u(t) = alpha + 2 cos(2 pi t) is symmetric under t -> 1 - t
    with workprec(120):
        for t in (mpf("0.1"), mpf("0.23"), mpf("0.4")):
            u1 = 3 + 2 * cos(2 * pi * t)
            u2 = 3 + 2 * cos(2 * pi * (1 - t))
            assert abs(u1 - u2) < mpf(10) ** -30


def test_n_quadrature_breakpoints():
    # below alpha = 3 the cubic has torus zeros and the integrand has kinks;
    # above 3 (all the catalogued arguments) it is smooth: no breakpoints.
    # Only (0, 1/6) is scanned: the kinks at 2/9 and 4/9 for alpha = 2 are
    # the images of 1/9 under t -> 1/3 - t and t -> t + 1/3.  At 1/18 two
    # roots of equal magnitude cross |x| = 1 together (magnitudes 1, 1,
    # sqrt 3), which leaves the sign of prod(|x| - 1) unchanged
    with workprec(140):
        pts = _n_breakpoints(mpf(2))
        assert len(pts) == 2
        for got, want in zip(pts, (mpf(1) / 18, mpf(1) / 9)):
            assert abs(got - want) < mpf(10) ** -12
        mags = sorted(_cubic_root_mags(mpf(2), mpf(1) / 18))
        assert abs(mags[0] - 1) < mpf(10) ** -30
        assert abs(mags[1] - 1) < mpf(10) ** -30
        assert abs(mags[2] - sqrt(mpf(3))) < mpf(10) ** -30
        # alpha = 5/2: a pair of roots of equal magnitude enters the unit
        # disc together at t = 0.03834...; both kinks agree with the
        # sorted-magnitude scan of the whole half period
        pts = _n_breakpoints(mpf(5) / 2)
        ref = [t for t in _half_period_kinks(mpf(5) / 2) if t < mpf(1) / 6]
        assert len(pts) == len(ref) == 2
        assert abs(pts[0] - mpf("0.0383422426937693")) < mpf(10) ** -14
        for got, want in zip(pts, ref):
            assert abs(got - want) < mpf(10) ** -12
        alpha = (7 - sqrt(mpf(5))) / cbrt(mpf(4))  # just above 3
        assert _n_breakpoints(alpha) == []


def test_n_integrand_symmetry():
    # x^3 + y^3 + 1 - alpha x y is invariant under (x, y) -> (w^2 x, w y)
    # and under conjugation: the Jensen integrand has period 1/3 and is even
    with workprec(140):
        a2 = _bertin_alphas()[1]
        third = mpf(1) / 3
        for alpha in (mpf(0), mpf(2), mpf(3), a2):
            for t in (mpf("0.013"), mpf("0.07"), mpf(1) / 9, mpf("0.151")):
                f = _n_integrand(alpha, t)
                assert abs(f - _n_integrand(alpha, t + third)) < mpf(2) ** -100
                assert abs(f - _n_integrand(alpha, third - t)) < mpf(2) ** -100


def _half_period_kinks(alpha, cells=192):
    """Points of (0, 1/2) where a sorted root magnitude crosses 1, one per
    grid cell.  Unlike the sign of prod(|root| - 1), the sorted magnitudes
    also see two roots of equal magnitude crossing 1 together."""
    def above(t):
        return [m > 1 for m in sorted(_cubic_root_mags(alpha, t))]

    ts = [mpf(i) / (2 * cells) for i in range(cells + 1)]
    sides = [above(t) for t in ts]
    kinks = []
    for lo, hi, side, nxt in zip(ts, ts[1:], sides, sides[1:]):
        if side != nxt:
            for _ in range(mp.prec // 2):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if above(mid) == side else (lo, mid)
            kinks.append((lo + hi) / 2)
    return kinks


def test_n_quadrature_against_full_period():
    # 6 x the integral over [0, 1/6] against 2 x the integral over [0, 1/2],
    # split at every kink found on the whole half period and at 1/6, 1/3
    # (a kink at alpha = 1, the triple root at alpha = 0)
    with workprec(180):
        for alpha in (mpf(0), mpf(1), mpf(2), mpf(5) / 2):
            pts = [mpf(0), mpf(1) / 6, mpf(1) / 3, mpf(1) / 2]
            pts = sorted(set(pts + _half_period_kinks(alpha)))
            ref, err = quad(lambda t: _n_integrand(alpha, t), pts, error=True)
            assert err < mpf(10) ** -45
            got = n_quadrature(alpha, CTX, tol=mpf(10) ** -40)
            assert abs(got - 2 * ref) < mpf(10) ** -40


def test_n_quadrature_at_three():
    # alpha = 3: three lines x + w^k y + w^(2k) meeting the torus at
    # t = 0, 1/3, 2/3, all at the endpoint t = 0 of the reduced domain,
    # so n(3) = 3 m(1 + x + y); no zero-length piece at t = 0
    with workprec(140):
        assert _n_breakpoints(mpf(3)) == []
        got = n_quadrature(3, CTX, tol=mpf(10) ** -20)
        assert abs(got - 3 * _smyth()) < mpf(10) ** -30


def test_n_quadrature_against_lattice_route():
    # independent check of the quadrature at one q-series point
    from wzmahler.elliptic import lattice_dilog_sum
    from wzmahler.modular import xq_product
    from mpmath import mpc
    with workprec(300):
        q = mpf(1) / 10
        alpha = 3 * cbrt(xq_product(q, CTX))
        lhs = mpf(9) / (2 * pi) * lattice_dilog_sum(mpc(-1, sqrt(mpf(3))) / 2, q, CTX)
        rhs = n_quadrature(alpha, CTX, tol=mpf(10) ** -8)
        assert abs(lhs - rhs) < mpf(10) ** -6


def test_cubic_root_mags_match_polyroots():
    # odd multiples of 1/72 avoid t = 1/6, 1/2, where alpha = 0 gives x^3,
    # on which polyroots cannot converge
    with workprec(140):
        gate = mpf(2) ** -70
        for alpha in (mpf(0), mpf(2), mpf(3)) + _bertin_alphas():
            for i in range(18):
                t = mpf(2 * i + 1) / 72
                y, y3 = expjpi(2 * t), expjpi(6 * t)
                roots = polyroots([1, 0, -alpha * y, 1 + y3],
                                  maxsteps=160, extraprec=80)
                ref = sorted(abs(r) for r in roots)
                got = sorted(_cubic_root_mags(alpha, t))
                assert max(abs(a - b) for a, b in zip(got, ref)) < gate


def _cardano_mpc(alpha, t, extra):
    """Cardano's formula on mpc values, ``extra`` bits above the working
    precision, as the root magnitudes were computed before they moved to
    integers; the arguments 2t and 6t are rounded at the working precision,
    as ``_torus_point`` rounds them.  Returns the magnitudes, |c| and |d|."""
    a2, a6 = 2 * t, 6 * t
    with workprec(mp.prec + extra):
        y, y3 = expjpi(a2), expjpi(a6)
        p = -alpha * y
        h = (1 + y3) / 2
        d = sqrt(h * h + (p / 3) ** 3)
        u = -h - d if abs(h + d) > abs(h - d) else -h + d
        if u == 0:
            return [mpf(0)] * 3, mpf(0), abs(d)
        c = cbrt(u)
        w = mpc(-1, sqrt(mpf(3))) / 2
        mags, c0 = [], abs(c)
        for _ in range(3):
            mags.append(abs(c - p / (3 * c)))
            c *= w
        return mags, c0, abs(d)


def test_cubic_root_mags_against_mpc_cardano():
    # the integer evaluation against the mpc formula run 64 bits higher, on
    # seeded alpha in [0, 30] and t in [0, 1/2] and on the special points:
    # the triple root (alpha = 0, t = 1/6), the double root x = 1 (alpha = 3,
    # t = 0), the roots 0, +-sqrt(3 y) (alpha = 3, t = 1/6) and 0, +-i sqrt 3
    # (alpha = 3, t = 1/2).  Each sorted magnitude is within the docstring's
    # rounding bound, which is of the size of max |x_i| 2^-F times the
    # conditioning (1/|c| near the triple root, 1/|d| near a double root),
    # and the integrand within three times that
    rng = random.Random(1903)
    for bits in (64, 140, 256, 512):
        with workprec(bits):
            f = bits + 32
            specials = [mpf(0), mpf(1) / 6, mpf(1) / 2]
            points = [(mpf(rng.uniform(0, 30)), mpf(rng.uniform(0, 0.5)))
                      for _ in range(40)]
            points += [(mpf(a), t) for a in (0, 3) for t in specials]
            points += [(mpf(rng.uniform(0, 30)), t) for t in specials]
            points += [(mpf(a), mpf(rng.uniform(0, 0.5))) for a in (0, 3)]
            for alpha, t in points:
                got = sorted(_cubic_root_mags(alpha, t))
                ref, c, d = _cardano_mpc(alpha, t, 64)
                ref = sorted(ref)
                if c == 0:
                    assert got == ref == [0, 0, 0]
                    continue
                bound = mpf(2) ** (4 - f) * (1 + alpha / 3) ** 3 \
                    * (1 + 1 / c) ** 2 * (1 + 1 / max(d, mpf(2) ** (-f // 2)))
                gap = max(abs(a - b) for a, b in zip(got, ref))
                assert gap <= bound, (bits, alpha, t)
                # log+ is 1-Lipschitz above 1; the one log rounds at F bits
                value = _n_integrand(alpha, t)
                with workprec(bits + 64):
                    want = sum(log(m) for m in ref if m > 1)
                    assert abs(value - want) <= 3 * bound \
                        + mpf(2) ** (1 - f) * (1 + want), (bits, alpha, t)


def test_cubic_root_mags_triple_root():
    # alpha = 0, y^3 = -1: the cubic is x^3 and Cardano's c vanishes
    with workprec(140):
        assert _cubic_root_mags(mpf(0), mpf(1) / 6) == [0, 0, 0]
        # n(0) = m(1 + x + y), Smyth's constant
        assert abs(n_quadrature(0, CTX) - _smyth()) < mpf(10) ** -8


def test_n_series_against_quadrature():
    with workprec(300):
        a1, a2, a3 = _bertin_alphas()
        for alpha in (a1, a3):
            ser = n_series(alpha, CTX, tol=mpf(10) ** -42)
            assert abs(ser - n_quadrature(alpha, CTX, tol=mpf(10) ** -8)) < mpf(10) ** -40
        # 27/a2^3 = 0.99891: the connection route of the kernel
        ser = n_series(a2, CTX, tol=mpf(10) ** -42)
        assert abs(ser - n_quadrature(a2, CTX, tol=mpf(10) ** -8)) < mpf(10) ** -40


def test_n_series_domain():
    for alpha in (3, 2, 0, -4):
        with pytest.raises(DomainError):
            n_series(alpha, CTX)


def test_n_quadrature_cross_check_catches_bad_roots(monkeypatch):
    good = mahler._cubic_root_mags

    def perturbed(alpha, t):
        mags = good(alpha, t)
        mags[0] *= 1 + mpf(10) ** -15
        return mags

    monkeypatch.setattr(mahler, "_cubic_root_mags", perturbed)
    with pytest.raises(ArithmeticError, match="polyroots"):
        n_quadrature(cbrt(mpf(32)), CTX)


def test_n_quadrature_periodic_route_against_series():
    # alpha > 3 away from 3: the periodic trapezoidal rule, accurate to
    # about the working precision (140 bits, and 212 bits at tol = 1e-40)
    with workprec(300):
        a1, _, a3 = _bertin_alphas()
        for alpha in (mpf("3.3"), a1, a3, mpf(5), mpf(10)):
            ref = n_series(alpha, CTX, tol=mpf(10) ** -80)
            for tol in (mpf("1e-8"), mpf(10) ** -40):
                assert abs(n_quadrature(alpha, CTX, tol=tol) - ref) < mpf(10) ** -41


def test_quadrature_counts_integrand_calls():
    a1, _, a3 = _bertin_alphas()
    with TermCounter() as periodic:
        n_quadrature(a3, CTX)
    with TermCounter() as kinked:
        n_quadrature(mpf(2), CTX)
    with TermCounter() as m_quad:
        m_quadrature(mpf(5), CTX)
    # the periodic rule settles at 128 nodes per period, 65 distinct calls
    assert 0 < periodic.count <= 129
    assert kinked.count > 0 and m_quad.count > 0


def test_n_quadrature_route_rule(monkeypatch):
    # the kink scan runs on the tanh-sinh route only: alpha <= 3, and
    # alpha2 = 3.0011, whose predicted periodic node count is above the
    # crossover, as is N* ~ 1,034 at alpha = 3.0022; N* ~ 1,003 at
    # alpha = 3.00234 is below it
    def scan(alpha, grid=64):
        raise LookupError("kink scan")

    monkeypatch.setattr(mahler, "_n_breakpoints", scan)
    _, a2, a3 = _bertin_alphas()
    for alpha in (a3, mpf("3.00234")):
        n_quadrature(alpha, CTX)
    for alpha in (mpf(2), mpf(3), a2, mpf("3.0022")):
        with pytest.raises(LookupError, match="kink scan"):
            n_quadrature(alpha, CTX)


def test_n_quadrature_periodic_budget(monkeypatch):
    # an integrand whose trapezoidal sums never settle exhausts the doubling
    calls = itertools.count()
    monkeypatch.setattr(mahler, "_n_integrand", lambda alpha, t: mpf(next(calls)))
    with pytest.raises(QuadratureBudgetError, match="nodes"):
        n_quadrature(mpf(5), CTX)


def test_m_series_at_64_bits_within_an_ulp():
    # below 4 the binomial series is summed at guard bits, so m(1) and m(2)
    # at a 64-bit context (128-bit results) are within an ulp of the truth
    ctx64 = PrecisionCtx(bits=64)
    for alpha in (1, 2):
        got = m_series(alpha, ctx64)
        with workprec(360):
            ref = m_series(alpha, PrecisionCtx(bits=360), tol=mpf(2) ** -370)
            ulp = ldexp(1, frexp(got)[1] - 128)
            assert abs(got - ref) <= ulp, alpha


def test_m_series_near_four_against_quadrature():
    # 3.79 < alpha < 4 (r^2 > 0.9): the r^(2n)/n^2 tail is summed directly,
    # well within its tail bound, and without the warning reserved for
    # alpha within 1e-3 of 4
    import warnings
    tol = mpf(10) ** -30
    with workprec(300), warnings.catch_warnings():
        warnings.simplefilter("error", SlowConvergenceWarning)
        for alpha in (mpf("3.9"), mpf("3.99")):
            ser = m_series(alpha, CTX, tol=tol)
            assert abs(ser - m_quadrature(alpha, CTX, tol=tol)) < tol, alpha


def test_n_quadrature_periodic_level_floor():
    # at alpha ~ 3.00139 (N* ~ 1,301 nodes at 140 bits) the levels 512 and
    # 1,024 agree to 2^-70 while 11 bits short of the working precision; the
    # rule goes on to 2,048 >= N* nodes.  N* is above the crossover, so
    # n_quadrature takes tanh-sinh there: the rule is called directly
    alpha = mpf("3.00139")
    with workprec(140), TermCounter() as counter:
        nodes = 140 * log(2) / acosh(2 * alpha ** 3 / 27 - 1)
        got = mahler._n_trapezoid(alpha, mpf(2) ** -70, nodes)
    with workprec(400):
        ref = n_series(alpha, PrecisionCtx(bits=400), tol=mpf(2) ** -400)
        assert abs(got - ref) < mpf(2) ** (4 - 140)
    assert counter.count == 2048 // 2 + 1
    # alpha3 = 32^(1/3) has N* = 116 and still stops at 128 nodes
    with TermCounter() as counter:
        n_quadrature(_bertin_alphas()[2], CTX)
    assert counter.count == 65
