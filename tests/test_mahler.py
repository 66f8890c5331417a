"""Mahler-measure evaluators: series branches, quadrature oracles, and the
relations between special values."""

import itertools
import random
from fractions import Fraction

import pytest
from mpmath import (acosh, cbrt, cospi, expjpi, frexp, ldexp, log, mp, mpc,
                    mpf, pi, polyroots, psi, quad, sinpi, sqrt, workprec)

from wzmahler import (ConvergenceError, DivergentSeriesError, DomainError,
                      PrecisionCtx, QuadratureBudgetError,
                      SlowConvergenceWarning)
from wzmahler import mahler
from wzmahler.mahler import (m_quadrature, m_series, n_quadrature, n_series,
                             rv_series, s_ratio, _cubic_root_mags,
                             _gap_below_four, _n_breakpoints, _n_integrand)
from wzmahler.series import TermCounter
from wzmahler.symbolic.pfq import pfq_eval

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


def test_slow_convergence_warning_on_every_call():
    # the warning is given outside the memo of the series: the second call,
    # a memo hit, warns as the first did and charges the same terms
    alpha, tol = mpf("3.9991"), mpf(10) ** -8
    mahler._m_series.cache_clear()
    runs = []
    for _ in range(2):
        with pytest.warns(SlowConvergenceWarning), TermCounter() as counter:
            runs.append((m_series(alpha, CTX, tol=tol), counter.count))
    (first, count), (second, again) = runs
    assert second is first and count == again > 10_000


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


M_QUAD_ALPHAS = ("0.5", "1", "2", "3", "3.9", "3.999", "4.5", "9.0", "21.6")


def test_m_quadrature_against_series():
    # above 4 the periodic rule, below 4 tanh-sinh over [0, t*]: both
    # accurate to about the working precision (140 bits, and 212 bits at
    # tol = 1e-40); 3.999 is within 1e-3 of 4, where the series warns of its
    # slow convergence
    import warnings
    with workprec(300), warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowConvergenceWarning)
        for a in M_QUAD_ALPHAS:
            ref = m_series(mpf(a), CTX, tol=mpf(10) ** -50)
            for tol in (mpf("1e-8"), mpf(10) ** -40):
                got = m_quadrature(mpf(a), CTX, tol=tol)
                assert abs(got - ref) < mpf(10) ** -41, (a, tol)


def test_m_quadrature_route_rule(monkeypatch):
    # the periodic rule serves alpha > 4 while N* is below the cap; tanh-sinh
    # serves alpha <= 4 and the band just above 4 where N* passes the cap
    # (4 + 1e-5: N* ~ 30,700 at 140 bits)
    def tanh_sinh(*args, **kwargs):
        raise LookupError("tanh-sinh")

    monkeypatch.setattr(mahler, "quad", tanh_sinh)
    periodic = [a for a in M_QUAD_ALPHAS if mpf(a) > 4]
    assert periodic == ["4.5", "9.0", "21.6"]
    for a in periodic:
        for tol in (mpf("1e-8"), mpf(10) ** -40):
            m_quadrature(mpf(a), CTX, tol=tol)
    kinked = [mpf(a) for a in M_QUAD_ALPHAS if mpf(a) < 4]
    for alpha in kinked + [mpf(4), mpf(4) + mpf(10) ** -5, mpf(4) - mpf(10) ** -5]:
        with pytest.raises(LookupError, match="tanh-sinh"):
            m_quadrature(alpha, CTX)


def test_m_quadrature_level_floor():
    # at alpha = 4.45 (N* ~ 105 at 140 bits) the levels 32 and 64 agree to
    # 2^-70 while the 64-node value is 1.1e-40 off; at alpha = 4.11
    # (N* ~ 223) the levels 64 and 128 do, 2.2e-41 off.  The floor takes
    # both one level on
    with workprec(300):
        for a, calls in (("4.45", 129), ("4.11", 257)):
            alpha = mpf(a)
            ref = m_series(alpha, CTX, tol=mpf(10) ** -50)
            with TermCounter() as counter:
                got = m_quadrature(alpha, CTX)
            assert abs(got - ref) < mpf(10) ** -41, a
            assert counter.count == calls, a


def test_m_quadrature_periodic_budget(monkeypatch):
    # an integrand whose trapezoidal sums never settle exhausts the doubling
    calls = itertools.count(1)
    monkeypatch.setattr(mahler, "_m_node", lambda alpha, y: (next(calls), 0))
    with pytest.raises(QuadratureBudgetError, match="nodes"):
        m_quadrature(mpf(5), CTX)


def test_m_quadrature_alpha_zero():
    # for alpha = 0 the inner Jensen integral vanishes a.e.
    assert m_quadrature(0, CTX) == 0


def _table_nodes(period, prec):
    """{k: (y_k, N)} for every node y_k of the periodic rule's table up to
    4,096 nodes per period, at F = prec + 64 bits, with the level N that
    formed it: an integrand that never settles runs the rule to its budget
    and records each y it is given."""
    seen = []

    def record(y):
        seen.append(y)
        return len(seen), 0

    with workprec(prec), pytest.raises(QuadratureBudgetError):
        mahler._periodic_trapezoid(record, period, mpf(2) ** -70, 1)
    n, f = 4096, prec + 64
    nodes = {}
    for y in seen:
        with workprec(f + 32):
            k = int(mp.nint(mp.atan2(y[1], y[0]) / (2 * pi) * n / period)) % n
        level = max(8, n >> (k & -k).bit_length() - 1) if k else 8
        nodes[k] = y, level
    assert len(seen) == len(nodes) == n // 2 + 1
    return nodes


def test_periodic_table_nodes_within_bound():
    # every node y_k = e^(2 pi i k period/N) up to N = 4,096, at periods 1
    # and 1/3, against mpmath's cospi and sinpi: within the docstring's
    # 4 log2(N) + 1 units of 2^-F at the level N that formed it
    for prec in (64, 140):
        f = prec + 64
        for period in (1, Fraction(1, 3)):
            worst = 0
            for k, (y, level) in _table_nodes(period, prec).items():
                with workprec(f + 64):
                    x = 2 * mpf(k) * period.numerator \
                        / (4096 * period.denominator)
                    err = abs(mpc(y[0] - cospi(x) * 2 ** f,
                                  y[1] - sinpi(x) * 2 ** f))
                assert err < 4 * (level.bit_length() - 1) + 1, (prec, period, k)
                worst = max(worst, err)
            assert worst > 0, (prec, period)


def _disk_roots(monkeypatch):
    """Record (alpha y, q, F, x, P) for every root ``_disk_root`` returns:
    the cubic's coefficients alpha y at 2F and q = 1 + y^3 at F fractional
    bits, the root x at F and the node's working precision P."""
    seen = []
    root = mahler._disk_root

    def record(ay, q, bits, seed):
        x = root(ay, q, bits, seed)
        seen.append((ay, q, bits, x, mp.prec))
        return x

    monkeypatch.setattr(mahler, "_disk_root", record)
    return seen


def _newton_units(ay, q, f, x):
    """|f(x)/f'(x)| in units of 2^-F for f(x) = x^3 - alpha y x + q, from
    exact integers grouped as x^3 - (alpha y) x + q."""
    xr, xi = x
    sr, si = xr * xr - xi * xi, 2 * xr * xi  # x^2 at 2F
    res = [sr * xr - si * xi - ay[0] * xr + ay[1] * xi + (q[0] << 2 * f),
           sr * xi + si * xr - ay[0] * xi - ay[1] * xr + (q[1] << 2 * f)]
    der = [3 * sr - ay[0], 3 * si - ay[1]]  # at 2F bits
    return ((res[0] ** 2 + res[1] ** 2) / (der[0] ** 2 + der[1] ** 2)) ** 0.5


def _disk_margin(x, f, p):
    """1 - |x| - 3 2^-(P//2): the Rouche check's margin."""
    return 1 - ((x[0] ** 2 + x[1] ** 2) / (1 << 2 * f)) ** 0.5 \
        - 3 * 2.0 ** -(p // 2)


def test_periodic_root_residuals_within_gates(monkeypatch):
    # at every node n_quadrature's periodic rule evaluates for alpha1,
    # alpha3 and 5, at 140, 256, 512 and 1024 bits, in exact integer
    # arithmetic on the fixed-point root x inside the unit disk: its Newton
    # correction f(x)/f'(x), from a residual grouped differently from
    # _cubic_at's, is within 4 units of 2^-F (1.41 at most here), far inside
    # the gate 2^-(P/2); the Rouche margin is positive; and the node value
    # |alpha y - x^2|^2 is at least (alpha - 1)^2
    seen = _disk_roots(monkeypatch)
    a1, _, a3 = _bertin_alphas()
    worst = 0
    for prec in (140, 256, 512, 1024):
        for alpha in (a1, a3, mpf(5)):
            seen.clear()
            n_quadrature(alpha, CTX, tol=mpf(2) ** (80 - prec))
            assert len(seen) >= 17 and seen[0][4] >= prec + 32, (prec, alpha)
            low = (float(alpha) - 1) ** 2 * (1 - 1e-12)
            for ay, q, f, x, p in seen:
                assert f == p + 32
                units = _newton_units(ay, q, f, x)
                assert units <= 4 and units < 2.0 ** (f - p // 2), (prec, alpha)
                worst = max(worst, units)
                assert _disk_margin(x, f, p) > 0, (prec, alpha)
                v = [ay[j] - (x[0] ** 2 - x[1] ** 2, 2 * x[0] * x[1])[j]
                     for j in (0, 1)]
                assert (v[0] ** 2 + v[1] ** 2) / (1 << 4 * f) >= low
    assert 0 < worst <= 4


def _cardano_c_d(alpha, y, y3, f):
    """|c| and |d| of Cardano's formula for x^3 - alpha y x + 1 + y^3, for
    y and y^3 fixed-point pairs at F bits, in mpc arithmetic 64 bits above
    F (``_cubic_root_mags``' bound takes them)."""
    with workprec(f + 64):
        y, y3 = (mpc(*z) / 2 ** f for z in (y, y3))
        p, h = -alpha * y, (1 + y3) / 2
        d = sqrt(h * h + (p / 3) ** 3)
        u = -h - d if abs(h + d) > abs(h - d) else -h + d
        return abs(cbrt(u)), abs(d)


def test_rouche_node_against_cardano(monkeypatch):
    # at every node of the periodic rule for alpha1, alpha3, 5 and 50, at
    # 140, 256, 512 and 1024 bits, half the log of the Rouche node value
    # against the tanh-sinh route's sum of log+ (all three magnitudes) on
    # the same fixed-point y and y^3, within the sum of two bounds: the
    # magnitudes' Cardano rounding bound of
    # test_cubic_root_mags_against_mpc_cardano, twice (two magnitudes above
    # 1, where log+ is 1-Lipschitz), plus the one log's rounding at F bits,
    # 2^(1-F)(1 + value); and _n_node's 6 |f/f'|/(alpha - 1) for half its
    # log, the log itself taken here 64 bits above F.  The roots are
    # recorded during n_quadrature only, since the three-magnitude solve
    # calls _disk_root too
    nodes = []
    node = mahler._n_node

    def record(alpha, y):
        value = node(alpha, y)
        nodes.append((alpha, y, value, mp.prec))
        return value

    a1, _, a3 = _bertin_alphas()
    worst = 0
    for prec in (140, 256, 512, 1024):
        for alpha in (a1, a3, mpf(5), mpf(50)):
            nodes.clear()
            with monkeypatch.context() as patch:
                roots = _disk_roots(patch)
                patch.setattr(mahler, "_n_node", record)
                n_quadrature(alpha, CTX, tol=mpf(2) ** (80 - prec))
            assert len(nodes) == len(roots) >= 9, (prec, alpha)
            for (a, y, (m, e), p), (ay, q, f, x, _) in zip(nodes, roots):
                with workprec(p):
                    y3 = mahler._cmul(mahler._cmul(y, y, f), y, f)
                    want = mahler._log_plus(*mahler._cubic_root_norms(a, y, y3))
                c, d = _cardano_c_d(a, y, y3, f)
                with workprec(f + 64):
                    got = log(ldexp(mpf(m), e)) / 2
                    cardano = 2 * mpf(2) ** (4 - f) * (1 + a / 3) ** 3 \
                        * (1 + 1 / c) ** 2 * (1 + 1 / max(d, mpf(2) ** (-f // 2))) \
                        + mpf(2) ** (1 - f) * (1 + want)
                    rouche = 6 * _newton_units(ay, q, f, x) * mpf(2) ** -f \
                        / (a - 1)
                    gap = abs(got - want)
                    assert gap <= cardano + rouche, (prec, alpha)
                    worst = max(worst, gap / (cardano + rouche))
    assert 0 < worst < 1


def test_n_quadrature_periodic_near_the_cap(monkeypatch):
    # alpha = 3.003, 3.01 and 3.05, where the root inside the unit disk
    # nears 1 at t = 0 (0.968 at 3.003) and N* nears the cap: the periodic
    # rule against n_series at 1e-80, at 140 and 212 bits, with every
    # node's Rouche margin positive.  N* ~ 1,342 for 3.003 at 212 bits,
    # over the cap, so there the rule is called directly
    roots = _disk_roots(monkeypatch)
    for a in ("3.003", "3.01", "3.05"):
        with workprec(300):
            alpha = mpf(a)
            ref = n_series(alpha, CTX, tol=mpf(10) ** -80)
        for prec in (140, 212):
            roots.clear()
            with workprec(prec):
                nodes = prec * log(2) / acosh(2 * alpha ** 3 / 27 - 1)
            if nodes < mahler._PERIODIC_MAX_NODES:
                got = n_quadrature(alpha, CTX, tol=mpf(2) ** (80 - prec))
            else:
                assert (a, prec) == ("3.003", 212)
                with workprec(prec):
                    got = mahler._periodic_trapezoid(
                        lambda y: mahler._n_node(alpha, y), Fraction(1, 3),
                        mpf(2) ** (1 - prec // 2), nodes) / 2
            assert abs(got - ref) < mpf(2) ** (4 - prec), (a, prec)
            margins = [_disk_margin(x, f, p) for _, _, f, x, p in roots]
            assert len(margins) > nodes / 2 and min(margins) > 0, (a, prec)
        if a == "3.003":
            assert min(margins) < 0.035


def test_n_node_refuses_a_root_outside_the_disk(monkeypatch):
    # on the first node of n_quadrature at alpha3: a seed at the largest
    # root leads Newton's iteration to a root outside the unit disk, whose
    # residual passes its gate and which the Rouche check refuses; and with
    # two steps allowed the iteration stops short of the working precision
    # and raises (a root 2^-60 off: test_n_quadrature_cross_check_...)
    alpha = _bertin_alphas()[2]

    def outside(alpha, y, q):
        return complex(max(polyroots([1, 0, -alpha * y, q]), key=abs))

    for name, patch, match in (("_disk_seed", outside, "unit disk"),
                               ("_ROOT_STEPS", 2, "Newton steps")):
        with monkeypatch.context() as m:
            m.setattr(mahler, name, patch)
            with pytest.raises(ArithmeticError, match=match):
                n_quadrature(alpha, CTX)


def test_m_integrand_symmetry():
    # the m(alpha) kernel itself: even, f(y) = f(conj y), and at the same
    # t = k/N the log of the periodic rule's node value at its table node
    # and tanh-sinh's integrand at its own exponential agree, within the
    # node bound times the kernel's slope 1/sqrt(w^2 - 1); alpha = 3
    # vanishes beyond t* = 1/3, where the node value is 1
    nodes = _table_nodes(1, 120)
    with workprec(120 + 32):  # the rule's F = 120 + 64
        for alpha in (mpf(3), mpf(5), mpf("4.5")):
            for k in (0, 409, 942, 1365, 1638, 2048):
                y, _ = nodes[k]
                node = mahler._m_node(alpha, y)
                assert node == mahler._m_node(alpha, (y[0], -y[1]))
                with workprec(250):
                    got = log(ldexp(mpf(node[0]), node[1]))
                want = mahler._m_integrand(alpha, mpf(k) / 4096)
                assert abs(got - want) < mpf(2) ** (8 - 184), (alpha, k)
                assert (node == (1, 0)) == (k > 1365 and alpha == 3), (alpha, k)


def test_n_quadrature_breakpoints(monkeypatch):
    # below alpha = 3 the cubic has torus zeros and the integrand has kinks;
    # above 3 (all the catalogued arguments) it is smooth: no breakpoints.
    # Only (0, 1/6) is searched: the kinks at 2/9 and 4/9 for alpha = 2 are
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
        # the closed form over [0, 3]: increasing points inside (0, 1/6),
        # each a zero on the torus, so one root magnitude is 1 there
        gate, exact = mpf(2) ** -70, mpf(2) ** (8 - 140)
        alphas = [mpf(a) / 2 for a in range(7)] + [mpf("2.9")]
        found = {}
        for alpha in alphas:
            pts = found[alpha] = _n_breakpoints(alpha)
            ends = [mpf(0)] + pts + [mpf(1) / 6]
            assert all(a < b for a, b in zip(ends, ends[1:])), alpha
            for t in pts:
                mags = _cubic_root_mags(alpha, t)
                assert min(abs(m - 1) for m in mags) < gate, (alpha, t)
        # the kinks at rational t are exact, and alpha = 1 has one: the
        # second zero family meets the torus at the end t = 1/6 there
        for alpha, want in ((0, [mpf(1) / 9]), (1, [mpf(1) / 12]),
                            (2, [mpf(1) / 18, mpf(1) / 9]), (3, [])):
            pts = found[mpf(alpha)]
            assert len(pts) == len(want), alpha
            assert all(abs(a - b) < exact for a, b in zip(pts, want)), alpha

        # the kinks come from the closed form alone, with no root solve
        def solve(alpha, t):
            raise LookupError("root solve")

        monkeypatch.setattr(mahler, "_cubic_root_norms", solve)
        for alpha in alphas:
            assert _n_breakpoints(alpha) == found[alpha]


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
    precision, a reference independent of the integer Newton solve; the
    arguments 2t and 6t are rounded at the working precision, as
    ``_torus_point`` rounds them.  Returns the magnitudes, |c| and |d|."""
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
    # (alpha = 3, t = 1/2); and where the roots are small and the solve
    # scales the cubic by 2^k, k > 0: t = 1/6 + 2^-j, near the triple root
    # for alpha = 0 and 1e-20, and alpha = 10^-j.  Each sorted magnitude is
    # within Cardano's rounding bound
    # 2^(4-F) (1 + alpha/3)^3 (1 + 1/|c|)^2 (1 + 1/max(|d|, 2^(-F/2))), of
    # the size of max |x_i| 2^-F times the conditioning (1/|c| near the
    # triple root, 1/|d| near a double root), and the integrand within three
    # times that
    rng = random.Random(1903)
    scaled = 0
    for bits in (64, 140, 256, 512, 1024):
        with workprec(bits):
            f = bits + 32
            specials = [mpf(0), mpf(1) / 6, mpf(1) / 2]
            points = [(mpf(rng.uniform(0, 30)), mpf(rng.uniform(0, 0.5)))
                      for _ in range(40)]
            points += [(mpf(a), t) for a in (0, 3) for t in specials]
            points += [(mpf(rng.uniform(0, 30)), t) for t in specials]
            points += [(mpf(a), mpf(rng.uniform(0, 0.5))) for a in (0, 3)]
            near = [mpf(1) / 6 + mpf(2) ** -j
                    for j in (4, 16, 40, bits // 2, bits - 4)]
            points += [(a, t) for a in (mpf(0), mpf(10) ** -20, mpf(2), mpf(3))
                       for t in near]
            points += [(mpf(10) ** -j, t) for j in (3, 10, 30, 60)
                       for t in specials + [mpf(1) / 7]]
            for alpha, t in points:
                got = sorted(_cubic_root_mags(alpha, t))
                scaled += mahler._cubic_root_norms(
                    alpha, *mahler._torus_point(t, f))[0] > f
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
    assert scaled >= 40


def test_n_quadrature_periodic_route_needs_no_cube_root_or_node_exponential(
        monkeypatch):
    # at alpha3 = 32^(1/3) the periodic rule takes its nodes from the table
    # and solves for one root per node by Newton's iteration: no
    # three-magnitude solve, no mpc_cbrt and no polyroots call, and exactly one
    # mpf_cos_sin_pi and one mpf_log per level.  m_quadrature's periodic
    # rule at alpha = 5 makes the same one of each per level
    from mpmath.libmp import libmpc
    import mpmath.libmp

    def refuse(*args, **kwargs):
        raise AssertionError("root solver")

    calls = {"mpf_cos_sin_pi": [], "mpf_log": []}

    def counted(name):
        fn = getattr(mahler, name)
        return lambda *args: calls[name].append(args) or fn(*args)

    assert not hasattr(mahler, "mpc_cbrt")
    monkeypatch.setattr(libmpc, "mpc_cbrt", refuse)
    monkeypatch.setattr(mpmath.libmp, "mpc_cbrt", refuse)
    for name in ("polyroots", "_cubic_root_norms"):
        monkeypatch.setattr(mahler, name, refuse)
    for name in calls:
        monkeypatch.setattr(mahler, name, counted(name))
    for quadrature, alpha in ((n_quadrature, _bertin_alphas()[2]),
                              (m_quadrature, mpf(5))):
        for name in calls:
            calls[name].clear()
        with TermCounter() as counter:
            quadrature(alpha, CTX)
        levels = (2 * (counter.count - 1)).bit_length() - 3  # 8, ..., N
        assert counter.count == 65 and levels == 5
        assert [len(v) for v in calls.values()] == [levels, levels]


def test_cubic_root_mags_triple_root():
    # alpha = 0, y^3 = -1: the cubic is x^3, with no root to scale near 1
    with workprec(140):
        assert _cubic_root_mags(mpf(0), mpf(1) / 6) == [0, 0, 0]
        # n(0) = m(1 + x + y), Smyth's constant
        assert abs(n_quadrature(0, CTX) - _smyth()) < mpf(10) ** -8


def test_n_quadrature_small_alpha():
    # at t = 1/6, 1 + y^3 = 0 and the cubic is x (x^2 - alpha y), with
    # roots 0 and +-sqrt(alpha y), which tiny alpha must not lose to the
    # fixed point, or the polyroots cross-check would raise
    ref = n_quadrature(0, CTX)
    with workprec(140):
        for alpha in (mpf("1e-20"), mpf("1e-30"), mpf("1e-40")):
            want = [0, sqrt(alpha), sqrt(alpha)]
            got = sorted(_cubic_root_mags(alpha, mpf(1) / 6))
            assert max(abs(a - b) for a, b in zip(got, want)) < mpf(2) ** -70
            assert abs(n_quadrature(alpha, CTX) - ref) < mpf(10) ** -30


def test_n_series_against_quadrature():
    with workprec(300):
        a1, a2, a3 = _bertin_alphas()
        for alpha in (a1, a3):
            ser = n_series(alpha, CTX, tol=mpf(10) ** -42)
            assert abs(ser - n_quadrature(alpha, CTX, tol=mpf(10) ** -8)) < mpf(10) ** -40
        # 27/a2^3 = 0.99891: the connection route of the kernel
        ser = n_series(a2, CTX, tol=mpf(10) ** -42)
        assert abs(ser - n_quadrature(a2, CTX, tol=mpf(10) ** -8)) < mpf(10) ** -40


@pytest.mark.parametrize("tol", [0, -1, float("inf"), float("nan")])
def test_bad_tolerances_are_domain_errors(tol):
    # a tolerance that is not finite and positive is refused before any
    # work: no term is summed and no node evaluated
    calls = ((m_quadrature, 5), (n_quadrature, _bertin_alphas()[2]),
             (m_series, 5), (n_series, 5), (rv_series, mpf(1) / 40),
             (pfq_eval, [1, 1, 2, 2], [2, 2, 3], 1))
    for fn, *args in calls:
        with TermCounter() as counter:
            with pytest.raises(DomainError, match="tolerance"):
                fn(*args, CTX, tol=tol)
        assert counter.count == 0, fn.__name__


def test_n_series_domain():
    for alpha in (3, 2, 0, -4):
        with pytest.raises(DomainError):
            n_series(alpha, CTX)


def test_n_quadrature_cross_check_catches_bad_roots(monkeypatch):
    # a wrong root makes n_quadrature raise on either route.  A root 2^-60
    # off fails its residual gate at the first node on both the periodic
    # route (alpha3) and tanh-sinh (alpha = 2); on tanh-sinh wrong
    # magnitudes also fail the polyroots cross-check at the ends of the
    # pieces
    root = mahler._disk_root

    def off(ay, q, bits, seed):
        xr, xi = root(ay, q, bits, seed)
        return xr + (1 << bits - 60), xi

    with monkeypatch.context() as patch:
        patch.setattr(mahler, "_disk_root", off)
        for alpha in (cbrt(mpf(32)), mpf(2)):
            with pytest.raises(ArithmeticError,
                               match="root at node .* residual over"):
                n_quadrature(alpha, CTX)
    good = mahler._cubic_root_mags

    def perturbed(alpha, t, *point):
        mags = good(alpha, t, *point)
        mags[0] *= 1 + mpf(10) ** -15
        return mags

    monkeypatch.setattr(mahler, "_cubic_root_mags", perturbed)
    with pytest.raises(ArithmeticError, match="polyroots"):
        n_quadrature(mpf(2), CTX)


def test_n_quadrature_periodic_route_against_series():
    # alpha > 3 away from 3: the periodic trapezoidal rule, accurate to
    # about the working precision (140 bits, and 212 bits at tol = 1e-40);
    # at 1e200, where (alpha/3)^3 overflows a float, the node seeds its
    # root with q/(alpha y)
    with workprec(300):
        a1, _, a3 = _bertin_alphas()
        for alpha in (mpf("3.3"), a1, a3, mpf(5), mpf(10), mpf("1e200")):
            ref = n_series(alpha, CTX, tol=mpf(10) ** -80)
            for tol in (mpf("1e-8"), mpf(10) ** -40):
                assert abs(n_quadrature(alpha, CTX, tol=tol) - ref) < mpf(10) ** -41


def test_n_quadrature_periodic_route_keeps_guard_bits():
    # alpha is taken at 32 bits above the working precision, the nodes are
    # the exact k/(3N) up to a few units of 2^-(prec + 64), and the sum is
    # returned unrounded: the error sits over 20 bits below 2^-prec, where
    # rounding alpha, t or the result at prec left it at about 2^-prec
    with workprec(300):
        for alpha in (mpf("3.3"), _bertin_alphas()[2], mpf(10)):
            ref = n_series(alpha, CTX, tol=mpf(10) ** -80)
            for tol, prec in ((mpf("1e-8"), 140), (mpf(10) ** -40, 212)):
                err = abs(n_quadrature(alpha, CTX, tol=tol) - ref)
                assert err < mpf(2) ** -(prec + 20), (alpha, tol)


def test_quadrature_counts_integrand_calls():
    a1, _, a3 = _bertin_alphas()
    with TermCounter() as periodic:
        n_quadrature(a3, CTX)
    with TermCounter() as kinked:
        n_quadrature(mpf(2), CTX)
    with TermCounter() as m_quad:
        m_quadrature(mpf(5), CTX)
    # the periodic rule settles at 128 nodes per period, 65 distinct calls;
    # for m(5), N* = 101 also puts it at 128 nodes
    assert 0 < periodic.count <= 129
    assert kinked.count > 0 and 0 < m_quad.count <= 65


def test_n_quadrature_route_rule(monkeypatch):
    # the kinks are found on the tanh-sinh route only: alpha <= 3, and
    # alpha2 = 3.0011, whose predicted periodic node count is above the
    # crossover, as is N* ~ 1,034 at alpha = 3.0022; N* ~ 1,003 at
    # alpha = 3.00234 is below it
    def scan(alpha):
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
    calls = itertools.count(1)
    monkeypatch.setattr(mahler, "_n_node", lambda alpha, y: (next(calls), 0))
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
        got = mahler._periodic_trapezoid(lambda y: mahler._n_node(alpha, y),
                                         Fraction(1, 3), mpf(2) ** -69,
                                         nodes) / 2  # of 2 sum log+ |x_i|
    with workprec(400):
        ref = n_series(alpha, PrecisionCtx(bits=400), tol=mpf(2) ** -400)
        assert abs(got - ref) < mpf(2) ** (4 - 140)
    assert counter.count == 2048 // 2 + 1
    # alpha3 = 32^(1/3) has N* = 116 and still stops at 128 nodes
    with TermCounter() as counter:
        n_quadrature(_bertin_alphas()[2], CTX)
    assert counter.count == 65


def test_n_quadrature_level_within_eight_bits_of_floor():
    # at alpha = 3.0084, N* ~ 529 at 140 bits, just above 512: 512 nodes
    # predict an error within 8 bits of the working precision, so the rule
    # stops there, at 257 calls where a hard floor of N* made 513
    alpha = mpf("3.0084")
    with workprec(140):
        nodes = 140 * log(2) / acosh(2 * alpha ** 3 / 27 - 1)
        assert 512 < nodes < 512 * mpf(140) / 132
    with TermCounter() as counter:
        got = n_quadrature(alpha, CTX)
    assert counter.count == 512 // 2 + 1
    with workprec(300):
        ref = n_series(alpha, CTX, tol=mpf(10) ** -80)
        assert abs(got - ref) < mpf(10) ** -41
