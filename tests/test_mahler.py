"""Mahler-measure evaluators: series branches, quadrature oracles, and the
relations between special values."""

import itertools
import random
from fractions import Fraction

import pytest
from mpmath import (acosh, cbrt, cospi, frexp, ldexp, log, mp, mpc, mpf, pi,
                    polyroots, sinpi, sqrt, workprec)

from wzmahler import (DivergentSeriesError, DomainError, PrecisionCtx,
                      QuadratureBudgetError)
from wzmahler import mahler
from wzmahler.context import to_mpf
from wzmahler.mahler import (m_quadrature, m_series, n_quadrature, n_series,
                             rv_series, s_ratio)
from wzmahler.modular import phi_theta
from wzmahler.numkernel import LAMBDA_SWITCH, lambda_series
from wzmahler.series import TermCounter, as_ratio, ratio_series, sum_geometric
from wzmahler.symbolic.pfq import pfq_eval

CTX = PrecisionCtx(bits=256)


def _bertin_alphas():
    s5 = sqrt(mpf(5))
    return (7 + s5) / cbrt(mpf(4)), (7 - s5) / cbrt(mpf(4)), cbrt(mpf(32))


def test_branch_agreement_at_four():
    with workprec(300):
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


def test_domain_and_warnings(m_oracle):
    with pytest.raises(DomainError):
        m_series(0, CTX)
    with pytest.raises(DomainError):
        m_series(-3, CTX)
    # just below 4 the kernel's connection expansion converges like
    # (1e-5/2)^n, so a small term budget is plenty, and nothing warns
    with workprec(300):
        alpha, tol = mpf(4) - mpf(10) ** -5, mpf(10) ** -8
        got = m_series(alpha, PrecisionCtx(max_terms=1000), tol=tol)
        assert abs(got - m_oracle(alpha)) < tol


def test_m_series_meets_tol_below_its_anchor_precision():
    # at 64 bits the anchor Lambda_{1/2}(1) takes D(i) at the few more bits
    # that tol 1e-42 needs (at 64 bits D errs by 2^-88), so Lambda_{1/2}(8/9)
    # meets that tol, and m(3 sqrt 2) meets it up to the rounding of its
    # value at bits + 64; alpha is a 53-bit value, exact at both precisions
    alpha, z, tol = 3 * sqrt(mpf(2)), mpf(8) / 9, mpf(10) ** -42
    lo, hi = PrecisionCtx(bits=64), PrecisionCtx(bits=512)
    lam = lambda_series(Fraction(1, 2), z, lo, tol=tol)
    m = m_series(alpha, lo, tol=tol)
    with workprec(600):
        assert abs(lam - lambda_series(Fraction(1, 2), z, hi, tol=tol / 10 ** 18)) < tol
        ref = m_series(alpha, hi, tol=tol / 10 ** 18)
        assert abs(m - ref) < tol + ref * mpf(2) ** -128


def test_m_series_just_below_four_takes_m4():
    # eps = 1 - alpha/4 = 1e-29: z = 16/alpha^2 is 1 + 2e-29, so the
    # kernel's connection expansion in w = 1 - z needs a few terms, where a
    # direct sum of the binomial series would run out of its 500,000; m(4)
    # is within 2.3e-28 of m(alpha)
    with workprec(300), TermCounter() as counter:
        got = m_series(4 * (1 - mpf(10) ** -29), CTX, tol=mpf(10) ** -26)
        assert abs(got - m_series(4, CTX)) < mpf(10) ** -26
    assert counter.count < 1000


def test_m_series_just_above_four(m_oracle):
    # alpha >= 4 goes through the connection formula: no slow convergence,
    # full accuracy against the Jensen quadrature, by the oracle: the
    # periodic rule refuses 4 + 1e-5 (N* ~ 46,000 at tol 1e-40)
    alpha = mpf(4) + mpf(10) ** -5
    with workprec(300):
        ser = m_series(alpha, CTX, tol=mpf(10) ** -42)
        quad_val = m_oracle(alpha)
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


def test_quadrature_oracle_equivalence(m_oracle):
    # the two m(alpha) routes are independent: binomial series vs Jensen
    # quadrature, the package's above 4 and the oracle below; they must
    # agree to 1e-6 (they actually do far better)
    with workprec(300):
        for a in (1, 2):
            assert abs(m_series(mpf(a), CTX) - m_oracle(a)) < mpf(10) ** -6
        for a in (5, 8, 16):
            assert abs(m_series(mpf(a), CTX) - m_quadrature(mpf(a), CTX)) < mpf(10) ** -6
        a = 3 * sqrt(mpf(2))
        assert abs(m_series(a, CTX) - m_quadrature(a, CTX)) < mpf(10) ** -6


M_QUAD_ALPHAS = ("0.5", "1", "2", "3", "3.9", "3.999", "4.5", "9.0", "21.6")


def test_m_quadrature_against_series(m_oracle):
    # above 4 the periodic rule, accurate to about the working precision
    # (140 bits, and 212 bits at tol = 1e-40); below 4 the oracle, at 300
    # bits
    with workprec(300):
        for a in M_QUAD_ALPHAS:
            ref = m_series(mpf(a), CTX, tol=mpf(10) ** -50)
            if mpf(a) < 4:
                assert abs(m_oracle(a) - ref) < mpf(10) ** -41, a
                continue
            for tol in (mpf("1e-8"), mpf(10) ** -40):
                got = m_quadrature(mpf(a), CTX, tol=tol)
                assert abs(got - ref) < mpf(10) ** -41, (a, tol)


def test_m_quadrature_route_rule():
    # the periodic rule serves alpha > 4 while N* is below its budget; at or
    # below 4 m_quadrature refuses, and just above 4 (4 + 1e-5: N* ~ 30,700
    # at 140 bits) the budget refuses; both name m_series and evaluate no
    # node
    periodic = [a for a in M_QUAD_ALPHAS if mpf(a) > 4]
    assert periodic == ["4.5", "9.0", "21.6"]
    for a in periodic:
        for tol in (mpf("1e-8"), mpf(10) ** -40):
            m_quadrature(mpf(a), CTX, tol=tol)
    below = [mpf(a) for a in M_QUAD_ALPHAS if mpf(a) < 4]
    refused = [(alpha, DomainError) for alpha in
               below + [0, 1, 4, -1, mpf(4) - mpf(10) ** -5]]
    refused.append((mpf(4) + mpf(10) ** -5, QuadratureBudgetError))
    for alpha, error in refused:
        with TermCounter() as counter:
            with pytest.raises(error, match="m_series"):
                m_quadrature(alpha, CTX)
        assert counter.count == 0, alpha


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


def _cardano(alpha, y, y3, f):
    """The root magnitudes of x^3 - alpha y x + 1 + y^3 by Cardano's
    formula, and its |c| and |d|, for y and y^3 fixed-point pairs at F bits,
    in mpc arithmetic 64 bits above F: a reference independent of the
    Newton solve."""
    with workprec(f + 64):
        y, y3 = (mpc(*z) / 2 ** f for z in (y, y3))
        p, h = -alpha * y, (1 + y3) / 2
        d = sqrt(h * h + (p / 3) ** 3)
        c = cbrt(-h - d if abs(h + d) > abs(h - d) else -h + d)
        w = mpc(-1, sqrt(mpf(3))) / 2
        return [abs(c * w ** k - p / (3 * c * w ** k)) for k in range(3)], \
            abs(c), abs(d)


def test_rouche_node_against_cardano(monkeypatch):
    # at every node of the periodic rule for alpha1, alpha3, 5 and 50, at
    # 140, 256, 512 and 1024 bits, half the log of the Rouche node value
    # against the sum of log+ of all three root magnitudes by Cardano's
    # formula on the same fixed-point y and y^3, 64 bits above F, within
    # the sum of two bounds: Cardano's rounding bound at those bits,
    # 2^(4-F-64) (1 + alpha/3)^3 (1 + 1/|c|)^2 (1 + 1/max(|d|, 2^(-F/2))),
    # twice (two magnitudes above 1, where log+ is 1-Lipschitz); and
    # _n_node's 6 |f/f'|/(alpha - 1) for half its log, the log itself taken
    # here 64 bits above F
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
                y3 = mahler._cmul(mahler._cmul(y, y, f), y, f)
                mags, c, d = _cardano(a, y, y3, f)
                with workprec(f + 64):
                    want = sum(log(r) for r in mags if r > 1)
                    got = log(ldexp(mpf(m), e)) / 2
                    cardano = 2 * mpf(2) ** (4 - f - 64) * (1 + a / 3) ** 3 \
                        * (1 + 1 / c) ** 2 * (1 + 1 / max(d, mpf(2) ** (-f // 2)))
                    rouche = 6 * _newton_units(ay, q, f, x) * mpf(2) ** -f \
                        / (a - 1)
                    gap = abs(got - want)
                    assert gap <= cardano + rouche, (prec, alpha)
                    worst = max(worst, gap / (cardano + rouche))
    assert 0 < worst < 1


def test_n_quadrature_periodic_near_the_cap(monkeypatch):
    # alpha2 = (7 - sqrt 5)/4^(1/3) = 3.0011, 3.003, 3.01 and 3.05, where
    # the root inside the unit disk nears 1 at t = 0 (0.968 at 3.003) and N*
    # nears or passes 1,024 (1,470 for alpha2 at 140 bits, 2,226 at 212):
    # the periodic rule against n_series at 1e-80, at 140 and 212 bits
    # (tol = 2^-132, about 1e-40), with every node's Rouche margin positive
    roots = _disk_roots(monkeypatch)
    with workprec(300):
        alphas = [_bertin_alphas()[1]] + [mpf(a) for a in ("3.003", "3.01", "3.05")]
    for alpha in alphas:
        with workprec(300):
            ref = n_series(alpha, CTX, tol=mpf(10) ** -80)
        for prec in (140, 212):
            roots.clear()
            with workprec(prec):
                nodes = prec * log(2) / acosh(2 * alpha ** 3 / 27 - 1)
            got = n_quadrature(alpha, CTX, tol=mpf(2) ** (80 - prec))
            assert abs(got - ref) < mpf(2) ** (4 - prec), (alpha, prec)
            margins = [_disk_margin(x, f, p) for _, _, f, x, p in roots]
            assert len(margins) > nodes / 2 and min(margins) > 0, (alpha, prec)
        if alpha == alphas[1]:
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
    # the m(alpha) kernel itself: even, f(y) = f(conj y), and at the table
    # node of t = k/4096 the log of the node value is
    # arccosh(alpha/2 + cos 2 pi t), within the node bound times the
    # kernel's slope 1/sqrt(w^2 - 1)
    nodes = _table_nodes(1, 120)
    with workprec(120 + 32):  # the rule's F = 120 + 64
        for alpha in (mpf(5), mpf("4.5")):
            for k in (0, 409, 942, 1365, 1638, 2048):
                y, _ = nodes[k]
                node = mahler._m_node(alpha, y)
                assert node == mahler._m_node(alpha, (y[0], -y[1]))
                with workprec(250):
                    got = log(ldexp(mpf(node[0]), node[1]))
                    want = acosh(alpha / 2 + cospi(mpf(k) / 2048))
                assert abs(got - want) < mpf(2) ** (8 - 184), (alpha, k)


def test_n_integrand_symmetry():
    # x^3 + y^3 + 1 - alpha x y is invariant under (x, y) -> (w^2 x, w y)
    # and under conjugation: the Jensen integrand, half the log of the
    # node value, has period 1/3 and is even, so the rule runs over one
    # period of 1/3
    f = 140 + 32

    def integrand(alpha, t):
        with workprec(f + 32):
            y = tuple(int(mp.floor(v * 2 ** f)) for v in (cospi(2 * t), sinpi(2 * t)))
        m, e = mahler._n_node(alpha, y)
        return log(ldexp(mpf(m), e)) / 2

    with workprec(140):
        third = mpf(1) / 3
        for alpha in (_bertin_alphas()[1], mpf("3.3"), mpf(5)):
            for t in (mpf("0.013"), mpf("0.07"), mpf(1) / 9, mpf("0.151")):
                v = integrand(alpha, t)
                assert abs(v - integrand(alpha, t + third)) < mpf(2) ** -100
                assert abs(v - integrand(alpha, third - t)) < mpf(2) ** -100


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


def test_n_quadrature_periodic_route_needs_no_cube_root_or_node_exponential(
        monkeypatch):
    # at alpha3 = 32^(1/3) the periodic rule takes its nodes from the table
    # and solves for one root per node by Newton's iteration: no mpc_cbrt
    # and no polyroots call, and exactly one
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
    monkeypatch.setattr(mahler, "polyroots", refuse)
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


def test_n_series_against_quadrature():
    with workprec(300):
        a1, a2, a3 = _bertin_alphas()
        for alpha in (a1, a3):
            ser = n_series(alpha, CTX, tol=mpf(10) ** -42)
            assert abs(ser - n_quadrature(alpha, CTX, tol=mpf(10) ** -8)) < mpf(10) ** -40
        # 27/a2^3 = 0.99891: the connection route of the kernel; the
        # quadrature takes the periodic rule at N* ~ 1,470
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
    # a wrong root makes n_quadrature raise: a root 2^-60 off fails its
    # residual gate at the first node (alpha3)
    root = mahler._disk_root

    def off(ay, q, bits, seed):
        xr, xi = root(ay, q, bits, seed)
        return xr + (1 << bits - 60), xi

    monkeypatch.setattr(mahler, "_disk_root", off)
    with pytest.raises(ArithmeticError, match="root at node .* residual over"):
        n_quadrature(cbrt(mpf(32)), CTX)


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
    with TermCounter() as m_quad:
        m_quadrature(mpf(5), CTX)
    # the periodic rule settles at 128 nodes per period, 65 distinct calls;
    # for m(5), N* = 101 also puts it at 128 nodes
    assert 0 < periodic.count <= 129
    assert 0 < m_quad.count <= 65


def test_n_quadrature_route_rule():
    # the periodic rule serves alpha > 3 while N* is below its budget:
    # alpha3, N* ~ 1,003 at alpha = 3.00234, N* ~ 1,034 at 3.0022 and
    # N* ~ 1,470 at alpha2 = 3.0011 (140 bits).  At or below 3 n_quadrature
    # refuses, and at 3.0001 (N* ~ 4,850) the budget refuses; both name
    # n_series and evaluate no node
    _, a2, a3 = _bertin_alphas()
    for alpha in (a3, mpf("3.00234"), mpf("3.0022"), a2):
        n_quadrature(alpha, CTX)
    refused = [(alpha, DomainError) for alpha in (0, 2, 3, -4, mpf("2.9999"))]
    refused.append((mpf("3.0001"), QuadratureBudgetError))
    for alpha, error in refused:
        with TermCounter() as counter:
            with pytest.raises(error, match="n_series"):
                n_quadrature(alpha, CTX)
        assert counter.count == 0, alpha


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


def _pair_stepped_m(alpha, tol, ctx):
    """m(alpha) below 4 as the sum of C(2n,n)^2 (r/4)^(2n) r/(2n+1) to tol,
    stepped with r = alpha/4 = a/(4b) inside the integer pairs, which are
    as wide as alpha's mantissa."""
    with ctx.workprec(32):
        a, b = as_ratio(alpha)
        terms = ratio_series(
            lambda n: ((2 * n - 1) ** 2 * a * a, 64 * n * n * b * b),
            lambda n: (a, 4 * b * (2 * n + 1)))
        return +sum_geometric(terms, tol, ratio=(alpha / 4) ** 2,
                              max_terms=ctx.max_terms)


def _pair_stepped_lambda(s, z, tol, ctx):
    """Lambda_s(z) summed directly with z = zn/zd inside the integer pairs."""
    with ctx.workprec(64):
        pn, pd = as_ratio(s * (1 - s))
        zn, zd = as_ratio(z)
        terms = ratio_series(
            lambda n: (((n - 1) * n * pd + pn) * zn, n * n * pd * zd),
            lambda n: (1, n), start=1)
        return +sum_geometric(terms, tol, ratio=abs(z), max_terms=ctx.max_terms)


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024])
def test_ratio_factor_against_pair_stepping(bits):
    # m(alpha) below 4 takes r^2 and Lambda_s(z) takes z as one fixed-point
    # factor of the term ratio; stepping the same series with alpha or z
    # inside wide integer pairs takes the same number of terms and lands
    # within 2^-(bits + 32), the tol both are asked for, so that both are
    # stepped at the working precision's width.  1.778... is rs-param's 4r
    # at q = 1/10.
    ctx, tol = PrecisionCtx(bits=bits), mpf(2) ** -(bits + 32)
    with ctx.workprec(32):
        q = mpf(1) / 10
        alphas = [to_mpf(Fraction(8, 3)),
                  4 * phi_theta(-q, ctx) ** 2 / phi_theta(q, ctx) ** 2]
    with ctx.workprec(64):
        lambdas = [(Fraction(1, 2), to_mpf(Fraction(5, 9))),
                   (Fraction(1, 3), -to_mpf(Fraction(3, 7)))]
    assert 1.77 < alphas[1] < 1.78
    cases = [(lambda a=a: m_series(a, ctx, tol=tol),
              lambda a=a: _pair_stepped_m(a, tol, ctx)) for a in alphas]
    cases += [(lambda s=s, z=z: lambda_series(s, z, ctx, tol=tol),
               lambda s=s, z=z: _pair_stepped_lambda(s, z, tol, ctx))
              for s, z in lambdas]
    for new, old in cases:
        with TermCounter() as new_count:
            got = new()
        with TermCounter() as old_count:
            ref = old()
        assert new_count.count == old_count.count
        with workprec(bits + 256):
            assert abs(got - ref) < mpf(2) ** -(bits + 32)


# alpha in the band below 4: above 4/sqrt(1.35) = 3.443 the kernel's
# connection expansion, continued past z = 1, and at 3.45 just above it
NEAR_FOUR = ("3.45", "3.6", "3.9", "3.99", "3.999", "3.9999", "4 - 1e-12")


def _near_four(a):
    return mpf(4) - mpf("1e-12") if a == "4 - 1e-12" else mpf(a)


def test_m_series_near_four_against_quadrature(m_oracle):
    # up to 4 - 1e-12, where the binomial series of m(4r) would need far
    # more than its 500,000 terms, the kernel meets tol 1e-42; the Jensen
    # quadrature is the oracle's
    tol = mpf(10) ** -42
    with workprec(300):
        for a in NEAR_FOUR:
            alpha = _near_four(a)
            ser = m_series(alpha, CTX, tol=tol)
            assert abs(ser - m_oracle(alpha)) < tol, a


@pytest.mark.parametrize("bits", [256, 512])
def test_m_series_below_four_has_bounded_cost(bits):
    # every alpha in (2, 4) costs at most 300 terms at tol 1e-42 and the
    # default budget: the binomial series up to the switch (284 terms just
    # below it), the kernel beyond (88 just above it, fewer towards 4)
    ctx, rng = PrecisionCtx(bits=bits), random.Random(37)
    with workprec(bits + 64):
        alphas = [2 + 2 * mpf(rng.random()) for _ in range(24)]
        alphas += [_near_four(a) for a in NEAR_FOUR]
    for alpha in alphas:
        with TermCounter() as counter:
            m_series(alpha, ctx, tol=mpf(10) ** -42)
        assert 0 < counter.count <= 300, alpha


def test_m_series_continuous_at_the_switch():
    # 16/alpha^2 = 2 - LAMBDA_SWITCH at alpha = 4/sqrt(1.35): just below it
    # the binomial series of m(4r), just above it the kernel's connection
    # expansion in w = 1 - 16/alpha^2, which agree within tol
    tol = mpf(10) ** -42
    with workprec(300):
        switch, delta = 4 / sqrt(2 - LAMBDA_SWITCH), mpf(2) ** -200
        runs = []
        for alpha in (switch * (1 - delta), switch * (1 + delta)):
            with TermCounter() as counter:
                runs.append((m_series(alpha, CTX, tol=tol), counter.count))
        (below, binomial), (above, kernel) = runs
        assert abs(below - above) < tol
        assert binomial > 200 > 100 > kernel


def test_n_quadrature_periodic_level_floor():
    # at alpha ~ 3.00139 (N* ~ 1,301 nodes at 140 bits) the levels 512 and
    # 1,024 agree to 2^-70 while 11 bits short of the working precision; the
    # rule goes on to 2,048 >= N* nodes
    alpha = mpf("3.00139")
    with TermCounter() as counter:
        got = n_quadrature(alpha, CTX)
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
