"""Exact curve arithmetic, AGM periods, the Weierstrass function and the
elliptic dilogarithm lattice sums."""

import random
from fractions import Fraction

import pytest
from mpmath import (arg, ceil, exp, expjpi, im, log, mp, mpc, mpf, nint, pi,
                    polylog, polyroots, workprec)
from mpmath.libmp import to_fixed

import wzmahler.elliptic as elliptic_module
from wzmahler import (ComplexRootsUnsupportedError, ConvergenceError,
                      DomainError, PrecisionCtx, SingularCurveError)
from wzmahler.context import to_mpf
from wzmahler.elliptic import (INFINITY, CurvePoint, EllipticCurve,
                               curve_from_family, elliptic_dilog, is_on_curve,
                               lattice_dilog_sum, periods, point_add, point_mul,
                               point_neg, point_order, wp)
from wzmahler.numkernel import GUARD_D, bloch_wigner
from wzmahler.series import TermCounter

CTX = PrecisionCtx(bits=256)
TOL = mpf(2) ** -200

E1 = curve_from_family(25, 2)
E2 = curve_from_family(256, Fraction(1, 2))
E3 = curve_from_family(64, Fraction(1, 2))
E4 = curve_from_family(18, 1)
BERTIN = EllipticCurve(432, -1188)

P1 = CurvePoint.affine(87, 1080)
P2 = CurvePoint.affine(195, 432)
P3 = CurvePoint.affine(51, 216)
P4 = CurvePoint.affine(33, 324)
PB = CurvePoint.affine(-6, 54)

CURVE_POINTS = [(E1, P1), (E2, P2), (E3, P3), (E4, P4), (BERTIN, PB)]


def test_family_constants():
    assert (E1.g2, E1.g3) == (26028, -796824)
    assert (E2.g2, E2.g3) == (414828, -51418584)
    assert (E4.g2, E4.g3) == (1404, -7560)


def test_points_on_curves():
    for e, p in CURVE_POINTS:
        assert is_on_curve(e, p)
    assert not is_on_curve(E1, CurvePoint.affine(87, 1081))
    assert is_on_curve(E1, INFINITY)


def test_singular_curve_rejected():
    with pytest.raises(SingularCurveError):
        EllipticCurve(3, 1)  # g2^3 = 27 g3^2


def test_group_law_identities():
    for e, p in CURVE_POINTS:
        assert point_add(e, p, INFINITY) == p
        assert point_add(e, INFINITY, p) == p
        assert point_add(e, p, point_neg(p)) == INFINITY


def test_doubling_values():
    two_p1 = point_mul(E1, 2, P1)
    assert two_p1 == CurvePoint.affine(51, 0)  # 2-torsion
    assert point_mul(BERTIN, 2, PB) == CurvePoint.affine(12, -54)
    assert point_mul(BERTIN, 3, PB) == CurvePoint.affine(3, 0)


def test_torsion_orders():
    for e, p, order in [(E1, P1, 4), (E2, P2, 4), (E3, P3, 4), (E4, P4, 4),
                        (BERTIN, PB, 6)]:
        assert point_order(e, p) == order
        assert not point_mul(e, 2, p).is_infinity
    assert not point_mul(BERTIN, 3, PB).is_infinity
    assert point_order(E1, INFINITY) == 1


def test_group_law_associativity_random():
    rng = random.Random(23)
    for e, p in CURVE_POINTS:
        pts = [point_mul(e, m, p) for m in range(0, point_order(e, p))]
        for _ in range(10):
            a, b, c = (rng.choice(pts) for _ in range(3))
            left = point_add(e, point_add(e, a, b), c)
            right = point_add(e, a, point_add(e, b, c))
            assert left == right


def test_lemniscatic_tau():
    e = EllipticCurve(4, 0)
    for bits in (224, 256, 512):
        per = periods(e, PrecisionCtx(bits=bits))
        with workprec(bits + 64):
            assert abs(per.tau - mpc(0, 1)) < TOL
            assert per.roots[0] == 1 and abs(per.roots[2] + 1) < TOL


@pytest.mark.parametrize("bits", [256, 512])
def test_periods_recover_rational_roots(bits):
    # each registry curve's rational 2-division roots, from the closed form
    # to within 2^-(bits+48) max|e_i|
    ctx = PrecisionCtx(bits=bits)
    for e, rational in [(E1, (-93, 42, 51)), (E4, (-21, 6, 15)), (E2, (186,)),
                        (E3, (42,)), (BERTIN, (3,))]:
        assert all(e.rhs(r) == 0 for r in rational)
        roots = periods(e, ctx).roots
        with workprec(bits + 64):
            tol = mpf(2) ** -(bits + 48) * max(abs(r) for r in roots)
            for r in rational:
                assert min(abs(x - r) for x in roots) < tol


@pytest.mark.parametrize("bits", [256, 512])
def test_periods_roots_against_polyroots(bits):
    # seeded random curves of positive discriminant against mpmath's
    # polyroots at bits + 96, to within 2^-(bits+48) max|e_i|
    rng = random.Random(bits)
    ctx = PrecisionCtx(bits=bits)
    checked = 0
    while checked < 12:
        e = EllipticCurve(Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 50)),
                          Fraction(rng.randint(-10 ** 8, 10 ** 8), rng.randint(1, 50)))
        if e.discriminant <= 0:
            continue
        roots = periods(e, ctx).roots
        with workprec(bits + 96):
            ref = sorted((x.real for x in polyroots(
                [4, 0, -to_mpf(e.g2), -to_mpf(e.g3)], maxsteps=200,
                extraprec=bits)), reverse=True)
            tol = mpf(2) ** -(bits + 48) * max(abs(x) for x in ref)
            assert all(abs(x - y) < tol for x, y in zip(roots, ref))
        checked += 1


def test_periods_structure():
    for e, _ in CURVE_POINTS:
        per = periods(e, CTX)
        assert im(per.tau) > 0
        assert 0 < per.q < 1
    assert [round(float(r)) for r in periods(E1, CTX).roots] == [51, 42, -93]
    # memoised per (curve, context); an int-built curve is the same key
    assert periods(EllipticCurve(int(E1.g2), int(E1.g3)), CTX) is periods(E1, CTX)


def test_complex_roots_rejected():
    with pytest.raises(ComplexRootsUnsupportedError):
        periods(EllipticCurve(0, -4), CTX)  # single real root


def test_lattice_pole_rejected():
    from wzmahler import LatticePoleError
    per = periods(E1, CTX)
    with pytest.raises(LatticePoleError):
        wp(E1, mpf(0), CTX)
    with workprec(300):  # the lattice point must be formed at full precision
        u = per.omega + per.omega_prime
    with pytest.raises(LatticePoleError):
        wp(E1, u, CTX)


def test_wp_half_period_and_evenness():
    with workprec(300):
        per = periods(E1, CTX)
        assert abs(wp(E1, per.omega / 2, CTX) - per.roots[0]) < mpf(10) ** -60
        u = mpf("0.11") * per.omega + mpf("0.23") * per.omega_prime
        assert abs(wp(E1, u, CTX) - wp(E1, -u, CTX)) < mpf(10) ** -60


def test_wp_quarter_period_torsion_point():
    with workprec(300):
        per = periods(E1, CTX)
        assert abs(wp(E1, per.omega / 4, CTX) - 87) < mpf(10) ** -60


def test_wp_torsion_consistency():
    # |wp(a omega + b omega') - x(P)| < 1e-20 for every catalogued point
    locs = {id(E1): (Fraction(1, 4), Fraction(0)), id(E2): (Fraction(1, 4), Fraction(0)),
            id(E3): (Fraction(1, 4), Fraction(0)), id(E4): (Fraction(1, 4), Fraction(0)),
            id(BERTIN): (Fraction(1, 6), Fraction(-1, 2))}
    with workprec(300):
        for e, p in CURVE_POINTS:
            per = periods(e, CTX)
            a, b = locs[id(e)]
            u = mpf(a.numerator) / a.denominator * per.omega \
                + mpf(b.numerator) / b.denominator * per.omega_prime
            val = wp(e, u, CTX)
            assert abs(val - mpf(int(p.x))) < mpf(10) ** -20


def test_lattice_sum_basics():
    with workprec(300):
        # real z0 gives identically zero terms: an exact mpf zero
        for z0, q in ((mpf("0.37"), mpf(1) / 10), (mpf(-5) / 2, mpf(-1) / 4),
                      (mpc(3, 0), mpf("0.00736"))):
            val = lattice_dilog_sum(z0, q, CTX)
            assert val == 0 and isinstance(val, mpf)
        # at tiny q the n = 0 term dominates: D(i) = Catalan, up to the
        # n = +-1 shells of size ~ 2 q log(1/q)
        from mpmath import catalan
        val = lattice_dilog_sum(mpc(0, 1), mpf(10) ** -35, CTX)
        assert abs(val - catalan) < mpf(10) ** -30


def _polylog_d(z):
    """D(z) from mpmath's polylog, independent of numkernel's Li2."""
    if im(z) == 0:
        return mpf(0)
    return im(polylog(2, z)) + arg(1 - z) * log(abs(z))


def test_lattice_sum_oracle_doubled_precision():
    # independent route: mpmath polylog-based D, explicit two-sided window,
    # at doubled precision
    q = mpf(1) / 10
    with workprec(600):
        oracle = sum(_polylog_d(mpc(0, 1) * q ** n) for n in range(-220, 221))
    with workprec(300):
        val = lattice_dilog_sum(mpc(0, 1), q, CTX)
        assert abs(val - oracle) < mpf(10) ** -70


def _window_oracle(z0, q, cut):
    """sum_{|n| <= N} D(z0 q^n) at the current precision, with N chosen so
    that |q|^N < 2^-cut."""
    n_max = int(cut / -log(abs(q), 2)) + 2
    return sum(_polylog_d(z0 * q ** n) for n in range(-n_max, n_max + 1))


# the nomes and the points z0 = e^(2 pi i a) of the registry's lattice sums
_NOMES = ["1/10", "1/4", "-1/4", "0.00736"]
_UNIT_POINTS = {"i": "1/4", "e^(2 pi i/3)": "1/3", "e^(pi i/3)": "1/6"}
_BERTIN_POINT = "e^(pi i/3) q^(-1/2)"


def _registry_point(name, q):
    a = _UNIT_POINTS.get(name)
    if a is not None:
        return expjpi(2 * to_mpf(Fraction(a)))
    return expjpi(mpf(1) / 3) * q ** mpf("-0.5")  # Bertin's off-circle point


@pytest.mark.parametrize("name, q",
                         [(name, q) for name in _UNIT_POINTS for q in _NOMES]
                         + [(_BERTIN_POINT, "0.00736")])
def test_lattice_sum_against_polylog_window(name, q):
    # Bloch's q-expansion against an explicit two-sided window of
    # polylog-based D terms at 88 bits above the highest precision tested
    # (600 bits for 512), whose omitted terms are below 2^-(that - 40).
    # The kernel seeks 2^-(bits + 24); 16 of those guard bits are asked for
    # here.  Bertin's point is also taken at 1024 bits: there |z0| =
    # |q|^(-1/2) sits at the kernel's index shift boundary and the two
    # half-sums stop at different k.
    bits_list = (256, 512, 1024) if name == _BERTIN_POINT else (256, 512)
    prec = max(bits_list) + 88
    with workprec(prec):
        q = to_mpf(Fraction(q))
        z0 = _registry_point(name, q)
        oracle = _window_oracle(z0, q, prec - 40)
        for bits in bits_list:
            val = lattice_dilog_sum(z0, q, PrecisionCtx(bits=bits))
            assert abs(val - oracle) < mpf(2) ** -(bits + 16), bits


def _half_sum_reference(z, q, eps):
    """H(z) = sum_k Im(z^k) Q_k (1/k^2 - log|z|/k - log|q|/((1-q^k) k)),
    term by term in mpf/mpc arithmetic with the kernel's stopping rule
    (tail bound C r^(k+1)/(1-r) < eps), and the number of terms taken."""
    lz, lq, aq = log(abs(z)), log(abs(q)), abs(q)
    r = abs(z) * aq
    tail = (1 + abs(lz) + abs(lq) / (1 - aq)) / ((1 - aq) * (1 - r)) * r
    total, zk, qk, k = mpf(0), mpc(1), mpf(1), 0
    while True:
        k += 1
        zk *= z
        qk *= q
        d = 1 - qk
        total += zk.imag * qk / (d * k) * (1 / mpf(k) - lz - lq / d)
        tail *= r
        if tail < eps:
            return total, k


@pytest.mark.parametrize("name, q, bits",
                         [("i", "1/4", bits) for bits in (256, 512, 1024)]
                         + [(_BERTIN_POINT, "0.0063508", bits)
                            for bits in (256, 512, 1024)]
                         + [("e^(2 pi i/3)", "-0.7", 256),
                            ("e^(2 pi i/3)", "0.9", 256),
                            (_BERTIN_POINT, "0.5", 512)]
                         + [("i", q, bits) for q in ("-1/4", "-0.9")
                            for bits in (256, 512, 1024)]
                         + [("e^(pi i/3)", "1/10", 512),
                            ("e^(pi i/3)", "-0.9", 256)])
def test_lattice_sum_rounding_against_mpf_loop(name, q, bits):
    # The integer loop against the same truncated half-sums summed in mpf
    # arithmetic 300 bits higher, with the same D(z0): what is left is
    # rounding.  The kernel keeps its loop's rounding below 2^-w at its
    # working precision w = bits + 64, and rounds the half-sums and the
    # result there, so the gap is below 2^-w (2 + 2|value|).  Nomes near
    # +-1 give the loop thousands of terms and large coefficients.
    ctx = PrecisionCtx(bits=bits)
    with ctx.workprec(32):
        w = mp.prec
        q = to_mpf(Fraction(q))
        z0 = _registry_point(name, q)
        z = z0 * q ** int(nint(log(abs(z0)) / -log(abs(q))))  # kernel's shift
        d = bloch_wigner(z, ctx)
        with TermCounter() as counter:
            val = lattice_dilog_sum(z0, q, ctx)
    eps = mpf(2) ** -(bits + GUARD_D)
    with workprec(w + 300):
        up, k_up = _half_sum_reference(z, q, eps)
        down, k_down = _half_sum_reference(1 / z, q, eps)
        assert counter.count == k_up + k_down + 1
        assert abs(val - (d + up - down)) < mpf(2) ** -w * (2 + 2 * abs(val))


def _reciprocal_form(z, q, k_up, k_down, prec):
    """``_half_sum_difference`` in the form that carried 1/(1-q^k) at full
    width and took every term, zero or not, with both products by g^k."""
    with workprec(prec):
        n = z.real ** 2 + z.imag ** 2
        if n < 1:
            u, g, sign = q / z, n, -1
            k_up, k_down = k_down, k_up
        else:
            u, g, sign = z * q, 1 / n, 1
        ur, ui, gf, qf, lq = (to_fixed(x._mpf_, prec)
                              for x in (u.real, u.imag, g, q, log(abs(q))))
        lw = to_fixed((sign * log(abs(z)))._mpf_, prec)
    one = 1 << prec
    tr, n2 = 2 * ur, (ur * ur + ui * ui) >> prec
    y_prev, y, gk, qk = 0, ui, gf, qf
    total = 0
    for k in range(1, max(k_up, k_down) + 1):
        inv_d = (one << prec) // (one - qk)
        a = one // k - (lq * inv_d >> prec)
        s = a - lw if k <= k_up else 0
        if k <= k_down:
            s += gk * (a + lw) >> prec
            gk = gk * gf >> prec
        total += ((y * s >> prec) * inv_d >> prec) // k
        y_prev, y = y, (tr * y - n2 * y_prev) >> prec
        qk = qk * qf >> prec
    return mpf((sign * total, -prec))


@pytest.mark.parametrize("bits", [64, 128, 256, 512, 1024])
def test_half_sums_against_the_reciprocal_form(monkeypatch, bits):
    # The loop that carries q^k/(1-q^k), skips exact-zero terms and drops
    # g^k = 1 against a test-local copy of the loop that carried 1/(1-q^k),
    # on the arguments the kernel passes: on the unit circle (i, where the
    # even terms are exact zeros, and e^(pi i/3)) and at Bertin's point,
    # off it.  Each is within its docstring's budget of the same truncated
    # half-sums, so they agree within 2 * 2^-w, w = bits + 64.  log|w| is
    # mpmath's here; the kernel's integer log near |z| = 1 is within 2
    # units of it, inside the slack of P.
    calls = []
    kernel = elliptic_module._half_sum_difference

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(elliptic_module, "_half_sum_difference", spy)
    ctx = PrecisionCtx(bits=bits)
    with ctx.workprec(32):
        q_b = mpf("0.0063508")
        points = [(mpc(0, 1), mpf(1) / 4), (mpc(0, 1), -mpf(1) / 4),
                  (mpc(0, 1), mpf("0.00736")),
                  (_registry_point("e^(pi i/3)", None), mpf(1) / 10),
                  (_registry_point(_BERTIN_POINT, q_b), q_b)]
    for z0, q in points:
        elliptic_module.lattice_dilog_sum.cache_clear()
        lattice_dilog_sum(z0, q, ctx)
    assert len(calls) == len(points)
    w = bits + 64
    for z, q, k_up, k_down, prec in calls:
        with workprec(2 * prec):
            new, old = kernel(z, q, k_up, k_down, prec), \
                _reciprocal_form(z, q, k_up, k_down, prec)
            assert abs(new - old) < mpf(2) ** (1 - w), (z, q, bits)


@pytest.mark.parametrize("bits, at_i, at_bertin", [(256, 283, 103),
                                                   (512, 539, 197),
                                                   (1024, 1051, 385)])
def test_lattice_sum_term_counts(bits, at_i, at_bertin):
    # the counter receives k_up + k_down + 1; each half stops by its own
    # tail bound, so at Bertin's point (|z| = |q|^(-1/2)) they differ
    ctx = PrecisionCtx(bits=bits)
    with ctx.workprec(32):
        q_b = mpf("0.0063508")
        cases = [(mpc(0, 1), mpf(1) / 4, at_i), (mpc(0, 1), -mpf(1) / 4, at_i),
                 (_registry_point(_BERTIN_POINT, q_b), q_b, at_bertin)]
    for z0, q, expected in cases:
        with TermCounter() as counter:
            lattice_dilog_sum(z0, q, ctx)
        assert counter.count == expected, (bits, q)


def _mpf_stop_index(r, c, eps, max_terms, budget, first=1, log2c=None):
    """The stop index by mpf logs corrected by mpf comparisons, at the
    working precision: the rule the float decisions stand in for."""
    if log2c is not None:
        c = c()
    tail = c * r / (1 - r)
    k = max(first, int(ceil(log(eps / tail) / log(r))))
    while tail * r ** k >= eps:
        k += 1
    while k > first and tail * r ** (k - 1) < eps:
        k -= 1
    if k > max_terms:
        raise ConvergenceError(budget)
    return k


def test_lattice_sum_float_decisions_match_mpf(monkeypatch):
    # the shift m, k_up, k_down and P from floats against the same integers
    # from mpf expressions, on seeded (z0, q) at 64..1024 bits; a third of
    # the points sit at |z0| = |q|^(+-1/2) or |q|^(+-3/2), where
    # log|z0|/log(1/|q|) is a half-integer and m is a tie left to mpf.  The
    # sums and their term counts are equal bit for bit as well
    rng = random.Random(8191)
    seen = []
    half = elliptic_module._half_sum_difference

    def spy(z, q, k_up, k_down, prec):
        seen.append((z, k_up, k_down, prec))
        return half(z, q, k_up, k_down, prec)

    monkeypatch.setattr(elliptic_module, "_half_sum_difference", spy)
    cases = []
    for bits in (64, 256, 512, 1024):
        ctx = PrecisionCtx(bits=bits)
        for i in range(12):
            with ctx.workprec(32):
                q = mpf(10) ** -rng.uniform(0.1, 3) * rng.choice((1, -1))
                power = rng.choice((-1.5, -0.5, 0.5, 1.5)) if i % 3 == 0 \
                    else rng.uniform(-2, 2)
                z0 = abs(q) ** power * exp(mpc(0, rng.uniform(0.1, 3)))
            cases.append((z0, q, ctx))
    runs = []
    for _ in range(2):
        lattice_dilog_sum.cache_clear()
        seen.clear()
        counts, values = [], []
        for z0, q, ctx in cases:
            with TermCounter() as counter:
                values.append(lattice_dilog_sum(z0, q, ctx))
            counts.append(counter.count)
        runs.append((list(seen), counts, values))
        monkeypatch.setattr(elliptic_module, "_float_ceil",
                            lambda x, exact: exact())
        monkeypatch.setattr(elliptic_module, "_stop_index", _mpf_stop_index)
    assert runs[0] == runs[1]
    assert len(runs[0][0]) == len(cases)


def test_lattice_sum_stop_index_once_on_the_unit_circle(monkeypatch):
    # |z| = 1 gives r_up = r_down: one stop index serves both half-sums
    calls = []
    stop = elliptic_module._stop_index

    def counted(*args, **kwargs):
        calls.append(args[0])
        return stop(*args, **kwargs)

    monkeypatch.setattr(elliptic_module, "_stop_index", counted)
    lattice_dilog_sum.cache_clear()
    lattice_dilog_sum(mpc(0, 1), mpf(1) / 4, CTX)
    assert len(calls) == 1
    calls.clear()
    with CTX.workprec(32):
        q_b = mpf("0.0063508")
        z_b = _registry_point(_BERTIN_POINT, q_b)
    lattice_dilog_sum(z_b, q_b, CTX)
    assert len(calls) == 2


@pytest.mark.parametrize("bits", [256, 512])
def test_lattice_sum_inversion_antisymmetry(bits):
    # sum_n D(q^n/z0) = -sum_n D(z0 q^n) by D(1/w) = -D(w): off the unit
    # circle the two sums take opposite orientations of the one power
    # sequence (|z| > 1 as given, |z| < 1 inverted), and each is checked
    # against a polylog window as well
    ctx = PrecisionCtx(bits=bits)
    rng = random.Random(bits + 1)
    with workprec(bits + 88):
        for _ in range(3):
            q = mpf(rng.uniform(0.05, 0.4)) * rng.choice((1, -1))
            z0 = abs(q) ** rng.uniform(-0.45, -0.05) \
                * exp(mpc(0, rng.uniform(0.2, 2.9)))
            val, inv = lattice_dilog_sum(z0, q, ctx), \
                lattice_dilog_sum(1 / z0, q, ctx)
            assert abs(val + inv) < mpf(2) ** -(bits + 16)
            oracle = _window_oracle(z0, q, bits + 48)
            assert abs(val - oracle) < mpf(2) ** -(bits + 16)


@pytest.mark.parametrize("name, q", [("i", "1/10"), ("e^(2 pi i/3)", "-1/4"),
                                     ("e^(pi i/3) q^(-1/2)", "0.00736")])
def test_lattice_sum_index_shift_invariance(name, q):
    # sum_n D(z0 q^(n+m)) is the same series: the kernel's own index shift
    # must land on the same value from z0 q^m
    with workprec(600):
        q = to_mpf(Fraction(q))
        z0 = _registry_point(name, q)
        for bits in (256, 512):
            ctx = PrecisionCtx(bits=bits)
            base = lattice_dilog_sum(z0, q, ctx)
            for m in (-3, 2):
                shifted = lattice_dilog_sum(z0 * q ** m, q, ctx)
                assert abs(shifted - base) < mpf(2) ** -(bits + 16), (bits, m)


def test_lattice_sum_memoises_d_of_z0():
    # the sum and D(z0) are memoised on their exact arguments, ctx included:
    # a repeated sum is the identical mpf and charges the same terms, the
    # memo of D holds an uncached D(z0) bit for bit, and 256 and 512 bits,
    # or another max_terms, get entries of their own.  i is exact at every
    # precision, so only ctx tells the keys apart
    z, q = mpc(0, 1), mpf(1) / 10
    ctx256, ctx512 = PrecisionCtx(bits=256), PrecisionCtx(bits=512)
    counts, values = [], []
    for _ in range(2):
        with TermCounter() as counter:
            values.append(lattice_dilog_sum(z, q, ctx256))
        counts.append(counter.count)
    assert values[0] is values[1] and counts[0] == counts[1] > 1
    memo = {ctx: bloch_wigner(z, ctx) for ctx in (ctx256, ctx512)}
    bloch_wigner.cache_clear()
    lattice_dilog_sum.cache_clear()
    for ctx, val in memo.items():
        assert val._mpf_ == bloch_wigner(z, ctx)._mpf_
    assert memo[ctx256] != memo[ctx512]
    at512 = lattice_dilog_sum(z, q, ctx512)
    assert at512 != values[0] and abs(at512 - values[0]) < mpf(2) ** -256
    assert lattice_dilog_sum(z, q, ctx256) == values[0]
    other = PrecisionCtx(bits=256, max_terms=400_001)
    again = lattice_dilog_sum(z, q, ctx256)
    assert lattice_dilog_sum(z, q, other) == again
    assert lattice_dilog_sum(z, q, other) is not again


def test_lattice_sum_failure_is_not_memoised():
    # q = 1/10 at 256 bits needs about 85 expansion terms on each side: the
    # budget of 60 fails before and after the default budget succeeds
    short = PrecisionCtx(max_terms=60)
    z, q = mpc(0, 1), mpf(1) / 10
    lattice_dilog_sum.cache_clear()
    with pytest.raises(ConvergenceError):
        lattice_dilog_sum(z, q, short)
    assert lattice_dilog_sum(z, q) != 0
    with pytest.raises(ConvergenceError):
        lattice_dilog_sum(z, q, short)


def test_lattice_sum_domain_and_budget():
    for q in (mpf(1), mpf(-1), mpf(0), mpf(2)):
        with pytest.raises(DomainError):
            lattice_dilog_sum(mpc(0, 1), q, CTX)
    with pytest.raises(DomainError):
        lattice_dilog_sum(0, mpf(1) / 10, CTX)
    # q = 1/4 at 256 bits needs about 140 expansion terms on each side;
    # at Bertin's point only the up half-sum needs more than 60
    short = PrecisionCtx(bits=256, max_terms=60)
    with pytest.raises(ConvergenceError):
        lattice_dilog_sum(mpc(0, 1), mpf(1) / 4, short)
    with short.workprec(32):
        q_b = mpf("0.0063508")
        z_b = _registry_point(_BERTIN_POINT, q_b)
    with pytest.raises(ConvergenceError):
        lattice_dilog_sum(z_b, q_b, short)
    # the counter receives the expansion terms of both half-sums plus D(z0);
    # on the unit circle with q > 0 both half-sums stop at the same k
    with TermCounter() as counter:
        lattice_dilog_sum(mpc(0, 1), mpf(1) / 4, CTX)
    assert counter.count % 2 == 1 and 200 < counter.count < 400


def test_elliptic_dilog_locations():
    with workprec(300):
        per = periods(E1, CTX)
        # (1/2, 0) means z0 = -1, a real point: the sum vanishes
        assert elliptic_dilog(E1, (Fraction(1, 2), Fraction(0)), CTX) == 0
        with pytest.raises(DomainError):
            elliptic_dilog(E1, (Fraction(0), Fraction(0)), CTX)
        loc = (Fraction(1, 4), Fraction(0))
        direct = lattice_dilog_sum(mpc(0, 1), per.q, CTX)
        assert abs(elliptic_dilog(E1, loc, CTX) - direct) < TOL


def test_bertin_q_matches_signature3_nome():
    # two fully independent routes to the same nome: AGM periods of the
    # curve vs the signature-3 hypergeometric quotient at beta = 5/32
    from wzmahler.modular import q3_from_beta
    with workprec(300):
        per = periods(BERTIN, CTX)
        q3 = q3_from_beta(Fraction(5, 32), CTX)
        assert abs(per.q - q3) < mpf(10) ** -70


def test_bertin_location_identity():
    # z0 at u = (omega - 3 omega')/6 equals e^(i pi/3) q^(-1/2), so D^E(P)
    # equals the half-integer-exponent lattice sum
    with workprec(300):
        per = periods(BERTIN, CTX)
        u = (per.omega - 3 * per.omega_prime) / 6
        z0 = exp(2 * pi * mpc(0, 1) * u / per.omega)
        z0b = exp(pi * mpc(0, 1) / 3) * per.q ** mpf("-0.5")
        assert abs(z0 - z0b) < mpf(10) ** -70
        via_loc = elliptic_dilog(BERTIN, (Fraction(1, 6), Fraction(-1, 2)), CTX)
        direct = lattice_dilog_sum(z0b, per.q, CTX)
        assert abs(via_loc - direct) < mpf(10) ** -70
