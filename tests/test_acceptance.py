"""Acceptance suite: every exit criterion at its stated tolerance, one
pass/fail line printed per criterion (run pytest -s to see them).

Numeric criteria go through the registry so the shipped evaluators are what
is being accepted; the property criteria (randomized functional equations,
group laws, round trips) run directly against the library.
"""

import os
import random
import subprocess
import sys
import time

from mpmath import asin, exp, log, mp, mpc, mpf, pi, sin, sqrt, workprec

from wzmahler import PrecisionCtx, bloch_wigner, gamma_real
from wzmahler.elliptic import point_add, point_mul, point_neg, point_order
from wzmahler.mahler import m_quadrature, m_series
from wzmahler.registry import CURVES, lookup, run_check
from wzmahler.symbolic.hyperterm import term_shift_ratio
from wzmahler.symbolic.pairs import builtin_pairs
from wzmahler.symbolic.pfq import pfq_eval

CTX = PrecisionCtx(bits=256)


def _entry(ident, tol=None, expect="PASS", budget=None):
    t0 = time.monotonic()
    rep = run_check(ident, CTX)
    elapsed = time.monotonic() - t0
    assert rep.status == expect, f"{ident}: {rep.status} ({rep.notes})"
    if tol is not None:
        assert mpf(rep.abs_diff) <= tol, f"{ident}: |diff| = {rep.abs_diff}"
    if budget is not None:
        assert elapsed < budget, f"{ident}: {elapsed:.1f}s over budget {budget}s"
    return rep, elapsed


def _report(criterion, detail, elapsed):
    print(f"criterion {criterion}: PASS ({elapsed:.1f}s) {detail}")


def test_criterion_01_exact_wz_certificates():
    total = 0.0
    for ident in ("wz-pair-1", "wz-pair-3", "wz-pair-divergent"):
        rep, elapsed = _entry(ident, budget=1.0)
        assert "certificate polynomial == 0" in rep.notes
        total += elapsed
    _report(1, "three WZ certificates reduce to the zero polynomial", total)


def test_criterion_02_log2_formulas():
    tol = mpf(10) ** -40
    total = 0.0
    for ident in ("log2-f1", "log2-f2", "log2-f3"):
        rep, elapsed = _entry(ident, tol=tol, budget=1.0)
        assert rep.terms_used <= 200, f"{ident} used {rep.terms_used} terms"
        total += elapsed
    _report(2, "log(2) formulas at 1e-40 within 200 terms", total)


def test_criterion_03_gamma_quotient_generalizations():
    t0 = time.monotonic()
    tol = mpf(10) ** -30
    _entry("log2-f1-gen", tol=tol)
    _entry("log2-f3-gen", tol=tol)
    with workprec(320):
        x = mpf(1) / 2
        combo = pi * gamma_real(x, CTX) * gamma_real(x + 1, CTX) \
            / gamma_real(x + mpf(1) / 2, CTX) ** 2
        assert abs(combo - pi ** 2 / 2) < mpf(10) ** -70
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    _report(3, "both generalizations at x in {1/4,1/3,1/2,3/2}; "
               "x = 1/2 closed form pi^2/2", elapsed)


def test_criterion_04_zeta3_suite():
    t0 = time.monotonic()
    _entry("zeta3-f1", tol=mpf(10) ** -10)
    _entry("zeta3-f3", tol=mpf(10) ** -10)
    _entry("zeta3-f2", tol=mpf(10) ** -30, expect="CONJECTURAL-PASS")
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(4, "zeta(3) formulas; the unproven one reports CONJECTURAL-PASS",
            elapsed)


def test_criterion_05_zeta2_laurent():
    rep, elapsed = _entry("zeta2-laurent", tol=mpf(10) ** -10, budget=10)
    assert "interpretation check gap" in rep.notes
    _report(5, "Laurent-coefficient identity at 1e-10, A_2n reading recorded",
            elapsed)


def test_criterion_06_finite_family():
    t0 = time.monotonic()
    _entry("finite-4f3", tol=mpf(10) ** -8)
    with workprec(320):
        val = pfq_eval([1, 1, 2, 2], [2, 2, 3], 1, CTX, tol=mpf(10) ** -25)
        assert abs(val - 2) < mpf(10) ** -20
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(6, "finite family m = 1..8 at 1e-8; m = 1 reduces to 4F3 = 2",
            elapsed)


def test_criterion_07_mahler_relations():
    t0 = time.monotonic()
    tol = mpf(10) ** -40
    for ident in ("lalin-m1-m16", "m2-m8", "ko-m1-m16-2m5", "lr-m2-m8-2m3sqrt2"):
        _entry(ident, tol=tol)
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    _report(7, "four Mahler-measure relations at 1e-40 via series", elapsed)


def test_criterion_08_oracle_equivalence(m_oracle):
    # the package's Jensen quadrature serves alpha > 4; below 4 the
    # reference is mpmath's tanh-sinh on the same reduction
    t0 = time.monotonic()
    with workprec(320):
        for a in (1, 2, 5, 8, 16):
            jensen = m_oracle(a) if a < 4 else m_quadrature(mpf(a), CTX)
            gap = abs(m_series(mpf(a), CTX) - jensen)
            assert gap < mpf(10) ** -6, f"alpha={a}: {mp.nstr(gap, 5)}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(8, "binomial series vs Jensen quadrature at alpha in {1,2,5,8,16}",
            elapsed)


def test_criterion_09_qseries_expansions():
    t0 = time.monotonic()
    tol = mpf(10) ** -6
    for ident in ("qseries-m-series", "qseries-m-quad", "qseries-n", "qseries-n2"):
        _entry(ident, tol=tol)
    elapsed = time.monotonic() - t0
    assert elapsed < 120
    _report(9, "theta/eta q-series vs Mahler evaluators at q in {1/10, 1/5}",
            elapsed)


def test_criterion_10_exact_torsion():
    rep, elapsed = _entry("torsion-orders", budget=1.0)
    assert rep.lhs_value == "(4, 4, 4, 4, 6)"
    _report(10, "torsion orders 4,4,4,4,6 by the exact group law", elapsed)


def test_criterion_11_dilog_equivalences():
    t0 = time.monotonic()
    _entry("dilog-equiv-1", tol=mpf(10) ** -20)
    _entry("dilog-equiv-2", tol=mpf(10) ** -20)
    for ident in ("m5-dilog", "m8-dilog", "m16-dilog", "m3sqrt2-dilog"):
        _entry(ident, tol=mpf(10) ** -15)
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(11, "two-curve equivalences at 1e-20, single-curve relations at 1e-15",
            elapsed)


def test_criterion_12_bertin():
    t0 = time.monotonic()
    _entry("bertin-exotic", tol=mpf(10) ** -20)
    _entry("bertin-n-form", tol=mpf(10) ** -6)
    rep, _ = _entry("bertin-series", tol=mpf(10) ** -6)
    assert "third base of 27/32" in rep.notes  # divergent-base discrepancy documented
    assert lookup("bertin-series").exit_exempt
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(12, "exotic relation, its n-form, and the corrected-base series",
            elapsed)


def test_criterion_13_strange_arctan():
    rep, elapsed = _entry("arctan-strange", tol=mpf(10) ** -30, budget=5)
    _report(13, "the (54n^2+n-1) arctan series at 1e-30", elapsed)


def test_criterion_14_rs_parameterization():
    rep, elapsed = _entry("rs-param", tol=mpf(10) ** -15, budget=30)
    _report(14, "s = L(i,q)/L(i,-q) against m(4/r)/m(4r) at q in {1/10, 1/4}",
            elapsed)


def test_criterion_15_property_suites():
    t0 = time.monotonic()
    tol = mpf(2) ** -(CTX.bits // 2)
    rng = random.Random(2024)
    with workprec(320):
        dmax = bloch_wigner(exp(pi * mpc(0, 1) / 3), CTX)
        for _ in range(100):
            z = mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < mpf("0.05") or abs(z - 1) < mpf("0.05"):
                continue
            d = bloch_wigner(z, CTX)
            assert abs(bloch_wigner(z.conjugate(), CTX) + d) < tol
            assert abs(bloch_wigner(1 / z, CTX) + d) < tol
            assert abs(bloch_wigner(z * z, CTX) / 2
                       - d - bloch_wigner(-z, CTX)) < tol
            assert abs(d) <= dmax + tol
        for x in (mpf("0.2"), mpf("-1.5"), mpf("3.7")):
            assert bloch_wigner(x, CTX) == 0
        # (-1)^k D(i q^|k|) = D(i (-q)^k)
        for _ in range(10):
            q = mpf(rng.uniform(0.05, 0.95))
            for k in range(-5, 6):
                lhs = mpf(-1) ** k * bloch_wigner(mpc(0, 1) * q ** abs(k), CTX)
                rhs = bloch_wigner(mpc(0, 1) * mpf(-q) ** k, CTX)
                assert abs(lhs - rhs) < tol

        # group laws on torsion multiples across the five curves
        for e, p in CURVES.values():
            pts = [point_mul(e, m, p) for m in range(point_order(e, p))]
            for _ in range(10):
                a, b, c = (rng.choice(pts) for _ in range(3))
                assert point_add(e, point_add(e, a, b), c) == \
                    point_add(e, a, point_add(e, b, c))
            for q_ in pts:
                assert point_add(e, q_, point_neg(q_)).is_infinity

        # shift-ratio composition on every stored term
        for pair in builtin_pairs().values():
            for t in (pair.F, pair.G):
                one = term_shift_ratio(t, 1, 0)
                two, both = term_shift_ratio(t, 2, 0), one * one.shift(1, 0)
                assert str(two.num * both.den) == str(both.num * two.den)

        # elementary round trips at context precision
        for _ in range(100):
            x = mpf(rng.uniform(-25, 25))
            assert abs(log(exp(x)) - x) < tol * (1 + abs(x))
            y = mpf(rng.uniform(-0.99, 0.99))
            assert abs(sin(asin(y)) - y) < tol
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _report(15, "randomized functional equations, group laws, compositions, "
                "round trips", elapsed)


def test_demos_run():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    t0 = time.monotonic()
    demos = sorted(f for f in os.listdir(os.path.join(root, "demos")) if f.endswith(".py"))
    assert len(demos) == 4
    for name in demos:
        run = subprocess.run([sys.executable, os.path.join(root, "demos", name)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 0, f"{name}: {run.stderr}"
        if name.startswith("01_"):
            assert run.stdout.count("PASS (certificate polynomial == 0)") == 3
            assert "==  F(31,1) - F(0,1): True" in run.stdout
    _report("demos", "the four demo scripts exit 0", time.monotonic() - t0)
