"""Exact rational-function arithmetic, Gamma-product terms, WZ certificates.

The independent oracle for the certificates is sympy: rising factorials are
rewritten through gamma, shifted quotients reduced with expand_func/cancel,
and the functional-equation combination must simplify to literal zero.
"""

import hashlib
import operator
import random
from fractions import Fraction
from math import comb, lcm

import pytest
import sympy as sp

from wzmahler import NonComparableError
from wzmahler.symbolic.hyperterm import (HyperTerm, LinForm, term_cross_ratio,
                                         term_eval_exact, term_shift_ratio)
from wzmahler.symbolic import multipoly
from wzmahler.symbolic.multipoly import MultiPoly, Product, RatFunc
from wzmahler.symbolic.pairs import builtin_pairs
from wzmahler.symbolic.wz import WZPair, wz_verify

PAIRS = builtin_pairs()
n, k = RatFunc(MultiPoly({(1, 0): 1})), RatFunc(MultiPoly({(0, 1): 1}))


def _fields(poly):
    return poly.den, poly.ints


def _equal(a, b):
    # a == b as rational functions: a.num * b.den and b.num * a.den multiply
    # out to the same polynomial, and a MultiPoly's fields are canonical
    a, b = (x if isinstance(x, RatFunc) else RatFunc(x) for x in (a, b))
    return _fields((a.num * b.den).poly) == _fields((b.num * a.den).poly)


# ---------------------------------------------------------------------------
# polynomials and rational functions
# ---------------------------------------------------------------------------

def test_ratfunc_basic_identities():
    assert _equal((n + k) - n, k)
    sq = (n ** 2 + 2 * n * k + k ** 2) / (n + k)
    assert _equal(sq, n + k)
    with pytest.raises(ZeroDivisionError):
        n / (k - k)
    # equality by cross-multiplication, with no common factor cancelled
    q = ((n + k) ** 2 * (2 * n + 1)) / ((n + k) * (4 * n + 2))
    assert _equal(q, (n + k) / 2)
    assert not _equal(q, (n + k) / 3)
    assert ((n + k) / (n + k) - 1).num.is_zero
    with pytest.raises(TypeError):
        hash(q)


def test_ratfunc_arith_dispatch():
    a = n / (k + 1)
    b = (n + 1) / k
    assert _equal(operator.mul(a, b), n * (n + 1) / (k * (k + 1)))
    assert _equal(operator.truediv(a, b), n * k / ((k + 1) * (n + 1)))


def test_ratfunc_arith_matches_fraction_eval():
    rng = random.Random(1)
    funcs = [(3 * n ** 2 - k) / (n + 2), k / (2 * n + 1), (n * k - 5) / (k ** 2 + 1)]
    for a in funcs:
        for b in funcs:
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                c = op(a, b)
                for _ in range(6):
                    nv = Fraction(rng.randint(1, 60), rng.randint(1, 9))
                    kv = Fraction(rng.randint(1, 60), rng.randint(1, 9))
                    assert c.eval(nv, kv) == op(a.eval(nv, kv), b.eval(nv, kv))


def test_parse_str_round_trip():
    # str(rf), parsed by sympy, is the rational function rf was built as:
    # three expressions built alike in RatFunc and in sympy, and the six
    # pair prefactors against the prefactors written out in sympy
    ns, ks = sp.symbols("n k")
    exprs = (lambda n, k: -n / (2 * (n + k)),
             lambda n, k: k * (4 * n + 2 * k + 1) / (2 * (n + k) * (2 * n + 1)),
             lambda n, k: (3 * k ** 3 + k ** 2 * (20 * n + 3) + k * n * (43 * n + 12)
                           + n ** 2 * (30 * n + 11)) / (n + 1))
    cases = [(e(n, k), e(ns, ks)) for e in exprs]
    p3 = (2 * ns + 1) * (86 * ns + 19) + 4 * ks * (20 * ns + 7) + 12 * ks ** 2
    pd = (3 * ks ** 3 + ks ** 2 * (20 * ns + 3) + ks * ns * (43 * ns + 12)
          + ns ** 2 * (30 * ns + 11))
    pres = {
        "pair-1": (-ns / (2 * (ns + ks)),
                   ks * (4 * ns + 2 * ks + 1) / (2 * (ns + ks) * (2 * ns + 1))),
        "pair-3": (-4 * ns / (2 * ns + ks),
                   (2 * (15 * ns + 2) * (2 * ns + 1) ** 2 + ks * p3)
                   / ((2 * ns + ks + 1) ** 2 * (2 * ns + ks) * (2 * ns + 1)) * ks / 2),
        "pair-divergent": (ns / (2 * ns + ks) ** 2,
                           -pd / (ns * (2 * ns + ks) ** 2 * (1 + 2 * ns + ks))),
    }
    assert list(pres) == list(PAIRS)
    cases += [(t.pre, want) for name, wants in pres.items()
              for t, want in zip((PAIRS[name].F, PAIRS[name].G), wants)]
    for rf, want in cases:
        back = sp.sympify(str(rf), locals={"n": ns, "k": ks})
        assert sp.cancel(back - want) == 0, str(rf)


# reference arithmetic on plain {(a, b): Fraction} dicts, zeros dropped

def _ref(d):
    return {e: c for e, c in d.items() if c}


def _ref_add(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return _ref(out)


def _ref_mul(x, y):
    out = {}
    for (a1, b1), c in x.items():
        for (a2, b2), d in y.items():
            e = (a1 + a2, b1 + b2)
            out[e] = out.get(e, 0) + c * d
    return _ref(out)


def _ref_shift(x, dn, dk):
    out = {}
    for (a, b), c in x.items():
        for i in range(a + 1):
            for j in range(b + 1):
                e = (i, j)
                out[e] = out.get(e, 0) + c * comb(a, i) * dn ** (a - i) * comb(b, j) * dk ** (b - j)
    return _ref(out)


def _ref_str(x):
    parts = []
    for (a, b), c in sorted(x.items(), reverse=True):
        factors = []
        if c != 1 or (a == 0 and b == 0):
            factors.append(str(c) if c > 0 or not parts else f"({c})")
        if a:
            factors.append("n" if a == 1 else f"n**{a}")
        if b:
            factors.append("k" if b == 1 else f"k**{b}")
        parts.append("*".join(factors) if factors else str(c))
    return " + ".join(parts) or "0"


def _random_rational(rng):
    return Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 6, 8, 9, 27)))


def _random_ref(rng):
    return _ref({(rng.randint(0, 4), rng.randint(0, 3)): _random_rational(rng)
                 for _ in range(rng.randint(0, 6))})


def _poly(ref):
    # the MultiPoly of a {(a, b): Fraction} dict
    den = lcm(*(Fraction(c).denominator for c in ref.values()))
    return MultiPoly({e: int(c * den) for e, c in ref.items()}, den)


def _same(poly, ref):
    assert _fields(poly) == _fields(_poly(ref))
    assert list(poly.terms()) == sorted(ref.items(), reverse=True)
    assert str(poly) == _ref_str(ref)


def test_multipoly_matches_fraction_reference():
    rng = random.Random(14)
    minus = MultiPoly({(0, 0): -1})
    for _ in range(300):
        x, y = _random_ref(rng), _random_ref(rng)
        p, q = _poly(x), _poly(y)
        _same(p, x)
        _same(p + q, _ref_add(x, y))
        _same(p + q * minus, _ref_add(x, {e: -c for e, c in y.items()}))
        _same(p * q, _ref_mul(x, y))
        nv, kv = _random_rational(rng), _random_rational(rng)
        assert RatFunc(p).eval(nv, kv) == sum((c * nv ** a * kv ** b for (a, b), c in x.items()),
                                              Fraction(0))
        # == holds exactly between equal values and nowhere else
        assert (_fields(p) == _fields(q)) == (x == y)
        assert _fields(p + MultiPoly({(0, 0): 1}, 7)) != _fields(p)
        assert _fields(p * MultiPoly({(0, 0): 3}) + p * minus * MultiPoly({(0, 0): 2})) \
            == _fields(p)


def test_product_matches_fraction_reference():
    # a Product keeps a polynomial as content, primitive linear forms and
    # non-linear factors; expanded, it is the reference product
    rng = random.Random(16)
    k_form = Product.linear(0, 0, 1)
    for _ in range(300):
        x, y = _random_ref(rng), _random_ref(rng)
        lin = _ref({e: _random_rational(rng) for e in ((0, 0), (1, 0), (0, 1))})
        p, q, r = (Product.of(_poly(d)) for d in (x, y, lin))
        _same(p.poly, x)
        assert len(r.forms) + len(r.polys) <= 1 and not r.polys
        _same((p * q * r).poly, _ref_mul(_ref_mul(x, y), lin))
        _same((p * Product(-1)).poly, {e: -c for e, c in x.items()})
        m = rng.randint(0, 3)
        want = {(0, 0): Fraction(1)}
        for _ in range(m):
            want = _ref_mul(want, _ref_mul(x, lin))
        _same(((p * r) ** m).poly, want)
        dn, dk = rng.randint(-9, 9), rng.randint(-9, 9)
        _same((p * r).shift(dn, dk).poly, _ref_shift(_ref_mul(x, lin), dn, dk))
        _same((p * k_form).div_k().poly, x)
        nv, kv = _random_rational(rng), _random_rational(rng)
        assert RatFunc(p * r).eval(nv, kv) == sum(
            (c * nv ** a * kv ** b for (a, b), c in _ref_mul(x, lin).items()), Fraction(0))
    # equal linear factors share one key, whatever their content and sign
    assert (Product.linear(2, 4, -6) * Product.linear(-3, -6, 9)).forms == {(1, 2, -3): 2}
    with pytest.raises(ValueError):
        Product.of(MultiPoly({(1, 0): 1})).div_k()


def test_int_ratio_matches_eval():
    rng = random.Random(15)
    checked = 0
    while checked < 200:
        top, bottom = _random_ref(rng), _random_ref(rng)
        if not bottom:
            continue
        rf = RatFunc(_poly(top), _poly(bottom))
        kv = _random_rational(rng)
        nv = rng.randint(-40, 40)
        p, q = rf.int_ratio(kv)(nv)
        # oracle: Fraction arithmetic on the reference dicts, independent of
        # int_ratio (which RatFunc.eval is built on)
        want_top, want_bottom = (sum((c * nv ** a * kv ** b for (a, b), c in x.items()),
                                     Fraction(0)) for x in (top, bottom))
        if want_bottom == 0:
            assert q == 0
            with pytest.raises(ZeroDivisionError):
                rf.eval(nv, kv)
            continue
        assert Fraction(p, q) == want_top / want_bottom == rf.eval(nv, kv)
        checked += 1


def test_multipoly_arithmetic_builds_no_fraction(monkeypatch):
    # certificates and registry kernels run on ints: with Fraction gone from
    # the module, every pair still verifies and int_ratio still steps
    def no_fraction(*args):
        raise AssertionError("Fraction constructed in MultiPoly arithmetic")
    monkeypatch.setattr(multipoly, "Fraction", no_fraction)
    for pair in PAIRS.values():
        assert wz_verify(pair).passed
    step = term_shift_ratio(PAIRS["pair-1"].F, 1, 0)
    assert step.int_ratio(0)(5) == step.int_ratio(Fraction(0))(5)


# ---------------------------------------------------------------------------
# hypergeometric terms
# ---------------------------------------------------------------------------

def test_shift_ratio_pochhammer():
    # (x)_n realized as Gamma(x + n)/Gamma(x) with x the symbol k; build
    # turns bare coefficient tuples into LinForms of Fractions
    t = HyperTerm.build([((0, 1, 1), 1), ((0, 0, 1), -1)])
    assert _equal(term_shift_ratio(t, 1, 0), n + k)
    assert all(type(c) is Fraction for lf, _ in t.gammas
               for c in (lf.c0, lf.cn, lf.ck))


def test_shift_ratio_geometric_factor():
    t = HyperTerm.build([], base=Fraction(1, 16), g_cn=1, g_ck=0)
    assert _equal(term_shift_ratio(t, 1, 0), Fraction(1, 16))


def test_shift_ratio_pair1_fixture_from_independent_cas():
    # oracle: sympy reduction of F(n+1,k)/F(n,k) for the first pair
    n, k = sp.symbols("n k", positive=True)
    rf = sp.RisingFactorial
    K = rf(sp.Rational(1, 2) + k, n) * rf(sp.Rational(1, 2), n) * rf(sp.Rational(1, 2), k) ** 2 \
        / (rf(1 + k, n) * rf(1, n) * rf(1, k) ** 2)
    F = -K * n / (2 * (n + k))
    oracle = sp.cancel(sp.expand_func(sp.combsimp(F.subs(n, n + 1) / F)))
    mine = term_shift_ratio(PAIRS["pair-1"].F, 1, 0)
    rng = random.Random(4)
    for _ in range(10):
        nv = Fraction(rng.randint(1, 50), rng.randint(1, 7))
        kv = Fraction(rng.randint(1, 50), rng.randint(1, 7))
        want = oracle.subs({n: sp.Rational(nv.numerator, nv.denominator),
                            k: sp.Rational(kv.numerator, kv.denominator)})
        got = mine.eval(nv, kv)
        assert sp.Rational(got.numerator, got.denominator) == sp.nsimplify(want)


def test_cross_ratio_same_term_is_one():
    f = PAIRS["pair-3"].F
    assert _equal(term_cross_ratio(f, f), 1)


def test_cross_ratio_pair1_g_over_f():
    q2 = term_cross_ratio(PAIRS["pair-1"].G, PAIRS["pair-1"].F)
    assert _equal(q2, -k * (4 * n + 2 * k + 1) / (n * (2 * n + 1)))


def test_cross_ratio_noncomparable():
    f = PAIRS["pair-1"].F
    third = LinForm(Fraction(1, 3), Fraction(1, 2), Fraction(0))
    extra = HyperTerm.build(list(f.gammas) + [(third, 1)],
                            f.base, f.g_cn, f.g_ck, f.pre)
    with pytest.raises(NonComparableError):
        term_cross_ratio(extra, f)


def test_shift_ratio_composition():
    for pair in PAIRS.values():
        for t in (pair.F, pair.G):
            two = term_shift_ratio(t, 2, 0)
            one = term_shift_ratio(t, 1, 0)
            assert _equal(two, one * one.shift(1, 0))


# ---------------------------------------------------------------------------
# WZ certificates
# ---------------------------------------------------------------------------

def test_wz_verify_all_pairs_pass():
    for name, pair in PAIRS.items():
        rep = wz_verify(pair)
        assert rep.passed, f"{name} failed: witness {rep.witness}"
        assert rep.certificate.num.is_zero


def test_wz_certificates_against_sympy():
    n, k = sp.symbols("n k", positive=True)
    rf = sp.RisingFactorial
    half = sp.Rational(1, 2)

    K1 = rf(half + k, n) * rf(half, n) * rf(half, k) ** 2 \
        / (rf(1 + k, n) * rf(1, n) * rf(1, k) ** 2)
    F1 = -K1 * n / (2 * (n + k))
    G1 = K1 * k * (4 * n + 2 * k + 1) / (2 * (n + k) * (2 * n + 1))

    U = sp.Rational(1, 16) ** n * rf(half + k, n) ** 2 * rf(half, n) \
        / (rf(1 + k / 2, n) * rf(half + k / 2, n) * rf(1, n)) \
        * rf(half, k) ** 2 / rf(1, k) ** 2
    P3 = (2 * n + 1) * (86 * n + 19) + 4 * k * (20 * n + 7) + 12 * k ** 2
    F3 = -U * 4 * n / (2 * n + k)
    G3 = U * (2 * (15 * n + 2) * (2 * n + 1) ** 2 + k * P3) \
        / ((2 * n + k + 1) ** 2 * (2 * n + k) * (2 * n + 1)) * k / 2

    Kd = rf(half, n) * rf(1 + k / 2, n) * rf(half + k / 2, n) \
        / (rf(1, n) * rf(1 + k, n) ** 2) * 16 ** n
    Pd = 3 * k ** 3 + k ** 2 * (20 * n + 3) + k * n * (43 * n + 12) + n ** 2 * (30 * n + 11)
    Fd = Kd * n / (2 * n + k) ** 2
    Gd = -Kd * Pd / (n * (2 * n + k) ** 2 * (1 + 2 * n + k))

    def reduce(e):
        return sp.cancel(sp.together(sp.expand_func(sp.combsimp(e))))

    for F, G in ((F1, G1), (F3, G3), (Fd, Gd)):
        q1 = reduce(F.subs(n, n + 1) / F)
        q2 = reduce(G / F)
        q3 = reduce(G.subs(k, k + 1) / F)
        cert = sp.simplify(sp.cancel(sp.together(q1 - 1 - q3 + q2)))
        assert cert == 0


def _sympy_wz_residual(pair, nv=3, kv=2):
    # (F(n+1,k) - F - G(n,k+1) + G)/F at one point, exactly, in sympy: F and
    # G rebuilt from their printed prefactor, Gamma rows and base, whose
    # Gamma values sympy evaluates itself (as rationals times powers of
    # sqrt(pi)); a nonzero value proves the certificate nonzero
    ns, ks = sp.symbols("n k")

    def term(t, n, k):
        pre = sp.sympify(str(t.pre), locals={"n": ns, "k": ks}).subs({ns: n, ks: k})
        rows = [sp.gamma(sp.Rational(lf.c0) + sp.Rational(lf.cn) * n + sp.Rational(lf.ck) * k)
                ** e for lf, e in t.gammas]
        return pre * sp.Mul(*rows) * sp.Rational(t.base) ** (t.g_cn * n + t.g_ck * k)

    f, g = pair.F, pair.G
    return sp.simplify((term(f, nv + 1, kv) - term(f, nv, kv) - term(g, nv, kv + 1)
                        + term(g, nv, kv)) / term(f, nv, kv))


def _perturbed(pair):
    """(label, pair) for a change to every term of the WZ equation: G's and
    F's prefactor, one Gamma row of the shared kernel (the same exponent
    change in F and G) and the geometric base."""
    f, g = pair.F, pair.G
    row = next(lf for lf, _ in f.gammas if lf.cn)
    rows = [(row, 1)] + list(f.gammas)
    base, g_cn = f.base * 2, f.g_cn or 1
    return [("G+1", WZPair(f, g._replace(pre=g.pre + RatFunc.const(1)), pair.name)),
            ("2G", WZPair(f, g._replace(pre=g.pre * 2), pair.name)),
            ("F+1", WZPair(f._replace(pre=f.pre + RatFunc.const(1)), g, pair.name)),
            ("2F", WZPair(f._replace(pre=f.pre * 2), g, pair.name)),
            ("row", WZPair(*(HyperTerm.build(rows, t.base, t.g_cn, t.g_ck, t.pre)
                             for t in (f, g)), pair.name)),
            ("base", WZPair(*(HyperTerm.build(t.gammas, base, g_cn, t.g_ck, t.pre)
                              for t in (f, g)), pair.name))]


def test_wz_negative_control():
    # every perturbed pair fails with a nonzero witness, and sympy agrees
    # that its certificate is not zero; at the pairs themselves it is 0
    for name, pair in PAIRS.items():
        assert _sympy_wz_residual(pair) == 0, name
        for label, bad in _perturbed(pair):
            rep = wz_verify(bad)
            assert not rep.passed, (name, label)
            assert rep.witness is not None and rep.witness.ints
            assert _sympy_wz_residual(bad) != 0, (name, label)


# SHA-256 of str(witness) and str(certificate) for the perturbed pairs of
# test_wz_negative_control, as printed by the Fraction-coefficient MultiPoly:
# a FAIL report prints the same polynomials whatever the representation
_FAIL_OUTPUT_SHA256 = {
    ("pair-1", "plus1"): ("548695f1a4c9dd570ee9d534ebebd4db5589b89d9f8224901d5336f837ed0a1f",
                          "9ff7ad07122e842a49e53be4a601558a63cbd1128d676b7795274d7dc0b0bfbf"),
    ("pair-1", "times2"): ("0a248d66134ca06a2e13ab9497e94945b09e930d14ec55d3ec87c50188dea31d",
                           "38a4e6d22614940da6ecb8b37f7d51d1436b73c1968b6d26ce4cf59ba9a3d4d0"),
    ("pair-3", "plus1"): ("99cba49709924d0d995a009c874d2ed8b898477b458703b70b501972f7669426",
                          "93e679af43070f9965559df2ab29b8a524a76a1a06f1446df0c67006241f5b40"),
    ("pair-3", "times2"): ("8b62bc8316d9684f85ef3be16b91bda592fa57689463e66b704087b9fa5335ce",
                           "67af5eb31fa7f96f883261e29626c624b5550909a272948746e307c43b527e89"),
    ("pair-divergent", "plus1"): (
        "48680288f6aaa5e7ff7ee4eb40da01a46f88b48c1ee306728257cf422294c002",
        "240e7894ad76084ff4567e7841b0617319ea712744a09377e2a4bfd617f97628"),
    ("pair-divergent", "times2"): (
        "9e4dab63de2efd5937142bbd75ff2b9486f300110acbeb87bd7beb6f9c13bb6e",
        "a83d7bcc5af98354f7598d0e411a8ec9a46d6cf8bd13d01b65b25ec5715aa437"),
}


def test_wz_failure_output_pinned():
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()
    for name, pair in PAIRS.items():
        g = pair.G
        for label, bad_pre in (("plus1", g.pre + RatFunc.const(1)), ("times2", g.pre * 2)):
            bad_g = HyperTerm.build(g.gammas, g.base, g.g_cn, g.g_ck, bad_pre)
            rep = wz_verify(WZPair(pair.F, bad_g, f"{name}-perturbed"))
            assert (sha(str(rep.witness)), sha(str(rep.certificate))) \
                == _FAIL_OUTPUT_SHA256[name, label], (name, label)


def test_telescoping_exact():
    # sum_{n=n0}^{N} (G(n,k+1) - G(n,k)) == F(N+1,k) - F(n0,k), exactly;
    # windows start past the points where a prefactor is 0/0: the divergent
    # pair's G has a 1/n pole, and every pair is undefined at (n,k) = (0,0)
    for name, pair in PAIRS.items():
        for k in (0, 1, 2):
            n0 = 1 if (name == "pair-divergent" or k == 0) else 0
            acc = Fraction(0)
            for n in range(n0, 51):
                acc += term_eval_exact(pair.G, n, k + 1) - term_eval_exact(pair.G, n, k)
            want = term_eval_exact(pair.F, 51, k) - term_eval_exact(pair.F, n0, k)
            assert acc == want, f"{name}, k={k}"


def test_f_vanishes_at_n0():
    # F(0, k) = 0 exactly; k = 0 is excluded (the prefactor is 0/0 there)
    for name in ("pair-1", "pair-3"):
        for k in range(1, 11):
            assert term_eval_exact(PAIRS[name].F, 0, k) == 0


def test_f_decays_numerically():
    for name in ("pair-1", "pair-3"):
        for k in (0, 1):
            vals = [abs(term_eval_exact(PAIRS[name].F, 2 ** j, k)) for j in range(1, 13)]
            assert all(a > b for a, b in zip(vals, vals[1:]))
