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
from wzmahler.symbolic.multipoly import Product, RatFunc
from wzmahler.symbolic.pairs import builtin_pairs
from wzmahler.symbolic.wz import WZPair, wz_verify

PAIRS = builtin_pairs()
n, k = Product.linear(0, 1, 0), Product.linear(0, 0, 1)


def _fields(poly):
    # a Product multiplied out: its ints over q, in lowest terms
    return poly.q, poly.expand()


def _equal(a, b):
    # a == b as rational functions: a.num * b.den and b.num * a.den multiply
    # out to the same polynomial
    a, b = (x if isinstance(x, RatFunc) else RatFunc(x) for x in (a, b))
    return _fields(a.num * b.den) == _fields(b.num * a.den)


def _plus_one(rf):
    # rf + 1, written over rf's own denominator
    return RatFunc(rf.num + rf.den, rf.den)


# ---------------------------------------------------------------------------
# polynomials and rational functions
# ---------------------------------------------------------------------------

def test_ratfunc_basic_identities():
    assert _equal((n + k) - n, k)
    sq = RatFunc(n ** 2 + 2 * n * k + k ** 2, n + k)
    assert _equal(sq, n + k)
    with pytest.raises(ZeroDivisionError):
        RatFunc(n, k - k)
    # equality by cross-multiplication, with no common factor cancelled
    q = RatFunc((n + k) ** 2 * (2 * n + 1), (n + k) * (4 * n + 2))
    assert _equal(q, RatFunc(n + k, 2))
    assert not _equal(q, RatFunc(n + k, 3))
    assert (q.num * 2 - (n + k) * q.den).is_zero
    with pytest.raises(TypeError):
        hash(q)


def test_ratfunc_arith_dispatch():
    a = RatFunc(n, k + 1)
    b = RatFunc(n + 1, k)
    assert _equal(operator.mul(a, b), RatFunc(n * (n + 1), k * (k + 1)))
    assert _equal(operator.truediv(a, b), RatFunc(n * k, (k + 1) * (n + 1)))
    # a Product takes an int on either side of *, and on the right of + and -
    assert _fields(operator.add(n, 1)) == _fields(Product.linear(1, 1, 0))
    assert _fields(operator.sub(n, Fraction(1, 2))) == _fields(Product.linear(-1, 2, 0, 2))
    assert _fields(operator.mul(3, n)) == _fields(operator.mul(n, 3)) \
        == _fields(Product.linear(0, 3, 0))
    assert _fields(operator.neg(n)) == _fields(Product.linear(0, -1, 0))


def test_ratfunc_arith_matches_fraction_eval():
    # products and quotients of rational functions, and their sums and
    # differences written over the product of the denominators as Product
    # sums, against Fraction arithmetic on their values
    rng = random.Random(1)
    funcs = [RatFunc(3 * n ** 2 - k, n + 2), RatFunc(k, 2 * n + 1),
             RatFunc(n * k - 5, k ** 2 + 1)]
    for a in funcs:
        for b in funcs:
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                if op in (operator.add, operator.sub):
                    c = RatFunc(op(a.num * b.den, b.num * a.den), a.den * b.den)
                else:
                    c = op(a, b)
                for _ in range(6):
                    nv = Fraction(rng.randint(1, 60), rng.randint(1, 9))
                    kv = Fraction(rng.randint(1, 60), rng.randint(1, 9))
                    assert c.eval(nv, kv) == op(a.eval(nv, kv), b.eval(nv, kv))


def test_parse_str_round_trip():
    # str(rf), parsed by sympy, is the rational function rf was built as:
    # three (numerator, denominator) pairs built alike as Products and in
    # sympy, and the six pair prefactors against the prefactors written out
    # in sympy
    ns, ks = sp.symbols("n k")
    exprs = (lambda n, k: (-n, 2 * (n + k)),
             lambda n, k: (k * (4 * n + 2 * k + 1), 2 * (n + k) * (2 * n + 1)),
             lambda n, k: (3 * k ** 3 + k ** 2 * (20 * n + 3) + k * n * (43 * n + 12)
                           + n ** 2 * (30 * n + 11) - (n + k) * (n - k), n + 1))
    cases = [(RatFunc(*e(n, k)), operator.truediv(*e(ns, ks))) for e in exprs]
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


def _lowest(ref):
    # (den, ints): a {(a, b): Fraction} dict as ints over one denominator,
    # in lowest terms
    den = lcm(*(Fraction(c).denominator for c in ref.values()))
    return den, {e: int(c * den) for e, c in ref.items()}


def _poly(ref):
    # the Product of a {(a, b): Fraction} dict
    den, ints = _lowest(ref)
    return Product.of(ints, den)


def _same(poly, ref):
    assert _fields(poly) == _lowest(ref)
    assert str(poly) == _ref_str(ref)


def test_multipoly_matches_fraction_reference():
    # Product sums, differences, negations and products, multiplied out,
    # are the reference's in lowest terms and print as the reference does
    rng = random.Random(14)
    for _ in range(300):
        x, y = _random_ref(rng), _random_ref(rng)
        p, q = _poly(x), _poly(y)
        _same(p, x)
        _same(p + q, _ref_add(x, y))
        _same(p - q, _ref_add(x, {e: -c for e, c in y.items()}))
        _same(-p, {e: -c for e, c in x.items()})
        m = rng.randint(-9, 9)
        _same(m * p, _ref({e: m * c for e, c in x.items()}))
        _same(p * q, _ref_mul(x, y))
        nv, kv = _random_rational(rng), _random_rational(rng)
        assert RatFunc(p).eval(nv, kv) == sum((c * nv ** a * kv ** b for (a, b), c in x.items()),
                                              Fraction(0))
        # equal values, and only they, multiply out alike
        assert (_fields(p) == _fields(q)) == (x == y)
        assert _fields(p + Fraction(1, 7)) != _fields(p)
        assert _fields(3 * p - p * 2) == _fields(p)


def test_product_matches_fraction_reference():
    # a Product keeps a polynomial as content, primitive linear forms and
    # non-linear factors; expanded, it is the reference product
    rng = random.Random(16)
    k_form = Product.linear(0, 0, 1)
    for _ in range(300):
        x, y = _random_ref(rng), _random_ref(rng)
        lin = _ref({e: _random_rational(rng) for e in ((0, 0), (1, 0), (0, 1))})
        lin2 = _ref({e: _random_rational(rng) for e in ((0, 0), (1, 0), (0, 1))})
        p, q, r, s = (_poly(d) for d in (x, y, lin, lin2))
        _same(p, x)
        assert len(r.forms) + len(r.polys) <= 1 and not r.polys
        # a sum of linear forms is a linear form again
        _same(r + s, _ref_add(lin, lin2))
        assert len((r - s).forms) <= 1 and not (r - s).polys
        _same(p * q * r, _ref_mul(_ref_mul(x, y), lin))
        _same(p * Product(-1), {e: -c for e, c in x.items()})
        m = rng.randint(0, 3)
        want = {(0, 0): Fraction(1)}
        for _ in range(m):
            want = _ref_mul(want, _ref_mul(x, lin))
        _same((p * r) ** m, want)
        dn, dk = rng.randint(-9, 9), rng.randint(-9, 9)
        _same((p * r).shift(dn, dk), _ref_shift(_ref_mul(x, lin), dn, dk))
        _same((p * k_form).div_k(), x)
        nv, kv = _random_rational(rng), _random_rational(rng)
        assert RatFunc(p * r).eval(nv, kv) == sum(
            (c * nv ** a * kv ** b for (a, b), c in _ref_mul(x, lin).items()), Fraction(0))
    # equal linear factors share one key, whatever their content and sign
    assert (Product.linear(2, 4, -6) * Product.linear(-3, -6, 9)).forms == {(1, 2, -3): 2}
    with pytest.raises(ValueError):
        n.div_k()


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
        raise AssertionError("Fraction constructed in polynomial arithmetic")
    monkeypatch.setattr(multipoly, "Fraction", no_fraction)
    for pair in PAIRS.values():
        assert wz_verify(pair).passed
    step = term_shift_ratio(PAIRS["pair-1"].F, 1, 0)
    assert step.int_ratio(0)(5) == step.int_ratio(Fraction(0))(5)


def test_builtin_pairs_multiply_out_no_linear_sum(monkeypatch):
    # every prefactor is a product of linear forms but for the pre_G
    # numerators of pair-3 and pair-divergent, one non-linear factor each;
    # a sum whose operands are both of degree <= 1 forms no polynomial
    # product, and it is a linear form again
    def degree(x):
        return sum(x.forms.values()) + sum(max(a + b for a, b in f) for f in x.polys)

    products, sums = [0], []
    mul_ints, add, coerce = multipoly._mul_ints, Product.__add__, multipoly._coerce

    def counted_mul(x, y):
        products[0] += 1
        return mul_ints(x, y)

    def counted_add(a, b):
        before = products[0]
        out = add(a, b)
        sums.append((degree(a), degree(coerce(b)), products[0] - before, out))
        return out

    monkeypatch.setattr(multipoly, "_mul_ints", counted_mul)
    monkeypatch.setattr(Product, "__add__", counted_add)
    pairs = builtin_pairs()
    linear = [(made, out) for da, db, made, out in sums if max(da, db) <= 1]
    assert len(linear) >= 20
    assert all(made == 0 and degree(out) <= 1 and not out.polys for made, out in linear)
    assert any(made for *_, made, _ in sums)  # the counter sees the non-linear sums
    for name, pair in pairs.items():
        for side, t in (("pre_F", pair.F), ("pre_G", pair.G)):
            for part in ("num", "den"):
                x = getattr(t.pre, part)
                want = int(name != "pair-1" and side == "pre_G" and part == "num")
                assert len(x.polys) == want, (name, side, part)
                assert all(degree(Product(1, 1, None, (f,))) > 1 for f in x.polys)


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
    assert _equal(q2, RatFunc(-k * (4 * n + 2 * k + 1), n * (2 * n + 1)))


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
        assert rep.witness.is_zero and str(rep.witness) == "0"


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
    return [("G+1", WZPair(f, g._replace(pre=_plus_one(g.pre)), pair.name)),
            ("2G", WZPair(f, g._replace(pre=g.pre * 2), pair.name)),
            ("F+1", WZPair(f._replace(pre=_plus_one(f.pre)), g, pair.name)),
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
            assert not rep.witness.is_zero
            assert _sympy_wz_residual(bad) != 0, (name, label)


# SHA-256 of str(witness) for the perturbed pairs of test_wz_negative_control:
# the leftover that wz_verify decides on, A - pre_F - C + D times the lcm of
# the denominators over the linear factors all four terms then share, as a
# Product prints it multiplied out with Fraction coefficients
_FAIL_OUTPUT_SHA256 = {
    ("pair-1", "plus1"): "e3710c414811a72ac688b8545a5e585b6f4dba26e56c7523f65703ff6e32db52",
    ("pair-1", "times2"): "1d90028b727645b064cb8bae108b2b460d15d075ed11f1507261afe58adb2bf0",
    ("pair-3", "plus1"): "89f7cfd1608e5ec868d73d3abdb7dcfcc86da2f4fe84d57db7984a5fc0d569db",
    ("pair-3", "times2"): "6e5ce0fedd3a290b09bfb391f3a1cd22f34cc1557597e026636c22469d25e0c4",
    ("pair-divergent", "plus1"):
        "ca18c0f73c0d8b1d271dc91f521a679c8712981a71bfc929f2b41043a3098835",
    ("pair-divergent", "times2"):
        "9f4dfed47b40dbebcb48f7aaa4d726f9edbdb20a7c1f5d7a8ce058a086d66e51",
}


def test_wz_failure_output_pinned():
    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()
    for name, pair in PAIRS.items():
        g = pair.G
        for label, bad_pre in (("plus1", _plus_one(g.pre)), ("times2", g.pre * 2)):
            bad_g = HyperTerm.build(g.gammas, g.base, g.g_cn, g.g_ck, bad_pre)
            rep = wz_verify(WZPair(pair.F, bad_g, f"{name}-perturbed"))
            assert sha(str(rep.witness)) == _FAIL_OUTPUT_SHA256[name, label], (name, label)


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
