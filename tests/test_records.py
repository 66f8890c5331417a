"""What the code relies on in its records: frozen fields, validation,
defaults and keyword construction, value or identity equality and hashing,
``LinForm``'s order, ``CurvePoint``'s text, the report's dict and pickling.
``test_registry.test_hash_contract`` pins the unhashable WZ records."""

import pickle
from fractions import Fraction

import pytest
from mpmath import mpc, mpf

from wzmahler import DomainError, PrecisionCtx, SingularCurveError
from wzmahler.elliptic import CurvePoint, EllipticCurve, Periods, periods
from wzmahler.registry import (KIND_NUMERIC, CheckReport, HyperSum,
                               IdentityRecord, Side, lookup, run_check)
from wzmahler.symbolic.hyperterm import HyperTerm, LinForm
from wzmahler.symbolic.pairs import builtin_pairs
from wzmahler.symbolic.wz import wz_verify

BERTIN = (432, -1188)


def _periods():
    return Periods(mpf(1), mpc(0, 2), mpc(0, 2), mpf("0.25"),
                   (mpf(3), mpf(-1), mpf(-2)))


def _frozen_records():
    pair = builtin_pairs()["pair-1"]
    rec = lookup("log2-f1")
    return [(PrecisionCtx(), "bits"), (EllipticCurve(*BERTIN), "g2"),
            (CurvePoint.affine(-6, 54), "x"), (_periods(), "q"),
            (LinForm(Fraction(1), Fraction(0), Fraction(1)), "c0"),
            (pair.F, "base"), (pair, "name"), (wz_verify(pair), "passed"),
            (rec, "tol"), (rec.rhs, "tol"), (lookup("m2-m8").lhs, "terms"),
            (CheckReport("a", "PASS", "1", "1", "0", 3, 4, "n"), "status")]


def test_frozen_records_refuse_assignment():
    for record, field in _frozen_records():
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_validation():
    with pytest.raises(DomainError, match="bits"):
        PrecisionCtx(bits=63)
    with pytest.raises(DomainError, match="max_terms"):
        PrecisionCtx(max_terms=0)
    with pytest.raises(DomainError):
        PrecisionCtx(32)
    with pytest.raises(SingularCurveError):
        EllipticCurve(3, 1)  # 3^3 - 27 * 1^2 = 0
    with pytest.raises(SingularCurveError):
        EllipticCurve(g2=12, g3=-8)


def test_defaults_and_keyword_construction():
    assert PrecisionCtx() == PrecisionCtx(256, 500_000)
    assert PrecisionCtx(bits=512) == PrecisionCtx(512, 500_000)
    assert PrecisionCtx(max_terms=60).bits == 256
    assert EllipticCurve(g3=-1188, g2=432) == EllipticCurve(*BERTIN)
    rec = IdentityRecord("x", "d", KIND_NUMERIC, None, None, None)
    assert (rec.params, rec.note, rec.exit_exempt) == ((), "", False)
    s = HyperSum(lambda n: (1, 2), lambda n: (1, 1), ratio=Fraction(1, 2), tol=10)
    assert (s.head, s.scale, s.start, s.ratio_from) == (0, 1, 0, 0)
    assert abs(s(PrecisionCtx(), None) - 2) < mpf(10) ** -10


def test_value_equality_and_hashing():
    f = Fraction
    for make in (lambda: PrecisionCtx(bits=512),
                 lambda: EllipticCurve(*BERTIN),
                 lambda: CurvePoint.affine(f(1, 2), -3),
                 lambda: LinForm(f(1, 2), f(1), f(-1)),
                 _periods):
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert PrecisionCtx(bits=512) != PrecisionCtx()
    assert EllipticCurve(*BERTIN) != EllipticCurve(432, 1188)
    assert CurvePoint.affine(1, 2) != CurvePoint.affine(1, -2)
    assert LinForm(f(1), f(0), f(0)) != LinForm(f(1), f(0), f(1))
    assert CurvePoint.infinity() == CurvePoint(None, None)


def test_periods_memo_is_keyed_by_value():
    first = periods(EllipticCurve(*BERTIN), PrecisionCtx(bits=256))
    assert periods(EllipticCurve(432, -1188), PrecisionCtx()) is first
    assert periods(EllipticCurve(*BERTIN), PrecisionCtx(bits=320)) is not first


def test_linform_order_and_build_sort():
    f = Fraction
    forms = [LinForm(f(2), f(-1), f(0)), LinForm(f(1), f(0), f(1)),
             LinForm(f(1, 2), f(3), f(0)), LinForm(f(1), f(0), f(0))]
    assert sorted(forms) == [forms[2], forms[3], forms[1], forms[0]]
    assert LinForm(f(1), f(0), f(0)) < LinForm(f(1), f(0), f(1)) <= LinForm(f(1), f(1), f(0))
    rows = [((f(1, 2), 1, 0), -1), ((f(1), 1, 1), 2), ((f(1, 2), 0, 1), 1)]
    built = HyperTerm.build(rows)
    assert [lf for lf, _ in built.gammas] == sorted(lf for lf, _ in built.gammas)
    # every field but pre, a RatFunc, which has no value equality
    assert built[:4] == HyperTerm.build(rows[::-1])[:4]


def test_records_compared_by_identity():
    side = lambda ctx, p: 1  # noqa: E731
    a = IdentityRecord("x", "d", KIND_NUMERIC, side, side, mpf(1))
    b = IdentityRecord("x", "d", KIND_NUMERIC, side, side, mpf(1))
    assert a == a and a != b and not a == b and len({a, b}) == 2
    assert hash(a) == object.__hash__(a)
    s, t = (HyperSum(side, side, ratio=1, tol=5) for _ in range(2))
    assert s == s and s != t and hash(s) == object.__hash__(s)
    u, v = (Side.of((1, side, 2)) for _ in range(2))
    assert u == u and u != v and hash(u) == object.__hash__(u)
    # a WZ-backed record hashes too, although its lhs does not
    rec = lookup("wz-pair-1")
    assert hash(rec) == object.__hash__(rec) and rec == lookup("wz-pair-1")


def test_curve_point_text():
    assert str(CurvePoint.affine(-6, 54)) == "(-6, 54)"
    assert str(CurvePoint.affine(Fraction(1, 4), Fraction(-3, 8))) == "(1/4, -3/8)"
    assert str(CurvePoint.infinity()) == "O"


def test_check_report_dict_round_trip():
    rep = run_check("log2-f2")
    d = rep.to_dict()
    assert list(d) == ["id", "status", "lhs_value", "rhs_value", "abs_diff",
                       "terms_used", "elapsed_ms", "notes"]
    assert d["id"] == "log2-f2" and d["status"] == "PASS"
    assert CheckReport(**d) == rep


def test_pickle_round_trip():
    rep = CheckReport("a", "PASS", "1", "1", "0", 3, 4, "n")
    for obj in (PrecisionCtx(bits=320, max_terms=70), rep):
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj
