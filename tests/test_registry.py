"""Registry contents, runner semantics, report determinism and round trips."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import cbrt, log, mp, mpc, mpf, sqrt, workprec

from wzmahler import (DomainError, PrecisionCtx, UnknownIdentityError,
                      elliptic, mahler, numkernel, registry)
from wzmahler import series as series_module
from wzmahler.context import DEFAULT_CTX, to_mpf
from wzmahler.mahler import n_quadrature, s_ratio
from wzmahler.registry import (exit_code, lookup, n_lattice, registry_entries,
                               reports_from_json, reports_to_json, run_all,
                               run_check)
from wzmahler.series import as_ratio, shared
from wzmahler.symbolic import pfq as pfq_module
from wzmahler.symbolic.hyperterm import HyperTerm
from wzmahler.symbolic.pairs import builtin_pairs
from wzmahler.symbolic.multipoly import RatFunc
from wzmahler.symbolic.wz import WZPair, wz_verify

CTX = PrecisionCtx(bits=256)
GOLDEN = os.path.join(os.path.dirname(__file__), "data", "report-{bits}.json")

MINIMUM_IDS = {
    "wz-pair-1", "wz-pair-3", "wz-pair-divergent",
    "log2-f1", "log2-f2", "log2-f3", "log2-f1-gen", "log2-f3-gen",
    "zeta2-laurent", "zeta3-f1", "zeta3-f2", "zeta3-f3", "finite-4f3",
    "lalin-m1-m16", "m2-m8", "ko-m1-m16-2m5", "lr-m2-m8-2m3sqrt2",
    "log4r-identity", "qseries-m-series", "qseries-m-quad", "qseries-n",
    "qseries-n2", "dilog-equiv-1", "dilog-equiv-2",
    "m5-dilog", "m8-dilog", "m16-dilog", "m3sqrt2-dilog",
    "bertin-exotic", "bertin-n-form", "bertin-series",
    "arctan-strange", "rs-param", "torsion-orders",
}


def test_registry_is_complete_and_unique():
    ids = [r.id for r in registry_entries()]
    assert len(ids) == len(set(ids))
    assert MINIMUM_IDS <= set(ids)


def test_registry_is_built_once(monkeypatch):
    # from an unbuilt table: the first lookup builds it, with the WZ pairs
    # built once, and every later call shares that one table
    calls = []
    original = registry.builtin_pairs
    monkeypatch.setattr(registry, "builtin_pairs", lambda: calls.append(1) or original())
    registry.registry_entries.cache_clear()
    registry._by_id.cache_clear()
    recs = [lookup(ident) for ident in sorted(MINIMUM_IDS)]
    table = registry_entries()
    assert isinstance(table, tuple) and len(table) == len(MINIMUM_IDS)
    for rec in recs:
        assert rec in table and registry_entries() is table
    assert lookup("nonexistent") is None
    assert len(calls) == 1


def _log2_closed_form(a, b, shift):
    """(step, weight) of sum_{n>=1} (an+b)/((2n)(2n+1)) C(2n,n)^2/2^(shift n)"""
    return (lambda n: ((2 * n - 1) ** 2, n * n << (shift - 2)),
            lambda n: (a * n + b, (2 * n) * (2 * n + 1)))


def _gen1_closed_form(x):
    """(step, weight) of sum_{n>=0} (4n+2x+1)/((2n+1)(n+x)) c_n with
    c_n = (1/2+x)_n/(1+x)_n C(2n,n)/4^n"""
    a, b = x.numerator, x.denominator
    return (lambda n: ((2 * b * n - b + 2 * a) * (2 * n - 1), 4 * n * (b * n + a)),
            lambda n: (4 * b * n + 2 * a + b, (2 * n + 1) * (b * n + a)))


def _gen3_closed_form(x):
    """(step, weight) of sum_{n>=0} P(n, x)/((2n+1)(2n+x)(2n+x+1)^2) c_n with
    c_n = (1/2+x)_n^2/((1+x/2)_n ((1+x)/2)_n) C(2n,n)/2^(6n) and
    P = 2(2n+1)^2 (15n+2) + x ((2n+1)(86n+19) + 4x(20n+7) + 12x^2)"""
    a, b = x.numerator, x.denominator  # P and the denominator scaled by b^3

    def weight(n):
        p = b * b * (2 * n + 1) * (86 * n + 19) + 4 * a * b * (20 * n + 7) + 12 * a * a
        return (2 * b ** 3 * (2 * n + 1) ** 2 * (15 * n + 2) + a * p,
                (2 * n + 1) * (2 * b * n + a) * (2 * b * n + a + b) ** 2)

    return (lambda n: ((2 * b * n - b + 2 * a) ** 2 * (2 * n - 1),
                       32 * n * (2 * b * n + a) * (2 * b * n + a - b)),
            weight)


def test_fixture_sums_match_closed_forms():
    # the log 2 sums step and weigh their terms by ratios derived from the
    # G of pair-1 and pair-3; those must equal the closed forms, as exact
    # rationals, at every registry x (x = 0 for the sums without a param)
    closed = {"log2-f1": lambda x: _log2_closed_form(4, 1, 4),
              "log2-f3": lambda x: _log2_closed_form(15, 2, 8),
              "log2-f1-gen": _gen1_closed_form,
              "log2-f3-gen": _gen3_closed_form}
    for ident, closed_form in closed.items():
        side = lookup(ident).rhs
        for x in lookup(ident).params or (Fraction(0),):
            want_step, want_weight = closed_form(x)
            step, weight = side.step.int_ratio(x), side.weight.int_ratio(x)
            for n in range(1, 400):
                assert Fraction(*step(n)) == Fraction(*want_step(n)), (ident, x, n)
            for n in range(side.start, 400):
                assert Fraction(*weight(n)) == Fraction(*want_weight(n)), (ident, x, n)
    # negative control: doubling G's prefactor keeps the step, moves the weight
    for name in ("pair-1", "pair-3"):
        pair = builtin_pairs()[name]
        g = pair.G
        bad = WZPair(pair.F, HyperTerm.build(g.gammas, g.base, g.g_cn, g.g_ck, g.pre * 2),
                     f"{name}-perturbed")
        (step, weight), (bad_step, bad_weight) = map(registry._g_kernel, (pair, bad))
        assert str(bad_step) == str(step)
        assert str(bad_weight) != str(weight)
        half = Fraction(1, 2)
        assert Fraction(*bad_weight.int_ratio(half)(3)) == 2 * Fraction(*weight.int_ratio(half)(3))


def test_hash_contract():
    # records compare by identity, so all of them hash, WZ-backed ones too;
    # the WZ pairs, their terms and their certificate reports hold an
    # unhashable RatFunc and say so instead of failing inside hash()
    from wzmahler.symbolic.wz import wz_verify
    table = registry_entries()
    assert len({hash(rec) for rec in table}) == len(table) == 34
    # so do the sides, also the sums stepped by a pair's RatFuncs
    sides = [s for rec in table for s in (rec.lhs, rec.rhs) if not isinstance(s, WZPair)]
    assert all(isinstance(hash(s), int) for s in sides)
    pairs = builtin_pairs()
    assert len(pairs) == 3
    for pair in pairs.values():
        for obj in (pair, pair.F, pair.G, wz_verify(pair)):
            assert type(obj).__hash__ is None
            with pytest.raises(TypeError, match="unhashable"):
                hash(obj)


def test_lookup_contracts():
    rec = lookup("log2-f3")
    assert rec is not None
    with workprec(300):
        lhs = rec.lhs(CTX, None)
        assert abs(lhs - 8 * log(mpf(2))) < mpf(2) ** -250
    assert lookup("zeta3-f2").kind == "conjectural-numeric"
    assert lookup("nonexistent") is None


def test_run_check_wz_pair():
    rep = run_check("wz-pair-1", CTX)
    assert rep.status == "PASS"
    assert "certificate polynomial == 0" in rep.notes


def test_run_check_wz_fail_branch(monkeypatch):
    # a record whose pair is perturbed (G's prefactor plus 1) fails, and its
    # report carries wz_verify's nonzero witness as the lhs value
    rec = lookup("wz-pair-1")
    f, g = rec.lhs.F, rec.lhs.G
    bad = WZPair(f, g._replace(pre=RatFunc(g.pre.num + g.pre.den, g.pre.den)), rec.lhs.name)
    monkeypatch.setattr(registry, "lookup", lambda ident: rec._replace(lhs=bad))
    witness = str(wz_verify(bad).witness)
    rep = run_check("wz-pair-1", CTX)
    assert rep.status == "FAIL"
    assert rep.abs_diff == "nonzero" and rep.rhs_value == "0"
    assert rep.lhs_value == witness != "0"
    assert f"nonzero witness: {witness}" in rep.notes
    assert exit_code([rep]) == 1


def test_run_check_lalin():
    rep = run_check("lalin-m1-m16", CTX)
    assert rep.status == "PASS"
    assert mpf(rep.abs_diff) < mpf(10) ** -40


def test_run_check_unknown():
    with pytest.raises(UnknownIdentityError):
        run_check("unknown", CTX)


def test_tol_override_flips_status():
    rep = run_check("log2-f3", CTX, tol_override=mpf(10) ** -60)
    assert rep.status == "FAIL"
    rep2 = run_check("zeta3-f2", CTX, tol_override=mpf(10) ** -60)
    assert rep2.status == "CONJECTURAL-FAIL"


def test_run_all_filter_and_exit_codes():
    reports, code = run_all(filter="zeta3", ctx=CTX)
    assert [r.id for r in reports] == ["zeta3-f1", "zeta3-f2", "zeta3-f3"]
    assert reports[1].status.startswith("CONJECTURAL")
    assert code == 0

    empty, code = run_all(filter="no-such-entry", ctx=CTX)
    assert empty == [] and code == 0


def test_report_invariant_and_determinism():
    reports, code = run_all(filter="log2", ctx=CTX)
    assert code == 0
    for rep in reports:
        rec = lookup(rep.id)
        ok = rep.status in ("PASS", "CONJECTURAL-PASS")
        if rec.tol is not None and rep.status != "ERROR":
            assert ok == (mpf(rep.abs_diff) <= rec.tol)
    again, _ = run_all(filter="log2", ctx=CTX)
    for a, b in zip(reports, again):
        assert (a.id, a.lhs_value, a.rhs_value, a.abs_diff) == \
            (b.id, b.lhs_value, b.rhs_value, b.abs_diff)
    # at 64 bits a value string carries only the 19 significant digits
    # that 2^-64 resolves
    numeric = 0
    for rep in run_all(ctx=PrecisionCtx(bits=64))[0]:
        for v in (rep.lhs_value, rep.rhs_value, rep.abs_diff):
            m = re.fullmatch(r"-?(\d+)\.?(\d*)(e[-+]?\d+)?", v)
            if m:
                numeric += 1
                assert len((m[1] + m[2]).lstrip("0")) <= 19, f"{rep.id}: {v}"
    assert numeric >= 60


def test_run_all_jobs_parity():
    """The whole registry: every report field but elapsed_ms is equal to the
    checked-in report at 256 and at 512 bits, and at 256 bits independent of
    --jobs.  After a change that moves a value on purpose, regenerate both
    reports from the repository root with

    for b in 256 512; do PYTHONPATH=src python -m wzmahler.cli --bits $b --format json all | python -c "import json, sys; d = json.load(sys.stdin); [r.pop('elapsed_ms') for r in d['reports']]; print(json.dumps(d, indent=2))" > tests/data/report-$b.json; done
    """
    def stripped(jobs, bits):
        reports, code = run_all(jobs=jobs, ctx=PrecisionCtx(bits=bits))
        assert code == 0
        data = json.loads(reports_to_json(reports))
        for row in data["reports"]:
            del row["elapsed_ms"]
        return data

    def golden(bits):
        with open(GOLDEN.format(bits=bits)) as fh:
            return json.load(fh)

    def by_id(data):
        return {row["id"]: row for row in data["reports"]}

    seq = stripped(1, 256)
    # --jobs 2 at 256 bits only: each 512-bit pass adds ~1.5 s
    checks = [(seq, "jobs=2", stripped(2, 256)), (seq, "golden", golden(256)),
              (stripped(1, 512), "512-bit golden", golden(512))]
    for ours, name, other in checks:
        assert ours["schema"] == other["schema"]
        rows, theirs = by_id(ours), by_id(other)
        assert list(rows) == list(theirs), name
        for ident, row in rows.items():
            moved = [f"{key} {row[key]!r} vs {theirs[ident].get(key)!r}"
                     for key in row if row[key] != theirs[ident].get(key)]
            moved += [f"{key} only in the {name} report"
                      for key in theirs[ident] if key not in row]
            assert not moved, f"{ident} differs from the {name} report " \
                f"(ours vs {name}): " + "; ".join(moved)


def test_run_all_needs_no_polyroots(monkeypatch):
    """Every n(alpha) quadrature in the registry takes the periodic rule,
    whose nodes solve for the one root inside the unit disk and certify it:
    with mpmath's polyroots made to raise, run_all at 256 bits gives the
    checked-in report (elapsed_ms aside), and nodes were certified."""
    def refuse(*args, **kwargs):
        raise AssertionError("root solver")

    certified = []
    node = mahler._n_node

    def counted(*args):
        certified.append(args)
        return node(*args)

    monkeypatch.setattr(mahler, "polyroots", refuse)
    monkeypatch.setattr(mahler, "_n_node", counted)
    reports, code = run_all(ctx=CTX)
    assert code == 0 and certified
    data = json.loads(reports_to_json(reports))
    for row in data["reports"]:
        del row["elapsed_ms"]
    with open(GOLDEN.format(bits=256)) as fh:
        assert data == json.load(fh)


def test_reports_do_not_depend_on_entry_order():
    """The quantities memoised for the process (``series.shared``) charge
    their terms and notes to every entry that uses them, so no report
    depends on which entry met them first.  In a fresh process, run_check
    over the ids in reverse registry order, from a cold memo, gives every
    report of the run_all that follows it and of the checked-in report
    (elapsed_ms aside)."""
    code = ("import json\n"
            "from wzmahler.registry import registry_entries, run_all, run_check\n"
            "ids = [rec.id for rec in registry_entries()]\n"
            "rev = [run_check(i).to_dict() for i in reversed(ids)]\n"
            "fwd = [rep.to_dict() for rep in run_all()[0]]\n"
            "print(json.dumps([len(ids), rev, fwd]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(registry.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    count, rev, fwd = json.loads(out)
    for row in rev + fwd:
        del row["elapsed_ms"]
    with open(GOLDEN.format(bits=256)) as fh:
        golden = json.load(fh)["reports"]
    assert count == len(rev) == len(MINIMUM_IDS)
    assert sorted(rev, key=lambda row: row["id"]) == fwd == golden


def test_claims_beyond_the_precision_are_unresolved():
    """A claim whose tolerance lies below 2^-(bits+32) reports
    (CONJECTURAL-)UNRESOLVED and flips the exit code: the 1e-30 and 1e-40
    claims at 64 bits, where none may pass on a difference that rounding
    made zero, the 1e-40 ones at 80 and 96 bits, none from 112 bits up.
    Every status the precision can decide equals its 256-bit one."""
    with open(GOLDEN.format(bits=256)) as fh:
        at_256 = {row["id"]: row["status"] for row in json.load(fh)["reports"]}
    for bits, n_beyond in ((64, 11), (80, 7), (96, 7), (112, 0), (1024, 0)):
        reports, code = run_all(ctx=PrecisionCtx(bits=bits))
        assert code == int(n_beyond > 0), bits
        unresolved = set()
        for rep in reports:
            if rep.status.endswith("UNRESOLVED"):
                unresolved.add(rep.id)
            else:
                assert rep.status == at_256[rep.id], (bits, rep.id)
            if bits == 64:
                assert not (rep.status.endswith("PASS") and rep.abs_diff == "0.0"), rep.id
        beyond = {rec.id for rec in registry_entries()
                  if rec.tol is not None and rec.tol < mpf(2) ** -(bits + 32)}
        assert unresolved == beyond and len(beyond) == n_beyond, bits
        if bits == 64:
            assert [r.status for r in reports if r.id == "zeta3-f2"] == \
                ["CONJECTURAL-UNRESOLVED"]


def test_sides_call_the_library_through_the_module(monkeypatch):
    """A side looks each library function up in the registry module when
    it runs, so a function rebound there (as perfbench's tracer rebinds
    them) sees every call the registry makes."""
    names = ("m_series", "m_quadrature", "n_series", "n_quadrature",
             "rv_series", "n_lattice", "lattice_dilog_sum", "elliptic_dilog")
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in names:
        monkeypatch.setattr(registry, name, counting(name, getattr(registry, name)))
    run_all(ctx=CTX)
    assert [name for name, n in calls.items() if n == 0] == []


def test_each_special_value_once_per_pass(monkeypatch):
    """From cold memos, one run_all at 256 bits computes D(i),
    D(e^(i pi/3)) and D(e^(2 pi i/3)) once each, and every D at the pass's
    own precision: the anchors Lambda_{1/2}(1) and Lambda_{1/3}(1) of the
    m(alpha) and n(alpha) series read the memo entries that the n = 0 terms
    of the lattice sums at z0 = i and at z0 = e^(i pi/3) fill, and the
    e^(2 pi i/3) of bertin-exotic's elliptic dilogarithm is the z0 of
    qseries-n's lattice sums (``numkernel.root_of_unity``).  No alpha that
    a side takes through m_series is computed at two tolerances."""
    computed, m_calls = [], {}
    raw = numkernel.bloch_wigner.__wrapped__

    def counted(z, ctx=DEFAULT_CTX):
        computed.append((z, ctx.bits))
        return raw(z, ctx)

    fresh = shared(counted)
    monkeypatch.setattr(numkernel, "bloch_wigner", fresh)
    monkeypatch.setattr(elliptic, "bloch_wigner", fresh)
    for memo in (numkernel._lambda_at_one, elliptic.lattice_dilog_sum,
                 mahler._m_series, mahler.n_series):
        memo.cache_clear()
    m_series = registry.m_series

    def m_counted(alpha, ctx, tol=None):
        m_calls.setdefault(alpha, set()).add(tol)
        return m_series(alpha, ctx, tol=tol)

    monkeypatch.setattr(registry, "m_series", m_counted)
    reports, code = run_all(ctx=CTX)
    assert code == 0
    assert [z for z, _ in computed].count(mpc(0, 1)) == 1
    # a point formed two ways would round to two memo keys: count near hits
    with workprec(300):
        for point in (mpc(1, sqrt(3)) / 2, mpc(-1, sqrt(3)) / 2):
            assert sum(abs(z - point) < mpf(10) ** -60
                       for z, _ in computed) == 1, point
    assert {bits for _, bits in computed} == {256}
    assert len(m_calls) >= 6
    assert {alpha: tols for alpha, tols in m_calls.items() if len(tols) > 1} == {}


def test_one_m_series_per_alpha_per_pass(monkeypatch):
    """From a cold memo, a 256-bit run_all sums one m(alpha) series per
    alpha: s_ratio's default tolerance is the M sides' 1e-42, formed as the
    same mpf, so its m(8) and m(2) are the sides' memo entries."""
    misses = []
    raw = mahler._m_series.__wrapped__

    def counted(alpha, tol, ctx):
        misses.append((alpha, tol))
        return raw(alpha, tol, ctx)

    monkeypatch.setattr(mahler, "_m_series", shared(counted))
    reports, code = run_all(ctx=CTX)
    assert code == 0
    alphas = [alpha for alpha, _ in misses]
    assert len(misses) == len(set(alphas)) == 19
    with CTX.workprec(32):
        assert {tol for _, tol in misses} == {mpf(10) ** -42}


def test_series_pairs_stay_narrow_at_512_bits(monkeypatch):
    """A 512-bit pass of the entries without n(alpha) quadrature steps no
    integer pair wider than 64 bits: an irrational series argument enters
    ratio_series as its fixed-point factor x, not inside the pairs, and
    log4r-identity's 1 + rs multiplies its terms in fixed point."""
    widths, entry = [], [None]  # (entry, "step" or "weight", bits)
    real = series_module.ratio_series

    def watch(kind, f):
        def pair(n):
            p, q = f(n)
            widths.append((entry[0], kind,
                           max(abs(p).bit_length(), abs(q).bit_length())))
            return p, q
        return pair

    def spy(step, weight, **kwargs):
        return real(watch("step", step), watch("weight", weight), **kwargs)

    for module in (mahler, numkernel, registry, pfq_module):
        monkeypatch.setattr(module, "ratio_series", spy)
    for memo in (mahler._m_series, mahler.n_series, numkernel._lambda_at_one):
        memo.cache_clear()
    ctx = PrecisionCtx(bits=512)
    light = [rec.id for rec in registry_entries()
             if rec.id not in ("qseries-n", "qseries-n2", "bertin-n-form")]
    for ident in light:
        entry[0] = ident
        assert run_check(ident, ctx).status.endswith("PASS"), ident
    assert {i for i, kind, _ in widths if kind == "step"} >= {
        "lalin-m1-m16", "qseries-m-series", "rs-param", "log4r-identity"}
    assert {(i, kind, w) for i, kind, w in widths if w > 64} == set()


def test_log4r_split_weight_against_the_dyadic_weight():
    """log4r-identity's weight, split as (1+rs)/(2n+1) + 1/((2n)(2n+1))
    with 1 + rs a fixed-point factor, sums the terms that the one weight
    (2(1+rs)n+1)/((2n)(2n+1)) over 1 + rs's dyadic pair summed, stops at
    the same term and lands within 2^-40 of the sum's tol of it."""
    for bits in (256, 512):
        ctx = PrecisionCtx(bits=bits)
        for r in lookup("log4r-identity").params:
            with ctx.workprec(32):
                with series_module.TermCounter() as split:
                    got = registry._log4r_rhs(ctx, r)
                rv = to_mpf(r)
                with series_module.TermCounter() as ratio:  # the memo's charge
                    rs = rv * s_ratio(rv, ctx)
                (a, b), (k, e) = as_ratio(r), as_ratio(1 + rs)
                digits = 11 if r == 1 else 32
                with series_module.TermCounter() as whole:
                    ref = registry.HyperSum(
                        lambda n: ((2 * n - 1) ** 2 * a * a, 4 * n * n * b * b),
                        lambda n: (2 * k * n + e, e * (2 * n) * (2 * n + 1)),
                        ratio=rv * rv, tol=digits, head=rs, start=1)(ctx, r)
                assert split.count == ratio.count + whole.count, (bits, r)
                assert abs(got - ref) < mpf(10) ** -digits * 2 ** -40, (bits, r)


def test_monotone_precision():
    lo = run_check("log2-f3", PrecisionCtx(bits=192))
    hi = run_check("log2-f3", PrecisionCtx(bits=384))
    assert lo.status == hi.status == "PASS"


def test_report_json_round_trip():
    reports, _ = run_all(filter="wz-pair", ctx=CTX)
    text = reports_to_json(reports)
    assert '"schema": "wzmahler-report/1"' in text
    parsed = reports_from_json(text)
    assert parsed == reports
    with pytest.raises(ValueError):
        reports_from_json('{"schema": "other/9", "reports": []}')


def test_exit_exempt_entries_never_flip_exit_code():
    rec = lookup("bertin-series")
    assert rec.exit_exempt
    assert lookup("zeta3-f2").kind == "conjectural-numeric"


def _bertin_alphas():
    s5 = sqrt(mpf(5))
    return (7 + s5) / cbrt(mpf(4)), (7 - s5) / cbrt(mpf(4)), cbrt(mpf(32))


def test_n_lattice_against_quadrature():
    # the nome-and-lattice-sum route against the Jensen quadrature at the
    # three arguments of bertin-n-form (q = 0.080, 4.0e-5, 0.0064)
    with workprec(300):
        for alpha in _bertin_alphas():
            lat = n_lattice(alpha, CTX)
            assert abs(lat - n_quadrature(alpha, CTX, tol=mpf(10) ** -8)) < mpf(10) ** -40


def test_n_lattice_domain():
    for alpha in (3, 2, 0, -4):
        with pytest.raises(DomainError):
            n_lattice(alpha, CTX)


def test_n_lattice_checks_its_nome(monkeypatch):
    # a nome off by 1e-30 relative no longer gives alpha back
    good = registry.q3_from_beta
    monkeypatch.setattr(registry, "q3_from_beta",
                        lambda *a, **k: good(*a, **k) * (1 + mpf(10) ** -30))
    with pytest.raises(ArithmeticError, match="misses alpha"):
        n_lattice(_bertin_alphas()[1], CTX)
