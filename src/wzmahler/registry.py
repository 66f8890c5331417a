"""Declarative registry of every identity the engine verifies, plus the
runner that evaluates both sides of each and produces machine-readable
reports.

Each record binds an id to lhs/rhs evaluator closures over a PrecisionCtx
(or to a WZPair for the exact certificates), a tolerance, and optional
sampled parameters.  Conjectural records and records carrying a documented
correction can never flip the suite's exit code.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from mpmath import atan, log, mp, mpc, mpf, pi, sqrt, workprec

from .context import PrecisionCtx, UnknownIdentityError, ensure_ctx
from .elliptic import (CurvePoint, EllipticCurve, curve_from_family,
                       elliptic_dilog, is_on_curve, lattice_dilog_sum,
                       periods, point_order)
from .mahler import (m_quadrature, m_series, n_quadrature, n_series, rv_series,
                     s_ratio)
from .modular import phi_theta, xq_product
from .numkernel import gamma_real, zeta_int
from .series import TermCounter, richardson_sum, sum_geometric
from .symbolic.pairs import builtin_pairs
from .symbolic.pfq import pfq_eval
from .symbolic.wz import WZPair, wz_verify

SCHEMA = "wzmahler-report/1"

KIND_EXACT = "exact-symbolic"
KIND_NUMERIC = "numeric"
KIND_CONJECTURAL = "conjectural-numeric"
KIND_FINITE = "finite-family"


@dataclass(frozen=True)
class IdentityRecord:
    id: str
    description: str
    kind: str
    lhs: Callable | WZPair
    rhs: Callable | None
    tol: mpf | None
    params: tuple = ()
    note: str = ""
    exit_exempt: bool = False


@dataclass
class CheckReport:
    id: str
    status: str
    lhs_value: str
    rhs_value: str
    abs_diff: str
    terms_used: int
    elapsed_ms: int
    notes: str

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# shared cached data
# ---------------------------------------------------------------------------

_CURVE_SPECS = {
    "E1": (Fraction(25), Fraction(2), CurvePoint.affine(87, 1080)),
    "E2": (Fraction(256), Fraction(1, 2), CurvePoint.affine(195, 432)),
    "E3": (Fraction(64), Fraction(1, 2), CurvePoint.affine(51, 216)),
    "E4": (Fraction(18), Fraction(1), CurvePoint.affine(33, 324)),
}

BERTIN_CURVE = EllipticCurve(Fraction(432), Fraction(-1188))
BERTIN_P = CurvePoint.affine(-6, 54)

_period_cache: dict = {}


def curve(name: str) -> EllipticCurve:
    ksq, ell, _ = _CURVE_SPECS[name]
    return curve_from_family(ksq, ell)


def curve_point(name: str) -> CurvePoint:
    return _CURVE_SPECS[name][2]


def _periods_for(name: str, ctx: PrecisionCtx):
    key = (name, ctx.bits)
    if key not in _period_cache:
        e = BERTIN_CURVE if name == "bertin" else curve(name)
        _period_cache[key] = periods(e, ctx)
    return _period_cache[key]


def _fmpf(x: Fraction) -> mpf:
    return mpf(x.numerator) / x.denominator


# ---------------------------------------------------------------------------
# series evaluators
# ---------------------------------------------------------------------------

def _csq16(n, c):
    """ratio step for c_n = C(2n,n)^2 / 16^n"""
    return c * (2 * n + 1) ** 2 / (4 * mpf(n + 1) ** 2)


def _log2_f1_rhs(ctx, _):
    counter = TermCounter()
    state = {}

    def term(j):
        if j == 0:
            state["c"] = mpf(1)
        n = j + 1
        state["c"] = _csq16(j, state["c"])
        c = state["c"]
        return mpf(4 * n + 1) / ((2 * n) * (2 * n + 1)) * c

    val = 1 + richardson_sum(term, mpf(10) ** -41, max_terms=ctx.max_terms,
                             counter=counter)
    return val, counter.count


def _log2_f23_rhs(a_lin, a_const, shift_bits, head_const):
    def rhs(ctx, _):
        counter = TermCounter()

        def terms():
            c = mpf(1)  # C(2n,n)^2 / 2^(shift_bits * n)
            n = 0
            while True:
                n += 1
                c = c * (2 * n - 1) ** 2 / (mpf(n) ** 2 * 2 ** (shift_bits - 2))
                yield mpf(a_lin * n + a_const) / ((2 * n) * (2 * n + 1)) * c

        ratio = mpf(2) ** (4 - shift_bits) * mpf("1.1")
        val = head_const + sum_geometric(terms(), mpf(10) ** -42, ratio=ratio,
                                         max_terms=ctx.max_terms, counter=counter)
        return val, counter.count
    return rhs


def _gamma_quotient(x, ctx):
    return pi * gamma_real(x, ctx) * gamma_real(x + 1, ctx) / gamma_real(x + mpf("0.5"), ctx) ** 2


def _gen1_lhs(ctx, x):
    with ctx.workprec(32):
        return +_gamma_quotient(_fmpf(Fraction(x)), ctx), 0


def _gen1_rhs(ctx, x):
    counter = TermCounter()
    state: dict = {}

    def term(n):
        if n == 0:
            state.update(p=mpf(1), c=mpf(1), x=_fmpf(Fraction(x)))
        p, c, xv = state["p"], state["c"], state["x"]
        t = (4 * n + 2 * xv + 1) / ((2 * n + 1) * (n + xv)) * p * c
        state["p"] = p * (mpf("0.5") + xv + n) / (1 + xv + n)  # (1/2+x)_n/(1+x)_n
        state["c"] = c * (2 * n + 1) / (2 * mpf(n + 1))         # C(2n,n)/4^n
        return t

    val = richardson_sum(term, mpf(10) ** -31, max_terms=ctx.max_terms,
                         counter=counter)
    return val, counter.count


def _gen3_lhs(ctx, x):
    with ctx.workprec(32):
        return +(4 * _gamma_quotient(_fmpf(Fraction(x)), ctx)), 0


def _gen3_rhs(ctx, x):
    counter = TermCounter()
    with ctx.workprec(64):
        xv = _fmpf(Fraction(x))

        def terms():
            u = mpf(1)   # (1/2+x)_n^2 / ((1+x/2)_n ((1+x)/2)_n)
            c = mpf(1)   # C(2n,n)/2^(6n)
            n = 0
            while True:
                p = (2 * n + 1) * (86 * n + 19) + 4 * xv * (20 * n + 7) + 12 * xv * xv
                num = 2 * (2 * n + 1) ** 2 * (15 * n + 2) + xv * p
                den = (2 * n + 1) * (2 * n + xv) * (2 * n + xv + 1) ** 2
                yield num / den * u * c
                u = u * (mpf("0.5") + xv + n) ** 2 / ((1 + xv / 2 + n) * ((1 + xv) / 2 + n))
                c = c * (2 * n + 1) / (32 * mpf(n + 1))
                n += 1

        gen = terms()
        head = mpf(0)
        for _ in range(8):
            head += next(gen)
        counter.add(8)
        val = head + sum_geometric(gen, mpf(10) ** -31, ratio=mpf("0.25"),
                                   max_terms=ctx.max_terms, counter=counter)
        return +val, counter.count


def _zeta2_laurent_lhs(ctx, _):
    with ctx.workprec(32):
        return +(-zeta_int(2, ctx) + 4 * log(mpf(2)) ** 2), 0


def _zeta2_laurent_term(state, j):
    if j == 0:
        state.clear()
        state.update(c=mpf(1), a=mpf(0))
    n = j + 1
    state["c"] = _csq16(j, state["c"])
    state["a"] += mpf(1) / (2 * n - 1) - mpf(1) / (2 * n)
    c, a = state["c"], state["a"]
    return mpf(4 * n + 1) / ((2 * n) * (2 * n + 1)) * c * \
        (-mpf(2 * n + 1) / ((2 * n) * (4 * n + 1)) + a)


def _zeta2_laurent_rhs(ctx, _):
    counter = TermCounter()
    # interpretation check first, at low precision: the 2n-th partial sum of
    # the alternating harmonic series must reproduce the constant to ~1e-3
    state: dict = {}
    with workprec(80):
        probe = 2 * sum(_zeta2_laurent_term(state, j) for j in range(600))
        lhs, _ = _zeta2_laurent_lhs(ctx, None)
        gap = abs(probe - lhs)
        if gap > mpf("1e-3"):
            raise ArithmeticError(
                f"partial-sum interpretation of A_2n fails: gap {mp.nstr(gap, 3)}")
        note = f"interpretation check gap {mp.nstr(gap, 3)} at 600 direct terms"
    counter.add(600)
    val = 2 * richardson_sum(lambda j: _zeta2_laurent_term(state, j),
                             mpf(10) ** -11, max_terms=ctx.max_terms,
                             counter=counter)
    return val, counter.count, note


def _zeta3_lhs(ctx, _):
    return zeta_int(3, ctx), 0


def _zeta3_f1_rhs(ctx, _):
    counter = TermCounter()
    state = {}

    def term(n):
        if n == 0:
            state["b"] = mpf(1)
        b = state["b"]
        state["b"] = b * 4 * mpf(n + 1) ** 2 / (2 * n + 1) ** 2
        return mpf(4 * n + 3) / ((2 * n + 1) ** 3 * (n + 1)) * b

    val = mpf(2) / 7 * richardson_sum(term, mpf(10) ** -11,
                                      max_terms=ctx.max_terms, counter=counter)
    return val, counter.count


def _zeta3_geom_rhs(lin_a, lin_b, base_num, prefactor: Fraction):
    def rhs(ctx, _):
        counter = TermCounter()

        def terms():
            b = mpf(1)  # base_num^n / C(2n,n)^2
            n = 0
            while True:
                yield mpf(lin_a * n + lin_b) / ((2 * n + 1) ** 3 * (n + 1)) * b
                b = b * base_num * mpf(n + 1) ** 2 / (4 * (2 * n + 1) ** 2)
                n += 1

        val = _fmpf(prefactor) * sum_geometric(terms(), mpf(10) ** -32,
                                               ratio=mpf(base_num) / 16 * mpf("1.05"),
                                               max_terms=ctx.max_terms, counter=counter)
        return val, counter.count
    return rhs


def _finite_lhs(ctx, m):
    total = Fraction(0)
    for n in range(1, m):
        total += Fraction(30 * n + 11, (2 * n) * (2 * n + 1)) * comb(2 * n, n) ** 2
    with ctx.workprec():
        return +_fmpf(total), 0


def _finite_rhs(ctx, m):
    counter = TermCounter()
    head = Fraction(-4)
    for n in range(1, m):
        head += Fraction(6 * comb(2 * n, n), n)
    pref = Fraction(comb(2 * m, m) ** 2, 2 * m)
    with ctx.workprec(32):
        sub_tol = mpf(10) ** -9 / (8 * _fmpf(pref))
        f43 = pfq_eval([1, 1, 2 * m, 2 * m], [m + 1, m + 1, 2 * m + 1],
                       mpf(1), ctx, tol=sub_tol, counter=counter)
        val = _fmpf(head) + _fmpf(pref) * f43
        return +val, counter.count


def _m_rel(coeff_alpha: list[tuple]):
    """sum of coeff * m(alpha) via the binomial series"""
    def side(ctx, _):
        counter = TermCounter()
        total = mpf(0)
        with ctx.workprec(32):
            for coeff, alpha in coeff_alpha:
                a = sqrt(mpf(2)) * 3 if alpha == "3sqrt2" else mpf(alpha)
                total += coeff * m_series(a, ctx, tol=mpf(10) ** -42, counter=counter)
            return +total, counter.count
    return side


def _log4r_lhs(ctx, r):
    with ctx.workprec(32):
        return +log(4 / _fmpf(Fraction(r))), 0


def _log4r_rhs(ctx, r):
    counter = TermCounter()
    with ctx.workprec(32):
        rv = _fmpf(Fraction(r))
        s = s_ratio(rv, ctx)
        rs = rv * s
        if rv == 1:
            state = {}

            def term(j):
                if j == 0:
                    state["c"] = mpf(1)
                n = j + 1
                state["c"] = state["c"] * (2 * n - 1) ** 2 * rv * rv / (4 * mpf(n) ** 2)
                return (2 * (1 + rs) * n + 1) / ((2 * n) * (2 * n + 1)) * state["c"]

            tail = richardson_sum(term, mpf(10) ** -11, max_terms=ctx.max_terms,
                                  counter=counter)
        else:
            def terms():
                c = mpf(1)
                n = 0
                while True:
                    n += 1
                    c = c * (2 * n - 1) ** 2 * rv * rv / (4 * mpf(n) ** 2)
                    yield (2 * (1 + rs) * n + 1) / ((2 * n) * (2 * n + 1)) * c

            tail = sum_geometric(terms(), mpf(10) ** -32, ratio=rv * rv,
                                 max_terms=ctx.max_terms, counter=counter)
        return +(rs + tail), counter.count


def _qseries_m_lhs(ctx, q):
    counter = TermCounter()
    with ctx.workprec(32):
        val = 4 / pi * lattice_dilog_sum(mpc(0, 1), _fmpf(Fraction(q)), ctx,
                                         counter=counter)
        return +val, counter.count


def _alpha_of_q(q, ctx):
    qv = _fmpf(Fraction(q))
    return 4 * phi_theta(qv, ctx) ** 2 / phi_theta(-qv, ctx) ** 2


def _qseries_m_series_rhs(ctx, q):
    counter = TermCounter()
    with ctx.workprec(32):
        alpha = _alpha_of_q(q, ctx)
        return +m_series(alpha, ctx, tol=mpf(10) ** -40, counter=counter), counter.count


def _qseries_m_quad_rhs(ctx, q):
    with ctx.workprec(32):
        alpha = _alpha_of_q(q, ctx)
        return +m_quadrature(alpha, ctx, tol=mpf(10) ** -8), 0


def _qseries_n_lhs(ctx, q):
    counter = TermCounter()
    with ctx.workprec(32):
        z0 = mpc(-1, sqrt(mpf(3))) / 2  # e^{2 pi i/3}
        val = mpf(9) / (2 * pi) * lattice_dilog_sum(z0, _fmpf(Fraction(q)), ctx,
                                                    counter=counter)
        return +val, counter.count


def _x_alpha(q, ctx, power=1):
    qv = _fmpf(Fraction(q)) ** power
    return 3 * xq_product(qv, ctx) ** (mpf(1) / 3)


def _qseries_n_rhs(ctx, q):
    counter = TermCounter()
    with ctx.workprec(32):
        val = n_series(_x_alpha(q, ctx), ctx, tol=mpf(10) ** -42, counter=counter)
        return +val, counter.count


def _qseries_n2_lhs(ctx, q):
    counter = TermCounter()
    with ctx.workprec(32):
        z0 = mpc(1, sqrt(mpf(3))) / 2  # e^{pi i/3}
        val = mpf(9) / pi * lattice_dilog_sum(z0, _fmpf(Fraction(q)), ctx,
                                              counter=counter)
        return +val, counter.count


def _qseries_n2_rhs(ctx, q):
    counter = TermCounter()
    tol = mpf(10) ** -42
    with ctx.workprec(32):
        v1 = n_series(_x_alpha(q, ctx), ctx, tol=tol, counter=counter)
        v2 = n_series(_x_alpha(q, ctx, power=2), ctx, tol=tol, counter=counter)
        return +(2 * v1 + v2), counter.count


def _dilog_side(name: str, coeff: int):
    def side(ctx, _):
        counter = TermCounter()
        with ctx.workprec(32):
            per = _periods_for(name, ctx)
            val = coeff * lattice_dilog_sum(mpc(0, 1), per.q, ctx, counter=counter)
            return +val, counter.count
    return side


def _m_dilog_lhs(alpha_key):
    def side(ctx, _):
        counter = TermCounter()
        with ctx.workprec(32):
            a = sqrt(mpf(2)) * 3 if alpha_key == "3sqrt2" else mpf(alpha_key)
            return +m_series(a, ctx, tol=mpf(10) ** -40, counter=counter), counter.count
    return side


def _m_dilog_rhs(name):
    def side(ctx, _):
        counter = TermCounter()
        with ctx.workprec(32):
            per = _periods_for(name, ctx)
            val = 4 / pi * lattice_dilog_sum(mpc(0, 1), per.q, ctx, counter=counter)
            return +val, counter.count
    return side


def _bertin_exotic_side(loc, coeff):
    def side(ctx, _):
        counter = TermCounter()
        with ctx.workprec(32):
            per = _periods_for("bertin", ctx)
            val = coeff * elliptic_dilog(BERTIN_CURVE, loc, ctx, per=per,
                                         counter=counter)
            return +val, counter.count
    return side


def _bertin_alphas(ctx):
    with ctx.workprec(32):
        s5 = sqrt(mpf(5))
        cbrt4 = mpf(4) ** (mpf(1) / 3)
        return (7 + s5) / cbrt4, (7 - s5) / cbrt4, mpf(32) ** (mpf(1) / 3)


def _bertin_n_lhs(ctx, _):
    a1, a2, _ = _bertin_alphas(ctx)
    v1 = n_quadrature(a1, ctx, tol=mpf(10) ** -8)
    v2 = n_quadrature(a2, ctx, tol=mpf(10) ** -8)
    return +(16 * v1 - 8 * v2), 0


def _bertin_n_rhs(ctx, _):
    _, _, a3 = _bertin_alphas(ctx)
    return +(19 * n_quadrature(a3, ctx, tol=mpf(10) ** -8)), 0


def _bertin_series_lhs(ctx, _):
    with ctx.workprec(32):
        s5 = sqrt(mpf(5))
        return +(3 * log((7 + s5) ** 24 / (mpf(2) ** 53 * mpf(11) ** 8))), 0


def _bertin_series_rhs(ctx, _):
    counter = TermCounter()
    with ctx.workprec(32):
        s5 = sqrt(mpf(5))
        u1 = 4 / (7 + s5) ** 3
        u2 = 4 / (7 - s5) ** 3
        u3 = mpf(1) / 32
        tol = mpf(10) ** -9
        val = 16 * rv_series(u1, ctx, tol=tol, counter=counter) \
            - 8 * rv_series(u2, ctx, tol=tol, counter=counter) \
            - 19 * rv_series(u3, ctx, tol=tol, counter=counter)
        return +val, counter.count


def _strange_lhs(ctx, _):
    with ctx.workprec(32):
        return +(12 / pi * atan(1 / sqrt(mpf(2)))), 0


def _strange_rhs(ctx, _):
    counter = TermCounter()
    state = {}

    def term(j):
        if j == 0:
            state["b"] = mpf(1)
        n = j + 1
        # step n-1 -> n of b_n = C(2n,n) C(4n,2n)/64^n is (4n-3)(4n-1)/(16 n^2)
        b = state["b"] * mpf(4 * n - 3) * (4 * n - 1) / (16 * mpf(n) ** 2)
        state["b"] = b
        return mpf(54 * n * n + n - 1) / ((3 * n - 1) * (3 * n + 1) * (4 * n - 1)) * b

    val = 3 - richardson_sum(term, mpf(10) ** -31, max_terms=ctx.max_terms,
                             counter=counter)
    return val, counter.count


def _rs_lhs(ctx, q):
    with ctx.workprec(32):
        qv = _fmpf(Fraction(q))
        r = phi_theta(-qv, ctx) ** 2 / phi_theta(qv, ctx) ** 2
        return +s_ratio(r, ctx), 0


def _rs_rhs(ctx, q):
    counter = TermCounter()
    with ctx.workprec(32):
        qv = _fmpf(Fraction(q))
        top = lattice_dilog_sum(mpc(0, 1), qv, ctx, counter=counter)
        bot = lattice_dilog_sum(mpc(0, 1), -qv, ctx, counter=counter)
        return +(top / bot), counter.count


def _torsion_lhs(ctx, _):
    orders = []
    for name in ("E1", "E2", "E3", "E4"):
        e, p = curve(name), curve_point(name)
        if not is_on_curve(e, p):
            raise ArithmeticError(f"point for {name} is not on its curve")
        orders.append(point_order(e, p))
    if not is_on_curve(BERTIN_CURVE, BERTIN_P):
        raise ArithmeticError("Bertin point is not on its curve")
    orders.append(point_order(BERTIN_CURVE, BERTIN_P))
    return tuple(orders), 0


def _torsion_rhs(ctx, _):
    return (4, 4, 4, 4, 6), 0


# ---------------------------------------------------------------------------
# the registry table
# ---------------------------------------------------------------------------

def registry_entries() -> list[IdentityRecord]:
    pairs = builtin_pairs()
    t40 = mpf(10) ** -40
    recs = [
        IdentityRecord("wz-pair-1", "WZ certificate of the log(2) pair",
                       KIND_EXACT, pairs["pair-1"], None, None),
        IdentityRecord("wz-pair-3", "WZ certificate of the 2^(-6n) pair",
                       KIND_EXACT, pairs["pair-3"], None, None),
        IdentityRecord("wz-pair-divergent",
                       "WZ certificate of the 16^n pair behind the finite family",
                       KIND_EXACT, pairs["pair-divergent"], None, None),
        IdentityRecord("log2-f1", "2 log 2 = 1 + sum (4n+1)/((2n)(2n+1)) C(2n,n)^2/2^(4n)",
                       KIND_NUMERIC, lambda ctx, _: (2 * log(mpf(2)), 0),
                       _log2_f1_rhs, t40,
                       note="1/n^2 tail, Richardson accelerated"),
        IdentityRecord("log2-f2", "3 log 2 = 2 + sum (6n+1)/((2n)(2n+1)) C(2n,n)^2/2^(6n)",
                       KIND_NUMERIC, lambda ctx, _: (3 * log(mpf(2)), 0),
                       _log2_f23_rhs(6, 1, 6, mpf(2)), t40,
                       note="no certificate-backed route is known for this one; "
                            "verified numerically only"),
        IdentityRecord("log2-f3", "8 log 2 = 11/2 + sum (15n+2)/((2n)(2n+1)) C(2n,n)^2/2^(8n)",
                       KIND_NUMERIC, lambda ctx, _: (8 * log(mpf(2)), 0),
                       _log2_f23_rhs(15, 2, 8, mpf(11) / 2), t40),
        IdentityRecord("log2-f1-gen",
                       "pi G(x)G(x+1)/G(x+1/2)^2 as a 2^(-2n) binomial sum",
                       KIND_NUMERIC, _gen1_lhs, _gen1_rhs, mpf(10) ** -30,
                       params=(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                               Fraction(3, 2))),
        IdentityRecord("log2-f3-gen",
                       "4 pi G(x)G(x+1)/G(x+1/2)^2 as the 2^(-6n) kernel sum",
                       KIND_NUMERIC, _gen3_lhs, _gen3_rhs, mpf(10) ** -30,
                       params=(Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
                               Fraction(3, 2))),
        IdentityRecord("zeta2-laurent",
                       "-zeta(2) + 4 log^2 2 from the Laurent coefficient sum",
                       KIND_NUMERIC, _zeta2_laurent_lhs, _zeta2_laurent_rhs,
                       mpf(10) ** -10,
                       note="A_2n interpreted as the 2n-th partial sum of the "
                            "alternating harmonic series"),
        IdentityRecord("zeta3-f1", "zeta(3) = (2/7) sum (4n+3) 16^n/((2n+1)^3 (n+1) C(2n,n)^2)",
                       KIND_NUMERIC, _zeta3_lhs, _zeta3_f1_rhs, mpf(10) ** -10,
                       note="1/n^2 tail, Richardson accelerated"),
        IdentityRecord("zeta3-f2", "zeta(3) =? (4/7) sum (3n+2) 4^n/((2n+1)^3 (n+1) C(2n,n)^2)",
                       KIND_CONJECTURAL, _zeta3_lhs, _zeta3_geom_rhs(3, 2, 4, Fraction(4, 7)),
                       mpf(10) ** -30,
                       note="numerically true; no proof is known"),
        IdentityRecord("zeta3-f3", "zeta(3) = (1/16) sum (30n+19)/((2n+1)^3 (n+1) C(2n,n)^2)",
                       KIND_NUMERIC, _zeta3_lhs, _zeta3_geom_rhs(30, 19, 1, Fraction(1, 16)),
                       mpf(10) ** -10),
        IdentityRecord("finite-4f3",
                       "finite binomial sums against a unit-argument 4F3",
                       KIND_FINITE, _finite_lhs, _finite_rhs, mpf(10) ** -8,
                       params=tuple(range(1, 9)),
                       note="4F3(1,1,2m,2m; m+1,m+1,2m+1; 1), 1/n^2 tail, accelerated"),
        IdentityRecord("lalin-m1-m16", "11 m(1) = m(16)",
                       KIND_NUMERIC, _m_rel([(11, 1)]), _m_rel([(1, 16)]), t40),
        IdentityRecord("m2-m8", "4 m(2) = m(8)",
                       KIND_NUMERIC, _m_rel([(4, 2)]), _m_rel([(1, 8)]), t40),
        IdentityRecord("ko-m1-m16-2m5", "m(1) + m(16) = 2 m(5)",
                       KIND_NUMERIC, _m_rel([(1, 1), (1, 16)]), _m_rel([(2, 5)]), t40),
        IdentityRecord("lr-m2-m8-2m3sqrt2", "m(2) + m(8) = 2 m(3 sqrt 2)",
                       KIND_NUMERIC, _m_rel([(1, 2), (1, 8)]), _m_rel([(2, "3sqrt2")]), t40),
        IdentityRecord("log4r-identity",
                       "log(4/r) = rs + sum (2(1+rs)n+1)/((2n)(2n+1)) C(2n,n)^2 (r/4)^(2n)",
                       KIND_NUMERIC, _log4r_lhs, _log4r_rhs, mpf(10) ** -10,
                       params=(Fraction(1, 5), Fraction(1, 3), Fraction(1, 2),
                               Fraction(2, 3), Fraction(1)),
                       note="r = 1 sample has a 1/n^2 tail and is accelerated; "
                            "r < 1 samples converge geometrically"),
        IdentityRecord("qseries-m-series",
                       "m(4 phi^2(q)/phi^2(-q)) = (4/pi) sum D(i q^n), series route",
                       KIND_NUMERIC, _qseries_m_lhs, _qseries_m_series_rhs,
                       mpf(10) ** -6, params=(Fraction(1, 10), Fraction(1, 5))),
        IdentityRecord("qseries-m-quad",
                       "m(4 phi^2(q)/phi^2(-q)) = (4/pi) sum D(i q^n), quadrature route",
                       KIND_NUMERIC, _qseries_m_lhs, _qseries_m_quad_rhs,
                       mpf(10) ** -6, params=(Fraction(1, 10), Fraction(1, 5))),
        IdentityRecord("qseries-n",
                       "n(3 x(q)^(1/3)) = (9/2pi) sum D(e^(2pi i/3) q^n)",
                       KIND_NUMERIC, _qseries_n_lhs, _qseries_n_rhs,
                       mpf(10) ** -6, params=(Fraction(1, 10), Fraction(1, 5))),
        IdentityRecord("qseries-n2",
                       "(9/pi) sum D(e^(pi i/3) q^n) = 2 n(3 x(q)^(1/3)) + n(3 x(q^2)^(1/3))",
                       KIND_NUMERIC, _qseries_n2_lhs, _qseries_n2_rhs,
                       mpf(10) ** -6, params=(Fraction(1, 10), Fraction(1, 5))),
        IdentityRecord("dilog-equiv-1", "11 D^E1(P1) = 6 D^E2(P2)",
                       KIND_NUMERIC, _dilog_side("E1", 11), _dilog_side("E2", 6),
                       mpf(10) ** -20,
                       note="P1, P2 at u = omega/4 (z0 = i) on E(5,2), E(16,1/2)"),
        IdentityRecord("dilog-equiv-2", "5 D^E3(P3) = 8 D^E4(P4)",
                       KIND_NUMERIC, _dilog_side("E3", 5), _dilog_side("E4", 8),
                       mpf(10) ** -20,
                       note="P3, P4 at u = omega/4 on E(8,1/2), E(3sqrt2,1); the "
                            "(1/4, 0) location is adopted for all four curves"),
        IdentityRecord("m5-dilog", "m(5) = (4/pi) D^E(5,2)(P1)",
                       KIND_NUMERIC, _m_dilog_lhs(5), _m_dilog_rhs("E1"), mpf(10) ** -15),
        IdentityRecord("m8-dilog", "m(8) = (4/pi) D^E(8,1/2)(P3)",
                       KIND_NUMERIC, _m_dilog_lhs(8), _m_dilog_rhs("E3"), mpf(10) ** -15),
        IdentityRecord("m16-dilog", "m(16) = (4/pi) D^E(16,1/2)(P2)",
                       KIND_NUMERIC, _m_dilog_lhs(16), _m_dilog_rhs("E2"), mpf(10) ** -15),
        IdentityRecord("m3sqrt2-dilog", "m(3 sqrt 2) = (4/pi) D^E(3sqrt2,1)(P4)",
                       KIND_NUMERIC, _m_dilog_lhs("3sqrt2"), _m_dilog_rhs("E4"),
                       mpf(10) ** -15),
        IdentityRecord("bertin-exotic", "16 D^E(P) = 11 D^E(2P) on y^2 = 4x^3 - 432x + 1188",
                       KIND_NUMERIC,
                       _bertin_exotic_side((Fraction(1, 6), Fraction(-1, 2)), 16),
                       _bertin_exotic_side((Fraction(1, 3), Fraction(0)), 11),
                       mpf(10) ** -20,
                       note="P at u = (omega - 3 omega')/6; g2^3/(g2^3-27g3^2) "
                            "computes to 256/135 exactly (not the sometimes-"
                            "quoted 6912/6971), consistent with beta = 5/32"),
        IdentityRecord("bertin-n-form",
                       "16 n((7+sqrt5)/4^(1/3)) - 8 n((7-sqrt5)/4^(1/3)) = 19 n(32^(1/3))",
                       KIND_NUMERIC, _bertin_n_lhs, _bertin_n_rhs, mpf(10) ** -6),
        IdentityRecord("bertin-series",
                       "3 log((7+sqrt5)^24/(2^53 11^8)) = sum (3n)!/(n n!^3) "
                       "(16 u1^n - 8 u2^n - 19 u3^n)",
                       KIND_NUMERIC, _bertin_series_lhs, _bertin_series_rhs,
                       mpf(10) ** -6, exit_exempt=True,
                       note="a third base of 27/32, as this identity is "
                            "sometimes stated, diverges against "
                            "(3n)!/(n n!^3) ~ 27^n; the base used is "
                            "u3 = 1/32 = 1/(27 x), matching the u = 1/(27 x) "
                            "pattern of the first two terms"),
        IdentityRecord("arctan-strange",
                       "(12/pi) atan(1/sqrt 2) = 3 - sum (54n^2+n-1) C(2n,n) C(4n,2n)/...",
                       KIND_NUMERIC, _strange_lhs, _strange_rhs, mpf(10) ** -30,
                       note="1/n^2 tail despite the 2^(-6n) appearance; accelerated"),
        IdentityRecord("rs-param", "m(4/r)/m(4r) = L(i,q)/L(i,-q) with r = phi^2(-q)/phi^2(q)",
                       KIND_NUMERIC, _rs_lhs, _rs_rhs, mpf(10) ** -15,
                       params=(Fraction(1, 10), Fraction(1, 4))),
        IdentityRecord("torsion-orders",
                       "orders of P1..P4 and Bertin's P by the exact group law",
                       KIND_EXACT, _torsion_lhs, _torsion_rhs, None),
    ]
    return recs


def lookup(ident: str) -> IdentityRecord | None:
    for rec in registry_entries():
        if rec.id == ident:
            return rec
    return None


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _nstr(x) -> str:
    return mp.nstr(mpf(x), 40, strip_zeros=True)


def _call_side(fn, ctx, param):
    out = fn(ctx, param)
    if isinstance(out, tuple):
        if len(out) == 3:
            return out
        return out[0], out[1], None
    return out, 0, None


def run_check(ident: str, ctx: PrecisionCtx | None = None,
              tol_override=None) -> CheckReport:
    ctx = ensure_ctx(ctx)
    rec = lookup(ident)
    if rec is None:
        raise UnknownIdentityError(ident)
    tol = rec.tol
    if tol_override is not None and tol is not None:
        tol = mpf(tol_override)
    t0 = time.monotonic()
    notes = [rec.note] if rec.note else []
    terms_total = 0
    try:
        if rec.kind == KIND_EXACT:
            if isinstance(rec.lhs, WZPair):
                rep = wz_verify(rec.lhs)
                status = "PASS" if rep.passed else "FAIL"
                notes.append("certificate polynomial == 0" if rep.passed
                             else f"nonzero witness: {rep.witness}")
                lhs_s, rhs_s, diff_s = "0", "0", "0"
                if not rep.passed:
                    lhs_s, rhs_s, diff_s = str(rep.certificate), "0", "nonzero"
            else:
                lval, lt, lnote = _call_side(rec.lhs, ctx, None)
                rval, rt, rnote = _call_side(rec.rhs, ctx, None)
                terms_total = lt + rt
                for n in (lnote, rnote):
                    if n:
                        notes.append(n)
                status = "PASS" if lval == rval else "FAIL"
                lhs_s, rhs_s = str(lval), str(rval)
                diff_s = "0" if lval == rval else "mismatch"
        else:
            params = rec.params if rec.params else (None,)
            worst = mpf(-1)
            lhs_s = rhs_s = diff_s = ""
            with workprec(ctx.bits + 64):
                for p in params:
                    lval, lt, lnote = _call_side(rec.lhs, ctx, p)
                    rval, rt, rnote = _call_side(rec.rhs, ctx, p)
                    terms_total += lt + rt
                    for n in (lnote, rnote):
                        if n:
                            notes.append(n)
                    diff = abs(mpf(lval) - mpf(rval))
                    if p is not None:
                        notes.append(f"param {p}: |diff| = {mp.nstr(diff, 6)}")
                    if diff > worst:
                        worst = diff
                        lhs_s, rhs_s, diff_s = _nstr(lval), _nstr(rval), _nstr(diff)
            ok = worst <= tol
            if rec.kind == KIND_CONJECTURAL:
                status = "CONJECTURAL-PASS" if ok else "CONJECTURAL-FAIL"
            else:
                status = "PASS" if ok else "FAIL"
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        elapsed = int((time.monotonic() - t0) * 1000)
        notes.append(f"{type(exc).__name__}: {exc}")
        return CheckReport(rec.id, "ERROR", "", "", "", terms_total, elapsed,
                           "; ".join(notes))
    elapsed = int((time.monotonic() - t0) * 1000)
    return CheckReport(rec.id, status, lhs_s, rhs_s, diff_s, terms_total,
                       elapsed, "; ".join(notes))


def _worker(args) -> dict:
    ident, bits, max_terms, tol_raw, override_raw = args
    ctx = PrecisionCtx(bits=bits, max_terms=max_terms,
                       target_tol=mp.make_mpf(tol_raw))
    override = None if override_raw is None else mp.make_mpf(override_raw)
    return run_check(ident, ctx, tol_override=override).to_dict()


def run_all(filter: str | None = None, jobs: int = 1,
            ctx: PrecisionCtx | None = None,
            tol_override=None) -> tuple[list[CheckReport], int]:
    """Run matching entries; exit code 0 iff no non-exempt entry failed."""
    ctx = ensure_ctx(ctx)
    recs = [r for r in registry_entries() if not filter or filter in r.id]
    ids = [r.id for r in recs]
    if jobs > 1 and len(ids) > 1:
        # the raw mantissa/exponent tuples round-trip the tolerances exactly
        override_raw = None if tol_override is None else mpf(tol_override)._mpf_
        args = [(i, ctx.bits, ctx.max_terms, ctx.target_tol._mpf_, override_raw)
                for i in ids]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            dicts = list(pool.map(_worker, args))
        reports = [CheckReport(**d) for d in dicts]
    else:
        reports = [run_check(i, ctx, tol_override) for i in ids]
    reports.sort(key=lambda r: r.id)
    by_id = {r.id: r for r in recs}
    code = 0
    for rep in reports:
        rec = by_id[rep.id]
        if rec.exit_exempt or rec.kind == KIND_CONJECTURAL:
            continue
        if rep.status in ("FAIL", "ERROR"):
            code = 1
    return reports, code


def reports_to_json(reports: list[CheckReport]) -> str:
    return json.dumps({"schema": SCHEMA,
                       "reports": [r.to_dict() for r in reports]}, indent=2)


def reports_from_json(text: str) -> list[CheckReport]:
    data = json.loads(text)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema {data.get('schema')!r}")
    return [CheckReport(**d) for d in data["reports"]]
