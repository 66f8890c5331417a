"""Declarative registry of every identity the engine verifies, plus the
runner that evaluates both sides of each and produces machine-readable
reports.

Each record binds an id to its two sides (or to a WZPair for the exact
certificates), a tolerance, and optional sampled parameters.  A side is a
callable ``side(ctx, param) -> value`` of one of three forms: a ``Side``,
a sum of rational (or rational over pi) multiples of named quantities
(m(alpha), n(alpha) and lattice sums, each ``Quantity`` with its inner
tolerance); a ``HyperSum``, a hypergeometric-type series whose term ratio
and weight come, for the log 2 sums a WZ pair proves, from that pair's G
(``_g_kernel``); or a def or lambda for a closed form.  Only ``run_check``
opens a scope: per parameter, one ``series.TermCounter`` around both sides,
whose terms and notes go into the report, at bits + 64, where it rounds
both values.  A numeric check whose tolerance lies below 2^-(bits+32)
reports UNRESOLVED (CONJECTURAL-UNRESOLVED) whatever its difference, which
counts against the exit code as FAIL does.  The table is built once per
process, on first use.  Conjectural records and records carrying a
documented correction can never flip the suite's exit code.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from functools import cache
from itertools import count, islice
from math import comb, lcm, log10
from typing import Callable, NamedTuple

from mpmath import atan, ldexp, log, mp, mpf, pi, sqrt, workprec

from .context import (DEFAULT_CTX, DomainError, PrecisionCtx,
                      UnknownIdentityError, to_mpf)
from .elliptic import (CurvePoint, EllipticCurve, curve_from_family,
                       elliptic_dilog, is_on_curve, lattice_dilog_sum,
                       point_order)
from .fixedpoint import as_ratio, to_fixed
from .mahler import (M_DIGITS, m_quadrature, m_series, n_quadrature, n_series,
                     rv_series, s_ratio)
from .modular import cubic_theta_ratio, phi_theta, q3_from_beta
from .numkernel import gamma_real, root_of_unity, zeta_int
from .series import (TermCounter, count_terms, note, ratio_series,
                     richardson_sum, sum_geometric)
from .symbolic.hyperterm import term_shift_ratio
from .symbolic.multipoly import RatFunc
from .symbolic.pairs import builtin_pairs
from .symbolic.pfq import pfq_eval
from .symbolic.wz import WZPair, wz_verify

SCHEMA = "wzmahler-report/1"

KIND_EXACT = "exact-symbolic"
KIND_NUMERIC = "numeric"
KIND_CONJECTURAL = "conjectural-numeric"
KIND_FINITE = "finite-family"


class IdentityRecord(NamedTuple):
    """One registry entry.  Records are built once per process and compared
    by identity, so every record hashes, also one whose lhs is a WZPair."""

    id: str
    description: str
    kind: str
    lhs: Callable | WZPair
    rhs: Callable | None
    tol: mpf | None
    params: tuple = ()
    note: str = ""
    exit_exempt: bool = False

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class CheckReport(NamedTuple):
    id: str
    status: str
    lhs_value: str
    rhs_value: str
    abs_diff: str
    terms_used: int
    elapsed_ms: int
    notes: str

    def to_dict(self) -> dict:
        return dict(zip(self._fields, self))


# ---------------------------------------------------------------------------
# shared cached data
# ---------------------------------------------------------------------------

# name -> (curve, point): the four curves E(k, l) of the dilogarithm
# equivalences, with k^2 and l as in ``curve_from_family``, and Bertin's
CURVES = {
    "E1": (curve_from_family(25, 2), CurvePoint.affine(87, 1080)),
    "E2": (curve_from_family(256, Fraction(1, 2)), CurvePoint.affine(195, 432)),
    "E3": (curve_from_family(64, Fraction(1, 2)), CurvePoint.affine(51, 216)),
    "E4": (curve_from_family(18, 1), CurvePoint.affine(33, 324)),
    "bertin": (EllipticCurve(432, -1188), CurvePoint.affine(-6, 54)),
}


# ---------------------------------------------------------------------------
# side evaluators
# ---------------------------------------------------------------------------

class HyperSum(NamedTuple):
    """head + scale * sum_{n>=start} weight(n) c_n, with c_0 = 1 and
    c_n = c_{n-1} step(n), at inner tolerance 10**-tol.  Step and weight
    map n to an integer pair (p, q) standing for p/q
    (``series.ratio_series``), or are RatFuncs in (n, k) taken at k = param
    (k = 0 without one), as ``_g_kernel`` derives them from a WZ pair.
    ``ratio`` bounds the term ratio from term ``ratio_from`` on: a bound
    below 1 sums directly with a geometric tail, any other (1 for a
    1/n^2 tail) by Richardson extrapolation.  Head, scale and ratio are
    converted at the working precision.  Compared and hashed by identity:
    a RatFunc is unhashable."""
    step: Callable | RatFunc
    weight: Callable | RatFunc
    ratio: Fraction | mpf
    tol: int
    head: Fraction | mpf = 0
    scale: Fraction = 1
    start: int = 0
    ratio_from: int = 0

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __call__(self, ctx, param):
        bound = to_mpf(self.ratio)
        tol = mpf(10) ** -self.tol
        k = 0 if param is None else param
        step, weight = (f.int_ratio(k) if isinstance(f, RatFunc) else f
                        for f in (self.step, self.weight))
        terms = ratio_series(step, weight, start=self.start)
        if bound < 1:
            s = sum_geometric(terms, tol, ratio=bound, head=self.ratio_from,
                              max_terms=ctx.max_terms)
        else:
            s = richardson_sum(terms, tol, max_terms=ctx.max_terms)
        return to_mpf(self.head) + to_mpf(self.scale) * s


def n_lattice(alpha, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """n(alpha) for alpha > 3 by the elliptic-dilogarithm form of Lalin's
    theorem: (9/2pi) sum_n D(e^(2pi i/3) q^n) at the signature-3 nome
    q = q3_from_beta(1 - 27/alpha^3).  ArithmeticError unless 3 x(q)^(1/3)
    gives alpha back to within 2^(-bits/2)."""
    with ctx.workprec(32):
        alpha = to_mpf(alpha)
        if alpha <= 3:
            raise DomainError("n_lattice requires alpha > 3")
        q = q3_from_beta(1 - 27 / alpha ** 3, ctx)
        gap = abs(3 * cubic_theta_ratio(q, ctx) - alpha)
        if gap > mpf(2) ** (-(ctx.bits // 2)):
            raise ArithmeticError(
                f"3 x(q)^(1/3) misses alpha = {mp.nstr(alpha, 12)} by "
                f"{mp.nstr(gap, 3)}")
        lat = lattice_dilog_sum(root_of_unity(Fraction(1, 3)), q, ctx)
        return +(9 * lat / (2 * pi))


class OverPi(Fraction):
    """A rational coefficient c of a ``Side`` term that stands for c/pi."""
    __slots__ = ()


class Quantity(NamedTuple):
    """fn(*args, ctx), at the inner tolerance 10**-tol if one is given.  fn
    is looked up by its name in this module when called, so that a rebound
    module attribute (perfbench's tracer) is what runs."""
    fn: Callable
    tol: int | None = None

    def __call__(self, ctx, *args):
        tol = {} if self.tol is None else {"tol": mpf(10) ** -self.tol}
        return globals()[self.fn.__name__](*args, ctx, **tol)


class Side(NamedTuple):
    """sum c Q(*args) over ``terms``, each a tuple (c, Q, *args) of an int or
    ``OverPi`` coefficient c, a ``Quantity`` Q and its arguments: values, or
    functions of (ctx, param) called when the side runs.  Compared and
    hashed by identity like ``HyperSum``."""
    terms: tuple

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @classmethod
    def of(cls, *terms) -> Side:
        return cls(terms)

    def __call__(self, ctx, param):
        total = 0
        for c, quantity, *args in self.terms:
            v = quantity(ctx, *(a(ctx, param) if callable(a) else a for a in args))
            total += to_mpf(c) / pi * v if isinstance(c, OverPi) else c * v
        return total


# the eight quantities that the Mahler-measure and elliptic-dilogarithm sides
# add up; each m(alpha) of a side is one series at 1e-42, shared by every
# side that takes it and by s_ratio
M = Quantity(m_series, M_DIGITS)    # m(alpha) by its series
M_QUAD = Quantity(m_quadrature, 8)  # m(alpha) by the Jensen quadrature
N = Quantity(n_series, 42)          # n(alpha) likewise
N_LAT = Quantity(n_lattice)
N_QUAD = Quantity(n_quadrature, 8)
RV = Quantity(rv_series, 42)        # the Rodriguez-Villegas series
L = Quantity(lattice_dilog_sum)     # L(z0, q) = sum_n D(z0 q^n)
D_E = Quantity(elliptic_dilog)      # D^E at u = a omega + b omega'


def _q(ctx, q) -> mpf:
    return to_mpf(q)


def _unit_point(a: Fraction) -> Callable:
    """The side argument e^(2 pi i a), formed when the side runs"""
    return lambda *_: root_of_unity(a)


def _alpha_phi(ctx, q) -> mpf:
    """alpha = 4 phi(q)^2/phi(-q)^2, where m(alpha) = (4/pi) L(i, q)"""
    q = to_mpf(q)
    return 4 * phi_theta(q, ctx) ** 2 / phi_theta(-q, ctx) ** 2


def _alpha_x(ctx, q) -> mpf:
    """alpha = 3 x(q)^(1/3) = 3 a(q)/b(q), where
    n(alpha) = (9/2pi) L(e^(2pi i/3), q)"""
    return 3 * cubic_theta_ratio(to_mpf(q), ctx)


def _g_kernel(pair: WZPair) -> tuple[RatFunc, RatFunc]:
    """(step, weight) of sum_n G(n, k)/(k K(0, k)) for the pair's
    G = pre K, K its Gamma and geometric factors with pre = 1:
    step(n, k) = K(n, k)/K(n-1, k) and weight = pre/k, k divided out of
    pre's numerator exactly so that the sum stays defined at k = 0."""
    g = pair.G
    return (term_shift_ratio(g._replace(pre=RatFunc(1)), 1, 0).shift(-1, 0),
            RatFunc(g.pre.num.div_k(), g.pre.den))


def _zeta3_sum(a, b, base, scale, tol):
    """scale * sum_{n>=0} (an+b) base^n / ((2n+1)^3 (n+1) C(2n,n)^2)"""
    return HyperSum(lambda n: (base * n * n, 4 * (2 * n - 1) ** 2),
                    lambda n: (a * n + b, (2 * n + 1) ** 3 * (n + 1)),
                    ratio=Fraction(base, 16) * Fraction(21, 20), tol=tol, scale=scale)


def _gamma_quotient(x, ctx):
    """pi G(x)G(x+1)/G(x+1/2)^2 = pi x (G(x)/G(x+1/2))^2"""
    x = to_mpf(x)
    return pi * x * (gamma_real(x, ctx) / gamma_real(x + mpf("0.5"), ctx)) ** 2


def _zeta2_lhs(ctx, _):
    return -zeta_int(2, ctx) + 4 * log(mpf(2)) ** 2


def _zeta2_terms(bits):
    """(4n+1)/((2n)(2n+1)) C(2n,n)^2/16^n (A_2n - (2n+1)/((2n)(4n+1))) for
    n >= 1, A_2n = sum_{k<=n} 1/(2k-1) - 1/(2k), at ``bits`` fractional bits"""
    one = 1 << bits
    c = one  # C(2n,n)^2/16^n
    h = 0    # A_2n
    for n in count(1):
        c = c * (2 * n - 1) ** 2 // (4 * n * n)
        h += one // (2 * n - 1) - one // (2 * n)
        # (4n+1) A/((2n)(2n+1)) - 1/(4n^2) over the denominator (2n)(2n+1) 4n^2
        num = (4 * n + 1) * 4 * n * n * h - (2 * n) * (2 * n + 1) * one
        yield c * num // ((2 * n) * (2 * n + 1) * 4 * n * n << bits)


def _zeta2_laurent_rhs(ctx, _):
    # interpretation check first, at 80 fractional bits: the 2n-th partial
    # sum of the alternating harmonic series must reproduce the constant to
    # ~1e-3
    probe = 2 * ldexp(sum(islice(_zeta2_terms(80), 600)), -80)
    gap = abs(probe - _zeta2_lhs(ctx, None))
    if gap > mpf("1e-3"):
        raise ArithmeticError(
            f"partial-sum interpretation of A_2n fails: gap {mp.nstr(gap, 3)}")
    note(f"interpretation check gap {mp.nstr(gap, 3)} at 600 direct terms")
    count_terms(600)
    return 2 * richardson_sum(_zeta2_terms, mpf(10) ** -11, max_terms=ctx.max_terms)


# The finite sums below are each taken over the lcm L of their denominators,
# as one Fraction: every (2n)(2n+1), n < m, divides lcm(2, ..., 2m - 1).

def _finite_lhs(ctx, m):
    """sum_{n<m} (30n+11)/((2n)(2n+1)) C(2n,n)^2"""
    big_l = lcm(*range(2, 2 * m))
    return to_mpf(Fraction(sum((30 * n + 11) * comb(2 * n, n) ** 2 * (big_l // (2 * n * (2 * n + 1)))
                               for n in range(1, m)), big_l))


def _finite_rhs(ctx, m):
    """-4 + sum_{n<m} 6 C(2n,n)/n + C(2m,m)^2/(2m) 4F3(1,1,2m,2m; m+1,m+1,2m+1; 1)"""
    big_l = lcm(*range(1, m))
    head = Fraction(sum(6 * comb(2 * n, n) * (big_l // n) for n in range(1, m)) - 4 * big_l, big_l)
    pref = Fraction(comb(2 * m, m) ** 2, 2 * m)
    f43 = pfq_eval([1, 1, 2 * m, 2 * m], [m + 1, m + 1, 2 * m + 1], 1, ctx)
    return to_mpf(head) + to_mpf(pref) * f43


def _log4r_rhs(ctx, r):
    """rs + sum_{n>=1} (2(1+rs)n+1)/((2n)(2n+1)) C(2n,n)^2 (r/4)^(2n).

    The weight splits as (1+rs)/(2n+1) + 1/((2n)(2n+1)), two narrow
    weights over one step: u = floor(c_n/(2n+1)) serves both, as
    floor(u/(2n)) is floor(c_n/((2n)(2n+1))), and 1 + rs enters as one
    fixed-point factor, floored once, so no term takes a product with its
    wide dyadic pair.  A term is within 4 + rs units of its exact fixed
    point, and the geometric or Richardson finisher stops on the same
    terms as for the unsplit weight."""
    rv = to_mpf(r)
    rs = rv * s_ratio(rv, ctx)
    a, b = as_ratio(r)
    scaled = ratio_series(lambda n: ((2 * n - 1) ** 2 * a * a, 4 * n * n * b * b),
                          lambda n: (1, 2 * n + 1), start=1)

    def terms(bits):
        k = to_fixed(1 + rs, bits)
        for n, u in enumerate(scaled(bits), 1):
            yield (u * k >> bits) + u // (2 * n)

    if rv < 1:
        s = sum_geometric(terms, mpf(10) ** -32, ratio=rv * rv,
                          max_terms=ctx.max_terms)
    else:  # a 1/n^2 tail
        s = richardson_sum(terms, mpf(10) ** -11, max_terms=ctx.max_terms)
    return rs + s


def _torsion_lhs(ctx, _):
    for name, (e, p) in CURVES.items():
        if not is_on_curve(e, p):
            raise ArithmeticError(f"point for {name} is not on its curve")
    return tuple(point_order(e, p) for e, p in CURVES.values())


# ---------------------------------------------------------------------------
# the registry table
# ---------------------------------------------------------------------------

@cache
def registry_entries() -> tuple[IdentityRecord, ...]:
    """Every record, in registry order; built on the first call, then shared."""
    pairs = builtin_pairs()
    # the log 2 sums and their Gamma-quotient generalizations, from the G of
    # the pair that proves each
    step1, weight1 = _g_kernel(pairs["pair-1"])
    step3, weight3 = _g_kernel(pairs["pair-3"])
    # tolerances at mpmath's default precision, whatever the caller's
    with workprec(53):
        t = {k: mpf(10) ** -k for k in (6, 8, 10, 15, 20, 30, 40)}
    gen_x = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 2))
    q_samples = (Fraction(1, 10), Fraction(1, 5))

    e1, e2, e3, e4, bertin = (e for e, _ in CURVES.values())
    quarter = (Fraction(1, 4), Fraction(0))  # u = omega/4: z0 = i

    def zeta3(ctx, _):
        return zeta_int(3, ctx)

    return (
        IdentityRecord("wz-pair-1", "WZ certificate of the log(2) pair",
                       KIND_EXACT, pairs["pair-1"], None, None),
        IdentityRecord("wz-pair-3", "WZ certificate of the 2^(-6n) pair",
                       KIND_EXACT, pairs["pair-3"], None, None),
        IdentityRecord("wz-pair-divergent",
                       "WZ certificate of the 16^n pair behind the finite family",
                       KIND_EXACT, pairs["pair-divergent"], None, None),
        IdentityRecord("log2-f1", "2 log 2 = 1 + sum (4n+1)/((2n)(2n+1)) C(2n,n)^2/2^(4n)",
                       KIND_NUMERIC, lambda *_: 2 * log(mpf(2)),
                       HyperSum(step1, weight1, ratio=Fraction(11, 10), tol=41, head=1,
                                start=1), t[40],
                       note="1/n^2 tail, Richardson accelerated"),
        IdentityRecord("log2-f2", "3 log 2 = 2 + sum (6n+1)/((2n)(2n+1)) C(2n,n)^2/2^(6n)",
                       KIND_NUMERIC, lambda *_: 3 * log(mpf(2)),
                       # C(2n,n)^2/64^n steps by (2n-1)^2/(16 n^2)
                       HyperSum(lambda n: ((2 * n - 1) ** 2, 16 * n * n),
                                lambda n: (6 * n + 1, (2 * n) * (2 * n + 1)),
                                ratio=Fraction(11, 40), tol=42, head=2,
                                start=1), t[40],
                       note="no certificate-backed route is known for this one; "
                            "verified numerically only"),
        IdentityRecord("log2-f3", "8 log 2 = 11/2 + sum (15n+2)/((2n)(2n+1)) C(2n,n)^2/2^(8n)",
                       KIND_NUMERIC, lambda *_: 8 * log(mpf(2)),
                       HyperSum(step3, weight3, ratio=Fraction(11, 160), tol=42,
                                head=Fraction(11, 2), start=1), t[40]),
        IdentityRecord("log2-f1-gen", "pi G(x)G(x+1)/G(x+1/2)^2 as a 2^(-2n) binomial sum",
                       KIND_NUMERIC, lambda ctx, x: _gamma_quotient(x, ctx),
                       HyperSum(step1, weight1 * 2, ratio=1, tol=31), t[30], params=gen_x),
        IdentityRecord("log2-f3-gen", "4 pi G(x)G(x+1)/G(x+1/2)^2 as the 2^(-6n) kernel sum",
                       KIND_NUMERIC, lambda ctx, x: 4 * _gamma_quotient(x, ctx),
                       # the term ratio is below 1/4 from the ninth term on
                       HyperSum(step3, weight3 * 2, ratio=Fraction(1, 4), tol=31,
                                ratio_from=8), t[30], params=gen_x),
        IdentityRecord("zeta2-laurent", "-zeta(2) + 4 log^2 2 from the Laurent coefficient sum",
                       KIND_NUMERIC, _zeta2_lhs, _zeta2_laurent_rhs, t[10],
                       note="A_2n interpreted as the 2n-th partial sum of the "
                            "alternating harmonic series"),
        IdentityRecord("zeta3-f1", "zeta(3) = (2/7) sum (4n+3) 16^n/((2n+1)^3 (n+1) C(2n,n)^2)",
                       KIND_NUMERIC, zeta3, _zeta3_sum(4, 3, 16, Fraction(2, 7), 11), t[10],
                       note="1/n^2 tail, Richardson accelerated"),
        IdentityRecord("zeta3-f2", "zeta(3) =? (4/7) sum (3n+2) 4^n/((2n+1)^3 (n+1) C(2n,n)^2)",
                       KIND_CONJECTURAL, zeta3, _zeta3_sum(3, 2, 4, Fraction(4, 7), 32), t[30],
                       note="numerically true; no proof is known"),
        IdentityRecord("zeta3-f3", "zeta(3) = (1/16) sum (30n+19)/((2n+1)^3 (n+1) C(2n,n)^2)",
                       KIND_NUMERIC, zeta3, _zeta3_sum(30, 19, 1, Fraction(1, 16), 32), t[10]),
        IdentityRecord("finite-4f3", "finite binomial sums against a unit-argument 4F3",
                       KIND_FINITE, _finite_lhs, _finite_rhs, t[8], params=tuple(range(1, 9)),
                       note="4F3(1,1,2m,2m; m+1,m+1,2m+1; 1), exact by Gosper's algorithm"),
        IdentityRecord("lalin-m1-m16", "11 m(1) = m(16)", KIND_NUMERIC,
                       Side.of((11, M, 1)), Side.of((1, M, 16)), t[40]),
        IdentityRecord("m2-m8", "4 m(2) = m(8)", KIND_NUMERIC,
                       Side.of((4, M, 2)), Side.of((1, M, 8)), t[40]),
        IdentityRecord("ko-m1-m16-2m5", "m(1) + m(16) = 2 m(5)", KIND_NUMERIC,
                       Side.of((1, M, 1), (1, M, 16)), Side.of((2, M, 5)), t[40]),
        IdentityRecord("lr-m2-m8-2m3sqrt2", "m(2) + m(8) = 2 m(3 sqrt 2)", KIND_NUMERIC,
                       Side.of((1, M, 2), (1, M, 8)),
                       Side.of((2, M, lambda *_: sqrt(mpf(2)) * 3)), t[40]),
        IdentityRecord("log4r-identity",
                       "log(4/r) = rs + sum (2(1+rs)n+1)/((2n)(2n+1)) C(2n,n)^2 (r/4)^(2n)",
                       KIND_NUMERIC, lambda ctx, r: log(4 / to_mpf(r)),
                       _log4r_rhs, t[10],
                       params=(Fraction(1, 5), Fraction(1, 3), Fraction(1, 2),
                               Fraction(2, 3), Fraction(1)),
                       note="r = 1 sample has a 1/n^2 tail and is accelerated; "
                            "r < 1 samples converge geometrically"),
        IdentityRecord("qseries-m-series",
                       "m(4 phi^2(q)/phi^2(-q)) = (4/pi) sum D(i q^n), series route",
                       KIND_NUMERIC, Side.of((OverPi(4), L, _unit_point(Fraction(1, 4)), _q)),
                       Side.of((1, M, _alpha_phi)), t[6], params=q_samples),
        IdentityRecord("qseries-m-quad",
                       "m(4 phi^2(q)/phi^2(-q)) = (4/pi) sum D(i q^n), quadrature route",
                       KIND_NUMERIC, Side.of((OverPi(4), L, _unit_point(Fraction(1, 4)), _q)),
                       Side.of((1, M_QUAD, _alpha_phi)), t[6], params=q_samples),
        IdentityRecord("qseries-n", "n(3 x(q)^(1/3)) = (9/2pi) sum D(e^(2pi i/3) q^n)",
                       KIND_NUMERIC,
                       Side.of((OverPi(9, 2), L, _unit_point(Fraction(1, 3)), _q)),
                       Side.of((1, N, _alpha_x)), t[6], params=q_samples),
        IdentityRecord("qseries-n2",
                       "(9/pi) sum D(e^(pi i/3) q^n) = 2 n(3 x(q)^(1/3)) + n(3 x(q^2)^(1/3))",
                       KIND_NUMERIC,
                       Side.of((OverPi(9), L, _unit_point(Fraction(1, 6)), _q)),
                       Side.of((2, N, _alpha_x),
                               (1, N, lambda ctx, q: _alpha_x(ctx, to_mpf(q) ** 2))),
                       t[6], params=q_samples),
        IdentityRecord("dilog-equiv-1", "11 D^E1(P1) = 6 D^E2(P2)", KIND_NUMERIC,
                       Side.of((11, D_E, e1, quarter)), Side.of((6, D_E, e2, quarter)), t[20],
                       note="P1, P2 at u = omega/4 (z0 = i) on E(5,2), E(16,1/2)"),
        IdentityRecord("dilog-equiv-2", "5 D^E3(P3) = 8 D^E4(P4)", KIND_NUMERIC,
                       Side.of((5, D_E, e3, quarter)), Side.of((8, D_E, e4, quarter)), t[20],
                       note="P3, P4 at u = omega/4 on E(8,1/2), E(3sqrt2,1); the "
                            "(1/4, 0) location is adopted for all four curves"),
        # m(k) = (4/pi) L(i, q) at the nome q of the curve E(k, l)
        IdentityRecord("m5-dilog", "m(5) = (4/pi) D^E(5,2)(P1)", KIND_NUMERIC,
                       Side.of((1, M, 5)), Side.of((OverPi(4), D_E, e1, quarter)), t[15]),
        IdentityRecord("m8-dilog", "m(8) = (4/pi) D^E(8,1/2)(P3)", KIND_NUMERIC,
                       Side.of((1, M, 8)), Side.of((OverPi(4), D_E, e3, quarter)), t[15]),
        IdentityRecord("m16-dilog", "m(16) = (4/pi) D^E(16,1/2)(P2)", KIND_NUMERIC,
                       Side.of((1, M, 16)), Side.of((OverPi(4), D_E, e2, quarter)), t[15]),
        IdentityRecord("m3sqrt2-dilog", "m(3 sqrt 2) = (4/pi) D^E(3sqrt2,1)(P4)", KIND_NUMERIC,
                       Side.of((1, M, lambda *_: sqrt(mpf(2)) * 3)),
                       Side.of((OverPi(4), D_E, e4, quarter)), t[15]),
        IdentityRecord("bertin-exotic", "16 D^E(P) = 11 D^E(2P) on y^2 = 4x^3 - 432x + 1188",
                       KIND_NUMERIC,
                       Side.of((16, D_E, bertin, (Fraction(1, 6), Fraction(-1, 2)))),
                       Side.of((11, D_E, bertin, (Fraction(1, 3), Fraction(0)))), t[20],
                       note="P at u = (omega - 3 omega')/6; g2^3/(g2^3-27g3^2) "
                            "computes to 256/135 exactly (not the sometimes-"
                            "quoted 6912/6971), consistent with beta = 5/32"),
        IdentityRecord("bertin-n-form",
                       "16 n((7+sqrt5)/4^(1/3)) - 8 n((7-sqrt5)/4^(1/3)) = 19 n(32^(1/3))",
                       KIND_NUMERIC,
                       Side.of((16, N_LAT,
                                lambda *_: (7 + sqrt(mpf(5))) / mpf(4) ** (mpf(1) / 3)),
                               (-8, N_LAT,
                                lambda *_: (7 - sqrt(mpf(5))) / mpf(4) ** (mpf(1) / 3))),
                       Side.of((19, N_QUAD, lambda *_: mpf(32) ** (mpf(1) / 3))), t[6],
                       note="left side by the nome and lattice sum, right side "
                            "by Jensen quadrature"),
        IdentityRecord("bertin-series",
                       "3 log((7+sqrt5)^24/(2^53 11^8)) = sum (3n)!/(n n!^3) "
                       "(16 u1^n - 8 u2^n - 19 u3^n)",
                       KIND_NUMERIC, lambda *_: 3 * log((7 + sqrt(mpf(5))) ** 24
                                                        / (mpf(2) ** 53 * mpf(11) ** 8)),
                       Side.of((16, RV, lambda *_: 4 / (7 + sqrt(mpf(5))) ** 3),
                               (-8, RV, lambda *_: 4 / (7 - sqrt(mpf(5))) ** 3),
                               (-19, RV, Fraction(1, 32))),
                       t[6], exit_exempt=True,
                       note="a third base of 27/32, as this identity is "
                            "sometimes stated, diverges against "
                            "(3n)!/(n n!^3) ~ 27^n; the base used is "
                            "u3 = 1/32 = 1/(27 x), matching the u = 1/(27 x) "
                            "pattern of the first two terms"),
        IdentityRecord("arctan-strange",
                       "(12/pi) atan(1/sqrt 2) = 3 - sum (54n^2+n-1) C(2n,n) C(4n,2n)/...",
                       KIND_NUMERIC, lambda *_: 12 / pi * atan(1 / sqrt(mpf(2))),
                       # C(2n,n) C(4n,2n)/64^n steps by (4n-3)(4n-1)/(16 n^2)
                       HyperSum(lambda n: ((4 * n - 3) * (4 * n - 1), 16 * n * n),
                                lambda n: (54 * n * n + n - 1,
                                           (3 * n - 1) * (3 * n + 1) * (4 * n - 1)),
                                ratio=1, tol=31, head=3, scale=-1, start=1), t[30],
                       note="1/n^2 tail despite the 2^(-6n) appearance; accelerated"),
        IdentityRecord("rs-param", "m(4/r)/m(4r) = L(i,q)/L(i,-q) with r = phi^2(-q)/phi^2(q)",
                       KIND_NUMERIC,
                       lambda ctx, q: s_ratio(phi_theta(-to_mpf(q), ctx) ** 2
                                              / phi_theta(to_mpf(q), ctx) ** 2, ctx),
                       lambda ctx, q: (lattice_dilog_sum(root_of_unity(Fraction(1, 4)),
                                                         to_mpf(q), ctx)
                                       / lattice_dilog_sum(root_of_unity(Fraction(1, 4)),
                                                           -to_mpf(q), ctx)),
                       t[15], params=(Fraction(1, 10), Fraction(1, 4))),
        IdentityRecord("torsion-orders", "orders of P1..P4 and Bertin's P by the exact group law",
                       KIND_EXACT, _torsion_lhs, lambda *_: (4, 4, 4, 4, 6), None),
    )


@cache
def _by_id() -> dict[str, IdentityRecord]:
    """Every record by id, in registry order."""
    return {rec.id: rec for rec in registry_entries()}


def lookup(ident: str) -> IdentityRecord | None:
    return _by_id().get(ident)


def matching(filter: str | None = None) -> list[IdentityRecord]:
    """The records whose id contains ``filter`` (every one without it), in
    registry order."""
    return [rec for rec in _by_id().values() if not filter or filter in rec.id]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_check(ident: str, ctx: PrecisionCtx = DEFAULT_CTX,
              tol_override=None) -> CheckReport:
    rec = lookup(ident)
    if rec is None:
        raise UnknownIdentityError(ident)
    tol = rec.tol
    if tol_override is not None and tol is not None:
        tol = mpf(tol_override)
    t0 = time.monotonic()
    notes = [rec.note] if rec.note else []
    terms_total = 0

    def evaluate(p):
        """Both sides at p inside one term scope, whose count and notes join
        the report's."""
        nonlocal terms_total
        with TermCounter() as scope:
            values = rec.lhs(ctx, p), rec.rhs(ctx, p)
        terms_total += scope.count
        notes.extend(scope.notes)
        return values

    try:
        if isinstance(rec.lhs, WZPair):
            rep = wz_verify(rec.lhs)
            status = "PASS" if rep.passed else "FAIL"
            notes.append("certificate polynomial == 0" if rep.passed
                         else f"nonzero witness: {rep.witness}")
            lhs_s, rhs_s, diff_s = str(rep.witness), "0", "0" if rep.passed else "nonzero"
        elif rec.kind == KIND_EXACT:
            lval, rval = evaluate(None)
            status = "PASS" if lval == rval else "FAIL"
            lhs_s, rhs_s = str(lval), str(rval)
            diff_s = "0" if lval == rval else "mismatch"
        else:
            params = rec.params if rec.params else (None,)
            # significant digits that 2^-bits resolves, at most 40
            digits = min(40, int(ctx.bits * log10(2)))
            worst = None  # (|diff|, lhs, rhs) at the worst parameter
            with ctx.workprec(32):  # both sides, rounded, at bits + 64
                for p in params:
                    lval, rval = (+v for v in evaluate(p))
                    diff = abs(lval - rval)
                    if p is not None:
                        notes.append(f"param {p}: |diff| = {mp.nstr(diff, 6)}")
                    if worst is None or diff > worst[0]:
                        worst = diff, lval, rval
                diff, lval, rval = worst
                lhs_s, rhs_s, diff_s = (mp.nstr(v, digits, strip_zeros=True)
                                        for v in (lval, rval, diff))
            if tol < mpf(2) ** -(ctx.bits + 32):
                # the working precision cannot resolve the claim: rounding
                # alone could make the two sides agree or differ there
                status = "UNRESOLVED"
            else:
                status = "PASS" if diff <= tol else "FAIL"
            if rec.kind == KIND_CONJECTURAL:
                status = "CONJECTURAL-" + status
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        notes.append(f"{type(exc).__name__}: {exc}")
        status, lhs_s, rhs_s, diff_s = "ERROR", "", "", ""
    elapsed = int((time.monotonic() - t0) * 1000)
    return CheckReport(rec.id, status, lhs_s, rhs_s, diff_s, terms_total,
                       elapsed, "; ".join(notes))


def exit_code(reports: list[CheckReport]) -> int:
    """1 iff an entry that is neither conjectural nor exit-exempt reports
    FAIL, UNRESOLVED or ERROR, else 0."""
    failed = [lookup(rep.id) for rep in reports
              if rep.status in ("FAIL", "UNRESOLVED", "ERROR")]
    return int(any(not rec.exit_exempt and rec.kind != KIND_CONJECTURAL for rec in failed))


def _worker(ident, ctx, tol_override) -> CheckReport:
    # pickled by name, where run_check may be rebound (perfbench's tracer)
    return run_check(ident, ctx, tol_override)


def run_all(filter: str | None = None, jobs: int = 1,
            ctx: PrecisionCtx = DEFAULT_CTX,
            tol_override=None) -> tuple[list[CheckReport], int]:
    """Run matching entries; returns the reports sorted by id and their
    ``exit_code``."""
    # the id index, built here so that forked pool workers inherit it
    ids = [rec.id for rec in matching(filter)]
    if jobs > 1 and len(ids) > 1:
        # imported here: it is a tenth of the registry's import time
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(_worker, ids, [ctx] * len(ids),
                                    [tol_override] * len(ids)))
    else:
        reports = [run_check(i, ctx, tol_override) for i in ids]
    reports.sort(key=lambda r: r.id)
    return reports, exit_code(reports)


def reports_to_json(reports: list[CheckReport]) -> str:
    return json.dumps({"schema": SCHEMA,
                       "reports": [r.to_dict() for r in reports]}, indent=2)


def reports_from_json(text: str) -> list[CheckReport]:
    data = json.loads(text)
    if data.get("schema") != SCHEMA:
        raise ValueError(f"unexpected schema {data.get('schema')!r}")
    return [CheckReport(**d) for d in data["reports"]]
