"""Elliptic curves y^2 = 4x^3 - g2 x - g3 over Q: exact chord-tangent group
law and torsion orders, AGM periods from certified 2-division roots, the
Weierstrass function P by its q-series, and the two-sided elliptic
dilogarithm lattice sums.

Curves in scope have positive discriminant, so the 2-division cubic has
three real roots e1 > e2 > e3.  The outer two come from Newton's iteration
on Python integers, on the cubic scaled to integer coefficients, from
float seeds, and e2 from their sum; each is certified by a sign change
across its last unit.  The full periods are

    omega  = pi / agm(sqrt(e1-e3), sqrt(e1-e2))          (real)
    omega' = i pi / agm(sqrt(e1-e3), sqrt(e2-e3))        (imaginary)

with tau = omega'/omega in the upper half plane and q = exp(2 pi i tau) in
(0, 1).  P(u) uses the Fourier expansion in z = exp(2 pi i u/omega), valid
after reducing u into the fundamental cell.

The elliptic dilogarithm D^E(u) = sum_{n in Z} D(z0 q^n), z0 = e^(2 pi i
u/omega), is summed by Bloch's q-expansion: the Taylor series of D in
z0 q^n, summed geometrically over n, leaves one series in k whose terms
decay like (|z0||q|)^k.  Both half-sums of that series run in one loop on
Python integers at a fixed-point precision derived from the working
precision and the number of terms, as mpmath's own libmp series do, and
share one power sequence Im((zq)^k).  Every per-term factor but the
bracket shrinks with the term: 1/(1-q^k) enters as 1 + q^k/(1-q^k), a term
with Im((zq)^k) exactly 0 is skipped, and |z|^(-2k) = 1 on the unit
circle is not multiplied in, so a lattice sum costs under a millisecond at
256 bits.  The n = 0 term is one Bloch-Wigner call.  The
AGMs of the periods run on Python integers too, from the integer square
roots of the root differences (``numkernel._agm_fixed``), and log|q| is
taken once per nome.  The periods, D and the lattice sums are memoised
for the process on their exact arguments (``series.shared``), since the
registry checks each identity in two forms that meet the same sums.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from mpmath import (ceil, exp, floor, im, ldexp, log, mp, mpc, mpf, nint, pi,
                    re, workprec)
from mpmath.libmp import to_fixed

from .context import (DEFAULT_CTX, ComplexRootsUnsupportedError,
                      ConvergenceError, DomainError, LatticePoleError,
                      PrecisionCtx, SingularCurveError, to_mpf)
from .numkernel import (_LN2, GUARD_D, _agm_fixed, _float_ceil, _log2,
                        _log_near_one, _stop_index, bloch_wigner,
                        root_of_unity)
from .series import count_terms, shared


# The fields of EllipticCurve, whose __new__ rejects a singular curve.
class _Coefficients(NamedTuple):
    g2: Fraction | int
    g3: Fraction | int


class EllipticCurve(_Coefficients):
    """g2, g3 are ints or Fractions; every operation on them stays exact."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.discriminant == 0:
            raise SingularCurveError(f"g2={self.g2}, g3={self.g3} is singular")
        return self

    @property
    def discriminant(self) -> Fraction:
        return self.g2 ** 3 - 27 * self.g3 ** 2

    def rhs(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        return 4 * x ** 3 - self.g2 * x - self.g3


class CurvePoint(NamedTuple):
    x: Fraction | None
    y: Fraction | None

    @classmethod
    def infinity(cls) -> "CurvePoint":
        return cls(None, None)

    @classmethod
    def affine(cls, x, y) -> "CurvePoint":
        return cls(Fraction(x), Fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self):
        if self.is_infinity:
            return "O"
        def fmt(v):
            return str(v.numerator) if v.denominator == 1 else str(v)
        return f"({fmt(self.x)}, {fmt(self.y)})"


INFINITY = CurvePoint.infinity()


def curve_from_family(ksq, ell) -> EllipticCurve:
    """The one-parameter family with g2 = 27(k^4-16k^2+16) l^2 and
    g3 = -27(k^6-24k^4+120k^2+64) l^3, parameterized by k^2 so that
    k = 3*sqrt(2) stays rational."""
    ksq, ell = Fraction(ksq), Fraction(ell)
    if ksq <= 0 or ell == 0:
        raise DomainError("need ksq > 0 and ell != 0")
    g2 = 27 * (ksq ** 2 - 16 * ksq + 16) * ell ** 2
    g3 = -27 * (ksq ** 3 - 24 * ksq ** 2 + 120 * ksq + 64) * ell ** 3
    return EllipticCurve(g2, g3)


def is_on_curve(curve: EllipticCurve, p: CurvePoint) -> bool:
    if p.is_infinity:
        return True
    return p.y * p.y == curve.rhs(p.x)


def point_neg(p: CurvePoint) -> CurvePoint:
    if p.is_infinity:
        return p
    return CurvePoint(p.x, -p.y)


def point_add(curve: EllipticCurve, p: CurvePoint, q: CurvePoint) -> CurvePoint:
    """Chord-tangent law for the 4x^3 normalization: x1+x2+x3 = lambda^2/4."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return INFINITY
        lam = (12 * p.x * p.x - curve.g2) / (2 * p.y)
    else:
        lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam / 4 - p.x - q.x
    y3 = -(p.y + lam * (x3 - p.x))
    return CurvePoint(x3, y3)


def point_mul(curve: EllipticCurve, m: int, p: CurvePoint) -> CurvePoint:
    if m < 0:
        return point_mul(curve, -m, point_neg(p))
    out = INFINITY
    base = p
    while m:
        if m & 1:
            out = point_add(curve, out, base)
        base = point_add(curve, base, base)
        m >>= 1
    return out


def point_order(curve: EllipticCurve, p: CurvePoint, max_order: int = 24) -> int | None:
    """Least m <= max_order with m*P = O, else None (unknown)."""
    acc = p
    for m in range(1, max_order + 1):
        if acc.is_infinity:
            return m
        acc = point_add(curve, acc, p)
    return None


class Periods(NamedTuple):
    omega: mpf
    omega_prime: mpc
    tau: mpc
    q: mpf
    roots: tuple[mpf, mpf, mpf]


@shared
def periods(curve: EllipticCurve, ctx: PrecisionCtx = DEFAULT_CTX) -> Periods:
    """The periods of ``curve`` at ``ctx``, memoised per (curve, ctx)
    (``series.shared``).

    The roots e1 > e2 > e3 are floors at the unit 2^-p that gives
    m = sqrt(g2/3) > |e_i| w + 24 bits, w = bits + 64 the working
    precision here and in the lattice sums (``_root_floors``), so a root
    on that grid, every rational root of the registry's curves among them,
    is exact.  Each root difference is then within a unit, so within
    2^-(b - 1) relative, b the bit length of the smaller difference in
    units (w + 23 or so unless two roots nearly meet).  Their integer
    square roots, at the unit that gives the smaller one 2^(W + 15) units
    with W = bits + 32 as ``numkernel.agm`` does, feed the two means
    through agm's integer core (``numkernel._agm_fixed``):
    M1 = agm(sqrt(e1-e3), sqrt(e1-e2)) and M2 = agm(sqrt(e1-e3),
    sqrt(e2-e3)), each within 2^-(W + 9) + 2^-b relative.  omega = pi/M1,
    omega' = i pi/M2 and tau = i t, t = M1/M2, are each rounded once to w
    bits, and the nome is the one real q = exp(-2 pi t).

    The log of q that the lattice sums take at this nome (``_nome_log``)
    comes from t, not from q: l = -2 pi t and its one exponential are
    taken at ``_log_bits``, sized from the float log of q, and q is exp(l)
    rounded to w bits, so log q = l + log(1 + d) with d = q/exp(l) - 1,
    |d| <= 2^-w, and l + d drops under 2^-(2w + 1)."""
    if curve.discriminant < 0:
        raise ComplexRootsUnsupportedError(
            "negative discriminant: one real root; not supported")
    with ctx.workprec(32):
        f1, f2, f3, p = _root_floors(curve, mp.prec + 24)
        d12, d23 = f1 - f2, f2 - f3
        shift = max(0, 2 * (ctx.bits + 48) - min(d12, d23).bit_length())
        shift += (shift + p) % 2
        v = (shift + p) // 2  # the means' fixed-point unit is 2^-v
        mean = math.isqrt((f1 - f3) << shift)
        m1, m2 = (_agm_fixed(mean, math.isqrt(d << shift), ctx.bits)
                  for d in (d12, d23))
        t, w = mpf(m1) / m2, mp.prec
        lq = -2 * math.pi * (m1 / m2)  # log q, as a float
        with workprec(_log_bits(lq / _LN2, math.log2(-math.expm1(lq)), ctx)):
            log_t = -2 * pi * t
            exp_t = exp(log_t)
            q = mpf(exp_t, prec=w)
            _NOME_LOGS[(q, ctx)] = log_t + (q / exp_t - 1)
        period = ldexp(pi, v)
        return Periods(period / m1, mpc(0, period / m2), mpc(0, t), q,
                       tuple(mpf((f, -p)) for f in (f1, f2, f3)))


def _root_floors(curve: EllipticCurve, bits: int) -> tuple[int, int, int, int]:
    """(F1, F2, F3, p) with e_i in [F_i 2^-p, (F_i + 1) 2^-p) for the roots
    e1 > e2 > e3 of f = 4x^3 - g2 x - g3 (positive discriminant), at the
    unit 2^-p that gives m = sqrt(g2/3) > |e_i| ``bits`` bits (p >= 0).

    f times the common denominator D of g2 and g3, at x = X 2^-p and
    scaled by 2^(3p), is the integer cubic
    P(X) = 4D X^3 - D g2 4^p X - D g3 8^p.  On x > sqrt(g2/12) > 0, f
    increases and is convex, so Newton's iteration from a point above e1
    stays above it; on x < -sqrt(g2/12) < 0 it increases and is concave,
    and from a point below e3 it stays below.  Each outer root starts from
    Viete's trigonometric form in floats, m cos(theta) and
    m cos(theta + 2 pi/3) with cos(3 theta) = 3 g3/(g2 m), moved outward
    in steps from 2^-40 of m's binade, each twice the last, until the
    signs of x, P and P' place it beyond the root, and Newton's steps are
    truncated toward the start (``_outer_root``).  e2 =
    -(e1 + e3) then lies in (Y - 2, Y], Y = -(F1 + F3), where P falls
    through 0, so the signs of P at Y and Y - 1 pick its floor.  Each
    floor F is certified by P(F) = 0 or a sign change of P from F to
    F + 1, and F3 < F2 < F1, so the three are the floors of the three
    roots; ArithmeticError otherwise."""
    den = math.lcm(Fraction(curve.g2).denominator,
                   Fraction(curve.g3).denominator)
    g2, g3 = int(curve.g2 * den), int(curve.g3 * den)
    m = math.sqrt(g2 / (3 * den))
    e = math.frexp(m)[1]  # m < 2^e
    p = max(0, bits - e)
    c2, c3, c4 = g2 << 2 * p, g3 << 3 * p, 4 * den

    def poly(x):
        return c4 * x * x * x - c2 * x - c3

    def slope(x):
        return 3 * c4 * x * x - c2

    cos3 = math.sqrt(Fraction(27 * g3 * g3 * den, g2 ** 3))
    theta = math.acos(math.copysign(cos3, g3)) / 3
    floors = []
    for side, angle in ((1, theta), (-1, theta + 2 * math.pi / 3)):
        # side * x is above e1 (below e3) once P and P' say so
        x = int(math.ldexp(m * math.cos(angle), 53 - e)) << e + p - 53
        gap = 1 << e + p - 40
        while not (side * x > 0 and side * poly(x) >= 0 and slope(x) > 0):
            x, gap = x + side * gap, 2 * gap
        x = _outer_root(poly, slope, x)
        # a truncated step stops up to a unit short of an exact root
        floors.append(x - (poly(x) > 0) if side > 0
                      else x + (poly(x + 1) <= 0))
    f1, f3 = floors
    y = -(f1 + f3)
    f2 = y - (poly(y) < 0) - (poly(y - 1) < 0)
    if not (f3 < f2 < f1 and all(poly(f) == 0 or poly(f) * poly(f + 1) < 0
                                 for f in (f1, f2, f3))):
        raise ArithmeticError(
            f"2-division roots of g2={curve.g2}, g3={curve.g3} not "
            f"certified at 2^-{p}")
    return f1, f2, f3, p


def _outer_root(poly, slope, x: int) -> int:
    """Newton's iteration x -> x - P(x)/P'(x) on integers from an x beyond
    an outer root of ``_root_floors``' cubic, on the side where Newton's
    steps do not cross it, each step truncated toward x; it stops when a
    step truncates to 0, with the root within a few units of x."""
    while True:
        num, den = poly(x), slope(x)
        step = abs(num) // den
        if not step:
            return x
        x += -step if num > 0 else step


def _reduce_to_cell(u, per: Periods) -> mpc:
    """Translate u by the lattice so that u = a*omega + b*omega' with
    a in [0,1) and b in [0,1); keeps |z| inside the q-series annulus."""
    u = mpc(u)
    a = re(u) / per.omega
    b = im(u) / im(per.omega_prime)
    return u - floor(a) * per.omega - floor(b) * per.omega_prime


def wp(curve: EllipticCurve, u, ctx: PrecisionCtx = DEFAULT_CTX) -> mpc:
    """Weierstrass P(u) via the q-series in z = exp(2 pi i u/omega)."""
    per = periods(curve, ctx)
    with ctx.workprec(32):
        u = _reduce_to_cell(u, per)
        q = per.q
        z = exp(2 * pi * mpc(0, 1) * u / per.omega)
        eps = mpf(2) ** (-(ctx.bits + 24))
        if abs(1 - z) < eps:
            raise LatticePoleError("u is a lattice point")
        total = mpf(1) / 12 + z / (1 - z) ** 2
        n = 1
        while True:
            qn = q ** n
            a, binv = qn * z, qn / z
            if abs(1 - a) < eps or abs(1 - binv) < eps:
                raise LatticePoleError("u is a lattice point")
            total += a / (1 - a) ** 2 + binv / (1 - binv) ** 2 - 2 * qn / (1 - qn) ** 2
            if n > 2 and abs(qn) * (abs(z) + 1 / abs(z) + 2) / (1 - abs(q)) < eps:
                break
            n += 1
            if n > ctx.max_terms:
                raise ConvergenceError("Weierstrass q-series budget exhausted")
        return +((2 * pi * mpc(0, 1) / per.omega) ** 2 * total)


# log|q| per (|q|, ctx) at ``_log_bits`` bits: a curve's nome enters from
# ``periods``, from -2 pi M1/M2, any other on its first lattice sum
_NOME_LOGS = {}


def _log_bits(lq: float, lc: float, ctx: PrecisionCtx) -> int:
    """The precision of log|q| at ``ctx``: w + 6 + 3 l + the bit length of
    ceil(|log2 |q||), w = bits + 64 the lattice sums' working precision
    and l = ceil(log2(1/(1-|q|))), from the float logs lq = log2 |q| and
    lc = log2(1 - |q|).  The log is then within 2^-(w + 5) (1-|q|)^3 of
    its value, to which a curve's nome (``periods``) adds under
    2^-(2w + 1)."""
    return ctx.bits + 70 + 3 * math.ceil(-lc) + math.ceil(-lq).bit_length()


def _nome_log(aq: mpf, ctx: PrecisionCtx) -> mpf:
    """log|q| for the lattice sums at |q| = aq and ``ctx``, taken once per
    (|q|, ctx) and kept in ``_NOME_LOGS``."""
    key = (aq, ctx)
    if key not in _NOME_LOGS:
        with workprec(_log_bits(_log2(aq), _log2(1 - aq), ctx)):
            _NOME_LOGS[key] = log(aq)
    return _NOME_LOGS[key]


def _half_sum_difference(z: mpc, q: mpf, k_up: int, k_down: int,
                         prec: int, log_q: mpf) -> mpf:
    """H(z) - H(1/z) (see ``lattice_dilog_sum``) with the up terms taken to
    k_up and the down terms to k_down, summed on integers at prec
    fractional bits, with log|q| = ``log_q``.

    With |z| < 1 the sum is taken over w = 1/z and negated, so |w| >= 1.
    One power sequence serves both halves: y_k = Im(u^k), u = w q, runs by
    y_(k+1) = 2 Re(u) y_k - |u|^2 y_(k-1), and Im((q/w)^k) = -g^k y_k with
    g = |w|^-2 <= 1, carried as g^k; q^k is carried as well.  A unit of
    error in y_j reaches y_k times |u|^(k-j) U_(k-j)(cos arg u), the
    Chebyshev polynomial bounded by k - j + 1.  The recurrence's floors
    and that of |u|^2 add under 2 units a step, and the floors of u move
    Im(u^k) by under 3 k |u|^(k-1) units, so every y_k is within
    5/(1-|u|)^2 units of 2^-prec of Im(u^k).  log|w| is taken from |z|^2
    by ``numkernel._log_near_one`` where |z|^2 lies within 2^-(prec/3) of
    1 (a z0 on the unit circle), within 2 units of 2^-prec against the one
    of mpmath's log of the rounded |z|; the slack of P absorbs the unit.

    The k-th term is y_k s_k (1 + Q_k)/k, with s_k the bracket of both
    halves and Q_k = q^k/(1-q^k), taken as (ys + ys Q_k)/k, ys = y_k s_k.
    Q_k = floor(q^k 2^prec/(1 - q^k)) shrinks like |q|^k, so its division
    and the products log|q| Q_k and ys Q_k cost in proportion to the term,
    not to prec.  A k whose y_k is exactly 0 (every even k where
    Re u = 0, as at z0 = i) adds exactly 0, and its bracket is skipped;
    where g is exactly 1 (|z| = 1) the products by g^k are dropped.  The
    rounding of these floors is bounded in ``lattice_dilog_sum``.
    """
    with workprec(prec):
        n = z.real ** 2 + z.imag ** 2  # |z|^2
        if n < 1:
            u, g, sign = q / z, n, -1
            k_up, k_down = k_down, k_up
        else:
            u, g, sign = z * q, 1 / n, 1
        ur, ui, gf, qf, lq = (
            to_fixed(x._mpf_, prec) for x in (u.real, u.imag, g, q, log_q))
        lw = _log_near_one(n, prec)  # log |z|^2, for |z| that rounds to 1
        lw = (to_fixed((sign * log(abs(z)))._mpf_, prec) if lw is None
              else sign * (lw >> 1))  # log |w|
    one = 1 << prec
    tr, n2 = 2 * ur, (ur * ur + ui * ui) >> prec  # 2 Re u, |u|^2
    unit = gf == one  # |z| = 1: g^k = 1
    y_prev, y, gk, qk = 0, ui, gf, qf  # y_0, y_1, g^1, q^1
    total = 0
    for k in range(1, max(k_up, k_down) + 1):
        if y:
            big_q = (qk << prec) // (one - qk)  # Q_k = q^k/(1-q^k)
            a = one // k - lq - (lq * big_q >> prec)  # 1/k - log|q|/(1-q^k)
            s = a - lw if k <= k_up else 0
            if k <= k_down:
                s += a + lw if unit else gk * (a + lw) >> prec
            ys = y * s >> prec
            total += (ys + (ys * big_q >> prec)) // k  # ys/(1-q^k), over k
        if k <= k_down and not unit:
            gk = gk * gf >> prec
        y_prev, y = y, (tr * y - n2 * y_prev) >> prec
        qk = qk * qf >> prec
    return mpf((sign * total, -prec))


@shared
def lattice_dilog_sum(z0, q, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Two-sided sum_{n in Z} D(z0 q^n) for real q in (-1, 1), z0 != 0.

    Bloch's q-expansion sums the series in closed form.  For |w| < 1,
    D(w) = sum_k Im(w^k) (1/k^2 - log|w|/k); summing the geometric series
    in n over w = z q^n gives, for |z q| < 1,

        H(z) = sum_{n>=1} D(z q^n)
             = sum_{k>=1} Im(z^k) Q_k (1/k^2 - log|z|/k - log|q|/((1-q^k) k))

    with Q_k = q^k/(1-q^k), and D(1/w) = -D(w) turns the lattice sum into
    D(z0) + H(z0) - H(1/z0).  The index is first shifted, z0 -> z0 q^m with
    m the integer nearest log|z0|/log(1/|q|); the sum is unchanged and
    |q|^(1/2) <= |z0| <= |q|^(-1/2), so both half-sums converge at least
    like |q|^(k/2).

    The k-th term of H(z) is at most C r^k with r = |z||q| and
    C = (1 + |log|z|| + |log|q||/(1-|q|))/(1-|q|), so each half-sum stops
    at the first k_up (k_down for 1/z) where the tail bound
    C r^(k+1)/(1-r) is below 2^-(bits + GUARD_D).  Both half-sums then
    run in one loop over k to K = max(k_up, k_down) on Python integers at
    P fractional bits, carrying one power sequence Im((zq)^k) and the
    real |z|^(-2k) and q^k (``_half_sum_difference``).  The factor
    1/(1-q^k) is carried as 1 + Q_k with Q_k = q^k/(1-q^k), so a term costs
    eight integer products, each with an operand that shrinks like the
    term, and one division whose quotient Q_k does; a term whose
    Im((zq)^k) is exactly 0 (every even k at z0 = i) skips its bracket, and
    on the unit circle, where |z|^(-2k) = 1, two of the products go.

    With r the larger ratio, |q| <= r <= |q|^(1/2), so
    1/(1-|q|) <= 1/(1-r) <= 2/(1-|q|), and |log|q|| <= C (1-|q|)^2.  Each
    term multiplies Im((zq)^k), within 5/(1-r)^2 units of 2^-P, by a
    bracket below 2 C (1-|q|) and by 1 + Q_k < 1/(1-|q|): at most
    20 C/((1-r)(1-|q|)) units.  The floors of q^k, under 2/(1-|q|) units
    in all, and that of Q_k move Q_k by under 3/(1-|q|)^3 units (x/(1-x)
    has slope below 1/(1-|q|)^2); Q_k enters the term through log|q| Q_k
    in both brackets and through ys Q_k, ys = Im((zq)^k) times the
    bracket, weighted by under 4 C (1-|q|), so under 12 C/((1-r)(1-|q|)).
    The floors of log|q|, log|z|, 1/k and |z|^(-2k), of the products
    log|q| Q_k, ys and ys Q_k, and of the division by k add under
    14 C/((1-r)(1-|q|)).  Each step thus adds under 46 C/((1-r)(1-|q|))
    units, and P = w + the bit length of 64 K C/((1-r)(1-|q|)^3), with w
    the working precision (bits + 64), keeps the summed rounding error
    below 2^-w, far below 2^-(bits + GUARD_D).  log|q| itself is taken
    once per (|q|, ctx), within 2^-(w + 4) (1-|q|)^3 (``_nome_log``); it
    enters each bracket over 1 - q^k and each term times 1 + Q_k, so it
    moves the two half-sums by under 2^-(w + 2).  As
    2^(2P)/(2^P - x) = 2^P + x 2^P/(2^P - x), Q_k is the floor of
    1/(1-q^k) less one, and the loop's integers are those of the
    1/(1-q^k) form, whose budget took the same P.  The n = 0 term D(z0)
    is one Bloch-Wigner call.

    m, k_up, k_down and P are decided from float logs
    (``numkernel._log2``), C among them; a decision whose float margin is
    within ``numkernel._TIE`` falls back to the mpf expression at the
    working precision, so each is the integer that expression gives.  One
    stop index serves both halves when r_up = r_down.

    The sum is memoised on its exact (z0, q, ctx) by ``series.shared``: the
    registry sums (i, 1/10) three times and each curve's nome twice.  Every
    call, a memo hit too, counts k_up + k_down + 1 terms, D(z0) included
    (1 for a real z0), toward the open ``series.TermCounter``.
    """
    with ctx.workprec(32):
        q = to_mpf(q)
        if not 0 < abs(q) < 1:
            raise DomainError("lattice sum requires 0 < |q| < 1")
        z0 = mpc(z0)
        if z0 == 0:
            raise DomainError("z0 must be nonzero")
        if z0.imag == 0:
            # every z0 q^n is real, where D vanishes
            count_terms(1)
            return mpf(0)
        aq = abs(q)
        lq = _log2(aq)
        z = z0 * q ** _float_ceil(
            _log2(abs(z0)) / -lq - 0.5,
            lambda: int(nint(log(abs(z0)) / -log(aq))))
        eps = mpf(2) ** (-(ctx.bits + GUARD_D))
        az, l1q = abs(z), _log2(1 - aq)
        # log2 C in floats, and C in mpf for a tie; |log|q||/(1-|q|) tends
        # to 1 where 1 - |q| underflows a float
        t = 2.0 ** l1q
        lc = math.log2(1 + _LN2 * abs(_log2(az))
                       + (-lq * _LN2 / t if t else 1)) - l1q
        exact_c = cache(lambda: (1 + abs(log(az)) + abs(log(aq)) / (1 - aq))
                        / (1 - aq))
        r_up, r_down = az * aq, aq / az
        budget = "lattice dilogarithm sum budget exhausted"
        k_up = _stop_index(r_up, exact_c, eps, ctx.max_terms, budget,
                           log2c=lc)
        k_down = k_up if r_down == r_up else _stop_index(
            r_down, exact_c, eps, ctx.max_terms, budget, log2c=lc)
        big_k, r = max(k_up, k_down), max(r_up, r_down)
        lb = math.log2(64 * big_k) + lc - _log2(1 - r) - 3 * l1q  # log2 bound
        prec = mp.prec + _float_ceil(  # the bit length of ceil(bound)
            lb + math.log1p(2.0 ** -lb) / _LN2,
            lambda: int(ceil(64 * big_k * exact_c()
                             / ((1 - r) * (1 - aq) ** 3))).bit_length())
        half = _half_sum_difference(z, q, k_up, k_down, prec,
                                    _nome_log(aq, ctx))
        count_terms(k_up + k_down + 1)
        return +(bloch_wigner(z, ctx) + half)


def elliptic_dilog(curve: EllipticCurve, loc: tuple,
                   ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """D^E at u = a*omega + b*omega': the lattice sum with z0 = e^(2 pi i a) q^b."""
    a, b = Fraction(loc[0]), Fraction(loc[1])
    if a == int(a) and b == int(b):
        raise DomainError("(a, b) must be nonzero mod 1")
    if (2 * a).denominator == 1:
        # e^(2 pi i a) = +-1 and q^b is real: every D term vanishes
        return mpf(0)
    per = periods(curve, ctx)
    with ctx.workprec(32):
        z0 = root_of_unity(a)
        if b:
            z0 *= per.q ** (mpf(b.numerator) / b.denominator)
        return lattice_dilog_sum(z0, per.q, ctx)
