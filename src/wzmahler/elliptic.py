"""Elliptic curves y^2 = 4x^3 - g2 x - g3 over Q: exact chord-tangent group
law and torsion orders, AGM periods from closed-form 2-division roots, the
Weierstrass function P by its q-series, and the two-sided elliptic
dilogarithm lattice sums.

Curves in scope have positive discriminant, so the 2-division cubic has
three real roots e1 > e2 > e3, given by Viete's trigonometric form, and the
full periods are

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
precision and the number of terms, as mpmath's own libmp series do, so a
lattice sum costs about a millisecond at 256 bits.  The n = 0 term is one
Bloch-Wigner call, memoised per (exact z0, context).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from mpmath import (acos, ceil, cos, exp, floor, im, log, mp, mpc, mpf, nint,
                    pi, re, sqrt, workprec)
from mpmath.libmp import to_fixed

from .context import (DEFAULT_CTX, ComplexRootsUnsupportedError,
                      ConvergenceError, DomainError, LatticePoleError,
                      PrecisionCtx, SingularCurveError, to_mpf)
from .numkernel import GUARD_D, _stop_index, agm, bloch_wigner
from .series import count_terms


@dataclass(frozen=True)
class EllipticCurve:
    g2: Fraction
    g3: Fraction

    def __post_init__(self):
        object.__setattr__(self, "g2", Fraction(self.g2))
        object.__setattr__(self, "g3", Fraction(self.g3))
        if self.discriminant == 0:
            raise SingularCurveError(f"g2={self.g2}, g3={self.g3} is singular")

    @property
    def discriminant(self) -> Fraction:
        return self.g2 ** 3 - 27 * self.g3 ** 2

    def rhs(self, x: Fraction) -> Fraction:
        x = Fraction(x)
        return 4 * x ** 3 - self.g2 * x - self.g3


@dataclass(frozen=True)
class CurvePoint:
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


class TorsionLocation(NamedTuple):
    """u = a*omega + b*omega' with rational a, b."""

    a: Fraction
    b: Fraction


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


@dataclass(frozen=True)
class Periods:
    omega: mpf
    omega_prime: mpc
    tau: mpc
    q: mpf
    roots: tuple[mpf, mpf, mpf]


def periods(curve: EllipticCurve, ctx: PrecisionCtx = DEFAULT_CTX) -> Periods:
    if curve.discriminant < 0:
        raise ComplexRootsUnsupportedError(
            "negative discriminant: one real root; not supported")
    # Viete's trigonometric form: with m = sqrt(g2/3) and
    # cos(3 theta) = 3 g3/(g2 m), whose square is 27 g3^2/g2^3 < 1 exactly,
    # the roots are m cos(theta - 2 pi k/3).  It runs 24 bits above the
    # working precision, so that a rational root rounds to itself.
    with ctx.workprec(32 + 24):
        m = sqrt(to_mpf(curve.g2 / 3))
        c = sqrt(to_mpf(27 * curve.g3 ** 2 / curve.g2 ** 3))
        theta = acos(c if curve.g3 >= 0 else -c) / 3
        roots = [m * cos(theta - 2 * pi * k / 3) for k in range(3)]
    with ctx.workprec(32):
        e1, e2, e3 = sorted((+r for r in roots), reverse=True)
        omega = pi / agm(sqrt(e1 - e3), sqrt(e1 - e2), ctx)
        omega_prime = mpc(0, 1) * pi / agm(sqrt(e1 - e3), sqrt(e2 - e3), ctx)
        tau = omega_prime / omega
        q = re(exp(2 * pi * mpc(0, 1) * tau))
        return Periods(+omega, +omega_prime, +tau, +q, (+e1, +e2, +e3))


def _reduce_to_cell(u, per: Periods) -> mpc:
    """Translate u by the lattice so that u = a*omega + b*omega' with
    a in [0,1) and b in [0,1); keeps |z| inside the q-series annulus."""
    u = mpc(u)
    a = re(u) / per.omega
    b = im(u) / im(per.omega_prime)
    return u - floor(a) * per.omega - floor(b) * per.omega_prime


def wp(curve: EllipticCurve, u, ctx: PrecisionCtx = DEFAULT_CTX,
       per: Periods | None = None) -> mpc:
    """Weierstrass P(u) via the q-series in z = exp(2 pi i u/omega)."""
    per = per if per is not None else periods(curve, ctx)
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


def _half_sum_difference(z: mpc, q: mpf, k_up: int, k_down: int,
                         prec: int) -> mpf:
    """H(z) - H(1/z) (see ``lattice_dilog_sum``) with the up terms taken to
    k_up and the down terms to k_down, summed on integers at prec
    fractional bits.  u^k = (zq)^k, v^k = (q/z)^k and q^k are carried
    separately from z^k, which would grow like |q|^(-k/2) while q^k
    underflows."""
    with workprec(prec):
        u, v = z * q, q / z
        ur, ui, vr, vi, qf, lz, lq = (
            to_fixed(x._mpf_, prec)
            for x in (u.real, u.imag, v.real, v.imag, q, log(abs(z)),
                      log(abs(q))))
    one = 1 << prec
    ar, ai, br, bi, qk = ur, ui, vr, vi, qf
    total = 0
    for k in range(1, max(k_up, k_down) + 1):
        inv_d = (one << prec) // (one - qk)
        a = one // k - (lq * inv_d >> prec)  # 1/k - log|q|/(1-q^k)
        s = 0
        if k <= k_up:
            s += ai * (a - lz)
            ar, ai = (ar * ur - ai * ui) >> prec, (ar * ui + ai * ur) >> prec
        if k <= k_down:
            s -= bi * (a + lz)
            br, bi = (br * vr - bi * vi) >> prec, (br * vi + bi * vr) >> prec
        total += ((s >> prec) * inv_d >> prec) // k
        qk = qk * qf >> prec
    return mpf((total, -prec))


@cache
def _bloch_wigner_at(z: tuple, ctx: PrecisionCtx) -> mpf:
    """D(z) for the exact ``_mpc_`` value z, memoised per context: the
    registry's lattice sums meet the same few points z0 again and again."""
    return bloch_wigner(mp.make_mpc(z), ctx)


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
    P fractional bits, carrying (zq)^k, (q/z)^k and q^k as fixed-point
    values, so a term costs a dozen integer products instead of a dozen
    mpf/mpc operations.  With r the larger ratio, each step of the loop
    adds at most 36 C/((1-r)(1-|q|)^3) units of 2^-P of rounding error, so
    P = w + the bit length of 64 K C/((1-r)(1-|q|)^3), with w the working
    precision (bits + 64), keeps the summed rounding error below 2^-w,
    far below 2^-(bits + GUARD_D).  The n = 0 term D(z0) is one
    Bloch-Wigner call, memoised on (the exact z0 at the working precision,
    ctx), because the registry's lattice sums meet the same few points
    again and again.
    It counts k_up + k_down + 1 terms, D(z0) included (1 for a real z0),
    toward the open ``series.TermCounter``.
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
        z = z0 * q ** int(nint(log(abs(z0)) / -log(abs(q))))
        eps = mpf(2) ** (-(ctx.bits + GUARD_D))
        aq, lz, lq = abs(q), log(abs(z)), log(abs(q))
        c = (1 + abs(lz) + abs(lq) / (1 - aq)) / (1 - aq)
        r_up, r_down = abs(z) * aq, aq / abs(z)
        budget = "lattice dilogarithm sum budget exhausted"
        k_up = _stop_index(r_up, c, eps, ctx.max_terms, budget)
        k_down = _stop_index(r_down, c, eps, ctx.max_terms, budget)
        bound = 64 * max(k_up, k_down) * c \
            / ((1 - max(r_up, r_down)) * (1 - aq) ** 3)
        prec = mp.prec + int(ceil(bound)).bit_length()
        half = _half_sum_difference(z, q, k_up, k_down, prec)
        count_terms(k_up + k_down + 1)
        return +(_bloch_wigner_at(z._mpc_, ctx) + half)


def elliptic_dilog(curve: EllipticCurve, loc: TorsionLocation | tuple,
                   ctx: PrecisionCtx = DEFAULT_CTX,
                   per: Periods | None = None) -> mpf:
    """D^E at u = a*omega + b*omega': the lattice sum with z0 = e^(2 pi i a) q^b."""
    a, b = Fraction(loc[0]), Fraction(loc[1])
    if a == int(a) and b == int(b):
        raise DomainError("(a, b) must be nonzero mod 1")
    if (2 * a).denominator == 1:
        # e^(2 pi i a) = +-1 and q^b is real: every D term vanishes
        return mpf(0)
    per = per if per is not None else periods(curve, ctx)
    with ctx.workprec(32):
        z0 = exp(2 * pi * mpc(0, 1) * mpf(a.numerator) / a.denominator) \
            * per.q ** (mpf(b.numerator) / b.denominator)
        return lattice_dilog_sum(z0, per.q, ctx)
