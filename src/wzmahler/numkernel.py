"""Special functions at configurable precision: real Gamma, the
Bloch-Wigner function D, the classical and cubic arithmetic-geometric means,
integer zeta values, and the hypergeometric kernel F_s = 2F1(s, 1-s; 1; .)
for s in {1/3, 1/2}.

Real/complex scalars are mpmath ``mpf``/``mpc`` values; exact rationals are
``fractions.Fraction``.  Gamma and zeta are delegated to mpmath's
correctly-rounded implementations; D, the AGMs and F_s are written out
here because their branch and termination behaviour is what the identity
checks lean on.  Each has one route: D one Bernoulli series after its
symmetries, the two AGMs one iteration each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from mpmath import (arg, bernoulli, cbrt, expjpi, im, isint, log, mp, mpc, mpf,
                    pi, sin, workprec)
from mpmath import gamma as _mp_gamma
from mpmath import zeta as _mp_zeta

from .context import (DEFAULT_CTX, ConvergenceError, DivergentSeriesError,
                      DomainError, PoleError, PrecisionCtx, to_mpf)
from .series import as_ratio, count_terms, ratio_series, sum_geometric

GUARD_D = 24  # extra bits sought from D and the lattice sums beyond ctx.bits


def gamma_real(x, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Gamma(x) for real x, PoleError at non-positive integers."""
    with ctx.workprec():
        x = to_mpf(x)
        if x <= 0 and isint(x):
            raise PoleError(f"Gamma pole at {mp.nstr(x, 8)}")
        return +_mp_gamma(x)


def zeta_int(s: int, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """zeta(s) for integer s >= 2."""
    if s != int(s) or s <= 1:
        raise DomainError("zeta_int requires an integer s >= 2")
    with ctx.workprec():
        return +_mp_zeta(int(s))


def agm(a, b, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Arithmetic-geometric mean of positive reals, quadratic convergence."""
    with ctx.workprec():
        a, b = to_mpf(a), to_mpf(b)
        if a <= 0 or b <= 0:
            raise DomainError("agm requires positive arguments")
        eps = mpf(2) ** (-(ctx.bits + 16))
        while abs(a - b) > eps * a:
            a, b = (a + b) / 2, (a * b) ** mpf("0.5")
        # the mean lies between the next a and b, which differ by O(|a - b|^2)
        return (a + b) / 2


def agm3(a, b, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Borwein's cubic arithmetic-geometric mean of positive reals,
    (a, b) -> ((a + 2b)/3, (b (a^2 + ab + b^2)/3)^(1/3)), cubic convergence.
    2F1(1/3, 2/3; 1; x) = 1/agm3(1, (1 - x)^(1/3)) for 0 <= x < 1
    (Borwein and Borwein, Trans. AMS 323, 1991)."""
    with ctx.workprec():
        a, b = to_mpf(a), to_mpf(b)
        if a <= 0 or b <= 0:
            raise DomainError("agm3 requires positive arguments")
        eps = mpf(2) ** (-(ctx.bits + 16))
        while abs(a - b) > eps * a:
            a, b = (a + 2 * b) / 3, cbrt(b * (a * a + a * b + b * b) / 3)
        # the mean lies between the next a and b, which differ by O(|a - b|^3)
        return (a + 2 * b) / 3


def bloch_wigner(z, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Bloch-Wigner dilogarithm D(z) = Im Li2(z) + arg(1-z) log|z|.

    Single-valued and real on all of C; vanishes on the real line, and
    D(0) = D(1) = 0 by continuity.  D(1/z) = -D(z) and D(1-z) = -D(z) move
    z into |z| <= 1, Re z <= 1/2, where w = -log(1-z) has |w| < 1.26 and
    Li2(z) = sum_{j>=0} B_j w^(j+1)/(j+1)! (Zagier, "The dilogarithm
    function", 2007).  |B_2m| <= 2.3 (2m)!/(2 pi)^(2m) bounds the B_2m
    term by 2.3 |w| r^m, r = (|w|/2 pi)^2 < 0.041, so the loop stops once
    the tail sum_{m' >= m} 2.3 |w| r^m' is below 2^-(bits + GUARD_D).
    """
    with ctx.workprec(32):
        z = mpc(z)
        if z.imag == 0:
            return mpf(0)
        sign = 1
        if abs(z) > 1:
            z, sign = 1 / z, -sign
        if z.real > 0.5:
            z, sign = 1 - z, -sign
        eps = mpf(2) ** (-(ctx.bits + GUARD_D))
        w = -log(1 - z)
        r = (abs(w) / (2 * pi)) ** 2
        total = im(w - w * w / 4)  # j = 0 and j = 1 (B_0 = 1, B_1 = -1/2)
        wpow, fact, j = w ** 3, mpf(6), 2  # w^(j+1) and (j+1)! at j = 2
        tail = 2.3 * abs(w) * r / (1 - r)  # bound on the terms from j on
        while tail >= eps:
            if j > ctx.max_terms:
                raise ConvergenceError("Bloch-Wigner series budget exhausted")
            total += bernoulli(j) * im(wpow) / fact
            wpow *= w * w
            fact *= (j + 2) * (j + 3)
            tail *= r
            j += 2
        return +(sign * (total + arg(1 - z) * log(abs(z))))


# ---------------------------------------------------------------------------
# F_s = 2F1(s, 1-s; 1; .) and Lambda_s(z) = sum_{n>=1} c_n z^n / n
# ---------------------------------------------------------------------------
#
# With c_n = (s)_n (1-s)_n / n!^2 and p = s(1-s), both c_n and
#     h_n = 2 psi(n+1) - psi(s+n) - psi(1-s+n)
# step by p alone:
#     c_{n+1} = c_n (n(n+1) + p)/(n+1)^2,
#     h_{n+1} = h_n - (n+1-2p)/((n+1)(n(n+1) + p)),
# so 0 < c_n <= 1 and 0 < h_n <= h_0 both decrease.  The logarithmic
# connection formula (Abramowitz-Stegun 15.3.10, DLMF 15.8.10) reads
#     F_s(1-v) = kappa sum_n c_n (h_n - log v) v^n,   kappa = sin(pi s)/pi.

# s -> (p, e^(h_0), theta, w) with Lambda_s(1) = h_0 - w D(e^(i pi theta))/pi
_KERNEL = {
    Fraction(1, 3): (Fraction(2, 9), 27, Fraction(1, 3), 9),
    Fraction(1, 2): (Fraction(1, 4), 16, Fraction(1, 2), 8),
}

# Lambda_s(z) is summed directly below this point and by the connection
# formula above it: at 256 bits and tol 1e-42 or 2^-280 the two routes take
# the same time near z = 0.65
LAMBDA_SWITCH = mpf("0.65")


def _kernel_s(s) -> Fraction:
    """s as a Fraction, DomainError unless it is 1/3 or 1/2."""
    try:
        s = Fraction(s)
    except (TypeError, ValueError):
        s = None
    if s not in _KERNEL:
        raise DomainError("the 2F1(s, 1-s; 1; .) kernel takes s = 1/3 or 1/2")
    return s


def _c_h_terms(s: Fraction):
    """Yield (c_n, h_n) for n = 0, 1, 2, ... at the working precision."""
    p, exp_h0, _, _ = _KERNEL[s]
    p = to_mpf(p)
    c, h = mpf(1), log(exp_h0)
    n = 0
    while True:
        yield c, h
        d = n * (n + 1) + p
        c = c * d / (n + 1) ** 2
        h = h - (n + 1 - 2 * p) / ((n + 1) * d)
        n += 1


@cache
def _lambda_at_one(s: Fraction, prec: int) -> mpf:
    """Lambda_s(1) = h_0 - w D(z0)/pi: 3 log 3 - 9 D(e^(i pi/3))/pi and
    2 log 4 - 8 D(i)/pi, from n(3) = 3 D(e^(i pi/3))/pi and m(4) = 4G/pi."""
    _, exp_h0, theta, w = _KERNEL[s]
    with workprec(prec):
        z0 = expjpi(to_mpf(theta))
        d = bloch_wigner(z0, PrecisionCtx(bits=prec))
        return +(log(exp_h0) - w * d / pi)


def lambda_series(s, z, ctx: PrecisionCtx = DEFAULT_CTX, tol=None) -> mpf:
    """Lambda_s(z) = sum_{n>=1} c_n z^n/n = int_0^z (F_s(t) - 1)/t dt for
    -1 < z <= 1, to within tol (default ctx.target_tol).

    The sum runs 32 bits above the callers' ``ctx.workprec(32)``, so that
    its rounding stays well below an ulp of their results.  Below
    ``LAMBDA_SWITCH`` the series is summed directly on integers, z entering
    as the dyadic rational its mpf value is; its term ratio is below |z|.  From there on, Lambda_s(z) = Lambda_s(1) - I(1 - z) with
    I(w) = int_0^w (F_s(1-v) - 1)/(1-v) dv.  Multiplying the connection
    formula by 1/(1-v) = sum v^m gives
        (F_s(1-v) - 1)/(1-v) = sum_m (A_m - B_m log v) v^m,
        A_m = kappa sum_{n<=m} c_n h_n - 1,   B_m = kappa sum_{n<=m} c_n,
    which integrates term by term to
        I(w) = sum_m w^(m+1)/(m+1) (A_m - B_m (log w - 1/(m+1))).
    For m > M, |A_m| <= |A_M| + kappa c_M h_M (m-M) and
    B_m <= B_M + kappa c_M (m-M), so with L = 1 - log w the tail after M is
    at most ((|A_M| + B_M L)/(M+2) + kappa c_M (h_M + L)) w^(M+2)/(1-w).
    Lambda_s(1) is cached per (s, precision).
    """
    with ctx.workprec(64):
        s = _kernel_s(s)
        z = to_mpf(z)
        if not -1 < z <= 1:
            raise DivergentSeriesError("Lambda_s(z) needs -1 < z <= 1")
        tol = mpf(tol) if tol is not None else ctx.target_tol
        if z < LAMBDA_SWITCH:
            pn, pd = as_ratio(_KERNEL[s][0])
            zn, zd = as_ratio(z)
            terms = ratio_series(  # c_n z^n/n, n >= 1
                lambda n: (((n - 1) * n * pd + pn) * zn, n * n * pd * zd),
                lambda n: (1, n), start=1)
            return +sum_geometric(terms, tol, ratio=abs(z),
                                  max_terms=ctx.max_terms)
        top = _lambda_at_one(s, mp.prec)
        if z == 1:
            return top
        return +(top - _connection_integral(s, 1 - z, tol, ctx.max_terms))


def _connection_integral(s, w, tol, max_terms):
    kappa = sin(pi * to_mpf(s)) / pi
    logw = log(w)
    big_l = 1 - logw
    a = -mpf(1)
    b = mpf(0)
    total = mpf(0)
    wpow = mpf(1)
    tail = 1 / (1 - w)
    for m, (c, h) in enumerate(_c_h_terms(s)):
        kc = kappa * c
        a += kc * h
        b += kc
        wpow *= w
        total += wpow / (m + 1) * (a - b * (logw - mpf(1) / (m + 1)))
        bound = ((abs(a) + b * big_l) / (m + 2) + kc * (h + big_l)) \
            * wpow * w * tail
        if bound < tol:
            count_terms(m + 1)
            return total
        if m + 1 >= max_terms:
            raise ConvergenceError("connection expansion budget exhausted")
