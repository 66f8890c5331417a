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

D's series and the connection expansion of F_s are summed on Python
integers in fixed point, as the lattice sums and the series engines are.
Each docstring bounds the loop's rounding error in units of its last
fractional bit; the guard bits above the working precision are the bit
length of that bound, so the loop rounds below one unit of the working
precision.  The Bernoulli numbers come exactly from a table of tangent
numbers that grows on demand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from threading import Lock

from mpmath import (arg, cbrt, ceil, expjpi, isint, log, mp, mpc, mpf, pi,
                    sin, workprec)
from mpmath import gamma as _mp_gamma
from mpmath import zeta as _mp_zeta

from .context import (DEFAULT_CTX, ConvergenceError, DivergentSeriesError,
                      DomainError, PoleError, PrecisionCtx, to_mpf)
from .series import (as_ratio, count_terms, ratio_series, sum_geometric,
                     to_fixed)

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


# Brent and Harvey's triangle for the tangent numbers T_k, tan x =
# sum_k T_k x^(2k-1)/(2k-1)! ("Fast computation of Bernoulli, tangent and
# secant numbers", 2011), one row at a time: row j holds T_j^(1..j) with
# T_j^(1) = (j-1)!, T_j^(i) = (j-i) T_(j-1)^(i) + (j-i+2) T_j^(i-1), and
# T_j = T_j^(j).  B_2k = (-1)^(k-1) 2k T_k/(4^k (4^k - 1)).
_TANGENT = [1]  # T_1, T_2, ...: the table, grown on demand
_TANGENT_ROW = [1]  # the row of its last entry
_TANGENT_LOCK = Lock()  # one thread at a time extends the row and the table


def _tangent_numbers(n: int) -> list[int]:
    """The table T_1, T_2, ..., extended to at least n entries."""
    with _TANGENT_LOCK:
        row = _TANGENT_ROW
        while len(_TANGENT) < n:
            j = len(_TANGENT) + 1
            row[0] *= j - 1
            for i in range(1, j - 1):
                row[i] = (j - 1 - i) * row[i] + (j + 1 - i) * row[i - 1]
            row.append(2 * row[-1])
            _TANGENT.append(row[-1])
    return _TANGENT


def _stop_index(r: mpf, c: mpf, eps: mpf, max_terms: int, budget: str) -> int:
    """Least k >= 1 with tail bound c r^(k+1)/(1-r) < eps, for 0 < r < 1,
    from a log estimate corrected by direct comparisons; ConvergenceError
    with the message ``budget`` past ``max_terms``."""
    tail = c * r / (1 - r)
    k = max(1, int(ceil(log(eps / tail) / log(r))))
    while tail * r ** k >= eps:
        k += 1
    while k > 1 and tail * r ** (k - 1) < eps:
        k -= 1
    if k > max_terms:
        raise ConvergenceError(budget)
    return k


def bloch_wigner(z, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Bloch-Wigner dilogarithm D(z) = Im Li2(z) + arg(1-z) log|z|.

    Single-valued and real on all of C; vanishes on the real line, and
    D(0) = D(1) = 0 by continuity.  D(1/z) = -D(z) and D(1-z) = -D(z) move
    z into |z| <= 1, Re z <= 1/2, where w = -log(1-z) has |w| < 1.26 and
    Li2(z) = sum_{j>=0} B_j w^(j+1)/(j+1)! (Zagier, "The dilogarithm
    function", 2007).  |B_2k| <= 2.3 (2k)!/(2 pi)^(2k) bounds the B_2k
    term by 2.3 |w| r^k, r = (|w|/2 pi)^2 < 0.041, so the series stops
    after the K terms B_2 .. B_2K, K the least with 2.3 |w| r^(K+1)/(1-r)
    below 2^-(bits + GUARD_D), found by ``_stop_index``; ConvergenceError
    if K > ``ctx.max_terms``.

    The K terms are summed on Python integers at P fractional bits: w
    enters floored, w^2 and w^(2k+1) are carried as fixed-point values, and
    B_2k/(2k+1)! comes exactly from the tangent numbers.  Each term is
    floored once; the error of w^(2k+1), below 8k 1.59^k units of 2^-P, is
    shrunk below 9 (0.041)^k units by |B_2k|/(2k+1)! < 2.3/(2 pi)^(2k); the
    B_0 and B_1 terms add below 4 units.  The sum is therefore within K + 5
    units of 2^-P, and P = the working precision (bits + 64) plus the bit
    length of K + 5 keeps that below one unit of the working precision, far
    below 2^-(bits + GUARD_D).
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
        r, c = (abs(w) / (2 * pi)) ** 2, 2.3 * abs(w)
        if c * r / (1 - r) < eps:  # even the terms from B_2 on
            big_k = 0
        else:
            big_k = _stop_index(r, c, eps, ctx.max_terms,
                                "Bloch-Wigner series budget exhausted")
        prec = mp.prec + (big_k + 5).bit_length()
        wr, wi = to_fixed(w.real, prec), to_fixed(w.imag, prec)
        sr, si = (wr * wr - wi * wi) >> prec, (2 * wr * wi) >> prec  # w^2
        total = wi - (si >> 2)  # B_0 = 1, B_1 = -1/2
        tangents = _tangent_numbers(big_k)
        fact = 1  # (2k-1)!
        for k in range(1, big_k + 1):
            wr, wi = (wr * sr - wi * si) >> prec, (wr * si + wi * sr) >> prec
            if k > 1:
                fact *= (2 * k - 2) * (2 * k - 1)
            # B_2k/(2k+1)! = (-1)^(k-1) T_k/((2k-1)! (2k+1) 4^k (4^k - 1))
            den = fact * (2 * k + 1) * ((1 << 2 * k) - 1)
            t = (wi * tangents[k - 1] // den) >> 2 * k
            total += t if k % 2 else -t
        return +(sign * (mpf((total, -prec)) + arg(1 - z) * log(abs(z))))


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
    as the dyadic rational its mpf value is; its term ratio is below |z|.
    From there on, Lambda_s(z) = Lambda_s(1) - I(1 - z) with
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

    I(w) is summed on Python integers at P fractional bits: c_n and h_n
    step by their recurrences in the exact p and are floored, and A_m, B_m,
    w^(m+1), log w and the tail bound are fixed-point values; the stop test
    compares the bound with tol on those same integers.  The floors let the
    errors of A_m and B_m grow at most quadratically in m, which the factor
    w^(m+1) <= 0.35^(m+1) holds below 11 units of 2^-P in all, and each term
    adds at most 6 + |log w|/2 units more.  After M <= max_terms terms the
    error is thus below (M + 1)(10 + |log w|) units.  At the working
    precision W, w = 1 - z >= 2^-W gives |log w| < W, so
    P = W + the bit length of (max_terms + 1)(10 + W) keeps it below 2^-W.
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
    pn, pd = as_ratio(_KERNEL[s][0])
    prec = mp.prec + ((max_terms + 1) * (10 + mp.prec)).bit_length()
    with workprec(prec):
        kappa, logw, h = (to_fixed(x, prec) for x in (
            sin(pi * to_mpf(s)) / pi, log(w), log(_KERNEL[s][1])))
    one = 1 << prec
    wf, limit = to_fixed(w, prec), to_fixed(tol, prec)
    big_l = one - logw
    tail = (one << prec) // (one - wf)  # 1/(1-w)
    c, a, b, total, wpow = one, -one, 0, 0, one
    for m in range(max_terms):
        kc = kappa * c >> prec
        a += kc * h >> prec
        b += kc
        wpow = wpow * wf >> prec
        x = a - (b * (logw - one // (m + 1)) >> prec)
        total += (wpow * x >> prec) // (m + 1)
        bound = (abs(a) + (b * big_l >> prec)) // (m + 2) \
            + (kc * (h + big_l) >> prec)
        if ((bound * wpow >> prec) * wf >> prec) * tail >> prec < limit:
            count_terms(m + 1)
            return mpf((total, -prec))
        d = m * (m + 1) * pd + pn  # (m(m+1) + p) pd
        c = c * d // ((m + 1) ** 2 * pd)
        h -= (((m + 1) * pd - 2 * pn) << prec) // ((m + 1) * d)
    raise ConvergenceError("connection expansion budget exhausted")
