"""Special functions at configurable precision: real Gamma, the
Bloch-Wigner function D, the classical and cubic arithmetic-geometric means,
integer zeta values, and the hypergeometric kernel F_s = 2F1(s, 1-s; 1; .)
for s in {1/3, 1/2}.

Real/complex scalars are mpmath ``mpf``/``mpc`` values; exact rationals are
``fractions.Fraction``.  Zeta is delegated to mpmath's correctly-rounded
implementation; Gamma, D, the AGMs and F_s are written out here because
their branch and termination behaviour is what the identity checks lean
on.  Each has one route: Gamma Stirling's series after a shift (and
reflection below 1/2), D one Bernoulli series after its symmetries, the
classical AGM and the cubic AGM their iterations on Python integers, the
cubic one with integer cube roots by Newton's iteration (``_icbrt``).

Stirling's series, D's series, both AGMs and the connection
expansion of F_s run on Python integers in fixed point, as the lattice
sums and the series engines do.  Each docstring bounds the loop's
rounding error in units of its last fractional bit; the guard bits above
the working precision are the bit length of that bound, so the loop
rounds below one unit of the working precision.  The Bernoulli numbers
of both series come exactly from one table of tangent numbers that grows
on demand.  Gamma, D and Lambda_s(1) are memoised for the process on
their exact arguments (``series.shared``).  Lambda_s(1) takes its D(z0)
in the caller's context, raised only where the caller's tolerance needs
more bits, so the D(i) of Lambda_{1/2}(1) is the memo entry that the
n = 0 term of a lattice sum at z0 = i fills in the same pass.  A log of a
squared modulus that rounds to 1 is summed on integers (``_log_near_one``)
rather than by mpmath's log, which doubles its precision there.

The integers that steer these loops and the lattice sums (a series' stop
index, a fixed-point width, an index shift) are decided from float logs of
the mpf operands (``_log2``); only a margin within ``_TIE`` bits of its
threshold is left to the mpf expression, so each is the integer that
expression gives.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from math import factorial
from threading import Lock

from mpmath import (arg, ceil, cospi, exp, isint, ldexp, log, mp, mpc,
                    mpf, pi, sin, sinpi, sqrt, workprec)
from mpmath import libmp
from mpmath import zeta as _mp_zeta

from .context import (DEFAULT_CTX, ConvergenceError, DivergentSeriesError,
                      DomainError, PoleError, PrecisionCtx, to_mpf, to_tol)
from .series import (as_ratio, count_terms, ratio_series, shared,
                     sum_geometric, to_fixed, tol_bits)

GUARD_D = 24  # extra bits sought from D and the lattice sums beyond ctx.bits


@shared
def gamma_real(x, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Gamma(x) for real x, PoleError at non-positive integers.

    At the working precision W = bits + 32, a positive integer n with
    n (bit length of n) < 10 W gives (n-1)! rounded once.  Below 1/2 the
    reflection Gamma(x) = pi/(sin(pi x) Gamma(1-x)) runs at W + 8 bits with
    1 - x exact.  Otherwise x shifts to z = x + n >= z0 = W//4, and
    Gamma(x) = Gamma(z)/(x)_n with
        log Gamma(z) = (z - 1/2) log z - z + log(2 pi)/2 + S + R_K,
        S = sum_{k=1}^K c_k z^(1-2k),  c_k = B_2k/(2k(2k-1))
          = (-1)^(k-1) T_k/((2k-1) 4^k (4^k - 1)),
    c_k exact from the tangent numbers, and |R_K| below the first omitted
    term for real z > 0 (DLMF 5.11.ii).  K is the least with
    |c_(K+1)| z0^-(2K+1) < 2^-P, P = W + 8, for every z >= z0: 36 at 256
    bits and 66 at 512, fewer tangent numbers than D takes at the same
    precision.  ConvergenceError if K > ``ctx.max_terms``.

    S is summed on Python integers at P fractional bits, by Horner in
    w = 1/z^2 <= 1/z0^2 over the floored c_k; w shrinks every floor but
    the last two, and w's own floor moves S by under 1/360 unit, so S with
    R_K is within 3 units of 2^-P.  The rising factorial is a product of
    integers floored to W' = W + b + 6 bits after each factor, b the bit
    length of a bound on z (1 + log z) >= |log Gamma(z)| and on n; the
    exponent and its exp are formed at W' bits.  Taking mpmath's log, exp,
    sinpi and pi within an ulp, Gamma(x) is within 2^-(W+2) relative before
    its final rounding, and within 5/4 units of 2^-W after it.
    """
    with ctx.workprec():
        x = to_mpf(x)
        if isint(x):
            if x <= 0:
                raise PoleError(f"Gamma pole at {mp.nstr(x, 8)}")
            n = int(x)
            if n * n.bit_length() < 10 * mp.prec:
                return mpf(factorial(n - 1))
        p, q = as_ratio(x)
        if 2 * p >= q:
            return +_gamma_stirling(p, q, mp.prec, ctx.max_terms)
        g = _gamma_stirling(q - p, q, mp.prec, ctx.max_terms)
        with workprec(mp.prec + 8):
            g = pi / (sinpi(x) * g)
        return +g


@cache
def _stirling_table(prec: int) -> tuple[int, ...]:
    """``gamma_real``'s c_1 .. c_K at working precision ``prec``, floored
    at prec + 8 fractional bits."""
    bits, z0, k = prec + 8, prec // 4, 1
    while _tangent_numbers(k + 1)[k] << bits >= \
            (2 * k + 1) * (4 << 2 * k) * ((4 << 2 * k) - 1) * z0 ** (2 * k + 1):
        k += 1
    return tuple((-1) ** (j - 1) * (t << bits) // ((2 * j - 1) << 2 * j)
                 // ((1 << 2 * j) - 1)
                 for j, t in enumerate(_tangent_numbers(k)[:k], 1))


def _gamma_stirling(p: int, q: int, prec: int, max_terms: int) -> mpf:
    """Gamma(p/q) for p/q >= 1/2, q a power of 2, by ``gamma_real``'s
    Stirling route at working precision ``prec``, left at W' bits."""
    table = _stirling_table(prec)
    if len(table) > max_terms:
        raise ConvergenceError("Stirling series budget exhausted")
    bits, n = prec + 8, max(0, -((p - prec // 4 * q) // q))
    pz = p + n * q  # z = pz/q >= z0
    w = (q * q << bits) // (pz * pz)
    acc = 0  # z S
    for c in reversed(table):
        acc = c + (acc * w >> bits)
    zi = pz // q + 1
    wp = prec + (zi * (zi.bit_length() + 1)).bit_length() + 6
    rf, shift = 1, 0  # (x)_n q^n ~ rf 2^shift
    for m in range(p, pz, q):
        rf *= m
        t = max(0, rf.bit_length() - wp)
        rf, shift = rf >> t, shift + t
    with workprec(wp):
        z = mpf(pz) / q
        e = (z - 0.5) * log(z) - z + mpf((acc * q // pz, -bits))
        return ldexp(sqrt(2 * pi) * exp(e) / rf,
                     n * (q.bit_length() - 1) - shift)


def zeta_int(s: int, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """zeta(s) for integer s >= 2."""
    if s != int(s) or s <= 1:
        raise DomainError("zeta_int requires an integer s >= 2")
    with ctx.workprec():
        return +_mp_zeta(int(s))


def agm(a, b, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Arithmetic-geometric mean of positive reals, quadratic convergence.

    The mean is symmetric, so b is taken as the smaller argument.  The
    iteration (a, b) -> ((a + b)/2, sqrt(a b)) runs on Python integers in
    units of 2^-(W + 16) of b's binade, W = bits + 32 the working
    precision, so B >= 2^(W + 15) units (``_agm_fixed``).  It returns
    that loop's floor((A + B)/2) rounded to W bits.

    Since a M_a + b M_b = M with M_a, M_b > 0, a unit moves the mean of a
    pair by under 2^-(W + 15) relative, so the two input floors and the N
    steps' floors leave it within (N + 2) 2^-(W + 14); the last mean is
    within (A - B)^2/(8B) <= 2^-(2 bits + 34) A of the AGM.  Before its
    final rounding the result is thus within 2^-(W + 9) relative for
    N <= 30 (N = 14 at 1024 bits and b/a = 10^-40, 23 at b/a = 2^-65536),
    against about N ulps at W bits for the same loop in mpf.
    """
    with ctx.workprec():
        a, b = to_mpf(a), to_mpf(b)
        if a <= 0 or b <= 0:
            raise DomainError("agm requires positive arguments")
        if a < b:
            a, b = b, a
        unit = b._mpf_[2] + b._mpf_[3] - mp.prec - 16
        big_a, big_b = (libmp.to_fixed(x._mpf_, -unit) for x in (a, b))
        return mpf((_agm_fixed(big_a, big_b, ctx.bits), unit))


def _agm_fixed(big_a: int, big_b: int, bits: int) -> int:
    """The classical AGM of integers A >= B > 0 in one fixed-point unit:
    each step floors both means (``math.isqrt`` for the geometric one), so
    A >= B >= the first B throughout, and the loop stops by the rule
    |A - B| <= 2^-(bits + 16) A.  Returns floor((A + B)/2)."""
    while (big_a - big_b) << (bits + 16) > big_a:
        big_a, big_b = (big_a + big_b) >> 1, math.isqrt(big_a * big_b)
    return (big_a + big_b) >> 1


def agm3(a, b, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Borwein's cubic arithmetic-geometric mean of positive reals,
    (a, b) -> ((a + 2b)/3, (b (a^2 + ab + b^2)/3)^(1/3)), cubic convergence.
    2F1(1/3, 2/3; 1; x) = 1/agm3(1, (1 - x)^(1/3)) for 0 <= x < 1
    (Borwein and Borwein, Trans. AMS 323, 1991).

    The iteration runs on Python integers in units of 2^-(W + 16) of the
    binade of the smaller argument, W = bits + 32 the working precision,
    so that argument is at least 2^(W + 15) units, and so is every later
    mean: (a + 2b)/3 lies between a and b, and the cube of the second mean
    lies between the cubes of a and b.  A step floors (A + 2B)/3 and
    B (A^2 + AB + B^2)/3 and takes the floor of the latter's cube root
    (``_icbrt``).  The loop stops by ``agm``'s rule
    |A - B| <= 2^-(bits + 16) A and returns floor((A + 2B)/3) rounded to W
    bits.

    The mean is homogeneous of degree 1 and increasing in both arguments,
    so a M_a + b M_b = M with M_a, M_b > 0 and a unit moves it by under
    2^-(W + 15) relative.  The floor of the cube root's argument moves the
    root by under 1/(3 B^2) unit, so a step's floors move the mean by
    under 2^-(W + 14) relative, and the two input floors and N steps leave
    it within (N + 2) 2^-(W + 14).  With c = (a - b)/3 the next means
    satisfy a'^3 - b'^3 = c^3, so they differ by under |a - b|^3/(81 b^2),
    and the mean lies between them: the returned mean is within
    2^-(3 bits + 48) A of the exact one.  Before its final rounding the
    result is thus within 2^-(W + 9) relative for N <= 30 (N = 6 at 1024
    bits for b/a = 10^-40).
    """
    with ctx.workprec():
        a, b = to_mpf(a), to_mpf(b)
        if a <= 0 or b <= 0:
            raise DomainError("agm3 requires positive arguments")
        low = min(a, b)
        unit = low._mpf_[2] + low._mpf_[3] - mp.prec - 16
        big_a, big_b = (libmp.to_fixed(x._mpf_, -unit) for x in (a, b))
        while abs(big_a - big_b) << (ctx.bits + 16) > big_a:
            big_a, big_b = ((big_a + 2 * big_b) // 3, _icbrt(
                big_b * (big_a * big_a + big_a * big_b + big_b * big_b) // 3))
        return mpf(((big_a + 2 * big_b) // 3, unit))


def _icbrt(n: int) -> int:
    """floor(n^(1/3)) for an integer n >= 1: Newton's iteration
    x -> floor((2x + floor(n/x^2))/3) on integers from a seed above the
    root.  With s a third of n's bit length beyond 96 bits, m = n >> 3s
    has at most 98 bits, and the seed (floor(f) + 2) 2^s, f the float cube
    root of m, within 2^-50 relative, and below 2^33, is above the root,
    as n < (m + 1) 2^(3s).  Past 96 bits it is within 2^-30 relative of
    the root, and each step about doubles its correct bits.  By the AM-GM
    inequality every iterate stays at or above floor(n^(1/3)), and the
    iterates fall strictly until they reach it."""
    shift = max(0, n.bit_length() - 96) // 3
    x = int((n >> 3 * shift) ** (1 / 3) + 2) << shift
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def _cbrt(x: mpf) -> mpf:
    """x^(1/3) for an mpf x > 0 at the working precision: in units 2^v,
    v = floor((exp + bc)/3) - prec - 3 for x's exponent and bit count, the
    root exceeds 2^(prec + 2) units, and ``_icbrt`` of x's floor in units
    2^(3v) is within one of it; one rounding to prec bits follows."""
    unit = (x._mpf_[2] + x._mpf_[3]) // 3 - mp.prec - 3
    return mpf((_icbrt(libmp.to_fixed(x._mpf_, -3 * unit)), unit))


def root_of_unity(a) -> mpc:
    """e^(2 pi i a) for rational a, at the working precision.  Where 12 a
    is an integer, cos and sin of 2 pi a are 0, +-1/2, +-1 or +-sqrt(3)/2,
    each formed exactly but for the one rounding of sqrt(3); otherwise
    they are cospi and sinpi of 2a.  The lattice sums, the elliptic
    dilogarithm and Lambda_s(1) all form their points here, so one point
    at one precision is one memo key of ``bloch_wigner``."""
    a = Fraction(a)
    if (12 * a).denominator != 1:
        t = 2 * to_mpf(a)
        return mpc(cospi(t), sinpi(t))
    k, h = int(12 * a), sqrt(3) / 2
    cos = (1, h, 0.5, 0, -0.5, -h, -1, -h, -0.5, 0, 0.5, h)  # cos(pi j/6)
    return mpc(cos[k % 12], cos[(3 - k) % 12])


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


# A float margin closer than this many bits to a threshold is left to mpf.
# The float logs below err by under 2^-30 bits at every precision in use,
# and the mpf products they stand in for by a few ulps: both far inside it.
_TIE = 1e-6
_LN2 = math.log(2)


def _log2(x: mpf) -> float:
    """log2 x for a positive mpf x, as a float from its exponent and leading
    bits, so that nothing underflows at any precision.  Within about 2^-50
    relative, near x = 1 too, where it is log1p of x - 1 formed exactly."""
    _, man, exp, bc = x._mpf_
    if exp + bc not in (0, 1):
        return math.log2(man) + exp
    d = man - (1 << -exp)  # (x - 1) 2^-exp, for 1/2 <= x < 2
    s = max(0, d.bit_length() - 53)
    return math.log1p((d >> s) * 2.0 ** (exp + s)) / _LN2


def _log_near_one(n: mpf, prec: int) -> int | None:
    """log n in fixed point at prec fractional bits, within 2 units, for an
    n within 2^-(prec//3) of 1 (a squared modulus that rounds to 1), and
    None for any other n.

    mpmath's log raises its working precision for an argument next to 1;
    here x = n - 1 is formed exactly at prec + 4 bits and
    log(1 + x) = sum_k (-1)^(k-1) x^k/k is summed on Python integers,
    four terms or so, as |x|^k falls by 2^-(prec//3) a term.  Each term
    and power is floored once, under 2 units of 2^-(prec + 4) a term, and
    the final shift floors once more."""
    _, _, exp, bc = n._mpf_
    if exp + bc not in (0, 1):  # n outside [1/2, 2)
        return None
    bits = prec + 4
    x = libmp.to_fixed(n._mpf_, bits) - (1 << bits)  # exact: n has <= prec bits
    a = abs(x)
    if a.bit_length() > bits - prec // 3:
        return None
    total, power, k = 0, a, 1
    while power:
        # log(1 - a) = -sum a^k/k; log(1 + a) alternates
        total += power // k if x > 0 and k % 2 else -(power // k)
        power, k = power * a >> bits, k + 1
    return total >> 4


def _float_ceil(x: float, exact) -> int:
    """ceil of a quantity whose float estimate x is within 2^-40 relative:
    ceil(x), unless x lies within _TIE (times |x| beyond 1) of an integer,
    where ``exact()`` decides in mpf."""
    if abs(x) < 2.0 ** 40 and abs(x - round(x)) > _TIE * max(1.0, abs(x)):
        return math.ceil(x)
    return exact()


def _stop_index(r, c, eps, max_terms: int, budget: str, first: int = 1,
                log2c: float | None = None) -> int:
    """Least k >= first with tail bound c r^(k+1)/(1-r) < eps, for 0 < r < 1
    and positive mpf r, c, eps; ConvergenceError with the message ``budget``
    past ``max_terms``.

    k is found from floats: with t = log2 of c r/((1-r) eps), by
    ``_log2``, it is the least k >= first with t + k log2 r < 0.  Only when
    that margin at k or at k - 1 is within _TIE bits, or r is within
    2^-900 of 1, do the mpf comparisons c r/(1-r) r^k < eps at the working
    precision decide, so k is the integer they give either way.  A caller
    that has log2 c already passes it as ``log2c``, with c a function that
    returns the mpf c; it is called only on a tie."""
    lr = _log2(r)
    excess = (_log2(c) if log2c is None else log2c) + lr - _log2(1 - r) \
        - _log2(eps)
    k = max(first, math.floor(excess / -lr) + 1) if lr < -2.0 ** -900 \
        else None
    if k is None or excess + k * lr > -_TIE \
            or k > first and excess + (k - 1) * lr < _TIE:
        if log2c is not None:
            c = c()
        tail = c * r / (1 - r)
        if k is None:
            k = max(first, int(ceil(log(eps / tail) / log(r))))
        while tail * r ** k >= eps:
            k += 1
        while k > first and tail * r ** (k - 1) < eps:
            k -= 1
    if k > max_terms:
        raise ConvergenceError(budget)
    return k


@shared
def bloch_wigner(z, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Bloch-Wigner dilogarithm D(z) = Im Li2(z) + arg(1-z) log|z|.

    Single-valued and real on all of C; vanishes on the real line, and
    D(0) = D(1) = 0 by continuity.  D(1/z) = -D(z) and D(1-z) = -D(z) move
    z into |z| <= 1, Re z <= 1/2, where w = -log(1-z) has |w| < 1.26 and
    Li2(z) = sum_{j>=0} B_j w^(j+1)/(j+1)! (Zagier, "The dilogarithm
    function", 2007).  |B_2k| <= 2.3 (2k)!/(2 pi)^(2k) bounds the B_2k
    term by 2.3 |w| r^k, r = (|w|/2 pi)^2 < 0.041, so the series stops
    after the K terms B_2 .. B_2K, K the least with 2.3 |w| r^(K+1)/(1-r)
    below 2^-(bits + GUARD_D), found by ``_stop_index`` from floats (K = 0
    when even 2.3 |w| r/(1-r) is below it); ConvergenceError if
    K > ``ctx.max_terms``.

    Where |1 - z|^2 or |z|^2 lies within 2^-(W/3) of 1, W the working
    precision, log|1 - z| (the real part of -w) or log|z| is taken from it
    by ``_log_near_one``, within 2 units of 2^-W.

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
        v = 1 - z
        arg_v = arg(v)
        lv = _log_near_one(v.real ** 2 + v.imag ** 2, mp.prec)  # log |v|^2
        w = -log(v) if lv is None else mpc(ldexp(-lv, -mp.prec - 1), -arg_v)
        r, c = (abs(w) / (2 * pi)) ** 2, 2.3 * abs(w)
        big_k = _stop_index(r, c, eps, ctx.max_terms,
                            "Bloch-Wigner series budget exhausted", first=0)
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
        lz = _log_near_one(z.real ** 2 + z.imag ** 2, mp.prec)  # log |z|^2
        lz = log(abs(z)) if lz is None else ldexp(lz, -mp.prec - 1)
        return +(sign * (mpf((total, -prec)) + arg_v * lz))


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

# s -> (p, e^(h_0), w) with Lambda_s(1) = h_0 - w D(z0)/pi, z0 = e^(i pi s)
_KERNEL = {
    Fraction(1, 3): (Fraction(2, 9), 27, 9),
    Fraction(1, 2): (Fraction(1, 4), 16, 8),
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


@shared
def _lambda_at_one(s: Fraction, ctx: PrecisionCtx) -> mpf:
    """Lambda_s(1) = h_0 - w D(z0)/pi: 3 log 3 - 9 D(e^(i pi/3))/pi and
    2 log 4 - 8 D(i)/pi, from n(3) = 3 D(e^(i pi/3))/pi and m(4) = 4G/pi,
    at bits + 96 with D(z0) = ``bloch_wigner(z0, ctx)``, so within
    (w/pi) 2^-(bits + GUARD_D) and a rounding.  z0 is formed as the
    lattice sums form it, ``root_of_unity(s/2)`` at ``ctx.workprec(32)``,
    so D(z0) is the memo entry that their n = 0 term fills."""
    _, exp_h0, w = _KERNEL[s]
    with ctx.workprec(32):
        z0 = root_of_unity(s / 2)
    with ctx.workprec(64):
        d = bloch_wigner(z0, ctx)
        return +(log(exp_h0) - w * d / pi)


def _anchor_ctx(s: Fraction, ctx: PrecisionCtx, tol) -> PrecisionCtx:
    """The context whose D(z0) holds the error of Lambda_s(1),
    (w/pi) 2^-(b + GUARD_D) at b bits, to tol/8: ctx itself where it does
    (121 bits or more for tol 1e-42), else ctx at the least such b."""
    need = math.ceil(math.log2(8 * _KERNEL[s][2] / math.pi) - _log2(tol)) \
        - GUARD_D
    return ctx if need <= ctx.bits else PrecisionCtx(need, ctx.max_terms)


def lambda_series(s, z, ctx: PrecisionCtx = DEFAULT_CTX, tol=None) -> mpf:
    """Lambda_s(z) = sum_{n>=1} c_n z^n/n = int_0^z (F_s(t) - 1)/t dt for
    -1 < z <= 1, and its real part int_0^z (Re F_s(t) - 1)/t dt, continued
    along the real axis past the branch point 1, for 1 < z < 2; to within
    tol (default ctx.default_tol).

    The value is rounded 32 bits above the callers' ``ctx.workprec(32)``;
    the integers beneath it are as wide as tol needs (``series.tol_bits``:
    2^-t <= tol/2 and GUARD bits more, capped by the working precision), so
    their rounding stays far below tol, and a tol of 1e-42 steps 205-bit
    integers at 256 bits or at 1024.  Below
    ``LAMBDA_SWITCH`` the series is summed directly on integers: the
    rational ratio of c_n steps as a narrow integer pair, and z enters as
    one fixed-point factor of the ratio (``series.ratio_series``' x), so
    each term c_n z^n/n is within 4 units of its fixed point; its term
    ratio is below |z|.
    From there on, Lambda_s(z) = Lambda_s(1) - I(1 - z) with
    I(w) = int_0^w (F_s(1-v) - 1)/(1-v) dv.  For -1 < v < 0, where 1 - v
    lies on the cut of F_s, log v = log|v| +- i pi and the real part of the
    connection formula keeps log|v|.  Multiplying it by 1/(1-v) = sum v^m
    gives
        (Re F_s(1-v) - 1)/(1-v) = sum_m (A_m - B_m log|v|) v^m,
        A_m = kappa sum_{n<=m} c_n h_n - 1,   B_m = kappa sum_{n<=m} c_n,
    which integrates term by term, on either side of v = 0, to
        Re I(w) = sum_m w^(m+1)/(m+1) (A_m - B_m (log|w| - 1/(m+1))).
    For m > M, |A_m| <= |A_M| + kappa c_M h_M (m-M) and
    B_m <= B_M + kappa c_M (m-M), so with L = 1 - log|w| the tail after M
    is at most ((|A_M| + B_M L)/(M+2) + kappa c_M (h_M + L)) |w|^(M+2)/(1-|w|),
    whatever the signs of the powers of w.
    Lambda_s(1) takes D(z0) in ctx, or at the few more bits that hold its
    error to tol/8 (``_anchor_ctx``), and is cached per (s, that context).

    Re I(w) is summed on Python integers at P fractional bits: c_n and h_n
    step by their recurrences in the exact p and are floored, and A_m, B_m,
    w^(m+1), log|w| and the tail bound are fixed-point values; the stop test
    compares the bound with tol on those same integers.  In units of 2^-P
    the floors leave c_n and h_n within n + 1, A_m within
    (m + 1)(0.71 m + 8) and B_m within (m + 1)(m/6 + 2): a growth that the
    factor |w|^(m+1) holds below 1.3 g^2 + 16 g in all, with
    g = min(1/(1 - |w|), M + 1), as |w| (1 + |log|w||) <= 1.  The floors of
    the powers leave w^(m+1) within g + (m + 1)|w|^m, which
    |A_m - B_m (log|w| - 1/(m+1))| <= 1 + (m + 1)(1 + |log|w||)/pi turns
    into at most 0.7 g^2 + g + (1 + |log|w||)/pi in all and
    (1.4 + |log|w||/3) g a term, and each term's two floors add 2.  After
    M <= max_terms terms the error is thus below (M + 1)(20 + |log|w||) g^2
    units.  At the width W, 2^-W <= |w| < 1 gives |log|w|| < W (a
    smaller |w| puts ceil(-log2 |w|) > |log|w|| in W's place), so
    P = W + the bit length of (max_terms + 1)(20 + W) G^2,
    G = min(floor(1/(1 - |w|)) + 1, max_terms + 1) >= g, keeps it below
    2^-W; G = 2 for |w| <= 1/2.  W is sized by tol as the direct sum's
    width is: W = min(mp.prec, t + GUARD) with 2^-t <= tol/2
    (``series.tol_bits``), so the rounding stays below 2^-(GUARD+1) tol,
    or below 2^-mp.prec where tol is finer than that.
    """
    with ctx.workprec(64):
        s = _kernel_s(s)
        z = to_mpf(z)
        if not -1 < z < 2:
            raise DivergentSeriesError("Lambda_s(z) needs -1 < z < 2")
        tol = to_tol(tol) if tol is not None else ctx.default_tol
        if z < LAMBDA_SWITCH:
            pn, pd = as_ratio(_KERNEL[s][0])
            terms = ratio_series(  # c_n z^n/n, n >= 1, z a factor
                lambda n: ((n - 1) * n * pd + pn, n * n * pd),
                lambda n: (1, n), start=1, x=z)
            return +sum_geometric(terms, tol, ratio=abs(z),
                                  max_terms=ctx.max_terms)
        top = _lambda_at_one(s, _anchor_ctx(s, ctx, tol))
        if z == 1:
            return +top
        return +(top - _connection_integral(s, 1 - z, tol, ctx.max_terms))


def _connection_integral(s, w, tol, max_terms):
    pn, pd = as_ratio(_KERNEL[s][0])
    g = min(int(1 / (1 - abs(w))) + 1, max_terms + 1)
    width = min(mp.prec, tol_bits(tol))
    loglen = max(width, math.ceil(-_log2(abs(w))))  # > |log|w||
    prec = width + ((max_terms + 1) * (20 + loglen) * g * g).bit_length()
    with workprec(prec):
        kappa, logw, h = (to_fixed(x, prec) for x in (
            sin(pi * to_mpf(s)) / pi, log(abs(w)), log(_KERNEL[s][1])))
    one = 1 << prec
    wf, limit = to_fixed(w, prec), to_fixed(tol, prec)
    big_l = one - logw
    tail = (one << prec) // (one - abs(wf))  # 1/(1-|w|)
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
        if ((bound * abs(wpow) >> prec) * abs(wf) >> prec) * tail >> prec \
                < limit:
            count_terms(m + 1)
            return mpf((total, -prec))
        d = m * (m + 1) * pd + pn  # (m(m+1) + p) pd
        c = c * d // ((m + 1) ** 2 * pd)
        h -= (((m + 1) * pd - 2 * pn) << prec) // ((m + 1) * d)
    raise ConvergenceError("connection expansion budget exhausted")
