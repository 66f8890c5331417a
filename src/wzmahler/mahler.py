"""Two independent evaluators for the Mahler measures m(alpha) and n(alpha).

m(alpha) = m(alpha + x + 1/x + y + 1/y) has central-binomial series on both
sides of alpha = 4:

    m(4/r) = log(4/r) - sum_{n>=1} C(2n,n)^2 (r/4)^(2n) / (2n)
           = log(4/r) - Lambda_{1/2}(r^2)/2,
    m(4r)  = 4 sum_{n>=0} C(2n,n)^2 (r/4)^(2n+1) / (2n+1),      r in (0, 1]

where Lambda_s(z) = sum_{n>=1} (s)_n (1-s)_n/n!^2 z^n/n is the kernel of
``numkernel.lambda_series``, continued to z -> 1 by the logarithmic
connection formula, so the alpha >= 4 branch costs a few dozen terms even
at alpha = 4.  Both series are stepped on integers (``series``), with
alpha or z entering as the exact dyadic rational its mpf value is, and
summed at guard bits with a geometric tail bound.  Below 4 the tail is
about r^(2n)/n^2, and the direct sum takes about log(1/tol)/(1 - r^2)
terms (1,429 at alpha = 3.9 and 11,099 at 3.99 for tol 1e-30).  Where
m(4) is provably within tol/2 of m(alpha) (``_gap_below_four``), m(4) is
taken instead, through the alpha >= 4 branch.  There is a quadrature
oracle via Jensen's formula in x: with u(t) = alpha + 2 cos(2 pi t) the
inner integral is arccosh(|u|/2) where |u| >= 2 and zero otherwise.

n(alpha) = m(x^3 + y^3 + 1 - alpha x y) has Rodriguez-Villegas's series for
alpha > 3,

    n(alpha) = log(alpha) - (1/3) sum_{n>=1} (3n)!/(n n!^3) alpha^(-3n)
             = log(alpha) - Lambda_{1/3}(27/alpha^3)/3,

through the same kernel, and a quadrature oracle for every alpha >= 0: the
cubic in x is monic, so Jensen gives the sum of log+ of its root
magnitudes, which Cardano's formula gives in closed form at each node.
The formula runs on Python integers at 32 bits above the working
precision, with one mpmath cube root and, for the integrand, one
logarithm of the product of the squared magnitudes above 1; the node
values and the trapezoidal sums keep those 32 bits.  mpmath's polyroots
cross-checks the closed form at the ends of every quadrature piece.  The
polynomial is
invariant under (x, y) -> (w^2 x, w y), w = e^(2 pi i/3), and under complex
conjugation, so that integrand has period 1/3 in t (y = e^(2 pi i t)) and
is even: n(alpha) is 6 times its integral over [0, 1/6].  Near alpha = 3
the curve is close to three lines meeting the torus at t = 0, 1/3, 2/3,
which the reduction puts at the endpoint t = 0.

For alpha > 3 the polynomial has no zero on the torus, since there
|x^3 + y^3 + 1| <= 3 < alpha = |alpha x y|: no root magnitude crosses 1 and
the integrand is analytic.  Its nearest singularities are the branch points
of the roots, where the discriminant 4 alpha^3 y^3 - 27 (1 + y^3)^2 vanishes,
at y^3 = Y+ and 1/Y+ with Y+ the larger root of
Y^2 + (2 - 4 alpha^3/27) Y + 1 = 0.  The trapezoidal rule with N nodes per
period then errs by about Y+^(-N) (Trefethen and Weideman, SIAM Review 56,
2014), so it needs about N* = prec log 2/log Y+ nodes, with
log Y+ = acosh(2 alpha^3/27 - 1).  n_quadrature takes that rule while N* is
below _PERIODIC_MAX_NODES, and tanh-sinh otherwise: for alpha <= 3, and
for alpha just above 3 (N* is 1,470 at (7 - sqrt 5)/4^(1/3) = 3.0011 and
140 bits).  On the tanh-sinh route the kinks where a root magnitude
crosses 1 are located first (bisection on the number of roots outside the
unit circle, which also sees two roots of equal magnitude crossing
together) and made interval endpoints, which is what keeps tanh-sinh
quadrature at full speed.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from mpmath import (acos, acosh, cos, extraprec, fabs, log, mp, mpf, pi,
                    polyroots, quad, workprec)
from mpmath.libmp import (from_man_exp, from_rational, mpc_cbrt,
                          mpf_cos_sin_pi, mpf_log, mpf_shift, round_nearest,
                          to_fixed)

from .context import (DEFAULT_CTX, DomainError, PrecisionCtx,
                      QuadratureBudgetError, SlowConvergenceWarning, to_mpf)
from .numkernel import lambda_series
from .series import as_ratio, count_terms, ratio_series, sum_geometric

# Largest predicted node count N* for which n_quadrature takes the periodic
# trapezoidal rule.  The rule stops at a level of at least N* nodes, so it
# makes 513 integrand calls for N* <= 1,024 and 1,025 above, against the
# tanh-sinh route's 537.  Measured at 140 bits (mpmath's Python backend,
# 2 vCPUs, the integer integrand on both routes): at N* = 1,000 the rule
# takes 0.88 of the tanh-sinh route's time (54 against 61 ms); at N* =
# 1,350 it takes 1.7 times as long (101 against 60 ms), and at
# (7 - sqrt 5)/4^(1/3), N* = 1,470, 1.8 times (132 against 74 ms).
_PERIODIC_MAX_NODES = 1024
_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


def _gap_below_four(eps) -> mpf:
    """A bound on m(4) - m(4(1 - eps)), 0 < eps < 1.

    With r = 1 - eps and c_n = C(2n,n)^2/16^n, the gap is
    sum_n c_n (1 - r^(2n+1))/(2n+1), and 1 - r^(2n+1) <= min(1, (2n+1) eps).
    As c_0 = 1 and c_n <= 1/(pi n), cutting at N = ceil(1/eps) gives
    eps + (eps/pi)(1 + log N) + 1/(2 pi N) <= eps (1.5 + log(1/eps + 1)/pi).
    """
    return eps * (mpf(1.5) + log(1 / eps + 1) / pi)


def m_series(alpha, ctx: PrecisionCtx = DEFAULT_CTX, tol=None) -> mpf:
    """m(alpha) by the branch-appropriate series: log(alpha) minus half of
    Lambda_{1/2}(16/alpha^2) for alpha >= 4, the binomial series of m(4r)
    below 4, unless m(4) is within tol/2 of m(alpha)."""
    with ctx.workprec(32):
        alpha = to_mpf(alpha)
        if alpha <= 0:
            raise DomainError("m_series requires alpha > 0")
        tol = mpf(tol) if tol is not None else min(ctx.target_tol, mpf(10) ** -40)
        if alpha < 4 and _gap_below_four(1 - alpha / 4) <= tol / 2:
            alpha, tol = mpf(4), tol / 2
        if alpha >= 4:
            with ctx.workprec(64):
                z = 16 / alpha ** 2
            lam = lambda_series(_HALF, z, ctx, tol=tol)
            return +(log(alpha) - lam / 2)
        rsq = (alpha / 4) ** 2
        if 4 - alpha < mpf("1e-3"):
            warnings.warn("alpha within 1e-3 below the branch point 4; series "
                          "converges like 1/n^2", SlowConvergenceWarning)
        a, b = as_ratio(alpha)  # r = alpha/4 = a/(4b)
        terms = ratio_series(  # C(2n,n)^2 (r/4)^(2n) r/(2n+1)
            lambda n: ((2 * n - 1) ** 2 * a * a, 64 * n * n * b * b),
            lambda n: (a, 4 * b * (2 * n + 1)))
        return +sum_geometric(terms, tol, ratio=rsq, max_terms=ctx.max_terms)


def s_ratio(r, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """s = m(4/r)/m(4r) for r in (0, 1]."""
    with ctx.workprec(32):
        r = to_mpf(r)
        if not 0 < r <= 1:
            raise DomainError("s_ratio requires r in (0, 1]")
        return +(m_series(4 / r, ctx) / m_series(4 * r, ctx))


def rv_series(x, ctx: PrecisionCtx = DEFAULT_CTX, tol=None) -> mpf:
    """sum_{n>=1} (3n)!/(n n!^3) x^n = Lambda_{1/3}(27x); requires
    -1 < 27x <= 1.  (3n)!/n!^3 = 27^n (1/3)_n (2/3)_n / n!^2."""
    with ctx.workprec(32):
        return lambda_series(_THIRD, 27 * to_mpf(x), ctx, tol=tol)


def n_series(alpha, ctx: PrecisionCtx = DEFAULT_CTX, tol=None) -> mpf:
    """n(alpha) = log(alpha) - rv_series(alpha^-3)/3 for alpha > 3.

    The error is at most tol/3.
    """
    with ctx.workprec(32):
        alpha = to_mpf(alpha)
        if alpha <= 3:
            raise DomainError("n_series requires alpha > 3")
        s = rv_series(1 / alpha ** 3, ctx, tol=tol)
        return +(log(alpha) - s / 3)


# ---------------------------------------------------------------------------
# quadrature oracles
# ---------------------------------------------------------------------------

def _quad_pieces(f, points, tol, depth: int = 0):
    """tanh-sinh on each piece; bisect pieces whose error estimate is too big."""
    total = mpf(0)
    for a, b in zip(points, points[1:]):
        val, err = quad(f, [a, b], error=True)
        if err > tol * mpf("0.25") and depth < 12:
            total += _quad_pieces(f, [a, (a + b) / 2, b], tol, depth + 1)
        elif err > tol * mpf("0.25"):
            raise QuadratureBudgetError(
                f"interval [{mp.nstr(a, 8)}, {mp.nstr(b, 8)}] stuck at "
                f"error {mp.nstr(err, 3)}")
        else:
            total += val
    return total


def m_quadrature(alpha, ctx: PrecisionCtx = DEFAULT_CTX, tol=mpf("1e-8")) -> mpf:
    """Jensen-reduced integral for m(alpha), alpha >= 0.

    Splits at the |u| = 2 crossing (square-root kink) and doubles the
    integral over [0, 1/2] by the t -> 1-t symmetry.
    """
    tol = mpf(tol)
    prec = max(140, int(-mp.log(tol, 2)) + 80)
    with workprec(prec):
        alpha = to_mpf(alpha)
        if alpha < 0:
            raise DomainError("m_quadrature requires alpha >= 0")

        def f(t):
            count_terms(1)
            u = alpha + 2 * cos(2 * pi * t)
            au = fabs(u)
            if au <= 2:
                return mpf(0)
            return acosh(au / 2)

        points = [mpf(0), mpf(1) / 2]
        if 0 < alpha < 4:
            tstar = acos((2 - alpha) / 2) / (2 * pi)
            points = [mpf(0), tstar, mpf(1) / 2]
        return +(2 * _quad_pieces(f, points, tol / 2))


def _torus_point(t, prec):
    """y = e^(2 pi i t) and y^3 as raw (cos, sin) pairs at prec bits, each
    from its own exponential of an argument rounded at the working
    precision, so that 1 + y^3 vanishes exactly at t = 1/6 and t = 1/2."""
    return (mpf_cos_sin_pi(mpf(2 * t)._mpf_, prec, round_nearest),
            mpf_cos_sin_pi(mpf(6 * t)._mpf_, prec, round_nearest))


@lru_cache(maxsize=16)
def _cubic_constants(alpha: tuple, bits: int) -> tuple:
    """floor(alpha/3) and floor(sqrt(3)/2) at ``bits`` fractional bits, for
    the raw mpf alpha."""
    return to_fixed(alpha, bits) // 3, isqrt(3 << 2 * bits) >> 1


def _cubic_root_norms(alpha, t):
    """(F, [|x_0|^2, |x_1|^2, |x_2|^2]): the squared root magnitudes of
    x^3 - alpha y x + 1 + y^3 at 2F fractional bits, F = mp.prec + 32, by
    Cardano's formula on integers (see ``_cubic_root_mags``)."""
    bits = mp.prec + 32
    one = 1 << bits
    a3, s3 = _cubic_constants(mpf(alpha)._mpf_, bits)
    (yr, yi), (zr, zi) = ((to_fixed(c, bits), to_fixed(s, bits))
                          for c, s in _torus_point(t, bits))
    pr, pi_ = -(a3 * yr >> bits), -(a3 * yi >> bits)  # p/3
    hr, hi = (one + zr) >> 1, zi >> 1  # h
    qr, qi = (pr * pr - pi_ * pi_) >> bits, (pr * pi_) >> (bits - 1)
    dr = (hr * hr - hi * hi + qr * pr - qi * pi_) >> bits  # h^2 + (p/3)^3
    di = (2 * hr * hi + qr * pi_ + qi * pr) >> bits
    m = isqrt(dr * dr + di * di)  # its square root d, up to sign
    if dr >= 0:
        sr = isqrt((m + dr) << (bits - 1))
        si = (di << bits) // (2 * sr) if sr else 0
    else:
        si = isqrt((m - dr) << (bits - 1))
        sr = (abs(di) << bits) // (2 * si)
        si = -si if di < 0 else si
    # |h + d|^2 - |h - d|^2 = 4 Re(h conj(d)), exactly
    if hr * sr + hi * si > 0:
        ur, ui = -hr - sr, -hi - si
    else:
        ur, ui = sr - hr, si - hi
    if ur == ui == 0:
        return bits, [0, 0, 0]
    cr, ci = (to_fixed(x, bits) for x in mpc_cbrt(
        (from_man_exp(ur, -bits), from_man_exp(ui, -bits)), bits))
    n = cr * cr + ci * ci
    gr = ((pr * cr + pi_ * ci) << bits) // n  # (p/3)/c
    gi = ((pi_ * cr - pr * ci) << bits) // n
    half = one >> 1
    norms = []
    for _ in range(3):  # x = c w^k - (p/3)/(c w^k), w = -1/2 + i sqrt(3)/2
        xr, xi = cr - gr, ci - gi
        norms.append(xr * xr + xi * xi)
        cr, ci = (-cr * half - ci * s3) >> bits, (cr * s3 - ci * half) >> bits
        gr, gi = (gi * s3 - gr * half) >> bits, (-gr * s3 - gi * half) >> bits
    return bits, norms


def _cubic_root_mags(alpha, t):
    """|roots| of x^3 - alpha y x + 1 + y^3 by Cardano's formula.

    With p = -alpha y and h = (1 + y^3)/2 the roots are c w^k - p/(3 c w^k),
    w = e^(2 pi i/3), where c^3 is the larger of -h +- sqrt(h^2 + (p/3)^3)
    (no cancellation); it vanishes only for the triple root 0.

    The formula runs on Python integers at F = mp.prec + 32 fractional
    bits: y and y^3 enter as their two exponentials at F bits, floored;
    every complex product is floored once; the square root d comes from
    ``math.isqrt``, and the larger of -h +- d from the exact sign of
    Re(h conj(d)).  Only the cube root c is an mpmath call, ``mpc_cbrt`` at
    F bits.  The magnitudes come back unrounded, at F bits.  As
    |c|^2 >= |p|/3 and max|x_i|/2 <= |c| <= max|x_i|, the rounding errors
    add up, to first order, to at most
        2^(4 - F) (1 + alpha/3)^3 (1 + 1/|c|)^2 (1 + 1/max(|d|, 2^(-F/2)))
    in each magnitude, which grows only near a double root (d = 0) and the
    triple root (c = 0).
    """
    bits, norms = _cubic_root_norms(alpha, t)
    return [mp.make_mpf(from_man_exp(isqrt(n), -bits)) for n in norms]


def _n_integrand(alpha, t):
    """sum_i log+ |x_i(t)| over the roots of x^3 - alpha y x + 1 + y^3, as
    half the log of the product of the squared magnitudes above 1, at the
    F bits of ``_cubic_root_norms``; each call counts as one term."""
    count_terms(1)
    bits, norms = _cubic_root_norms(alpha, t)
    one = 1 << 2 * bits
    prod, shift = 1, 0
    for n in norms:
        if n > one:
            prod, shift = prod * n, shift + 2 * bits
    if not shift:
        return mpf(0)
    return mp.make_mpf(mpf_shift(
        mpf_log(from_man_exp(prod, -shift, bits), bits, round_nearest), -1))


def _check_root_mags(alpha, points):
    """Cross-check the closed-form root magnitudes against polyroots."""
    gate = mpf(2) ** (-(mp.prec // 2))
    for t in points:
        y, y3 = (mp.make_mpc(z) for z in _torus_point(t, mp.prec))
        if alpha == 0 and 1 + y3 == 0:
            continue  # x^3 itself: exact, and polyroots cannot converge on it
        roots = polyroots([mpf(1), mpf(0), -alpha * y, 1 + y3],
                          maxsteps=160, extraprec=80)
        ref = sorted(abs(r) for r in roots)
        got = sorted(_cubic_root_mags(alpha, t))
        gap = max(abs(a - b) for a, b in zip(got, ref))
        if gap > gate:
            raise ArithmeticError(
                f"cubic root magnitudes at t = {mp.nstr(t, 8)} differ from "
                f"polyroots by {mp.nstr(gap, 3)}")


def _n_breakpoints(alpha, grid: int = 64) -> list:
    """Points of (0, 1/6) where the number of roots outside the unit circle
    changes, located by bisection.

    Counting sees two roots of equal magnitude crossing |x| = 1 together, as
    at alpha = 2, t = 1/18, where prod(|root| - 1) keeps its sign.  A change
    within 2^(-prec/4) of a grid point is put on it: kinks at rational t
    such as alpha = 1, t = 1/12 fall there, and rounding blurs the count
    next to a root on |x| = 1.  On the ends 0 and 1/6 (alpha = 3 at t = 0,
    alpha = 1 at t = 1/6) it is dropped.
    """
    def outside(t):
        return sum(m > 1 for m in _cubic_root_mags(alpha, t))

    end = mpf(1) / 6
    near = mpf(2) ** (-(mp.prec // 4))
    pts = [mpf(i) / (6 * grid) for i in range(grid + 1)]
    counts = [outside(t) for t in pts]
    found = []
    for a, b, ca, cb in zip(pts, pts[1:], counts, counts[1:]):
        if ca == cb:
            continue
        lo, hi = a, b
        for _ in range(mp.prec // 2):
            mid = (lo + hi) / 2
            if outside(mid) == ca:
                lo = mid
            else:
                hi = mid
        t = (lo + hi) / 2
        if t - a < near:
            t = a
        elif b - t < near:
            t = b
        if 0 < t < end:
            found.append(t)
    return found


def _n_trapezoid(alpha, gate, floor):
    """n(alpha) by the periodic trapezoidal rule, alpha > 3.

    With N nodes t_k = k/(3N) per period 1/3 and the integrand f even, the
    rule (1/N) sum_{k<N} f(t_k) is (2/N) (f(t_0)/2 + f(t_1) + ... +
    f(t_{N/2-1}) + f(t_{N/2})/2), t_{N/2} = 1/6.  Each doubling of N from 8
    reuses the nodes before it; the rule stops once two levels differ by
    less than gate, at a level of at least ``floor`` nodes (the predicted
    N*: a small error prefactor can make two coarser levels agree early).
    The nodes are rounded at the working precision and the sums kept 32 bits
    above it, as the integrand's values are.
    """
    prec = mp.prec

    def f(k, n):  # the node k/(3n) rounded at the working precision
        return _n_integrand(alpha, mp.make_mpf(
            from_rational(k, 3 * n, prec, round_nearest)))

    with extraprec(32):
        n = 8
        total = (f(0, n) + f(n // 2, n)) / 2 \
            + sum(f(k, n) for k in range(1, n // 2))
        value = 2 * total / n
        while n < 4 * _PERIODIC_MAX_NODES:  # gives up after 4,096 nodes
            total += sum(f(k, 2 * n) for k in range(1, n, 2))
            n *= 2
            value, prev = 2 * total / n, value
            if n >= floor and abs(value - prev) < gate:
                return value
    raise QuadratureBudgetError(
        f"periodic rule at alpha = {mp.nstr(alpha, 8)} still moves by "
        f"{mp.nstr(abs(value - prev), 3)} at {n} nodes")


def n_quadrature(alpha, ctx: PrecisionCtx = DEFAULT_CTX, tol=mpf("1e-8")) -> mpf:
    """Jensen-reduced integral for n(alpha) = m(x^3 + y^3 + 1 - alpha x y).

    The cubic in x is monic, so the inner integral is sum_i log+ |r_i(t)|;
    root magnitudes come from Cardano's formula on integers at each node
    (``_cubic_root_mags``).  That integrand has period 1/3 and is even (the
    order-3 symmetry and the conjugation symmetry of the polynomial).

    Route: for alpha > 3 the integrand is analytic (no zero of the
    polynomial on the torus) and, while the predicted node count N* of the
    module docstring is below _PERIODIC_MAX_NODES, it goes through the
    periodic trapezoidal rule, which stops once two doublings differ by
    less than 2^(-prec/2) at N >= N* nodes; no kink scan is needed.  Every
    other alpha goes through tanh-sinh over [0, 1/6], weight 6, split at the
    kinks and bisected wherever a piece's error estimate exceeds tol/24.
    Either way polyroots cross-checks the closed-form roots at the ends of
    the pieces (ArithmeticError if they differ by more than 2^(-prec/2)),
    and every integrand call counts as one term.

    tol sets the working precision, max(140, -log2(tol) + 80) bits, and
    the tanh-sinh bisection gate; the value comes out at about that
    working precision, far below tol.
    """
    tol = mpf(tol)
    prec = max(140, int(-mp.log(tol, 2)) + 80)
    with workprec(prec):
        alpha = to_mpf(alpha)
        if alpha < 0:
            raise DomainError("n_quadrature requires alpha >= 0")

        if alpha > 3:
            nodes = prec * log(2) / acosh(2 * alpha ** 3 / 27 - 1)  # N*
            if nodes < _PERIODIC_MAX_NODES:
                _check_root_mags(alpha, [mpf(0), mpf(1) / 6])
                return +_n_trapezoid(alpha, mpf(2) ** (-(prec // 2)), nodes)
        points = [mpf(0)] + _n_breakpoints(alpha) + [mpf(1) / 6]
        _check_root_mags(alpha, points)
        return +(6 * _quad_pieces(lambda t: _n_integrand(alpha, t), points,
                                  tol / 6))
