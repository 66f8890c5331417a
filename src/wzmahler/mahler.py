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

Both quadrature oracles follow one route rule.  Where the integrand is
even, periodic and analytic they take the periodic trapezoidal rule: for
an integrand analytic in the strip |Im t| < a it errs by about
e^(-2 pi a N/P) at N nodes per period P (Trefethen and Weideman, SIAM
Review 56, 2014), so it needs about N* nodes, with
e^(-2 pi a N*/P) = 2^-prec.  N doubles from 8, reusing every node, until
two levels agree to 2^(-prec/2) at a level within 8 bits of N*.  The rule
is taken while N* is below _PERIODIC_MAX_NODES; otherwise, and wherever
the integrand has kinks, tanh-sinh runs on pieces split at the kinks,
bisected wherever a piece's error estimate times the integrand's weight
exceeds tol/4.  tol sets the working precision, max(140, -log2(tol) + 80)
bits, and that gate; the value comes out at about that precision, far
below tol.  alpha is taken at the 32 guard bits of the periodic sums, the
periodic sum is returned unrounded, and every integrand call counts as
one term.

For m(alpha), alpha > 4, the integrand arccosh((alpha + 2 cos 2 pi t)/2) is
even, 1-periodic and analytic; its nearest singularity is where
u = 2, at 2 pi Im t = arccosh((alpha - 2)/2), so
N* = prec log 2/arccosh((alpha - 2)/2) (50 at alpha = 9 and 140 bits).
N* grows like (alpha - 4)^(-1/2) and passes the cap for alpha < 4.009 at
140 bits.  There, at alpha = 4, and for 0 < alpha < 4, where the integrand
vanishes beyond the u = 2 crossing t*, cos(2 pi t*) = (2 - alpha)/2, with
a square-root kink, m_quadrature takes tanh-sinh.

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
period then errs by about Y+^(-N), so it needs about
N* = prec log 2/log Y+ nodes, with log Y+ = acosh(2 alpha^3/27 - 1).
Just above 3 N* passes the cap (1,470 at (7 - sqrt 5)/4^(1/3) = 3.0011 and
140 bits), and n_quadrature takes tanh-sinh there and for every
alpha <= 3.

For 0 <= alpha <= 3 the integrand has kinks where a root magnitude crosses
1, at the zeros of P(x, y) = x^3 + y^3 + 1 - alpha x y on the torus
|x| = |y| = 1, and they are in closed form.  P has real coefficients, so on
the torus P(x, y) and x^3 y^3 P(1/x, 1/y) vanish together; their
difference is (1 - u)(u^2 + (1 - alpha) u + 1), u = xy, so u = 1 or
u = e^(+-i theta) with cos(theta) = (alpha - 1)/2.  Putting x = u/y into
P = 0 gives Y^2 + (1 - alpha u) Y + u^3 = 0 in Y = y^3, whose roots are
e^(+-i theta) for u = 1, and u and u^2 otherwise.  So the zeros lie at
y^3 = e^(+-i theta) and e^(+-2 i theta), t = theta/(6 pi) and
theta/(3 pi) up to the period 1/3 and sign: 1/18 and 1/9 at alpha = 2,
where two roots of equal magnitude cross together at 1/18.  For alpha > 3
theta is not real, and no Y has modulus 1, as the bound above requires.
Made the ends of the tanh-sinh pieces, the kinks keep tanh-sinh at full
speed.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from mpmath import (acos, acosh, cospi, extraprec, log, mp, mpf, pi, polyroots,
                    quad, workprec)
from mpmath.libmp import (from_man_exp, from_rational, mpc_cbrt,
                          mpf_cos_sin_pi, mpf_log, mpf_shift, round_nearest,
                          to_fixed)

from .context import (DEFAULT_CTX, DomainError, PrecisionCtx,
                      QuadratureBudgetError, SlowConvergenceWarning, to_mpf)
from .numkernel import lambda_series
from .series import (as_ratio, count_terms, ratio_series, shared,
                     sum_geometric)

# Largest predicted node count N* for which m_quadrature and n_quadrature
# take the periodic trapezoidal rule.  The rule stops at a level within 8
# bits of N*, so it makes at most 513 integrand calls below the cap and
# 1,025 above, against the tanh-sinh route's 537 for n(alpha).  Measured at
# 140 bits (mpmath's Python backend, 2 vCPUs, the integer integrand on both
# routes): at N* = 1,000 the rule takes 0.88 of the tanh-sinh route's time
# (54 against 61 ms); at N* = 1,350 it takes 1.7 times as long (101 against
# 60 ms), and at (7 - sqrt 5)/4^(1/3), N* = 1,470, 1.8 times (132 against
# 74 ms).
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
    below 4, unless m(4) is within tol/2 of m(alpha).  The series is
    memoised on (alpha, tol, ctx) (``series.shared``); the warning for the
    band just below 4 is given on every call."""
    with ctx.workprec(32):
        alpha = to_mpf(alpha)
        if alpha <= 0:
            raise DomainError("m_series requires alpha > 0")
        tol = mpf(tol) if tol is not None else min(ctx.default_tol, mpf(10) ** -40)
        if alpha < 4 and _gap_below_four(1 - alpha / 4) <= tol / 2:
            alpha, tol = mpf(4), tol / 2
        if 0 < 4 - alpha < mpf("1e-3"):
            warnings.warn("alpha within 1e-3 below the branch point 4; series "
                          "converges like 1/n^2", SlowConvergenceWarning)
    return _m_series(alpha, tol, ctx)


@shared
def _m_series(alpha: mpf, tol: mpf, ctx: PrecisionCtx) -> mpf:
    with ctx.workprec(32):
        if alpha >= 4:
            with ctx.workprec(64):
                z = 16 / alpha ** 2
            lam = lambda_series(_HALF, z, ctx, tol=tol)
            return +(log(alpha) - lam / 2)
        rsq = (alpha / 4) ** 2
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


@shared
def n_series(alpha, ctx: PrecisionCtx = DEFAULT_CTX, tol=None) -> mpf:
    """n(alpha) = log(alpha) - rv_series(alpha^-3)/3 for alpha > 3,
    memoised on its arguments (``series.shared``).

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


def _periodic_trapezoid(f, period, gate, floor):
    """The mean of f over one period by the periodic trapezoidal rule, for f
    even, analytic on the real line and of rational period ``period``.

    With N nodes t_k = k period/N and f even, the rule (1/N) sum_{k<N} f(t_k)
    is (2/N) (f(t_0)/2 + f(t_1) + ... + f(t_{N/2-1}) + f(t_{N/2})/2), where
    t_{N/2} is half a period.  Each doubling of N from 8 reuses the nodes
    before it; the rule stops once two levels differ by less than gate, at a
    level whose predicted error is within 8 bits of the working precision,
    N >= floor (prec - 8)/prec for the predicted node count N* = ``floor``
    (a small error prefactor can make two coarser levels agree early).
    The nodes are rounded at the working precision and the sums kept 32 bits
    above it, as the integrands' values are.
    """
    prec = mp.prec
    enough = floor * (prec - 8) / prec

    def node(k, n):  # k period/n rounded at the working precision
        return f(mp.make_mpf(from_rational(
            k * period.numerator, n * period.denominator, prec, round_nearest)))

    with extraprec(32):
        n = 8
        total = (node(0, n) + node(n // 2, n)) / 2 \
            + sum(node(k, n) for k in range(1, n // 2))
        value = 2 * total / n
        while n < 4 * _PERIODIC_MAX_NODES:  # gives up after 4,096 nodes
            total += sum(node(k, 2 * n) for k in range(1, n, 2))
            n *= 2
            value, prev = 2 * total / n, value
            if n >= enough and abs(value - prev) < gate:
                return value
    raise QuadratureBudgetError(
        f"periodic rule still moves by {mp.nstr(abs(value - prev), 3)} at "
        f"{n} nodes")


def m_quadrature(alpha, ctx: PrecisionCtx = DEFAULT_CTX, tol=mpf("1e-8")) -> mpf:
    """Jensen-reduced integral for m(alpha), alpha >= 0: the mean over
    t in [0, 1] of arccosh(u/2) where u = alpha + 2 cos(2 pi t) > 2, and of
    zero elsewhere (u > -2).

    alpha = 0 is an exact 0.  The route and the role of tol are the module
    docstring's; the periodic rule runs over one period, and tanh-sinh
    with weight 2 over [0, 1/2], or over [0, t*] below 4, where the
    integrand vanishes beyond the u = 2 crossing t* (a square-root kink).
    """
    tol = mpf(tol)
    prec = max(140, int(-mp.log(tol, 2)) + 80)
    with workprec(prec + 32):  # alpha, t* and the result at the sums' bits
        alpha = to_mpf(alpha)
        if alpha < 0:
            raise DomainError("m_quadrature requires alpha >= 0")
        if alpha == 0:
            return mpf(0)

        def f(t):  # arccosh(u/2) where u > 2
            count_terms(1)
            w = alpha / 2 + cospi(2 * t)
            return acosh(w) if w > 1 else mpf(0)

        end = mpf(1) / 2
        if alpha > 4:
            nodes = prec * log(2) / acosh((alpha - 2) / 2)  # N*
            if nodes < _PERIODIC_MAX_NODES:
                with workprec(prec):
                    return _periodic_trapezoid(
                        f, 1, mpf(2) ** (-(prec // 2)), nodes)
        elif alpha < 4:
            end = acos((2 - alpha) / 2) / (2 * pi)  # t*
        with workprec(prec):
            return +(2 * _quad_pieces(f, [mpf(0), end], tol / 2))


def _torus_point(t, prec):
    """y = e^(2 pi i t) and y^3 as raw (cos, sin) pairs at prec bits, each
    from its own exponential of an argument rounded at the working
    precision, so that 1 + y^3 vanishes exactly at t = 1/2, and at
    t = 1/6 rounded at the working precision.  The periodic rule's
    half-period node is rounded 32 bits below it, where 1 + y^3 is about
    2^-prec."""
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
    if hr == hi == 0:  # x (x^2 + p): 0 and +-sqrt(-p), |p| = alpha |y|
        n = 3 * a3 << bits
        return bits, [0, n, n]
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
    (no cancellation).  Where h = 0 the cubic is x (x^2 + p), and its
    squared magnitudes 0, |p|, |p| are taken directly, since (p/3)^3
    underflows the fixed point for tiny alpha; so c^3 never vanishes.

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


def _n_breakpoints(alpha) -> list:
    """The kinks of the n(alpha) integrand in (0, 1/6), 0 <= alpha: the
    zeros of the polynomial on the torus, at y^3 = e^(i theta) and
    e^(2 i theta), cos(theta) = (alpha - 1)/2 (module docstring), folded by
    the period 1/3 and evenness.  None for alpha > 3; points within
    2^(-prec/2) of the ends 0, 1/6 or of each other are dropped."""
    if alpha > 3:
        return []
    gap, end = mpf(2) ** (-(mp.prec // 2)), mpf(1) / 6
    with extraprec(32):
        t = acos((alpha - 1) / 2) / (6 * pi)  # y^3 = e^(i theta)
        s = min(2 * t, 1 / mpf(3) - 2 * t)  # y^3 = e^(2 i theta)
    pts = []
    for p in sorted((+t, +s)):
        if gap < p < end - gap and not (pts and p - pts[-1] < gap):
            pts.append(p)
    return pts


def n_quadrature(alpha, ctx: PrecisionCtx = DEFAULT_CTX, tol=mpf("1e-8")) -> mpf:
    """Jensen-reduced integral for n(alpha) = m(x^3 + y^3 + 1 - alpha x y).

    The cubic in x is monic, so the inner integral is sum_i log+ |r_i(t)|;
    root magnitudes come from Cardano's formula on integers at each node
    (``_cubic_root_mags``).  That integrand has period 1/3 and is even (the
    order-3 symmetry and the conjugation symmetry of the polynomial).

    The route and the role of tol are the module docstring's; the
    periodic rule runs over one period, and tanh-sinh over [0, 1/6] with
    weight 6, split at the kinks of ``_n_breakpoints``.  Either way
    polyroots cross-checks the closed-form roots at the ends of the pieces
    (ArithmeticError if they differ by more than 2^(-prec/2)).
    """
    tol = mpf(tol)
    prec = max(140, int(-mp.log(tol, 2)) + 80)
    with workprec(prec + 32):  # alpha at the sums' bits
        alpha = to_mpf(alpha)
    with workprec(prec):
        if alpha < 0:
            raise DomainError("n_quadrature requires alpha >= 0")

        if alpha > 3:
            nodes = prec * log(2) / acosh(2 * alpha ** 3 / 27 - 1)  # N*
            if nodes < _PERIODIC_MAX_NODES:
                _check_root_mags(alpha, [mpf(0), mpf(1) / 6])
                return _periodic_trapezoid(
                    lambda t: _n_integrand(alpha, t), _THIRD,
                    mpf(2) ** (-(prec // 2)), nodes)
        points = [mpf(0)] + _n_breakpoints(alpha) + [mpf(1) / 6]
        _check_root_mags(alpha, points)
        return +(6 * _quad_pieces(lambda t: _n_integrand(alpha, t), points,
                                  tol / 6))
