"""Two independent evaluators for the Mahler measures m(alpha) and n(alpha).

m(alpha) = m(alpha + x + 1/x + y + 1/y) has central-binomial series on both
sides of alpha = 4:

    m(4/r) = log(4/r) - sum_{n>=1} C(2n,n)^2 (r/4)^(2n) / (2n)
           = log(4/r) - Lambda_{1/2}(r^2)/2,
    m(4r)  = 4 sum_{n>=0} C(2n,n)^2 (r/4)^(2n+1) / (2n+1),      r in (0, 1]

where Lambda_s(z) = sum_{n>=1} (s)_n (1-s)_n/n!^2 z^n/n is the kernel of
``numkernel.lambda_series``, continued to z -> 1 by the logarithmic
connection formula, so the alpha >= 4 branch costs a few dozen terms even
at alpha = 4.  Both series are stepped on integers (``series``), their
rational term ratios as narrow integer pairs and z = 16/alpha^2, or r^2
below 4, as one fixed-point factor of the ratio (``ratio_series``' x),
and summed at guard bits with a geometric tail bound.  Below 4 r leaves
the weight: the sum of C(2n,n)^2 (r/4)^(2n)/(2n+1) is taken to tol/r and
multiplied by r, so its stop test is the one of the sum with r inside,
divided through by r.  Below 4 the tail is
about r^(2n)/n^2, and the direct sum takes about log(1/tol)/(1 - r^2)
terms (1,429 at alpha = 3.9 and 11,099 at 3.99 for tol 1e-30).  Where
m(4) is provably within tol/2 of m(alpha) (``_gap_below_four``), m(4) is
taken instead, through the alpha >= 4 branch.  There is a quadrature
oracle via Jensen's formula in x: with u(t) = alpha + 2 cos(2 pi t) the
inner integral is arccosh(|u|/2) where |u| >= 2 and zero otherwise, the log
of w + sqrt(w^2 - 1), w = u/2, which a node gives with an integer square
root.

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
below tol.  The periodic rule's nodes y = e^(2 pi i t) are the exact
t = k P/N up to a few units of 2^-(prec + 64): they come from a table of
roots of unity on integers, one exponential per level and one complex
integer product per node, and the integrands take y itself.  Each node
returns a positive integer value whose log is the integrand, and the rule
takes one logarithm per level, of the product of the values.  alpha is
taken at the 32 guard bits of the periodic sums, the periodic sum is
returned unrounded, and every integrand call counts as one term.

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
magnitudes.  The polynomial is invariant under (x, y) -> (w^2 x, w y),
w = e^(2 pi i/3), and under complex conjugation, so that integrand has
period 1/3 in t (y = e^(2 pi i t)) and is even: n(alpha) is 6 times its
integral over [0, 1/6].  Near alpha = 3 the curve is close to three lines
meeting the torus at t = 0, 1/3, 2/3, which the reduction puts at the
endpoint t = 0.  Both routes run on Python integers at 32 bits above the
working precision, and their node values and sums keep those bits.

For alpha > 3 the polynomial has no zero on the torus, since there
|x^3 + y^3 + 1| <= 3 < alpha = |alpha x y|.  By Rouche's theorem exactly
one root x_3 lies inside the unit disk, so by Vieta the integrand is
log |x_1 x_2| = log |alpha y - x_3^2|, and the periodic rule's node solves
for x_3 alone (``_n_node``).  The integrand is analytic; its nearest
singularities are the branch points of the roots, where the discriminant
4 alpha^3 y^3 - 27 (1 + y^3)^2 vanishes, at y^3 = Y+ and 1/Y+ with Y+ the
larger root of
Y^2 + (2 - 4 alpha^3/27) Y + 1 = 0.  The trapezoidal rule with N nodes per
period then errs by about Y+^(-N), so it needs about
N* = prec log 2/log Y+ nodes, with log Y+ = acosh(2 alpha^3/27 - 1).
Just above 3 N* passes the cap (1,470 at (7 - sqrt 5)/4^(1/3) = 3.0011 and
140 bits), and n_quadrature takes tanh-sinh there and for every
alpha <= 3, on all three magnitudes (``_cubic_root_mags``): the same
integer Newton iteration finds the largest root, which is simple, and the
quadratic it leaves gives the other two.

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
from math import isqrt, ldexp

from mpmath import (acos, acosh, extraprec, log, mp, mpf, pi, polyroots, quad,
                    workprec)
from mpmath.libmp import (from_man_exp, from_rational, mpf_cos_sin_pi,
                          mpf_log, mpf_shift, round_nearest, to_fixed)

from .context import (DEFAULT_CTX, DomainError, PrecisionCtx,
                      QuadratureBudgetError, SlowConvergenceWarning, to_mpf,
                      to_tol)
from .numkernel import lambda_series
from .series import (as_ratio, count_terms, ratio_series, shared,
                     sum_geometric)

# Largest predicted node count N* for which m_quadrature and n_quadrature
# take the periodic trapezoidal rule.  The rule stops at a level within 8
# bits of N*, so it makes at most 513 integrand calls below the cap and
# 1,025 above, against the tanh-sinh route's 537 for n(alpha).  Measured at
# 140 bits (mpmath's Python backend, 2 vCPUs, best of 3 in each of 3 runs):
# n(alpha)'s rule takes 0.19-0.28 of the tanh-sinh route's time at
# N* = 1,000 (15-22 against 72-79 ms), 0.56-0.62 at N* = 1,350, and
# 0.44-0.61 at (7 - sqrt 5)/4^(1/3), N* = 1,470 (27-42 against 62-69 ms).
_PERIODIC_MAX_NODES = 1024
# The inner tolerance 10^-M_DIGITS of the m(alpha) series of every registry
# side (``registry.M``) and of m_series' default wherever 2^-(bits/2) is
# coarser: both form mpf(10) ** -M_DIGITS at bits + 64, so s_ratio's m(8)
# is the memo entry of the sides' m(8)
M_DIGITS = 42
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
    below 4, unless m(4) is within tol/2 of m(alpha).  tol defaults to
    min(2^-(bits/2), 10^-M_DIGITS), the registry sides' 1e-42 below 280
    bits, where s_ratio then meets their memo entries.  The series is
    memoised on (alpha, tol, ctx) (``series.shared``); the warning for the
    band just below 4 is given on every call."""
    with ctx.workprec(32):
        alpha = to_mpf(alpha)
        if alpha <= 0:
            raise DomainError("m_series requires alpha > 0")
        tol = (to_tol(tol) if tol is not None
               else min(ctx.default_tol, mpf(10) ** -M_DIGITS))
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
        r = alpha / 4
        a, b = as_ratio(r)
        terms = ratio_series(  # C(2n,n)^2 (r/4)^(2n)/(2n+1), r^2 a factor
            lambda n: ((2 * n - 1) ** 2, 4 * n * n),
            lambda n: (1, 2 * n + 1), x=Fraction(a * a, b * b))
        # r leaves the weight, so the sum is taken to tol/r and scaled by r
        return +(r * sum_geometric(terms, tol / r, ratio=r * r,
                                   max_terms=ctx.max_terms))


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


def _cmul(a, b, bits):
    """The product of two fixed-point complex pairs at ``bits`` fractional
    bits, each part floored once."""
    return ((a[0] * b[0] - a[1] * b[1]) >> bits,
            (a[0] * b[1] + a[1] * b[0]) >> bits)


def _periodic_trapezoid(f, period, gate, floor):
    """The mean of log f over one period by the periodic trapezoidal rule,
    for f positive, even, analytic on the real line and of rational period
    ``period``.

    With N nodes t_k = k period/N and f even, the rule is
    (1/N) log(f(t_0) f(t_{N/2}) (f(t_1) ... f(t_{N/2-1}))^2), where t_{N/2}
    is half a period.  Each doubling of N from 8 reuses the nodes before it;
    the rule stops once two levels differ by less than gate, at a level
    whose predicted error is within 8 bits of the working precision,
    N >= floor (prec - 8)/prec for the predicted node count N* = ``floor``
    (a small error prefactor can make two coarser levels agree early).

    f is called with the torus point y_k = e^(2 pi i t_k) as a fixed-point
    pair at F = prec + 64 fractional bits and returns a value m 2^e > 0 as
    the integer pair (m, e).  The values go into two running products, of
    the ends and of the inner nodes, floored to F + 8 bits after each
    product, and a level takes one ``mpf_log``, at F bits, of the ends times
    the inner product squared; the at most 4,100 floors of a run move the
    mean by less than 2^(2 - F).  The nodes come from a table of roots of
    unity: one ``mpf_cos_sin_pi`` per level gives w = e^(2 pi i period/N),
    floored at F bits; the first level's nodes are 1, w, w^2, w^3 = w^2 w
    and w^4 = w^2 w^2, and each later level's new nodes are the old ones
    times w, one complex integer product each.  With w within 3/2 units of
    2^-F in each part and every product floored once, a node of level N
    lies within (log2(N) + 1) 2.13 + log2(N) 1.42 < 4 log2(N) + 1 units of
    2^-F of e^(2 pi i k period/N), to first order: 49 units at N = 4,096.
    """
    prec = mp.prec
    enough = floor * (prec - 8) / prec
    with extraprec(32):
        bits = mp.prec + 32

        def root(n):  # e^(2 pi i period/n), floored at bits
            x = from_rational(2 * period.numerator, n * period.denominator,
                              bits + 8, round_nearest)
            return tuple(to_fixed(v, bits)
                         for v in mpf_cos_sin_pi(x, bits, round_nearest))

        def times(u, v):  # u v, floored to bits + 8 bits
            m, e = u[0] * v[0], u[1] + v[1]
            cut = m.bit_length() - bits - 8
            return (m >> cut, e + cut) if cut > 0 else (m, e)

        def mean(n):  # (2/n) (log f(t_0)/2 + ... + log f(t_{n/2})/2)
            m, e = times(times(ends, inner), inner)
            return mp.make_mpf(mpf_log(from_man_exp(m, e), bits,
                                       round_nearest)) / n

        n = 8
        w = root(n)
        w2 = _cmul(w, w, bits)
        ys = [(1 << bits, 0), w, w2, _cmul(w2, w, bits), _cmul(w2, w2, bits)]
        ends, inner = times(f(ys[0]), f(ys[-1])), (1, 0)
        for y in ys[1:-1]:
            inner = times(inner, f(y))
        value = mean(n)
        while n < 4 * _PERIODIC_MAX_NODES:  # gives up after 4,096 nodes
            n *= 2
            w = root(n)
            odd = [_cmul(y, w, bits) for y in ys[:-1]]
            for y in odd:
                inner = times(inner, f(y))
            ys = [y for pair in zip(ys, odd) for y in pair] + ys[-1:]
            value, prev = mean(n), value
            if n >= enough and abs(value - prev) < gate:
                return value
    raise QuadratureBudgetError(
        f"periodic rule still moves by {mp.nstr(abs(value - prev), 3)} at "
        f"{n} nodes")


def _m_node(alpha, y):
    """e^arccosh(w) = w + sqrt(w^2 - 1) where w = alpha/2 + Re y > 1, and 1
    elsewhere, as the pair (m, e) of ``_periodic_trapezoid``, for y at
    F = mp.prec + 32 fractional bits: w floored at F bits, its square root
    from ``math.isqrt``.  Each call counts as one term."""
    count_terms(1)
    bits = mp.prec + 32
    w = to_fixed(alpha._mpf_, bits - 1) + y[0]
    if w <= 1 << bits:
        return 1, 0
    return w + isqrt(w * w - (1 << 2 * bits)), -bits


def _m_integrand(alpha, t):
    """The log of ``_m_node`` at y = e^(2 pi i t) from one
    ``mpf_cos_sin_pi`` call, at F bits: the tanh-sinh route's integrand."""
    bits = mp.prec + 32
    m, e = _m_node(alpha, tuple(to_fixed(v, bits) for v in mpf_cos_sin_pi(
        mpf(2 * t)._mpf_, bits, round_nearest)))
    return mp.make_mpf(mpf_log(from_man_exp(m, e), bits, round_nearest))


def m_quadrature(alpha, ctx: PrecisionCtx = DEFAULT_CTX, tol=mpf("1e-8")) -> mpf:
    """Jensen-reduced integral for m(alpha), alpha >= 0: the mean over
    t in [0, 1] of arccosh(u/2) where u = alpha + 2 cos(2 pi t) > 2, and of
    zero elsewhere (u > -2).

    alpha = 0 is an exact 0.  The route and the role of tol are the module
    docstring's; the periodic rule runs over one period on its table
    nodes, and tanh-sinh (``_m_integrand``) with weight 2 over [0, 1/2], or
    over [0, t*] below 4, where the integrand vanishes beyond the u = 2
    crossing t* (a square-root kink).  Both routes evaluate ``_m_node``.
    """
    tol = to_tol(tol)
    prec = max(140, int(-mp.log(tol, 2)) + 80)
    with workprec(prec + 32):  # alpha, t* and the result at the sums' bits
        alpha = to_mpf(alpha)
        if alpha < 0:
            raise DomainError("m_quadrature requires alpha >= 0")
        if alpha == 0:
            return mpf(0)

        end = mpf(1) / 2
        if alpha > 4:
            nodes = prec * log(2) / acosh((alpha - 2) / 2)  # N*
            if nodes < _PERIODIC_MAX_NODES:
                with workprec(prec):
                    return _periodic_trapezoid(
                        lambda y: _m_node(alpha, y), 1,
                        mpf(2) ** (-(prec // 2)), nodes)
        elif alpha < 4:
            end = acos((2 - alpha) / 2) / (2 * pi)  # t*
        with workprec(prec):
            return +(2 * _quad_pieces(lambda t: _m_integrand(alpha, t),
                                      [mpf(0), end], tol / 2))


def _torus_point(t, bits):
    """y = e^(2 pi i t) and y^3 as fixed-point (re, im) pairs at ``bits``
    fractional bits, each floored from its own exponential of an argument
    rounded at the working precision, so that 1 + y^3 vanishes exactly at
    t = 1/2, and at t = 1/6 rounded at the working precision."""
    return tuple((to_fixed(c, bits), to_fixed(s, bits)) for c, s in (
        mpf_cos_sin_pi(mpf(2 * t)._mpf_, bits, round_nearest),
        mpf_cos_sin_pi(mpf(6 * t)._mpf_, bits, round_nearest)))


# Newton steps allowed to _disk_root: from its float seed's ~50 bits it
# reaches ~50,000 bits
_ROOT_STEPS = 12
_UNITY = (1, complex(-0.5, 0.75 ** 0.5), complex(-0.5, -0.75 ** 0.5))


def _cubic_root_norms(alpha, y, y3):
    """(F', [|x_0|^2, |x_1|^2, |x_2|^2]): the squared root magnitudes of
    x^3 - alpha y x + 1 + y^3 at 2F' fractional bits, for y and y^3
    fixed-point pairs at F = mp.prec + 32 bits, by Newton's iteration for
    the largest root and the quadratic it leaves, on integers, scaled by
    2^k, F' = F + k (see ``_cubic_root_mags``), as the tanh-sinh route
    takes them."""
    bits = mp.prec + 32
    one = 1 << bits
    a = to_fixed(mpf(alpha)._mpf_, bits)
    (yr, yi), (zr, zi) = y, y3
    if one + zr == zi == 0:  # x (x^2 - alpha y): 0 and +-sqrt(alpha y)
        return bits, [0, a << bits, a << bits]
    ay, q = (a * yr, a * yi), (one + zr, zi)
    # X = 2^k x brings the largest root magnitude M near 1 (k >= 0)
    k = max(0, min((2 * bits - max(map(abs, ay)).bit_length()) // 2,
                   (bits - max(map(abs, q)).bit_length()) // 3))
    ay, q = (ay[0] << 2 * k, ay[1] << 2 * k), (q[0] << 3 * k, q[1] << 3 * k)
    seed = _float_roots(complex(ay[0] / one ** 2, ay[1] / one ** 2),
                        complex(q[0] / one, q[1] / one))[-1]
    (xr, xi), (vr, vi) = _certified_root(ay, q, bits, seed,
                                         complex(yr / one, yi / one))
    dr, di = ay[0] + 3 * vr, ay[1] + 3 * vi  # (x_2 - x_3)^2, at 2F bits
    m = isqrt(dr * dr + di * di)  # its square root s, up to sign
    if dr >= 0:
        sr = isqrt((m + dr) >> 1)
        si = di // (2 * sr) if sr else 0
    else:
        si = isqrt((m - dr) >> 1)
        sr = abs(di) // (2 * si)
        si = -si if di < 0 else si
    # |x_1 + s|^2 - |x_1 - s|^2 = 4 Re(x_1 conj(s)), exactly
    if xr * sr + xi * si > 0:
        br, bi = -xr - sr, -xi - si
    else:
        br, bi = sr - xr, si - xi
    n = br * br + bi * bi  # 4 |x_2|^2; |x_3| = |alpha y - x_1^2|/|x_2|
    return bits + k, [xr * xr + xi * xi, n >> 2,
                      ((vr * vr + vi * vi) << 2) // n]


def _cubic_root_mags(alpha, t, point=None):
    """|roots| of x^3 - alpha y x + 1 + y^3, y = e^(2 pi i t); ``point`` is
    y and y^3 as ``_torus_point`` gives them at F = mp.prec + 32 bits,
    computed from t when not given.

    The cubic is depressed, so a largest root x_1, of magnitude M, is at
    least M from each other root, |x_1 - x_j| = |2 x_1 + x_k| >= M: it is
    simple, |f'(x_1)| >= M^2, and Newton's iteration is well conditioned
    there even at a double root.  The other two roots solve
    x^2 + x_1 x + x_1^2 - alpha y = 0; with s^2 = 4 alpha y - 3 x_1^2 =
    (x_2 - x_3)^2 the larger is x_2 = (-x_1 -+ s)/2, its sign from the exact
    sign of Re(x_1 conj(s)) (no cancellation), and |x_3| = |x_2 x_3|/|x_2|
    with x_2 x_3 = x_1^2 - alpha y.  Where 1 + y^3 = 0 the cubic is
    x (x^2 - alpha y), and its squared magnitudes 0, alpha, alpha are taken
    directly: at alpha = 0 it is x^3, whose triple root no scaling brings
    near 1.

    It runs on Python integers: alpha y at 2F and q = 1 + y^3 at F
    fractional bits are exact from alpha, y and y^3 floored at F bits.
    The cubic is scaled to X = 2^k x, k >= 0 from their bit lengths, so
    that 1/5 < 2^k M < 3/2 or k = 0, which multiplies them by 2^(2k) and
    2^(3k) exactly; ``_disk_root`` finds x_1 at F bits from the
    largest float Cardano root (``_float_roots``), ``_certified_root``
    refuses it unless |f/f'| <= 2^-(P/2), P = mp.prec, and s comes from
    ``math.isqrt``.  The magnitudes come back unrounded at F + k bits.
    With u = 2^-(F + k), x_1 lies within about 2 u of a root of the
    fixed-point cubic.  s^2 is formed exactly from x_1, whose error moves
    it by at most 12 M u, so s errs by 12 M u/(2 |s|) + u, or by
    sqrt(12 M u) where |s| is smaller; x_1^2 - alpha y errs by 4 M u, and
    |x_2| >= M/2.  To first order each magnitude is thus within
        2^4 u (1 + M/max(|x_2 - x_3|, sqrt(M u)))
    of the fixed-point cubic's, which grows only near a double root.  The
    floors of alpha, y and y^3 move a simple root x_i by at most
    (2 + (1 + 2 alpha) |x_i|) 2^-F/|f'(x_i)| more: the conditioning of the
    cubic itself, large near a double root and at the triple root.
    """
    bits, norms = _cubic_root_norms(
        alpha, *(point or _torus_point(t, mp.prec + 32)))
    return [mp.make_mpf(from_man_exp(isqrt(n), -bits)) for n in norms]


def _float_roots(ay: complex, q: complex) -> list:
    """The roots of x^3 - ay x + q, ay and q not both 0, by Cardano's
    formula in floats, smallest first: c w^k - p/(3 c w^k), w = e^(2 pi i/3),
    p = -ay, c^3 the larger of -q/2 +- sqrt(q^2/4 + (p/3)^3)."""
    p3, h = -ay / 3, q / 2
    d = (h * h + p3 ** 3) ** 0.5
    c = (-h - d if abs(h + d) > abs(h - d) else d - h) ** (1 / 3)
    return sorted((c * w - p3 / (c * w) for w in _UNITY), key=abs)


def _disk_seed(alpha: float, y: complex, q: complex) -> complex:
    """A float seed for the root of x^3 - alpha y x + q inside the unit
    disk, alpha > 3: -q/(x_1 x_2) for the two larger of ``_float_roots``
    (Vieta), which keeps its relative accuracy where the inner root is
    small; from alpha = 2^30 on, where (alpha/3)^3 nears the float range,
    q/(alpha y), within 4/alpha^3 of the root relatively."""
    if alpha >= 2 ** 30:
        return q / (alpha * y)
    x = _float_roots(alpha * y, q)
    return -q / (x[1] * x[2])


def _cubic_at(x, ay, q, bits):
    """alpha y - x^2 and f'(x) at 2P and f(x) = q - x (alpha y - x^2) at 3P
    fractional bits, exactly, for f(x) = x^3 - alpha y x + q, x and q at
    P = ``bits`` fractional bits and alpha y at 2P."""
    (xr, xi), (ar, ai), (qr, qi) = x, ay, q
    sr, si = xr * xr - xi * xi, 2 * xr * xi
    vr, vi = ar - sr, ai - si
    return ((vr, vi), (3 * sr - ar, 3 * si - ai),
            ((qr << 2 * bits) - xr * vr + xi * vi,
             (qi << 2 * bits) - xr * vi - xi * vr))


def _disk_root(ay, q, bits, seed):
    """The root of f(x) = x^3 - alpha y x + q near the complex float
    ``seed`` at F = ``bits`` fractional bits, for alpha y at 2F and q at F
    bits, by Newton's step x <- x - f(x)/f'(x) from 64 bits up: a step at P
    bits takes ``_cubic_at`` on alpha y and q floored to 2P and P bits and
    floors f/f'.  A step that moves x by about 2^-k leaves it within about
    2^-(2k - 8) of the root (8 bits for the curvature |f''/f'|: near
    alpha = 3 for the root inside the unit disk, and for a largest root
    scaled to a magnitude near 1), so the next runs at
    min(F, 2 min(P, 2k - 8)) bits; at F the iteration stops once 2k - 8
    reaches F, and past _ROOT_STEPS steps it raises ArithmeticError."""
    p = 64
    xr, xi = int(ldexp(seed.real, p)), int(ldexp(seed.imag, p))
    for _ in range(_ROOT_STEPS):
        cut = bits - p
        _, (dr, di), (fr, fi) = _cubic_at(
            (xr, xi), (ay[0] >> 2 * cut, ay[1] >> 2 * cut),
            (q[0] >> cut, q[1] >> cut), p)
        n = dr * dr + di * di
        er, ei = (fr * dr + fi * di) // n, (fi * dr - fr * di) // n
        xr, xi = xr - er, xi - ei
        good = 2 * (p - max(abs(er), abs(ei)).bit_length()) - 8
        if p == bits and good >= bits:
            return xr, xi
        step = min(bits, 2 * min(p, good)) - p
        if step > 0:
            xr, xi, p = xr << step, xi << step, p + step
    raise ArithmeticError(f"root still moving after {_ROOT_STEPS} Newton "
                          f"steps")


def _certified_root(ay, q, bits, seed, at):
    """``_disk_root``'s root x of f(x) = x^3 - alpha y x + q and
    alpha y - x^2 at 2F bits, F = ``bits``, once x passes
    |f(x)/f'(x)| <= 2^-g, g = mp.prec // 2, exact from ``_cubic_at``; as
    f'/f = sum_i 1/(x - x_i), a root then lies within 3 |f/f'| of x.  A
    failure raises ArithmeticError naming the node y = ``at``."""
    x = _disk_root(ay, q, bits, seed)
    v, (dr, di), (fr, fi) = _cubic_at(x, ay, q, bits)
    gate = mp.prec // 2
    if (fr * fr + fi * fi) << 2 * gate > (dr * dr + di * di) << 2 * bits:
        raise ArithmeticError(f"root at node y = {at}: residual over |f'| "
                              f"above 2^-{gate}")
    return x, v


def _n_node(alpha, y):
    """The periodic rule's n(alpha) node value |alpha y - x^2|^2 as the pair
    (m, -4F), exact, for alpha > 3, y a table node at F = mp.prec + 32 bits
    with y^3 from two integer products, and x the root of
    f(x) = x^3 - alpha y x + 1 + y^3 inside the unit disk: half its log is
    sum_i log+ |x_i| (module docstring).  Each call counts as one term.

    x (``_certified_root``) lies within 3 |f/f'| <= 3 2^-g, g = mp.prec // 2,
    of a root, and |x| + 3 2^-g < 1 puts that root inside the unit disk,
    which by Rouche holds only one; a failure raises ArithmeticError.  As
    |d log|alpha y - x^2|/dx| <= 2/(alpha - 1) in the disk, half the log is
    then within 6 |f/f'|/(alpha - 1) of the exact root's."""
    count_terms(1)
    bits, gate = mp.prec + 32, mp.prec // 2
    one = 1 << bits
    y3 = _cmul(_cmul(y, y, bits), y, bits)
    a = to_fixed(alpha._mpf_, bits)
    ay, q = (a * y[0], a * y[1]), (one + y3[0], y3[1])
    at = complex(y[0] / one, y[1] / one)
    x, (vr, vi) = _certified_root(ay, q, bits, _disk_seed(
        float(alpha), at, complex(q[0] / one, q[1] / one)), at)
    if x[0] * x[0] + x[1] * x[1] >= (one - (3 << bits - gate)) ** 2:
        raise ArithmeticError(f"root at node y = {at} not certified inside "
                              f"the unit disk (Rouche)")
    return vr * vr + vi * vi, -4 * bits


def _n_integrand(alpha, t):
    """``_log_plus`` at y = e^(2 pi i t), with y and y^3 from the two
    exponentials of ``_torus_point``: the tanh-sinh route's integrand, whose
    roots ``_check_root_mags`` checks at the ends of its pieces."""
    return _log_plus(*_cubic_root_norms(alpha, *_torus_point(t, mp.prec + 32)))


def _log_plus(bits, norms):
    """sum_i log+ |x_i| for the squared root magnitudes ``norms`` at 2F
    fractional bits, F = ``bits``, as half the log of the product of those
    above 1, at F bits; each call counts as one term."""
    count_terms(1)
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
    """Cross-check the integer root magnitudes against polyroots, both at
    the one torus point ``_torus_point`` gives for each t."""
    gate = mpf(2) ** (-(mp.prec // 2))
    bits = mp.prec + 32
    for t in points:
        point = _torus_point(t, bits)
        y, y3 = (mp.make_mpc(tuple(from_man_exp(v, -bits) for v in z))
                 for z in point)
        if alpha == 0 and 1 + y3 == 0:
            continue  # x^3 itself: exact, and polyroots cannot converge on it
        roots = polyroots([mpf(1), mpf(0), -alpha * y, 1 + y3],
                          maxsteps=160, extraprec=80)
        ref = sorted(abs(r) for r in roots)
        got = sorted(_cubic_root_mags(alpha, t, point))
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
    """Jensen-reduced integral for n(alpha) = m(x^3 + y^3 + 1 - alpha x y),
    the mean of sum_i log+ |x_i(t)| over the roots x_i of the cubic in x.

    The route and the role of tol are the module docstring's: the periodic
    rule over one period of 1/3 on ``_n_node``, the one root inside the unit
    disk, and tanh-sinh over [0, 1/6] with weight 6, split at the kinks of
    ``_n_breakpoints``, on all three magnitudes (``_n_integrand``), which
    polyroots cross-checks at the ends of the pieces.  Either way each
    Newton root passes ``_certified_root``'s gate or ArithmeticError is
    raised: its correction |f/f'| must be at most 2^(-P/2), P the working
    precision (prec + 32 at the periodic rule's nodes, and mpmath's raised
    precision in tanh-sinh).
    """
    tol = to_tol(tol)
    prec = max(140, int(-mp.log(tol, 2)) + 80)
    with workprec(prec + 32):  # alpha at the sums' bits
        alpha = to_mpf(alpha)
    with workprec(prec):
        if alpha < 0:
            raise DomainError("n_quadrature requires alpha >= 0")

        if alpha > 3:
            nodes = prec * log(2) / acosh(2 * alpha ** 3 / 27 - 1)  # N*
            if nodes < _PERIODIC_MAX_NODES:  # the mean of 2 sum log+ |x_i|
                return mp.make_mpf(mpf_shift(_periodic_trapezoid(
                    lambda y: _n_node(alpha, y), _THIRD,
                    mpf(2) ** (1 - prec // 2), nodes)._mpf_, -1))
        points = [mpf(0)] + _n_breakpoints(alpha) + [mpf(1) / 6]
        _check_root_mags(alpha, points)
        return +(6 * _quad_pieces(lambda t: _n_integrand(alpha, t), points,
                                  tol / 6))
