"""Two independent evaluators for the Mahler measures m(alpha) and n(alpha).

m(alpha) = m(alpha + x + 1/x + y + 1/y) has central-binomial series on both
sides of alpha = 4:

    m(4/r) = log(4/r) - sum_{n>=1} C(2n,n)^2 (r/4)^(2n) / (2n)
           = log(4/r) - Lambda_{1/2}(r^2)/2,
    m(4r)  = 4 sum_{n>=0} C(2n,n)^2 (r/4)^(2n+1) / (2n+1),      r in (0, 1]

where Lambda_s(z) = sum_{n>=1} (s)_n (1-s)_n/n!^2 z^n/n is the kernel of
``numkernel.lambda_series``, continued to z -> 1 by the logarithmic
connection formula, so the alpha >= 4 branch costs a few dozen terms even
at alpha = 4.  The kernel's real part continues past z = 1 along the real
axis, and m(alpha) = log(alpha) - Re Lambda_{1/2}(16/alpha^2)/2 holds below
4 as well: m_series takes it wherever 16/alpha^2 < 2 - LAMBDA_SWITCH,
alpha > 4/sqrt(1.35) = 3.443, where the connection expansion in
w = 1 - 16/alpha^2 converges like |w|^n, fastest next to 4, and the
binomial series of m(4r) below that, where its terms fall like r^(2n),
r^2 < 0.741.  Both series are stepped on integers (``series``), their
rational term ratios as narrow integer pairs and z = 16/alpha^2, or r^2
below 3.443, as one fixed-point factor of the ratio (``ratio_series``' x),
and summed at guard bits with a geometric tail bound.  In the binomial
series r leaves the weight: the sum of C(2n,n)^2 (r/4)^(2n)/(2n+1) is taken
to tol/r and multiplied by r, so its stop test is the one of the sum with r
inside, divided through by r.  There is a quadrature oracle via Jensen's
formula in x for alpha > 4: with u(t) = alpha + 2 cos(2 pi t) > 2 the inner
integral is arccosh(u/2), the log of w + sqrt(w^2 - 1), w = u/2, which a
node gives with an integer square root.

Both quadrature oracles take one rule, the periodic trapezoidal rule, and
serve only where their integrand is even, periodic and analytic: alpha > 4
for m and alpha > 3 for n.  At or below those branch points they raise
DomainError, and the series routes serve.  For an integrand analytic in the
strip |Im t| < a the rule errs by about e^(-2 pi a N/P) at N nodes per
period P (Trefethen and Weideman, SIAM Review 56, 2014), so it needs about
N* nodes, with e^(-2 pi a N*/P) = 2^-prec.  N doubles from 8, reusing every
node, until two levels agree to 2^(-prec/2) at a level within 8 bits of N*.
A predicted N* at or above the rule's budget, _PERIODIC_MAX_NODES, raises
QuadratureBudgetError before any node is evaluated, naming the series
route: N* grows without bound as alpha falls to the branch point.  tol sets
the working precision, max(140, -log2(tol) + 80) bits; the value comes out
at about that precision, far below tol.  The rule's nodes
y = e^(2 pi i t) are the exact t = k P/N up to a few units of
2^-(prec + 64): they come from a table of roots of unity on integers, one
exponential per level and one complex integer product per node, and the
integrands take y itself.  Each node returns a positive integer value whose
log is the integrand, and the rule takes one logarithm per level, of the
product of the values.  alpha is taken at the 32 guard bits of the periodic
sums, the periodic sum is returned unrounded, and every integrand call
counts as one term.

For m(alpha), alpha > 4, the integrand arccosh((alpha + 2 cos 2 pi t)/2) is
even, 1-periodic and analytic; its nearest singularity is where
u = 2, at 2 pi Im t = arccosh((alpha - 2)/2), so
N* = prec log 2/arccosh((alpha - 2)/2) (50 at alpha = 9 and 140 bits).
N* grows like (alpha - 4)^(-1/2) and reaches the budget for
alpha < 4.00056 at 140 bits.

n(alpha) = m(x^3 + y^3 + 1 - alpha x y) has Rodriguez-Villegas's series for
alpha > 3,

    n(alpha) = log(alpha) - (1/3) sum_{n>=1} (3n)!/(n n!^3) alpha^(-3n)
             = log(alpha) - Lambda_{1/3}(27/alpha^3)/3,

through the same kernel, and a quadrature oracle on the same domain: the
cubic in x is monic, so Jensen gives the sum of log+ of its root
magnitudes.  The polynomial is invariant under (x, y) -> (w^2 x, w y),
w = e^(2 pi i/3), and under complex conjugation, so that integrand has
period 1/3 in t (y = e^(2 pi i t)) and is even.  Near alpha = 3 the curve
is close to three lines meeting the torus at t = 0, 1/3, 2/3.  The rule
runs on Python integers at 32 bits above the working precision, and its
node values and sums keep those bits.

For alpha > 3 the polynomial has no zero on the torus, since there
|x^3 + y^3 + 1| <= 3 < alpha = |alpha x y|.  By Rouche's theorem exactly
one root x_3 lies inside the unit disk, so by Vieta the integrand is
log |x_1 x_2| = log |alpha y - x_3^2|, and the rule's node solves for x_3
alone (``_n_node``).  The integrand is analytic; its nearest
singularities are the branch points of the roots, where the discriminant
4 alpha^3 y^3 - 27 (1 + y^3)^2 vanishes, at y^3 = Y+ and 1/Y+ with Y+ the
larger root of
Y^2 + (2 - 4 alpha^3/27) Y + 1 = 0.  The trapezoidal rule with N nodes per
period then errs by about Y+^(-N), so it needs about
N* = prec log 2/log Y+ nodes, with log Y+ = acosh(2 alpha^3/27 - 1).
N* is 1,470 at alpha_2 = (7 - sqrt 5)/4^(1/3) = 3.0011 and 140 bits, and
reaches the budget for alpha < 3.00014 at 140 bits.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, ldexp

from mpmath import acosh, extraprec, log, mp, mpf, workprec
# Bound only for the benchmark's tracer, which looks both names up here; no
# code calls them.  They go when the benchmark drops its mahler.quad and
# mahler.polyroots layers.
from mpmath import polyroots, quad
from mpmath.libmp import (from_man_exp, from_rational, mpf_cos_sin_pi,
                          mpf_log, mpf_shift, round_nearest, to_fixed)

from .context import (DEFAULT_CTX, DivergentSeriesError, DomainError,
                      PrecisionCtx, QuadratureBudgetError, to_mpf, to_tol)
from .numkernel import LAMBDA_SWITCH, lambda_series
from .series import (as_ratio, count_terms, ratio_series, shared,
                     sum_geometric)

# The periodic rule's node budget per period: the doubling stops there, and
# a predicted node count N* at or above it is refused before any node is
# evaluated, so the rule makes at most 2,049 integrand calls
_PERIODIC_MAX_NODES = 4096
# The inner tolerance 10^-M_DIGITS of the m(alpha) series of every registry
# side (``registry.M``) and of m_series' default wherever 2^-(bits/2) is
# coarser: both form mpf(10) ** -M_DIGITS at bits + 64, so s_ratio's m(8)
# is the memo entry of the sides' m(8)
M_DIGITS = 42
_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


def m_series(alpha, ctx: PrecisionCtx = DEFAULT_CTX, tol=None) -> mpf:
    """m(alpha) by the kernel, log(alpha) - Re Lambda_{1/2}(16/alpha^2)/2,
    for 16/alpha^2 < 2 - LAMBDA_SWITCH (alpha > 3.443), and by the binomial
    series of m(4r) below that; either takes at most a few hundred terms at
    tol 1e-42.  tol defaults to min(2^-(bits/2), 10^-M_DIGITS), the
    registry sides' 1e-42 below 280 bits, where s_ratio then meets their
    memo entries.  The series is memoised on (alpha, tol, ctx)
    (``series.shared``)."""
    with ctx.workprec(32):
        alpha = to_mpf(alpha)
        if alpha <= 0:
            raise DomainError("m_series requires alpha > 0")
        tol = (to_tol(tol) if tol is not None
               else min(ctx.default_tol, mpf(10) ** -M_DIGITS))
    return _m_series(alpha, tol, ctx)


@shared
def _m_series(alpha: mpf, tol: mpf, ctx: PrecisionCtx) -> mpf:
    with ctx.workprec(32):
        with ctx.workprec(64):
            z = 16 / alpha ** 2
        if z < 2 - LAMBDA_SWITCH:
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
    -1 < 27x <= 1, where the series converges, and raises
    DivergentSeriesError outside, though the kernel's real part goes on to
    27x < 2: there it is not n(alpha).  (3n)!/n!^3 = 27^n (1/3)_n (2/3)_n /
    n!^2."""
    with ctx.workprec(32):
        z = 27 * to_mpf(x)
        if not -1 < z <= 1:
            raise DivergentSeriesError("rv_series needs -1 < 27x <= 1")
        return lambda_series(_THIRD, z, ctx, tol=tol)


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
        while n < _PERIODIC_MAX_NODES:
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
    """e^arccosh(w) = w + sqrt(w^2 - 1), w = alpha/2 + Re y, as the pair
    (m, e) of ``_periodic_trapezoid``, for y at F = mp.prec + 32 fractional
    bits: w floored at F bits, its square root from ``math.isqrt``.  Each
    call counts as one term.  Every admitted alpha has
    (alpha - 2)/2 > cosh(140 log 2/_PERIODIC_MAX_NODES) > 1.0002, so w > 1
    whatever y."""
    count_terms(1)
    bits = mp.prec + 32
    w = to_fixed(alpha._mpf_, bits - 1) + y[0]
    return w + isqrt(w * w - (1 << 2 * bits)), -bits


def _node_count(prec, decay, series) -> mpf:
    """N* = prec log 2/decay, the periodic rule's predicted node count at
    ``prec`` bits for an integrand whose error decays like e^(-decay N);
    at or above _PERIODIC_MAX_NODES it raises QuadratureBudgetError naming
    the ``series`` route."""
    if decay * _PERIODIC_MAX_NODES <= prec * log(2):
        raise QuadratureBudgetError(
            f"the periodic rule needs {_PERIODIC_MAX_NODES} nodes or more at "
            f"{prec} bits this close to the branch point; take {series}")
    return prec * log(2) / decay


def m_quadrature(alpha, ctx: PrecisionCtx = DEFAULT_CTX, tol=mpf("1e-8")) -> mpf:
    """Jensen-reduced integral for m(alpha), alpha > 4: the mean over
    t in [0, 1] of arccosh(u/2), u = alpha + 2 cos(2 pi t), by the periodic
    rule over one period on its table nodes (``_m_node``).

    The rule, its node budget and the role of tol are the module
    docstring's.  At or below 4 it raises DomainError, and m_series serves.
    """
    tol = to_tol(tol)
    prec = max(140, int(-mp.log(tol, 2)) + 80)
    with workprec(prec + 32):  # alpha and the result at the sums' bits
        alpha = to_mpf(alpha)
        if not alpha > 4:
            raise DomainError("m_quadrature requires alpha > 4, where its "
                              "integrand is analytic; m_series serves alpha > 0")
        nodes = _node_count(prec, acosh((alpha - 2) / 2), "m_series")
        with workprec(prec):
            return _periodic_trapezoid(lambda y: _m_node(alpha, y), 1,
                                       mpf(2) ** (-(prec // 2)), nodes)


# Newton steps allowed to _disk_root: from its float seed's ~50 bits it
# reaches ~50,000 bits
_ROOT_STEPS = 12
_UNITY = (1, complex(-0.5, 0.75 ** 0.5), complex(-0.5, -0.75 ** 0.5))


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
    2^-(2k - 8) of the root (8 bits for the curvature |f''/f'| near
    alpha = 3), so the next runs at
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


def n_quadrature(alpha, ctx: PrecisionCtx = DEFAULT_CTX, tol=mpf("1e-8")) -> mpf:
    """Jensen-reduced integral for n(alpha) = m(x^3 + y^3 + 1 - alpha x y),
    alpha > 3: the mean of sum_i log+ |x_i(t)| over the roots x_i of the
    cubic in x, by the periodic rule over one period of 1/3 on ``_n_node``,
    the one root inside the unit disk.

    The rule, its node budget and the role of tol are the module
    docstring's.  Each Newton root passes ``_certified_root``'s gate or
    ArithmeticError is raised: its correction |f/f'| must be at most
    2^(-P/2), P = prec + 32 the precision at the rule's nodes.  At or below
    3 it raises DomainError: n_series serves the same domain.
    """
    tol = to_tol(tol)
    prec = max(140, int(-mp.log(tol, 2)) + 80)
    with workprec(prec + 32):  # alpha at the sums' bits
        alpha = to_mpf(alpha)
    with workprec(prec):
        if not alpha > 3:
            raise DomainError("n_quadrature requires alpha > 3, where its "
                              "integrand is analytic, the domain of n_series")
        nodes = _node_count(prec, acosh(2 * alpha ** 3 / 27 - 1), "n_series")
        # the mean of 2 sum log+ |x_i|
        return mp.make_mpf(mpf_shift(_periodic_trapezoid(
            lambda y: _n_node(alpha, y), _THIRD,
            mpf(2) ** (1 - prec // 2), nodes)._mpf_, -1))
