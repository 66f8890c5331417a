"""Special functions at configurable precision: real Gamma, principal-branch
dilogarithm, the Bloch-Wigner function D, the arithmetic-geometric mean and
integer zeta values.

Real/complex scalars are mpmath ``mpf``/``mpc`` values; exact rationals are
``fractions.Fraction``.  Gamma and zeta are delegated to mpmath's
correctly-rounded implementations; Li2, D and the AGM are written out here
because their branch and termination behaviour is what the identity checks
lean on.
"""

from __future__ import annotations

from mpmath import (arg, bernoulli, im, isint, log, mp, mpc, mpf, pi,
                    workprec)
from mpmath import gamma as _mp_gamma
from mpmath import zeta as _mp_zeta

from .context import (ConvergenceError, DomainError, PoleError, PrecisionCtx,
                      ensure_ctx, to_mpf)

GUARD_LI2 = 24  # extra bits sought from the Li2 kernels beyond ctx.bits


def gamma_real(x, ctx: PrecisionCtx | None = None) -> mpf:
    """Gamma(x) for real x, PoleError at non-positive integers."""
    ctx = ensure_ctx(ctx)
    with ctx.workprec():
        x = to_mpf(x)
        if x <= 0 and isint(x):
            raise PoleError(f"Gamma pole at {mp.nstr(x, 8)}")
        return +_mp_gamma(x)


def zeta_int(s: int, ctx: PrecisionCtx | None = None) -> mpf:
    """zeta(s) for integer s >= 2."""
    ctx = ensure_ctx(ctx)
    if s != int(s) or s <= 1:
        raise DomainError("zeta_int requires an integer s >= 2")
    with ctx.workprec():
        return +_mp_zeta(int(s))


def agm(a, b, ctx: PrecisionCtx | None = None) -> mpf:
    """Arithmetic-geometric mean of positive reals, quadratic convergence."""
    ctx = ensure_ctx(ctx)
    with ctx.workprec():
        a, b = to_mpf(a), to_mpf(b)
        if a <= 0 or b <= 0:
            raise DomainError("agm requires positive arguments")
        eps = mpf(2) ** (-(ctx.bits + 16))
        while abs(a - b) > eps * a:
            a, b = (a + b) / 2, (a * b) ** mpf("0.5")
        return +a


def _li2_taylor(z: mpc, eps: mpf, max_terms: int) -> mpc:
    # sum z^n/n^2, |z| < 1; after adding z^n/n^2 the tail is bounded by
    # |z|^(n+1)/(1-|z|), i.e. |power|/(1-r) with power the next numerator
    total = mpc(0)
    power = z
    tail = 1 / (1 - abs(z))
    n = 1
    while True:
        total += power / (n * n)
        power *= z
        if abs(power) * tail < eps:
            return total
        n += 1
        if n > max_terms:
            raise ConvergenceError("Li2 series budget exhausted")


def _li2_log_series(z: mpc, eps: mpf, max_terms: int) -> mpc:
    # Li2(z) = sum_{j>=0} B_j * w^(j+1)/(j+1)!,  w = -log(1-z), |w| < 2*pi.
    # |B_{2m}| <= 2.3*(2m)!/(2*pi)^(2m), so the term bound decays like
    # (|w|/2pi)^(2m) and gives a rigorous stopping rule.
    w = -log(1 - z)
    absw = abs(w)
    q = (absw / (2 * pi)) ** 2
    total = w - w * w / 4  # j = 0 and j = 1 (B_0 = 1, B_1 = -1/2)
    wpow = w ** 3  # w^(j+1) at j = 2
    fact = mpf(6)  # (j+1)! at j = 2
    j = 2
    while True:
        total += bernoulli(j) * wpow / fact
        bound = mpf("2.3") * absw * q ** (j // 2 + 1) / (1 - q)
        if bound < eps:
            return total
        wpow *= w * w
        fact *= (j + 2) * (j + 3)
        j += 2
        if j > max_terms:
            raise ConvergenceError("Li2 log-series budget exhausted")


def li2_complex(z, ctx: PrecisionCtx | None = None) -> mpc:
    """Principal-branch dilogarithm Li2(z), branch cut along [1, oo).

    Defining series inside |z| <= 0.55; reflection z -> 1-z and inversion
    z -> 1/z move everything else into that disk except a neighbourhood of
    the two sextic fixed points e^(+-i*pi/3), where the log-series in
    w = -log(1-z) (Bernoulli coefficients) converges geometrically.

    On the cut itself (real z > 1) the value is the limit from below,
    Im Li2(x - i0); use the side you mean explicitly if it matters.
    """
    ctx = ensure_ctx(ctx)
    with ctx.workprec(32):
        z = mpc(z)
        eps = mpf(2) ** (-(ctx.bits + GUARD_LI2))
        return +_li2(z, eps, ctx.max_terms)


def _li2(z: mpc, eps: mpf, max_terms: int) -> mpc:
    if z == 0:
        return mpc(0)
    if z == 1:
        return mpc(pi ** 2 / 6)
    if abs(z) > mpf("1.25"):
        # Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2/2
        return -_li2(1 / z, eps, max_terms) - pi ** 2 / 6 - log(-z) ** 2 / 2
    if abs(z) <= mpf("0.55"):
        return _li2_taylor(z, eps, max_terms)
    if abs(1 - z) <= mpf("0.55"):
        # Li2(z) + Li2(1-z) = pi^2/6 - log(z) log(1-z)
        return pi ** 2 / 6 - log(z) * log(1 - z) - _li2_taylor(1 - z, eps, max_terms)
    return _li2_log_series(z, eps, max_terms)


def bloch_wigner(z, ctx: PrecisionCtx | None = None) -> mpf:
    """Bloch-Wigner dilogarithm D(z) = Im Li2(z) + arg(1-z) log|z|.

    Single-valued and real on all of C; vanishes on the real line, and
    D(0) = D(1) = 0 by continuity.
    """
    ctx = ensure_ctx(ctx)
    with ctx.workprec(32):
        z = mpc(z)
        if z.imag == 0:
            return mpf(0)
        eps = mpf(2) ** (-(ctx.bits + GUARD_LI2))
        val = im(_li2(z, eps, ctx.max_terms)) + arg(1 - z) * log(abs(z))
        return +val
