"""Theta function phi(q), the cubic eta-quotient x(q), the signature-3 nome
q(beta) and J-expression in beta, and the degree-2 modular relation
connecting x(sqrt(q)), x(q) and x(q^2).

Signature 3 is Ramanujan's alternative theory built on 2F1(1/3,2/3;1;.)
(Berndt, Bhargava and Garvan, "Ramanujan's theories of elliptic functions
to alternative bases", 1995).  Its nome comes from Borwein's cubic AGM
(``numkernel.agm3``), as ``elliptic.periods`` takes the signature-2 nome
from the classical one.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import cbrt, exp, mp, mpf, pi, polyroots, sqrt

from .context import (DomainError, PrecisionCtx, RootIdentificationError,
                      ensure_ctx, to_mpf)
from .numkernel import agm3


def phi_theta(q, ctx: PrecisionCtx | None = None) -> mpf:
    """phi(q) = sum_{n in Z} q^(n^2), |q| < 1 (super-geometric tail)."""
    ctx = ensure_ctx(ctx)
    with ctx.workprec():
        q = to_mpf(q)
        if not abs(q) < 1:
            raise DomainError("phi_theta requires |q| < 1")
        eps = mpf(2) ** (-(ctx.bits + 16))
        total = mpf(1)
        n = 1
        while True:
            t = 2 * q ** (n * n)
            total += t
            if abs(t) < eps:
                return +total
            n += 1


def xq_product(q, ctx: PrecisionCtx | None = None) -> mpf:
    """x(q) = 1 + 27 q prod_{n>=1} ((1-q^(3n))/(1-q^n))^12."""
    ctx = ensure_ctx(ctx)
    with ctx.workprec():
        q = to_mpf(q)
        if not abs(q) < 1:
            raise DomainError("xq_product requires |q| < 1")
        eps = mpf(2) ** (-(ctx.bits + 24))
        prod = mpf(1)
        n = 1
        while True:
            qn = q ** n
            prod *= ((1 - qn ** 3) / (1 - qn)) ** 12
            # log-tail of the product is below 13*sum_{m>n} |q|^m
            if 13 * abs(qn) * abs(q) / (1 - abs(q)) < eps:
                return +(1 + 27 * q * prod)
            n += 1


def q3_from_beta(beta, ctx: PrecisionCtx | None = None) -> mpf:
    """Signature-3 nome exp(-(2 pi/sqrt 3) F(1-beta)/F(beta)),
    F = 2F1(1/3, 2/3; 1; .), with F(x) = 1/agm3(1, (1-x)^(1/3)):

        q = exp(-(2 pi/sqrt 3) agm3(1, (1-beta)^(1/3))/agm3(1, beta^(1/3))).
    """
    ctx = ensure_ctx(ctx)
    with ctx.workprec(16):
        beta = to_mpf(beta)
        if not 0 < beta < 1:
            raise DomainError("beta must lie in (0, 1)")
        ratio = agm3(1, cbrt(1 - beta), ctx) / agm3(1, cbrt(beta), ctx)
        return +exp(-2 * pi / sqrt(3) * ratio)


def j3_from_beta(beta: Fraction) -> Fraction:
    """Signature-3 J-invariant g2^3/(g2^3-27*g3^2) = (1+8b)^3/(64 b (1-b)^3)."""
    beta = Fraction(beta)
    if beta in (0, 1):
        raise DomainError("J has poles at beta in {0, 1}")
    return (1 + 8 * beta) ** 3 / (64 * beta * (1 - beta) ** 3)


def modular_relation(alpha, beta):
    """27 a b (1-a)(1-b) - (a + b - 2ab)^3; zero when x-values of sqrt(q) and
    q^2 sit across the degree-2 relation from x(q)."""
    return 27 * alpha * beta * (1 - alpha) * (1 - beta) - (alpha + beta - 2 * alpha * beta) ** 3


def modular_poly_solve(beta, ctx: PrecisionCtx | None = None) -> tuple[mpf, mpf]:
    """Solve the degree-2 modular relation as a cubic in the companion of beta.

    Returns (alpha, gamma) with x(sqrt(q)) = 1/(1-alpha), x(q^2) = 1/(1-gamma)
    for q = q3_from_beta(beta); roots are identified against xq_product, not by
    algebraic conjugacy.  The remaining root is discarded.
    """
    ctx = ensure_ctx(ctx)
    with ctx.workprec(16):
        beta = to_mpf(beta)
        if not 0 < beta < 1:
            raise DomainError("beta must lie in (0, 1)")
        c = 1 - 2 * beta
        bb = 27 * beta * (1 - beta)
        # modular_relation(a, beta) = -c^3 a^3 - (3c^2 b + bb) a^2 + (bb - 3c b^2) a - b^3
        coeffs = [-c ** 3,
                  -3 * c * c * beta - bb,
                  bb - 3 * c * beta * beta,
                  -beta ** 3]
        roots = polyroots(coeffs, maxsteps=120, extraprec=80)
        q = q3_from_beta(beta, ctx)
        targets = []
        for arg in (sqrt(q), q * q):
            x = xq_product(arg, ctx)
            targets.append(1 - 1 / x)
        match_tol = mpf(2) ** (-(ctx.bits // 2))
        picked = []
        for target in targets:
            best = min(roots, key=lambda r: abs(r - target))
            if abs(best - target) > match_tol * (1 + abs(target)):
                raise RootIdentificationError(
                    f"no cubic root within tolerance of q-series value {mp.nstr(target, 20)}")
            picked.append(best.real if hasattr(best, "real") else mpf(best))
        return +picked[0], +picked[1]
