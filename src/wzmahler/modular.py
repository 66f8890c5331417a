"""Theta function phi(q), the signature-3 x(q) from Borwein's cubic theta
functions, the signature-3 nome q(beta) and J-expression in beta, and the
degree-2 modular relation connecting x(sqrt(q)), x(q) and x(q^2).

Signature 3 is Ramanujan's alternative theory built on 2F1(1/3,2/3;1;.)
(Berndt, Bhargava and Garvan, "Ramanujan's theories of elliptic functions
to alternative bases", 1995).  Its nome comes from Borwein's cubic AGM
(``numkernel.agm3``), as ``elliptic.periods`` takes the signature-2 nome
from the classical one.  phi(q) and a(q)/b(q) are memoised for the process
on their exact arguments (``series.shared``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import cbrt, ceil, exp, log, mpf, pi, sqrt

from .context import DEFAULT_CTX, DomainError, PrecisionCtx, to_mpf
from .numkernel import _float_ceil, _log2, agm3
from .series import shared

_LOST = math.log2(math.pi ** 2 / (2 * math.log(2)))  # log2 of pi^2/(2 log 2)


@shared
def phi_theta(q, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """phi(q) = theta3(q) = sum_{n in Z} q^(n^2), |q| < 1, to within
    2^-(bits+16)."""
    with ctx.workprec():
        q = to_mpf(q)
        if not abs(q) < 1:
            raise DomainError("phi_theta requires |q| < 1")
        return +_theta3_and_s(q, mpf(2) ** (-(ctx.bits + 16)))[0]


def _theta3_and_s(x, eps):
    """(theta3(x), S(x)) = (1 + 2 sum_{n>=1} x^(n^2), sum_{n>=0} x^(n(n+1)))
    for |x| < 1, each to within eps: the terms run in the order x^1, x^2,
    x^4, x^6, x^9, ..., every one the last times x^(n+1), and both tails
    after a theta3 term t = x^(n^2) are below 2|t|/(1-|x|)."""
    theta = s = sq = tri = mpf(1)  # sq = x^(n^2), tri = x^(n(n+1))
    xn = x  # x^(n+1)
    stop = eps * (1 - abs(x))
    while True:
        sq = tri * xn
        tri = sq * xn
        theta += 2 * sq
        s += tri
        if 2 * abs(sq) < stop:
            return theta, s
        xn *= x


@shared
def cubic_theta_ratio(q, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """a(q)/b(q) = x(q)^(1/3) for |q| < 1, in Borwein's cubic theta functions
    (Borwein and Borwein, Trans. AMS 323, 1991):

        a(q) = theta3(q) theta3(q^3) + theta2(q) theta2(q^3)
             = theta3(q) theta3(q^3) + 4q S(q) S(q^3),
        b(q) = (3 a(q^3) - a(q))/2,

    S(x) = sum_{n>=0} x^(n(n+1)), so no q^(1/4) appears and q <= 0 needs no
    special case.  The series fall like |q|^(n^2).  b(q) = prod (1-q^n)^3/
    (1-q^(3n)) is small as |q| -> 1, log(1/|b|) <= pi^2 |q|/(2(1-|q|)), and
    the subtraction that forms it loses about that many bits; the working
    precision and the stop test 2^-(bits+24) carry them as extra bits.  That
    count is the ceiling of a float estimate (``numkernel._float_ceil``),
    left to mpf only within ``numkernel._TIE`` of an integer."""
    with ctx.workprec():
        q = to_mpf(q)
        if not abs(q) < 1:
            raise DomainError("cubic_theta_ratio requires |q| < 1")
        aq = abs(q)
        lost = 0 if aq == 0 else _float_ceil(
            2 ** (_LOST + _log2(aq) - _log2(1 - aq)),
            lambda: int(ceil(pi ** 2 * aq / (2 * (1 - aq) * log(2)))))
        with ctx.workprec(lost):
            eps = mpf(2) ** (-(ctx.bits + 24 + lost))
            t1, s1 = _theta3_and_s(q, eps)
            t3, s3 = _theta3_and_s(q ** 3, eps)
            t9, s9 = _theta3_and_s(q ** 9, eps)
            a = t1 * t3 + 4 * q * s1 * s3
            b = (3 * (t3 * t9 + 4 * q ** 3 * s3 * s9) - a) / 2
            ratio = a / b
        return +ratio


def xq_product(q, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """x(q) = 1 + 27 q prod_{n>=1} ((1-q^(3n))/(1-q^n))^12 for |q| < 1, as
    the cube of ``cubic_theta_ratio``."""
    with ctx.workprec():
        return cubic_theta_ratio(q, ctx) ** 3


def q3_from_beta(beta, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """Signature-3 nome exp(-(2 pi/sqrt 3) F(1-beta)/F(beta)),
    F = 2F1(1/3, 2/3; 1; .), with F(x) = 1/agm3(1, (1-x)^(1/3)):

        q = exp(-(2 pi/sqrt 3) agm3(1, (1-beta)^(1/3))/agm3(1, beta^(1/3))).
    """
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
