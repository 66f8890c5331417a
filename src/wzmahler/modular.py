"""Theta function phi(q), the signature-3 x(q) from Borwein's cubic theta
functions, the signature-3 nome q(beta) and J-expression in beta, and the
degree-2 modular relation connecting x(sqrt(q)), x(q) and x(q^2).

Signature 3 is Ramanujan's alternative theory built on 2F1(1/3,2/3;1;.)
(Berndt, Bhargava and Garvan, "Ramanujan's theories of elliptic functions
to alternative bases", 1995).  Its nome comes from Borwein's cubic AGM
(``numkernel.agm3``), as ``elliptic.periods`` takes the signature-2 nome
from the classical one.  phi(q) and a(q)/b(q) share one theta loop
(``_theta3_and_s``), which runs on Python integers in fixed point over q,
q^3 and q^9 at once; both are memoised for the process on their exact
arguments (``series.shared``).  The cube roots of the nome's arguments are
integer ones (``numkernel.cbrt``), as in the cubic AGM's own steps.  The
loop floors q^j from q's exact pair (``fixedpoint.as_ratio``), its stop
and width integers come from float logs (``fixedpoint.log2``,
``fixedpoint.float_ceil``), and a/b is one ``fixedpoint.rounded_quotient``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import ceil, exp, log, mp, mpf, pi, sqrt

from .context import (DEFAULT_CTX, ConvergenceError, DomainError,
                      PrecisionCtx, to_mpf)
from .fixedpoint import as_ratio, float_ceil, log2, rounded_quotient
from .numkernel import agm3, cbrt
from .series import shared

_LOST = math.log2(math.pi ** 2 / (2 * math.log(2)))  # log2 of pi^2/(2 log 2)


@shared
def phi_theta(q, ctx: PrecisionCtx = DEFAULT_CTX) -> mpf:
    """phi(q) = theta3(q) = sum_{n in Z} q^(n^2), |q| < 1, to within
    2^-(bits+16): ``_theta3_and_s`` above W = bits + 32, the working
    precision, rounded to W bits."""
    with ctx.workprec():
        q = to_mpf(q)
        if not abs(q) < 1:
            raise DomainError("phi_theta requires |q| < 1")
        prec, ((_, theta, _),) = _theta3_and_s(q, (1,), ctx.bits + 16, 0)
        return mpf((theta, -prec))


def _theta3_and_s(q: mpf, powers: tuple[int, ...], stop: int,
                  extra: int) -> tuple[int, list[tuple[int, int, int]]]:
    """(prec, [(x, theta3(x), S(x)), ...]), theta3(x) = 1 + 2 sum_{n>=1}
    x^(n^2) and S(x) = sum_{n>=0} x^(n(n+1)), for each x = q^j, j in
    ``powers``, |q| < 1, each series to within 2^-stop, in fixed point at
    prec fractional bits: the working precision, ``extra`` bits and the
    guard bits below.

    Each x is the floor of the exact q^j.  The terms run in the order x^1,
    x^2, x^4, x^6, x^9, ..., every one the last times x^(n+1), and both
    tails after a theta3 term t = x^(n^2) are below 2|t|/(1-|x|), so a
    base stops after the first t with 2|t| < 2^-stop (1 - |x|).  That
    takes at most N steps, the least n with 2|q|^(n^2) < 2^-stop (1-|q|)
    from float logs (``fixedpoint.log2``) plus 2 for their error and the
    floors; ConvergenceError rather than a step past it.  A floored
    product of two values of modulus at most 1 is within the sum of their
    errors and one unit, so x^n is within 2n - 1 units, x^(n^2) within
    2n^2 and x^(n(n+1)) within 2n(n+1): after N steps both sums are within
    E = 2(N + 1)^3 units of their truncations, and the guard bits are the
    bit length of E.
    """
    aq = abs(q)
    n_max = 1 if aq == 0 else math.isqrt(
        int((stop + 1 - log2(1 - aq)) / -log2(aq))) + 3
    prec = mp.prec + extra + (2 * (n_max + 1) ** 3).bit_length()
    one, (num, den) = 1 << prec, as_ratio(q)
    out = []
    for j in powers:
        x = (num ** j << prec) // den ** j
        limit = (one - abs(x)) >> stop + 1
        theta = s = tri = one  # tri = x^(n(n+1))
        xn = x  # x^(n+1)
        for _ in range(n_max):
            sq = tri * xn >> prec
            tri = sq * xn >> prec
            theta += 2 * sq
            s += tri
            if abs(sq) < limit:
                break
            xn = xn * x >> prec
        else:
            raise ConvergenceError("theta series step bound exceeded")
        out.append((x, theta, s))
    return prec, out


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
    the subtraction that forms it loses about that many bits; the fixed
    point and the stop test 2^-(bits+24) carry them as extra bits.  That
    count is the ceiling of a float estimate (``fixedpoint.float_ceil``),
    left to mpf only within ``fixedpoint._TIE`` of an integer.

    The three theta pairs at q, q^3 and q^9 come from one
    ``_theta3_and_s`` call, each within E = 2(N + 1)^3 units.  Both
    theta3 and S are below R = 2/(1 - |q|), so the floored products leave
    a(q) and a(q^3) within 16 R^2 E units and b(q) within 32 R^2 E.  The
    loop's extra bits, lost + 9 + 2 floor(l) with l = log2(1/(1-|q|)), and
    its guard bits, the bit length of E, come to at least
    lost + log2(32 R^2 E), so b is within 2^-(W + lost), W the working
    precision, and about lost bits of b's leading zeros leave it W bits.
    The quotient 2a/(2b) of the two integers is rounded once to W bits."""
    with ctx.workprec():
        q = to_mpf(q)
        if not abs(q) < 1:
            raise DomainError("cubic_theta_ratio requires |q| < 1")
        aq = abs(q)
        lost = 0 if aq == 0 else float_ceil(
            2 ** (_LOST + log2(aq) - log2(1 - aq)),
            lambda: int(ceil(pi ** 2 * aq / (2 * (1 - aq) * log(2)))))
        prec, ((x1, t1, s1), (x3, t3, s3), (_, t9, s9)) = _theta3_and_s(
            q, (1, 3, 9), ctx.bits + 24 + lost,
            lost + 9 + 2 * int(-log2(1 - aq)))
        a = (t1 * t3 >> prec) + (4 * x1 * (s1 * s3 >> prec) >> prec)
        a3 = (t3 * t9 >> prec) + (4 * x3 * (s3 * s9 >> prec) >> prec)
        return rounded_quotient(2 * a, 3 * a3 - a)


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
