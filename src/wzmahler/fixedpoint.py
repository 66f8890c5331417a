"""Fixed-point helpers on Python integers, shared by the series engines, the
special functions, the lattice sums, the theta loop and the quadratures.
It is the one module that reads mpmath's number format (``mpmath.libmp``,
an mpf's ``_mpf_``); the others go through it.

* Exact conversion: ``as_ratio`` reads an int, Fraction or mpf as an
  integer pair, ``to_fixed`` floors a value at a number of fractional
  bits, and ``exact_mpf`` is the mpf m 2^e.
* Rounded once: ``rounded_quotient`` (p/q) and ``cos_sin_2pi`` (cos and
  sin of 2 pi a, floored in fixed point).
* Integers decided from floats: ``float_ceil`` and ``stop_index``, on
  float logs such as ``log2`` of an mpf.  Each takes the float route only
  where its margin lies more than ``_TIE`` bits from a threshold, and
  leaves a tie to the mpf expression, so each is the integer that
  expression gives.
* Integer loops: ``log_near_one`` (a log next to 1), ``agm_fixed`` (the
  classical and the cubic AGM) and ``floor_root`` (the certified floor of
  a real root), each bounding its rounding in units of its last
  fractional bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import ceil, libmp, log, mp, mpf

from .context import ConvergenceError

# A float margin closer than this many bits to a threshold is left to mpf.
# The float logs below err by under 2^-30 bits at every precision in use,
# and the mpf products they stand in for by a few ulps: both far inside it.
_TIE = 1e-6
LN2 = math.log(2)


def as_ratio(x) -> tuple[int, int]:
    """x as an exact integer pair (p, q), q > 0: an int, a Fraction, or the
    dyadic rational an mpf stands for (at its own precision, not rounded to
    the working one); anything else is read by mpf() first."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    if not isinstance(x, mpf):
        x = mpf(x)
    return libmp.to_rational(x._mpf_)


def to_fixed(x, bits: int) -> int:
    """floor(x * 2^bits), exactly: a nonzero finite mpf by a shift of its
    mantissa (``libmp.to_fixed``), any other x from its pair
    (``as_ratio``)."""
    if isinstance(x, mpf) and x._mpf_[3] > 0:
        return libmp.to_fixed(x._mpf_, bits)
    p, q = as_ratio(x)
    return (p << bits) // q


def exact_mpf(man: int, exp: int) -> mpf:
    """The mpf man 2^exp, not rounded."""
    return mp.make_mpf(libmp.from_man_exp(man, exp))


def rounded_quotient(p: int, q: int) -> mpf:
    """p/q, rounded once to nearest at the working precision."""
    return mp.make_mpf(libmp.from_rational(p, q, mp.prec, libmp.round_nearest))


def cos_sin_2pi(a: Fraction, bits: int) -> tuple[int, int]:
    """floor(2^bits cos 2 pi a) and floor(2^bits sin 2 pi a) for rational a,
    by one ``mpf_cos_sin_pi`` of 2a mod 2 at W = bits + 64 bits: floored at
    W fractional bits, each is within pi + 2 units of 2^-W.  Adding 8 units
    before the shift to bits floors exactly the values on the grid (0,
    +-1/2 and +-1, the only rational ones by Niven's theorem); any other
    floors one unit high only within 2^-60 units below a grid line."""
    (p, q), wp, nearest = as_ratio(a), bits + 64, libmp.round_nearest
    x = libmp.from_rational(2 * (p % q), q, wp, nearest)
    return tuple(libmp.to_fixed(v, wp) + 8 >> 64
                 for v in libmp.mpf_cos_sin_pi(x, wp, nearest))


def log2(x: mpf) -> float:
    """log2 x for a positive mpf x, as a float from its exponent and leading
    bits, so that nothing underflows at any precision.  Within about 2^-50
    relative, near x = 1 too, where it is log1p of x - 1 formed exactly."""
    _, man, exp, bc = x._mpf_
    if exp + bc not in (0, 1):
        return math.log2(man) + exp
    d = man - (1 << -exp)  # (x - 1) 2^-exp, for 1/2 <= x < 2
    s = max(0, d.bit_length() - 53)
    return math.log1p((d >> s) * 2.0 ** (exp + s)) / LN2


def float_ceil(x: float, exact) -> int:
    """ceil of a quantity whose float estimate x is within 2^-40 relative:
    ceil(x), unless x lies within _TIE (times |x| beyond 1) of an integer,
    where ``exact()`` decides in mpf."""
    if abs(x) < 2.0 ** 40 and abs(x - round(x)) > _TIE * max(1.0, abs(x)):
        return math.ceil(x)
    return exact()


def stop_index(r, c, eps, max_terms: int, budget: str, first: int = 1,
               log2c: float | None = None) -> int:
    """Least k >= first with tail bound c r^(k+1)/(1-r) < eps, for 0 < r < 1
    and positive mpf r, c, eps; ConvergenceError with the message ``budget``
    past ``max_terms``.

    k is found from floats: with t = log2 of c r/((1-r) eps), by ``log2``,
    it is the least k >= first with t + k log2 r < 0.  Only when that
    margin at k or at k - 1 is within _TIE bits, or r is within 2^-900 of
    1, do the mpf comparisons c r/(1-r) r^k < eps at the working precision
    decide, so k is the integer they give either way.  A caller that has
    log2 c already passes it as ``log2c``, with c a function that returns
    the mpf c; it is called only on a tie."""
    lr = log2(r)
    excess = (log2(c) if log2c is None else log2c) + lr - log2(1 - r) \
        - log2(eps)
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


def log_near_one(n: mpf, prec: int) -> int | None:
    """log n in fixed point at prec fractional bits, within 2 units, for an
    n within 2^-(prec//3) of 1 (a squared modulus that rounds to 1), and
    None for any other n.

    mpmath's log raises its working precision for an argument next to 1;
    here x = n - 1 is formed exactly at prec + 4 bits and
    log(1 + x) = sum_k (-1)^(k-1) x^k/k is summed on Python integers,
    four terms or so, as |x|^k falls by 2^-(prec//3) a term.  Each term
    and power is floored once, under 2 units of 2^-(prec + 4) a term, and
    the final shift floors once more."""
    if mp.mag(n) not in (0, 1):  # n outside [1/2, 2)
        return None
    bits = prec + 4
    x = to_fixed(n, bits) - (1 << bits)  # exact: n has <= prec bits
    a = abs(x)
    if a.bit_length() > bits - prec // 3:
        return None
    total, power, k = 0, a, 1
    while power:
        # log(1 - a) = -sum a^k/k; log(1 + a) alternates
        total += power // k if x > 0 and k % 2 else -(power // k)
        power, k = power * a >> bits, k + 1
    return total >> 4


def agm_fixed(big_a: int, big_b: int, bits: int,
              mean=lambda a, b: (a + b) >> 1,
              other=lambda a, b: math.isqrt(a * b)) -> int:
    """An arithmetic-geometric mean of integers A, B > 0 in one fixed-point
    unit: the step (A, B) -> (mean(A, B), other(A, B)) until
    |A - B| <= 2^-(bits + 16) A, and then mean(A, B).  By default it is the
    classical AGM, each step flooring (A + B)/2 and sqrt(A B)
    (``math.isqrt``), and a start with A >= B keeps A >= B >= the first B
    throughout."""
    while abs(big_a - big_b) << (bits + 16) > big_a:
        big_a, big_b = mean(big_a, big_b), other(big_a, big_b)
    return mean(big_a, big_b)


def floor_root(coeffs, x: int) -> int:
    """floor(r) for a root r of the integer polynomial P whose ``coeffs``
    run from the highest power down, from an integer x, where P is
    increasing and convex between x and r and negative on [floor(r), r).

    Newton's iteration runs on integers.  On such a branch the tangent at
    x < r meets 0 at or above r, and so does its step floored, so one step
    from below lands at or above r.  From above, the exact step P(x)/P'(x)
    lands between r and x, so the step floored toward 0 never passes r
    either, and the iterates fall.  Once a step floors to 0, x falls by
    units while P(x) > 0 and P'(x) > 0.  Where every root of P is real
    (the period cubic), or P = X^n - c with c > 0 (a root), a step is at
    least (x - r)/n, n the degree, so at most n unit steps remain.  The
    floor F is certified by the exact sign change P(F) <= 0 < P(F + 1),
    P(F + 1) known already where F + 1 was the last iterate; a second root
    in [floor(r), r], or a branch where P is not increasing and convex,
    fails that test with ArithmeticError rather than give a wrong
    floor."""
    def at(x):  # P(x) and P'(x) by Horner's rule, exact
        value = slope = 0
        for c in coeffs:
            value, slope = value * x + c, slope * x + value
        return value, slope

    value, slope = at(x)
    if value < 0 < slope:  # below r: the tangent meets 0 at or above it
        x -= value // slope
        value, slope = at(x)
    above = None  # the last x with P(x) > 0
    while value > 0 < slope:
        above, x = x, x - (value // slope or 1)
        value, slope = at(x)
    if value > 0 or above != x + 1 and at(x + 1)[0] <= 0:
        raise ArithmeticError(f"root floor {x} not certified")
    return x
