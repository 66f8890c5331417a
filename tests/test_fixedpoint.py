"""Fixed-point helpers: the certified root floor against exact floors, the
exact conversions, and the correctly rounded quotient and floored roots of
unity against mpmath."""

import random
from fractions import Fraction

import pytest
from mpmath import fdiv, floor, ldexp, mp, mpf, polyroots, workprec
from mpmath.libmp import to_fixed as libmp_to_fixed

from wzmahler.fixedpoint import (as_ratio, cos_sin_2pi, exact_mpf, floor_root,
                                 rounded_quotient, to_fixed)
from wzmahler.numkernel import _cube_root, root_of_unity


def _expand(factors):
    """The integer coefficients, highest power first, of prod(d X - n) over
    the pairs (n, d)."""
    coeffs = [1]
    for n, d in factors:
        coeffs = [d * u - n * v for u, v in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _at(coeffs, x):
    return sum(c * x ** i for i, c in enumerate(reversed(coeffs)))


def _reflect(coeffs):
    """-P(-X): its largest root is minus P's smallest."""
    return [-c * (-1) ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs)]


def _start(coeffs):
    """An integer above every root: Fujiwara's bound 2 max |c_i/c_0|^(1/i),
    rounded up to a power of 2."""
    lead = abs(coeffs[0]).bit_length()
    return 2 << max(0, *((abs(c).bit_length() - lead + 1) // i + 1
                         for i, c in enumerate(coeffs[1:], 1)))


def test_floor_root_is_the_floor_cube_root():
    # seeded integers of 1 to 3400 bits, perfect cubes and their
    # neighbours, from numkernel's float seed and from 2^(bits/3 + 1)
    rng = random.Random(27)
    values = [rng.getrandbits(n) | 1 << (n - 1)
              for n in list(range(1, 400)) + [950, 3400] for _ in range(4)]
    values += [c for n in (1, 40, 101, 1100) for x in (1 << n, 3 ** n)
               for c in (x ** 3 - 1, x ** 3, x ** 3 + 1)]
    for n in values:
        x = _cube_root(n)
        assert x ** 3 <= n < (x + 1) ** 3, n
        assert floor_root((1, 0, 0, -n), 1 << n.bit_length() // 3 + 1) == x


def test_floor_root_exact_roots_on_both_branches():
    # seeded cubics prod(d X - n) with three rational roots, a double
    # integer one among them at times, of 10 to 400 bits: the largest
    # root's floor from P, and minus the smallest's ceiling from -P(-X),
    # both from Fujiwara's bound and from a start a few units above the root.
    # An outer root whose floor is not above the next root has no sign
    # change across its last unit, and is left out
    rng = random.Random(61)
    seen = 0
    for i in range(300):
        bits = rng.randint(10, 400)
        roots = [(rng.randint(-1 << bits, 1 << bits),
                  rng.randint(1, 1 << rng.randint(0, 40))) for _ in range(3)]
        if i % 5 == 0:
            roots[0] = roots[1] = (roots[0][0], 1)
        coeffs = _expand(roots)
        values = sorted(Fraction(n, d) for n, d in roots)
        for poly, top, near in ((coeffs, values[-1], values[-2]),
                                (_reflect(coeffs), -values[0], -values[1])):
            want = top.numerator // top.denominator
            if near == top or near < want:
                assert floor_root(poly, _start(poly)) == want, (roots, i)
                assert floor_root(poly, want + rng.randint(1, 9)) == want
                seen += 1
    assert seen > 500


def test_floor_root_irrational_roots_against_polyroots():
    # seeded integer cubics with three real roots, of up to 300-bit
    # coefficients: each outer floor F has the exact sign change
    # P(F) <= 0 < P(F + 1), and mpmath's root at three times the
    # coefficients' width lies in [F, F + 1), to 2^-100.  An outer root
    # within a unit of the middle one is left out, as above
    rng = random.Random(83)
    done = 0
    while done < 60:
        bits = rng.randint(8, 300)
        a = rng.randint(1, 1 << rng.randint(1, 40))
        b, c, d = (rng.randint(-1 << bits, 1 << bits) for _ in range(3))
        disc = 18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c \
            - 4 * a * c ** 3 - 27 * a * a * d * d
        if disc <= 0:
            continue
        done += 1
        coeffs = [a, b, c, d]
        with workprec(3 * bits + 200):
            roots = sorted(x.real for x in polyroots(
                [mpf(v) for v in coeffs], maxsteps=400, extraprec=3 * bits))
            for poly, top, near in ((coeffs, roots[-1], roots[1]),
                                    (_reflect(coeffs), -roots[0], -roots[1])):
                if top - near < 1:
                    continue
                f = floor_root(poly, _start(poly))
                assert _at(poly, f) <= 0 < _at(poly, f + 1)
                assert f - mpf(2) ** -100 <= top < f + 1, coeffs


def test_floor_root_from_below_and_what_it_cannot_certify():
    # X^2 - 2 10^6, root 1414.2: from 999 below it, one step lands above
    # and the floor follows; from -999, on the falling branch, no sign
    # change is reached.  (2X - 3)^2 (X + 5), whose largest root 3/2 is
    # double, from 10: P > 0 on both sides of it, and the unit steps stop
    # where P turns
    assert floor_root((1, 0, -2 * 10 ** 6), 999) == 1414
    assert floor_root((1, 0, -2 * 10 ** 6), 2000) == 1414
    for coeffs, x in (((1, 0, -2 * 10 ** 6), -999),
                      (_expand([(3, 2), (3, 2), (-5, 1)]), 10)):
        with pytest.raises(ArithmeticError, match="not certified"):
            floor_root(coeffs, x)


def test_to_fixed_shifts_an_mpf_as_its_pair_does():
    # the mpf shift against the floor of the exact pair and against
    # mpmath's own to_fixed, on both signs and both sides of the point
    rng = random.Random(5)
    with workprec(200):
        for _ in range(200):
            x = mpf(rng.uniform(-1, 1)) * mpf(2) ** rng.randint(-300, 300)
            bits = rng.randint(-100, 400)
            p, q = as_ratio(x)
            want = Fraction(p * 2 ** bits, q) if bits >= 0 \
                else Fraction(p, q * 2 ** -bits)
            assert to_fixed(x, bits) == want.__floor__() \
                == libmp_to_fixed(x._mpf_, bits)
    assert to_fixed(mpf(0), 10) == 0 and to_fixed(Fraction(-1, 3), 10) == -342


def test_exact_mpf_is_not_rounded():
    # mantissas two to three times as wide as the working precision, odd
    # and even, of both signs: the mpf is m 2^e exactly, and zero is zero
    rng = random.Random(11)
    for prec in (53, 120, 300):
        with workprec(prec):
            for _ in range(50):
                m = rng.getrandbits(rng.randint(2 * prec, 3 * prec)) \
                    * rng.choice((1, -1)) << rng.randint(0, 3)
                e = rng.randint(-2000, 2000)
                want = Fraction(m) * Fraction(2) ** e
                assert Fraction(*as_ratio(exact_mpf(m, e))) == want
            assert exact_mpf(0, 17) == 0


def test_rounded_quotient_is_mpmaths_correctly_rounded_division():
    # p/q of integers wider and narrower than the working precision, with
    # every sign and p = 0, against mpmath's fdiv of the exact integers
    # (mpf_div rounds correctly) to nearest at the same precision
    rng = random.Random(13)
    for prec in (30, 53, 113, 256, 1000):
        pairs = [(rng.getrandbits(rng.randint(1, 3 * prec)) * sp,
                  (rng.getrandbits(rng.randint(1, 3 * prec)) + 1) * sq)
                 for _ in range(40) for sp in (1, -1) for sq in (1, -1)]
        pairs += [(0, 7), (0, -3), (2, 7), (-2, 7), (1, 3 << 2000)]
        for p, q in pairs:
            with workprec(3 * prec + 8000):
                exact_p, exact_q = mpf(p), mpf(q)
            with workprec(prec):
                got = rounded_quotient(p, q)
                assert got == fdiv(exact_p, exact_q, prec=prec,
                                   rounding="n"), (prec, p, q)
                assert mp.prec == prec


def test_cos_sin_2pi_is_the_floor():
    # (cos, sin) of 2 pi a, at several widths, is the floor of
    # 2^bits e^(2 pi i a) taken 64 bits above from root_of_unity (mpmath's
    # cospi and sinpi, or its exact table where 12 a is an integer):
    # rational a with 12 a an integer, where 0, +-1/2 and +-1 lie on the
    # grid and sqrt(3)/2 does not, and a with 12 a not an integer, the
    # periodic rule's table roots among them
    exact = [Fraction(k, 12) for k in range(-13, 26)]
    others = [Fraction(1, 5), Fraction(2, 7), Fraction(-3, 10), Fraction(7, 3),
              Fraction(1, 24), Fraction(5, 8), Fraction(1, 3 * 4096),
              Fraction(1, 4096), Fraction(-17, 9), Fraction(1, 10 ** 6)]
    for bits in (16, 53, 100, 236, 512):
        for a in exact + others:
            with workprec(bits + 64):
                w = root_of_unity(a)
                want = tuple(int(floor(ldexp(v, bits))) for v in (w.real, w.imag))
            assert cos_sin_2pi(a, bits) == want, (bits, a)
    assert cos_sin_2pi(Fraction(1, 6), 10) == (512, 886)
    assert cos_sin_2pi(Fraction(1, 2), 10) == (-1024, 0)
