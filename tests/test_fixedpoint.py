"""Fixed-point helpers: the certified root floor against exact floors, and
the exact conversions."""

import random
from fractions import Fraction

import pytest
from mpmath import mpf, polyroots, workprec
from mpmath.libmp import to_fixed as libmp_to_fixed

from wzmahler.fixedpoint import as_ratio, floor_root, to_fixed
from wzmahler.numkernel import _cube_root


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
