"""Mahler measures as elliptic dilogarithms.

Each curve E(k, l): y^2 = 4x^3 - g2 x - g3 in the catalogued family carries a
4-torsion point at u = omega/4, so its elliptic dilogarithm there is the
two-sided lattice sum sum_n D(i q^n) with q from the AGM periods.  The theta
parameterization m(4 phi^2(q)/phi^2(-q)) = (4/pi) sum_n D(i q^n) then turns
Mahler measures into these sums, giving identities like
11 D^E1(P1) = 6 D^E2(P2).
"""

from fractions import Fraction

from mpmath import mp, mpc, mpf, pi, workprec

from wzmahler import PrecisionCtx
from wzmahler.elliptic import (curve_from_family, lattice_dilog_sum, periods,
                               point_mul, point_order, wp, CurvePoint)
from wzmahler.mahler import m_series

ctx = PrecisionCtx(bits=256)

with workprec(300):
    curves = {
        "E(5,2)":      (curve_from_family(25, 2), CurvePoint.affine(87, 1080), 5),
        "E(16,1/2)":   (curve_from_family(256, Fraction(1, 2)), CurvePoint.affine(195, 432), 16),
        "E(8,1/2)":    (curve_from_family(64, Fraction(1, 2)), CurvePoint.affine(51, 216), 8),
        "E(3sqrt2,1)": (curve_from_family(18, 1), CurvePoint.affine(33, 324), None),
    }

    sums = {}
    for label, (e, p, alpha) in curves.items():
        per = periods(e, ctx)
        order = point_order(e, p)
        x_quarter = wp(e, per.omega / 4, ctx)
        dsum = lattice_dilog_sum(mpc(0, 1), per.q, ctx)
        sums[label] = dsum
        print(f"{label}: g2={e.g2}, g3={e.g3}")
        print(f"  torsion point {p} has order {order}; 2P = {point_mul(e, 2, p)}")
        print(f"  P(omega/4) = {mp.nstr(x_quarter.real, 20)} (matches x(P))")
        print(f"  q = {mp.nstr(per.q, 20)}")
        if alpha is not None:
            gap = abs(m_series(mpf(alpha), ctx) - 4 / pi * dsum)
            print(f"  |m({alpha}) - (4/pi) sum D(i q^n)| = {mp.nstr(gap, 5)}")
        print()

    e1 = sums["E(5,2)"]
    e2 = sums["E(16,1/2)"]
    e3 = sums["E(8,1/2)"]
    e4 = sums["E(3sqrt2,1)"]
    print("equivalences between curves:")
    print("  |11 D^E1(P1) - 6 D^E2(P2)| =", mp.nstr(abs(11 * e1 - 6 * e2), 5))
    print("  |5 D^E3(P3) - 8 D^E4(P4)|  =", mp.nstr(abs(5 * e3 - 8 * e4), 5))
