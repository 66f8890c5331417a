"""Bertin's exotic relation 16 D^E(P) = 11 D^E(2P) on y^2 = 4x^3 - 432x + 1188,
walked through all of its equivalent forms.

The point P = (-6, 54) has order 6 and sits at u = (omega - 3 omega')/6, so
D^E(P) is a lattice sum over e^(i pi/3) q^(n - 1/2).  The nome q is also
reachable through Ramanujan's signature-3 theory at beta = 5/32, which leads
to the cubic-field evaluation x(sqrt q) = (7 + sqrt 5)^3/108 across the
degree-2 modular relation from x(q) = 32/27, the n(alpha) identity (lattice
sums at the signature-3 nome against quadrature), and finally an explicit
(3n)!/(n n!^3) series.
"""

from fractions import Fraction

from mpmath import cbrt, log, mp, mpf, sqrt, workprec

from wzmahler import PrecisionCtx
from wzmahler.context import to_mpf
from wzmahler.elliptic import (EllipticCurve, CurvePoint, elliptic_dilog,
                               periods, point_mul, point_order)
from wzmahler.mahler import n_quadrature, rv_series
from wzmahler.modular import (cubic_theta_ratio, j3_from_beta,
                              modular_relation, q3_from_beta, xq_product)
from wzmahler.registry import n_lattice

ctx = PrecisionCtx(bits=256)

with workprec(300):
    e = EllipticCurve(432, -1188)
    p = CurvePoint.affine(-6, 54)
    print(f"curve: y^2 = 4x^3 - {e.g2}x + {-e.g3};  P = {p},"
          f" order {point_order(e, p)}; 2P = {point_mul(e, 2, p)}")

    per = periods(e, ctx)
    d_p = elliptic_dilog(e, (Fraction(1, 6), Fraction(-1, 2)), ctx)
    d_2p = elliptic_dilog(e, (Fraction(1, 3), Fraction(0)), ctx)
    print("  |16 D^E(P) - 11 D^E(2P)| =", mp.nstr(abs(16 * d_p - 11 * d_2p), 5))

    # the same q from the signature-3 theory
    beta = Fraction(5, 32)
    q3 = q3_from_beta(beta, ctx)
    print("\nsignature-3 parameterization:")
    print("  g2^3/(g2^3 - 27 g3^2) =", j3_from_beta(beta), "(so beta = 5/32)")
    print("  |q(periods) - q(beta)| =", mp.nstr(abs(per.q - q3), 5))
    print("  x(q) =", mp.nstr(xq_product(q3, ctx), 25), " = 32/27")

    # x(sqrt q) and x(q^2) sit across the degree-2 modular relation from
    # x(q) = 1/(1 - beta): with a = 1 - 1/x, 27 a b (1-a)(1-b) = (a+b-2ab)^3
    s5 = sqrt(mpf(5))
    for name, arg, closed, label in (
            ("sqrt q", sqrt(q3), (7 + s5) ** 3 / 108, "(7+sqrt5)^3/108"),
            ("q^2", q3 ** 2, (7 - s5) ** 3 / 108, "(7-sqrt5)^3/108")):
        x = xq_product(arg, ctx)
        print(f"  x({name}) =", mp.nstr(x, 25), f" = {label} =", mp.nstr(closed, 25))
        print(f"    degree-2 relation at x({name}):",
              mp.nstr(abs(modular_relation(1 - 1 / x, to_mpf(beta))), 5))

    # the n(alpha) form: the left side by the nome and a lattice sum, the
    # right side by Jensen quadrature (the periodic trapezoidal rule)
    a1 = (7 + s5) / cbrt(mpf(4))
    a2 = (7 - s5) / cbrt(mpf(4))
    a3 = cbrt(mpf(32))
    print("\nn-form, left side: n(a) = (9/2pi) sum D(e^(2pi i/3) q^n), "
          "q = q3(1 - 27/a^3)")
    for name, a in (("a1", a1), ("a2", a2)):
        q = q3_from_beta(1 - 27 / a ** 3, ctx)
        back = 3 * cubic_theta_ratio(q, ctx)
        print(f"  {name} = {mp.nstr(a, 20)}: q = {mp.nstr(q, 8)}, "
              f"3 x(q)^(1/3) - {name} = {mp.nstr(back - a, 3)}")
    lhs = 16 * n_lattice(a1, ctx) - 8 * n_lattice(a2, ctx)
    rhs = 19 * n_quadrature(a3, ctx)
    print("  |16 n(a1) - 8 n(a2) - 19 n(a3)| =", mp.nstr(abs(lhs - rhs), 5),
          "(19 n(a3) by quadrature)")

    # explicit series form; the third base is 1/(27 x(q)) = 1/32.  Each
    # rv(u) = Lambda_{1/3}(27 u); 27 u2 = 0.99891 goes through the kernel's
    # connection formula
    u1, u2, u3 = 4 / (7 + s5) ** 3, 4 / (7 - s5) ** 3, mpf(1) / 32
    tol = mpf(10) ** -42
    series = 16 * rv_series(u1, ctx, tol=tol) - 8 * rv_series(u2, ctx, tol=tol) \
        - 19 * rv_series(u3, ctx, tol=tol)
    closed = 3 * log((7 + s5) ** 24 / (mpf(2) ** 53 * mpf(11) ** 8))
    print("\nseries form:     |sum - 3 log((7+sqrt5)^24/(2^53 11^8))| =",
          mp.nstr(abs(series - closed), 5))
    print("(27 u2 =", mp.nstr(27 * u2, 8), "- the slow term of the direct series)")
