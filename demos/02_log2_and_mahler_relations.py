"""The log(2) binomial sums and the Mahler-measure relations they encode.

m(alpha) is the logarithmic Mahler measure of alpha + x + 1/x + y + 1/y.
Two central-binomial expansions cover alpha >= 4 and alpha <= 4, and linear
combinations of special values collapse to rational multiples of log 2,
e.g. 11 m(1) = m(16) and 4 m(2) = m(8).
"""

from mpmath import mp, mpf, sqrt, workprec

from wzmahler import PrecisionCtx
from wzmahler.mahler import m_quadrature, m_series, s_ratio

ctx = PrecisionCtx(bits=256)
mp.pretty = True

with workprec(300):
    m1, m2, m5, m8, m16 = (m_series(a, ctx) for a in (1, 2, 5, 8, 16))
    m3s2 = m_series(3 * sqrt(mpf(2)), ctx)

    print("special values (first 40 digits):")
    for label, v in (("m(1)", m1), ("m(2)", m2), ("m(5)", m5), ("m(8)", m8),
                     ("m(16)", m16), ("m(3*sqrt 2)", m3s2)):
        print(f"  {label:<12} = {mp.nstr(v, 40)}")

    print()
    print("relations (absolute residuals):")
    for label, res in (
            ("11 m(1) - m(16)", 11 * m1 - m16),
            ("4 m(2) - m(8)", 4 * m2 - m8),
            ("m(1) + m(16) - 2 m(5)", m1 + m16 - 2 * m5),
            ("m(2) + m(8) - 2 m(3 sqrt 2)", m2 + m8 - 2 * m3s2)):
        print(f"  {label:<30} = {mp.nstr(abs(res), 5)}")

    print()
    print("the ratio s(r) = m(4/r)/m(4r) lands on small rationals at the")
    print("corresponding r values:")
    for r in (mpf(1), mpf(1) / 2, mpf(1) / 4):
        print(f"  s({mp.nstr(r, 5)}) = {mp.nstr(s_ratio(r, ctx), 30)}")

    print()
    print("independent quadrature route (Jensen's formula, alpha > 4) agrees:")
    for a in (5, 16):
        gap = abs(m_series(mpf(a), ctx) - m_quadrature(mpf(a), ctx))
        print(f"  |series - quadrature| at alpha={a}: {mp.nstr(gap, 5)}")
