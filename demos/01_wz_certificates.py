"""Exact WZ-certificate checking, from the declared pairs to the zero polynomial.

A pair (F, G) of Gamma-product terms certifies a summation identity when
F(n+1,k) - F(n,k) = G(n,k+1) - G(n,k) holds as a rational-function identity.
Dividing by the Gamma part K of F and clearing the denominators by their
least common multiple turns the check into exact polynomial arithmetic: no
floating point anywhere in this file.
"""

from fractions import Fraction

from wzmahler.symbolic.hyperterm import term_cross_ratio, term_eval_exact
from wzmahler.symbolic.multipoly import RatFunc
from wzmahler.symbolic.pairs import builtin_pairs
from wzmahler.symbolic.wz import wz_verify

pairs = builtin_pairs()

for name, pair in pairs.items():
    report = wz_verify(pair)
    print(report)

print()
print("The four terms of the first pair's check, A - pre_F - C + D == 0, each\n"
      "a quotient kept as a product of linear factors, multiplied out here:")
pair = pairs["pair-1"]
kernel = pair.F._replace(pre=RatFunc(1))
print("  A     = F(n+1,k)/K =", term_cross_ratio(pair.F, kernel, 1, 0))
print("  pre_F = F(n,k)/K   =", term_cross_ratio(pair.F, kernel))
print("  C     = G(n,k+1)/K =", term_cross_ratio(pair.G, kernel, 0, 1))
print("  D     = G(n,k)/K   =", term_cross_ratio(pair.G, kernel))

print()
print("Telescoping consequence, checked in exact rational arithmetic:")
k = 1
acc = Fraction(0)
for n in range(0, 31):
    acc += term_eval_exact(pair.G, n, k + 1) - term_eval_exact(pair.G, n, k)
rhs = term_eval_exact(pair.F, 31, k) - term_eval_exact(pair.F, 0, k)
print(f"  sum_n (G(n,{k}+1) - G(n,{k})) over n = 0..30  ==  F(31,{k}) - F(0,{k}):",
      acc == rhs)
