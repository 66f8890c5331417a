"""Exact WZ-certificate checking, from the declared pairs to the zero polynomial.

A pair (F, G) of Gamma-product terms certifies a summation identity when
F(n+1,k) - F(n,k) = G(n,k+1) - G(n,k) holds as a rational-function identity.
Dividing by the Gamma part of F and clearing the denominators by their least
common multiple turns the check into exact polynomial arithmetic: no
floating point anywhere in this file.
"""

from fractions import Fraction

from wzmahler.symbolic.hyperterm import term_eval_exact
from wzmahler.symbolic.pairs import builtin_pairs
from wzmahler.symbolic.wz import certificate_components, wz_verify

pairs = builtin_pairs()

for name, pair in pairs.items():
    report = wz_verify(pair)
    print(report)

print()
print("The certificate data for the first pair: each quotient is kept as a\n"
      "product of linear factors, multiplied out here, not reduced:")
q1, q2, q3 = certificate_components(pairs["pair-1"])
print("  F(n+1,k)/F(n,k) =", q1)
print("  G(n,k)/F(n,k)   =", q2)
print("  G(n,k+1)/F(n,k) =", q3)

print()
print("Telescoping consequence, checked in exact rational arithmetic:")
pair = pairs["pair-1"]
k = 1
acc = Fraction(0)
for n in range(0, 31):
    acc += term_eval_exact(pair.G, n, k + 1) - term_eval_exact(pair.G, n, k)
rhs = term_eval_exact(pair.F, 31, k) - term_eval_exact(pair.F, 0, k)
print(f"  sum_n (G(n,{k}+1) - G(n,{k})) over n = 0..30  ==  F(31,{k}) - F(0,{k}):",
      acc == rhs)
