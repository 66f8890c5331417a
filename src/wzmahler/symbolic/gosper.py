"""Gosper's algorithm for a hypergeometric series at unit argument, on
Python integers.

The terms t_n = prod (a)_n / (n! prod (b)_n) of pFq(a; b; 1) have the term
ratio t_{n+1}/t_n = prod (n + a) / ((n + 1) prod (n + b)), a quotient of
linear factors, so its Gosper-Petkovsek form needs no factorisation:

* equal top and bottom parameters cancel, n! counting as a bottom 1;
* a top a and a bottom b with a - b = k a positive integer pair up:
  (n + a)/(n + b) = C_ab(n + 1)/C_ab(n), C_ab(n) = (n + b)...(n + a - 1);
* the factors left over make A (tops) and B (bottoms).  Pairing is greedy,
  so no top left minus a bottom left is a non-negative integer, and A(n)
  and B(n + h) are coprime for every h >= 0.

A parameter p/q enters as the integer form q n + p, and A and B carry the
constant q's, so t_{n+1}/t_n = A(n)/B(n) C(n + 1)/C(n) with integer
polynomials and C the product of the C_ab.  By Gosper's theorem (R. W.
Gosper, PNAS 75 (1978) 40-42) the partial sums are hypergeometric exactly
when

    A(n) x(n + 1) - B(n - 1) x(n) = C(n)

has a polynomial solution x, and then T_n = B(n - 1) x(n)/C(n) t_n has
T_{n+1} - T_n = t_n, so the series sums to lim T_n - T_0, and to
-T_0 = -B(-1) x(0)/C(0) when T_n -> 0.

Only that case is sought.  When deg A < deg B the terms decay factorially,
T_n -> 0 whatever x is, and the operator raises degrees by deg B, so
deg x = deg C - deg B.  When deg A = deg B the leading terms cancel
(lc A = lc B at unit argument), the operator raises degrees by
deg A - 1, and with s the parameter excess t_n ~ n^(-1 - s), so
T_n ~ n^(deg x - kappa), kappa = 1 + s + deg C - deg B: T_n -> 0 exactly
when deg x < kappa, that is deg(B x) - deg C < 1 + s.  x's degree is
bounded so, and the operator's diagonal, lc (k - kappa) at n^k, does not
vanish below that bound.  The coefficients are back-substituted from the
top, each from the identity's coefficient of n^(k + delta), delta the
degree the operator adds, fraction-free over one common denominator, on
the identity's residual polynomial.  Every coefficient of that residual
must then be zero, as ``wz.wz_verify`` decides a pair; the coefficients
that no unknown reached decide whether x exists.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, prod

from ..series import count_terms

Poly = list[int]  # coefficients, the constant first


def _linear_product(forms, const: int) -> Poly:
    """const * prod(q n + p for (p, q) in forms)."""
    out = [const]
    for p, q in forms:
        out = [p * u + q * v for u, v in zip([*out, 0], [0, *out])]
    return out


def gosper_sum(tops, bottoms, excess: Fraction,
               max_unknowns: int) -> tuple[Fraction, int] | None:
    """(sum, deg x) of pFq(tops; bottoms; 1), parameters as integer pairs
    (p, q) in lowest terms and ``excess`` = sum(bottoms) - sum(tops),
    positive and read only where there is one top more than bottoms, when
    it has a Gosper certificate that vanishes at infinity; None
    otherwise, and when x would have more than ``max_unknowns``
    coefficients.  The coefficients solved for are counted as terms."""
    tops, bottoms = list(tops), [(1, 1), *bottoms]
    for t in list(tops):
        if t in bottoms:
            tops.remove(t)
            bottoms.remove(t)
    c_forms = []
    for p, q in list(tops):
        shifts = [((p - pb) // q, pb) for pb, qb in bottoms
                  if qb == q and pb < p and (p - pb) % q == 0]
        if shifts:
            k, pb = min(shifts)
            tops.remove((p, q))
            bottoms.remove((pb, q))
            c_forms += [(pb + j * q, q) for j in range(k)]
    alpha, beta = len(tops), len(bottoms)
    if alpha > beta or not beta:  # the terms do not decay
        return None
    if alpha < beta:
        delta, top = beta, len(c_forms) - beta
    else:
        delta, top = alpha - 1, len(c_forms) - beta + ceil(excess)  # ceil(kappa) - 1
    if top < 0 or top + 1 > max_unknowns:
        return None
    count_terms(top + 1)
    a = _linear_product(tops, prod(q for _, q in bottoms))
    b1 = _linear_product([(p - q, q) for p, q in bottoms], prod(q for _, q in tops))  # B(n - 1)
    c = _linear_product(c_forms, 1)
    c += [0] * (top + delta + 2 - len(c))  # room for every cols[k] below
    # cols[k] = A(n) (n + 1)^k - B(n - 1) n^k, the image of n^k
    cols, ak = [], a
    for k in range(top + 1):
        col = ak + [0] * (beta - alpha)
        for i, v in enumerate(b1):
            col[k + i] -= v
        cols.append(col)
        ak = [u + v for u, v in zip([*ak, 0], [0, *ak])]
    # x = xs/den, back-substituted on the residual r = den C - sum x_k cols[k]
    # of the identity; den is the product of the diagonal entries, and x_k
    # times those from k up is an integer, so each division is exact
    den = prod(col[k + delta] for k, col in enumerate(cols))
    r, xs = [den * v for v in c], [0] * (top + 1)
    for k in reversed(range(top + 1)):
        col = cols[k]
        xs[k] = x = r[k + delta] // col[k + delta]
        r = [u - x * v for u, v in zip(r, col)] + r[len(col):]
    if any(r):  # every coefficient of the identity, exactly
        return None
    deg_x = max((k for k, v in enumerate(xs) if v), default=0)
    return Fraction(-b1[0] * xs[0], den * c[0]), deg_x
