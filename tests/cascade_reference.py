"""The derivative-cascade threshold, kept as the tests' looser oracle.

A monic combination sum_j a_j e_j(d_1..d_c) of elementary symmetric
polynomials is positive on [r, inf)^c once r passes the monic root bound of
each diagonal derivative, and all of those are dominated by the monic root
bound of the scaled coefficients a_i C(c, i) / C(c, k), i < k.  The program
reads every threshold from the Taylor-shift test instead, which certifies
the least such r; so its threshold is never above the ceiling of this one.
"""

import math
from fractions import Fraction


def monic_root_bound(coeffs) -> Fraction:
    """Bound beyond which a monic univariate polynomial is positive.

    ``coeffs`` lists the non-leading coefficients a_0..a_{k-1} of
    x^k + a_{k-1} x^{k-1} + ... + a_0; at any x >= 1 + max |a_i| the value is
    positive (each trailing term is dominated by a slice of x^k).
    """
    if len(coeffs) < 1:
        raise ValueError("polynomial must have degree >= 1")
    return 1 + max(abs(Fraction(a)) for a in coeffs)


def cascade_threshold(coeffs, c: int, k: int) -> Fraction:
    """Uniform positivity threshold for a monic combination of elementary
    symmetric polynomials in c variables; ``coeffs`` lists (j, a_j) with
    a_k = 1 required (callers divide first)."""
    table = dict(coeffs)
    if k < 1 or k > c:
        raise ValueError(f"leading index k={k} must satisfy 1 <= k <= c")
    if table.get(k) != 1:
        raise ValueError("leading coefficient a_k must be 1; divide it out first")
    if any(j < 0 or j > k for j in table):
        raise ValueError("coefficient indices must lie in 0..k")
    return monic_root_bound([Fraction(table.get(i, 0) * math.comb(c, i), math.comb(c, k)) for i in range(k)])
