"""Effective degree thresholds, in exact arithmetic.

The Taylor-shift threshold (one search over the rows of a Taylor table, the
least r that the shift test certifies; ``bound`` and ``positivity`` both read
their rows from ``polyring.shift_rows``), the first-order Morse difference's
closed-form coefficients of e_0..e_n (the row of its ``ElementaryClass``), the
scan for its first positive uniform degree, and the explicit degree bounds
(general rough form and sharpened surface form).
The explicit bounds are Fractions, and callers compare integer degrees with
their ceiling; the searches return integers.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence


def morse_coeff(N: int, n: int, a: int, j: int) -> int:
    """Coefficient of the j-th elementary symmetric polynomial in the
    first-order Morse difference (codimension >= dimension case).

    The half-integer weight 2^{i-1}(2 - i(2+a)) is rearranged as
    2^i - i(2+a)2^{i-1}, which is an integer for every i >= 0 (value 1 at
    i = 0), so the whole sum stays in integer arithmetic.
    """
    c = N - n
    if n > c:
        raise ValueError(f"requires n <= c, got n={n}, c={c}")
    if not 0 <= j <= n:
        raise ValueError(f"index j={j} outside 0..{n}")
    total = 0
    for i in range(n - j + 1):
        weight = 2**i - i * (2 + a) * 2 ** (i - 1) if i else 1
        total += (-1) ** i * weight * math.comb(2 * n - 1, i) * math.comb(N + n - i - j, N)
    return (-1) ** (n - j) * total


def _horner(coeffs: Sequence[int], r: int) -> int:
    value = 0
    for a in reversed(coeffs):
        value = value * r + a
    return value


def _least(lo: int, hi: int, holds: Callable[[int], bool]) -> int:
    """Least r in lo..hi at which holds(r), for a predicate upward closed on
    lo..hi that holds at hi (hi itself is never probed).  Plain ints, so the
    interval may be of any width."""
    while lo < hi:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def shifted_positivity_threshold(rows: Sequence[Sequence[int]]) -> int:
    """Smallest integer r >= 1 at which the rows g_j(r) of a Taylor table,
    poly(r + t) = sum_j g_j(r) t^j, are nonnegative (zeros pass) and the
    first, constant row is positive.

    Taylor expansion then makes the polynomial positive on all of [r, inf)^c.
    Every threshold of ``positivity`` and the tail claim of ``bound`` come
    from here.  Each probe evaluates the rows (lists by powers of r) by
    Horner's rule.  The valid set of r is upward closed, so doubling plus
    bisection finds the frontier.  The set is empty exactly when the constant
    row is zero or a row's last nonzero coefficient is negative."""
    leads = [next((v for v in reversed(row) if v), 0) for row in rows]
    if leads[0] == 0 or min(leads) < 0:
        raise ArithmeticError("no shifted-positivity threshold: a row is not positive for large r")

    def certifies(r: int) -> bool:
        return _horner(rows[0], r) > 0 and all(_horner(g, r) >= 0 for g in rows)

    hi = 1
    while not certifies(hi):
        hi *= 2
    return _least(hi // 2 + 1, hi, certifies)  # every r up to hi // 2 is unsound


def _monotone_blocks(p: Sequence[int], lo: int, hi: int) -> list[tuple[int, int]]:
    """Integer intervals (s, e), in order and covering lo..hi, on each of
    which p (a list by powers of r) is monotone as a real function: the blocks
    of p' split where p', monotone there, changes strict sign."""
    if len(p) <= 2:
        return [(lo, hi)]
    dp = [i * a for i, a in enumerate(p)][1:]
    blocks = []
    for s, e in _monotone_blocks(dp, lo, hi):
        sign = _horner(dp, e)
        if _horner(dp, s) * sign >= 0:
            blocks.append((s, e))
        else:
            t = _least(s, e, lambda r: _horner(dp, r) * sign > 0)
            blocks += [(s, t - 1), (t, e)]
    return blocks


def first_positive_uniform_degree(diagonal: Sequence[int], d_max: int) -> int | None:
    """Smallest r in 1..d_max with diagonal(r) > 0, or None when there is
    none.  ``diagonal``, a constant row by powers of r, is positive at
    shifted_positivity_threshold(rows), so a scan up to there succeeds.  On a
    block where the diagonal is monotone, it is positive somewhere only if it
    is at an end, so the block's first positive r is its start, a bisection
    toward its end, or absent."""
    if d_max < 1:
        return None
    for s, e in _monotone_blocks(diagonal, 1, d_max):
        if _horner(diagonal, s) > 0:
            return s
        if _horner(diagonal, e) > 0:
            return _least(s, e, lambda r: _horner(diagonal, r) > 0)
    return None


def surface_degree_bound(N: int, a: int) -> Fraction:
    """Sharpened uniform degree bound for surfaces (dimension 2) in P^N.

    Valid for N >= 4, where the constant coefficient of the Morse difference
    is already nonnegative and only the linear term needs to be dominated.
    """
    from fractions import Fraction

    if N < 4:
        raise ValueError("surface bound requires N >= 4")
    return Fraction(2 * (N + 1 + 3 * a), N - 3)


def rough_degree_bound(N: int, n: int, a: int) -> Fraction:
    """General uniform degree bound for n <= c, exact rational value."""
    from fractions import Fraction

    c = N - n
    if n > c:
        raise ValueError(f"requires n <= c (N >= 2n), got n={n}, c={c}")
    first = (
        Fraction(2 ** (n - 1) * (n * (2 + a) - 2) * n * n, N + 1) * math.comb(2 * n - 1, n)
        + 1
    )
    ratio = Fraction(
        math.factorial(N + n) * math.factorial(N - 2 * n),
        math.factorial(N) * math.factorial(N - n),
    )
    return first * math.comb(n, n // 2) * ratio


def rough_bound_limit(n: int) -> int:
    """Large-codimension limit constant of the rough bound at shifted twist."""
    return 2 ** (n - 1) * n**3 * math.comb(2 * n - 1, n) * math.comb(n, n // 2)

