"""The tests' second routes, in plain ints and dicts: nothing here imports
``cipos`` or ``perfbench``, so no defect of the engine reaches both sides of a
test, and the benchmark can import this module too.  A polynomial in the
degrees is a dict {exponent tuple: int}: a ``MultidegreePoly``'s ``terms``, or
the ``Poly`` of ``perfbench/checks.py``.  It holds the Taylor shift, the
derivative-cascade threshold, the dicts the JSON reports must render, and the
Morse integrals of the jet tower by a recursion that takes no power of a class.
"""

import itertools
import math
from fractions import Fraction
from functools import cache


def taylor_shift(terms: dict) -> dict[tuple[int, ...], list[int]]:
    """The shift by a symbolic r: p(r + t_1, ..., r + t_c) = sum_j g_j(r) t^j.

    Returns {j: [g_j(0), coefficient of r, ...]} for every g_j that is not
    identically zero; each list ends in a nonzero int.  One variable at a
    time (von zur Gathen and Gerhard, ISSAC 1997): exponent e of d_i
    becomes t_i^j r^(e-j) with weight C(e, j), j = 0..e, and equal keys
    merge before the next variable, so shared parts expand once.
    """
    # key: t-exponents of the variables done, then d-exponents of the rest;
    # value: {r-degree: coefficient}
    table = {exps: {0: coeff} for exps, coeff in terms.items()}
    for i in range(len(next(iter(terms), ()))):
        shifted: dict[tuple[int, ...], dict[int, int]] = {}
        for key, row in table.items():
            e = key[i]
            for j in range(e + 1):
                weight, rise = math.comb(e, j), e - j
                target = shifted.setdefault(key[:i] + (j,) + key[i + 1 :], {})
                for k, v in row.items():
                    target[k + rise] = target.get(k + rise, 0) + weight * v
        table = shifted
    rows = ({k: v for k, v in row.items() if v} for row in table.values())
    return {j: [row.get(k, 0) for k in range(max(row) + 1)] for j, row in zip(table, rows) if row}


def shift_at(terms: dict, r: int) -> dict:
    """p(r + t_1, ..., r + t_c) as a polynomial in t, zero terms dropped."""
    shifted = {j: sum(x * r**k for k, x in enumerate(g)) for j, g in taylor_shift(terms).items()}
    return {j: v for j, v in shifted.items() if v}


def monic_root_bound(coeffs) -> Fraction:
    """1 + max |a_i|: beyond it x^k + a_{k-1} x^{k-1} + ... + a_0 is positive,
    each trailing term being dominated by a slice of x^k."""
    if len(coeffs) < 1:
        raise ValueError("polynomial must have degree >= 1")
    return 1 + max(abs(Fraction(a)) for a in coeffs)


def cascade_threshold(coeffs, c: int, k: int) -> Fraction:
    """Positivity threshold on [r, inf)^c of a monic combination sum_j a_j e_j of
    elementary symmetric polynomials, ``coeffs`` listing (j, a_j) with a_k = 1:
    the monic root bound of the scaled coefficients a_i C(c, i) / C(c, k), i < k,
    dominates that of every diagonal derivative."""
    table = dict(coeffs)
    if k < 1 or k > c:
        raise ValueError(f"leading index k={k} must satisfy 1 <= k <= c")
    if table.get(k) != 1:
        raise ValueError("leading coefficient a_k must be 1; divide it out first")
    if any(j < 0 or j > k for j in table):
        raise ValueError("coefficient indices must lie in 0..k")
    return monic_root_bound([Fraction(table.get(i, 0) * math.comb(c, i), math.comb(c, k)) for i in range(k)])


def terms_json(poly) -> list[dict]:
    """The JSON term list of a ``MultidegreePoly``: graded-lex order, each
    coefficient a string."""
    return [{"coeff": str(coeff), "exps": list(exps)} for exps, coeff in poly.sorted_terms()]


def record_json(record) -> dict:
    """The JSON object of one ``schur.PartitionRecord``."""
    return {
        "partition": list(record.partition),
        "conjugate": list(record.conjugate),
        "dominant": terms_json(record.dominant),
        "dominant_positive": True,
        "threshold": str(record.threshold),
    }


def report_json(report) -> dict:
    """The whole JSON document of one ``schur.SchurReport``."""
    return {
        "N": report.params.N,
        "n": report.params.n,
        "c": report.params.c,
        "a": report.a,
        "records": [record_json(r) for r in report.records],
        "D": str(report.threshold),
    }


@cache
def _series_coefficient(r: int, L: int) -> int:
    """Coefficient g(r, L) of x^L in (1 + x)^-r / (1 - x).  Multiplying the
    series by 1 + x lowers r by one, so g(r, L) = g(r - 1, L) - g(r, L - 1),
    with g(0, L) = 1 and g(r, -1) = 0."""
    if L < 0:
        return 0
    return 1 if r == 0 else _series_coefficient(r - 1, L) - _series_coefficient(r, L - 1)


def _tower(N: int, n: int) -> tuple[int, int, int]:
    """kappa = ceil(n / c), the top stage's dimension n + kappa (n - 1), and m = 3^kappa - 1."""
    kappa = -(-n // (N - n))
    return kappa, n + kappa * (n - 1), 3**kappa - 1


def morse_tables(N: int, n: int) -> tuple[dict, dict]:
    """A = int S^top and B = int h S^(top-1) over the top stage of the jet tower
    of X^n in P^N, for the nef sum S = sum_i 3^(kappa-i) u_i + m h,
    m = 3^kappa - 1, as tables {sorted base Segre indices q: int}: an entry
    stands for its value times prod s_q, an h^n coefficient on the base.

    ``down(k, p, pending)`` pushes R_k^p prod_{q in pending} s_{k,q} to the
    base, where R_k is S cut to the levels up to k (R_0 = m h).  It expands
    R_k^p = sum_b C(p, b) 3^((kappa-k) b) u_k^b R_{k-1}^(p-b), and s_{k,q} as
    sum_j s_{k-1,j} u_k^(q-j) times the coefficient of x^(q-j) in
    (1 + x)^-(n-1+j) / (1 - x), the tower's fiberwise Segre series.  The total
    power e of u_k pushes down to s_{k-1, e-(n-1)}, and to 0 when e < n - 1.
    The degree drops by n - 1 at each level, so every base monomial
    m^p h^p prod s_q of A (and h^(p+1) prod s_q of B) has degree n.
    """
    kappa, top, m = _tower(N, n)

    @cache
    def down(k: int, p: int, pending: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        if k == 0:
            return {pending: m**p}
        out: dict[tuple[int, ...], int] = {}
        for b in range(p + 1):
            weight = math.comb(p, b) * 3 ** ((kappa - k) * b)
            for js in itertools.product(*(range(q + 1) for q in pending)):
                e = b + sum(pending) - sum(js)
                coeff = weight * math.prod(_series_coefficient(n - 1 + j, q - j) for q, j in zip(pending, js))
                if e >= n - 1 and coeff:
                    below = tuple(sorted(j for j in (*js, e - (n - 1)) if j))
                    for base, value in down(k - 1, p - b, below).items():
                        out[base] = out.get(base, 0) + coeff * value
        return out

    return down(kappa, top, ()), down(kappa, top - 1, ())


def morse_on_grid(N: int, n: int, a: int, segre_values) -> dict[tuple[int, ...], int]:
    """The Morse difference A - top (m + a) B at every point of {0..n}^c.

    ``segre_values(N, n, 0, degrees)`` must return s_0..s_n of the cotangent
    bundle at integer degrees (``perfbench/checks.segre_values``).  A and B
    have total degree <= n in the degrees, so a polynomial of total degree
    <= n that takes these values at every point equals the difference.
    """
    _, top, m = _tower(N, n)
    integral, h_integral = morse_tables(N, n)
    grid = {}
    for point in itertools.product(range(n + 1), repeat=N - n):
        s = segre_values(N, n, 0, point)
        A, B = (sum(v * math.prod(s[q] for q in base) for base, v in t.items()) for t in (integral, h_integral))
        grid[point] = A - top * (m + a) * B
    return grid
