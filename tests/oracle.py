"""The tests' second routes, in plain ints and dicts: nothing here imports
``cipos`` or ``perfbench``, so no defect of the engine reaches both sides of a
test, and the benchmark can import this module too.  A polynomial in the
degrees is a dict {exponent tuple: int}: a ``MultidegreePoly``'s ``terms``, or
the ``Poly`` of ``perfbench/checks.py``.  It holds products of elementary
symmetric polynomials multiplied out over their 0-1 subsets, the Taylor
shift, the derivative-cascade threshold, the dicts the JSON reports must
render, the Segre classes by the product formula as truncated series products
over whatever ring elements the caller passes in, and the Morse integrals of
the jet tower by a recursion that takes no power of a class.
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


def elementary_product(rows, c: int) -> dict[tuple[int, ...], int]:
    """The product of e_r(d_1..d_c) over r in ``rows``, multiplied out in plain
    dicts: e_r is the sum of the 0-1 exponent vectors of its r-subsets of the
    c variables, so e_0 = 1 and e_r = 0 for r > c."""
    product = {(0,) * c: 1}
    for r in rows:
        step: dict[tuple[int, ...], int] = {}
        for key, v in product.items():
            for subset in itertools.combinations(range(c), r):
                exps = tuple(e + (i in subset) for i, e in enumerate(key))
                step[exps] = step.get(exps, 0) + v
        product = step
    return product


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
    """The JSON term list of a ``MultidegreePoly`` or of a dict {exponent tuple:
    int}: graded-lex order (higher total degree first, then lexicographically
    larger first), each coefficient a string."""
    terms = poly if isinstance(poly, dict) else poly.terms
    ordered = sorted(terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)
    return [{"coeff": str(coeff), "exps": list(exps)} for exps, coeff in ordered]


def _orderings(parts: tuple) -> list[tuple]:
    """Every distinct ordering of a tuple of ints."""
    if not parts:
        return [()]
    out = []
    for value in set(parts):
        rest = list(parts)
        rest.remove(value)
        out += [(value, *tail) for tail in _orderings(tuple(rest))]
    return out


def m_in_d(coefficients: dict, c: int) -> dict:
    """sum a * m_lam(d_1..d_c) over {lam: a}, multiplied out: a on every distinct
    ordering of lam padded with zeros to c slots."""
    return {key: a for lam, a in coefficients.items() for key in _orderings(tuple(lam) + (0,) * (c - len(lam)))}


def record_json(record, c: int) -> dict:
    """The JSON object of one ``schur.PartitionRecord`` of a frame of codimension
    c, its dominant part given by its m_lam coefficients."""
    return {
        "partition": list(record.partition),
        "conjugate": list(record.conjugate),
        "dominant": terms_json(m_in_d(record.dominant, c)),
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
        "records": [record_json(r, report.params.c) for r in report.records],
        "D": str(report.threshold),
    }


def series_product(a, b, order: int) -> list:
    """The coefficients of t^0..t^order of (sum a_i t^i)(sum b_j t^j); entries
    beyond either list are zero.  Duck-typed: ints, or ring elements that add
    and multiply with each other and with ints (an empty sum is the int 0)."""
    return [
        sum((a[i] * b[k - i] for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1)), 0)
        for k in range(order + 1)
    ]


def segre_product(N: int, n: int, twist: int, one, variables) -> list:
    """Segre classes s_0..s_n of the twisted cotangent bundle of X^n in P^N by
    the product formula: the h-series of (1 + (1-t)h)^-(N+1) (1 - th)
    prod_i (1 + (d_i - t)h), the power as N + 1 products with the geometric
    series.  ``one`` is the ring's unit and ``variables`` the degrees d_i in
    it, e.g. ``MultidegreePoly.one(c)`` and its variables, or 1 and a point."""
    geometric = [one * (twist - 1) ** k for k in range(n + 1)]
    total = [one]
    for _ in range(N + 1):
        total = series_product(total, geometric, n)
    for factor in (one * -twist, *(d - twist for d in variables)):
        total = series_product(total, [one, factor], n)
    return total


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
