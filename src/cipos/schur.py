"""Partitions, Schur determinants, and the numerical-positivity report.

A partition is a weakly decreasing tuple of positive parts.

The report certifies, degree threshold included, that every Schur determinant
in the Segre classes of the negatively twisted cotangent bundle is eventually
positive when the codimension dominates the dimension.  Positivity of each
dominant part is established twice: by identifying it with the corresponding
determinant for an ample sum of line bundles, and by directly inspecting its
monomial coefficients.  Disagreement between the two routes is a hard error.

Every class of the report depends on the degrees only through e_1..e_n, and
n <= c makes them algebraically independent, so the report works in the ring
of E_1..E_n: the Segre classes enter as the rows of elementary coefficients
that ``chow.segre_elementary`` states in closed form, never expanded in d, the
determinants and the identification route run there, and each threshold is
the least integer r that the Taylor-shift test of ``bounds`` certifies, read
from one shifted row per S_c orbit; E_k(r + t) is read from the shift rows of
``bounds`` for e_k.  Only the dominant parts are expanded in d, for the direct
route and the output.

The report is plain data; the CLI renders it.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from . import bounds, chow
from .chow import ModelParams
from .polyring import MultidegreePoly, _accumulate, elementary_symmetric, series_inverse


def conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    """Transpose of the Young diagram of a weakly decreasing tuple of positive
    parts; an involution."""
    return tuple(sum(p > i for p in parts) for i in range(parts[0] if parts else 0))


def partitions_of(weight: int) -> list[tuple[int, ...]]:
    """All partitions of the given weight as weakly decreasing tuples, largest
    first part first."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(weight, weight))


def schur_det(parts: Sequence[int], classes: Sequence):
    """Determinant det(c_{p_i + j - i}) over any commutative coefficient ring,
    for the partition with parts p_1 >= p_2 >= ....

    ``classes`` lists c_0, c_1, ... with c_0 the unit; indices outside the
    list (negative or beyond the end) are zero.  Uses division-free Laplace
    expansion memoized over column subsets, so it stays exact over rings with
    zero divisors.
    """
    if not classes:
        raise ValueError("empty class sequence")
    m = len(parts)
    if m == 0:
        return classes[0]
    weight = sum(parts)

    def entry(i, j):
        idx = parts[i] + j - i
        if idx < 0 or idx >= len(classes):
            return None
        return classes[idx]

    matrix = [[entry(i, j) for j in range(m)] for i in range(m)]
    # row_sums[k] = sum of p_i - i over the first k rows
    row_sums = [0, *itertools.accumulate(p - i for i, p in enumerate(parts))]
    # minors[mask] = det of the first popcount(mask) rows on column set mask,
    # built by expanding along the last of those rows.  Every product term of
    # that minor has index sum w = row_sums[k] + sum(mask); for w > |partition|
    # the rows below would need a negative index sum, so the minor reaches the
    # determinant only through zero entries: it is skipped (a missing key is 0)
    minors: dict[int, object] = {}
    for mask in range(1, 1 << m):
        cols = [j for j in range(m) if mask >> j & 1]
        row = len(cols) - 1
        if row_sums[row + 1] + sum(cols) > weight:
            continue
        acc = 0
        for t, j in enumerate(cols):
            e = matrix[row][j]
            if e is None:
                continue
            if row:
                rest = minors.get(mask ^ (1 << j))
                if rest is None:
                    continue
                e = e * rest
            acc = acc - e if (row + t) % 2 else acc + e
        minors[mask] = acc
    return minors[(1 << m) - 1]


class PartitionRecord(NamedTuple):
    """A partition whose dominant part passed both positivity routes."""

    partition: tuple[int, ...]
    conjugate: tuple[int, ...]
    dominant: MultidegreePoly
    threshold: int


class SchurReport(NamedTuple):
    """One record per partition of each weight up to the dimension, plus the
    largest threshold D: every class is positive on [D, inf)^c."""

    params: ModelParams
    a: int
    records: list[PartitionRecord]
    threshold: int


class _ElementaryRing:
    """Z[E_1..E_n], E_k = e_k(d_1..d_c) with n <= c, so the E_k are
    algebraically independent and a class has one expansion in them.

    Keys are exponent tuples of E_1..E_n; the weighted degree sum_k k*m_k is
    the degree in d.  Two maps leave the ring, each memoized per E-monomial
    for the life of one report and built as a smaller monomial's image times
    one factor: the expansion in d, and the symmetric shift d = r + t, as a
    polynomial in E_1(t)..E_n(t) whose last key slot is the power of r.
    """

    def __init__(self, n: int, c: int):
        self.n, self.c = n, c
        zero = (0,) * n
        # E_k(r + t) from the shift rows of the class e_k: row i holds the
        # coefficient of E_i(t), by powers p of r
        shift = [
            MultidegreePoly(n + 1, {self.key(i) + (p,): v for i, row in enumerate(rows) for p, v in enumerate(row)})
            for rows in (bounds.elementary_shift_rows([0] * k + [1], c) for k in range(1, n + 1))
        ]
        # (memo of monomial images, image of E_1..E_n) per map
        self._in_d = ({zero: MultidegreePoly.one(c)}, [elementary_symmetric(k, c) for k in range(1, n + 1)])
        self._shifted = ({zero: MultidegreePoly.one(n + 1)}, shift)

    def key(self, j: int) -> tuple[int, ...]:
        """Exponent tuple of E_j; E_0 = 1."""
        return tuple(int(k == j) for k in range(1, self.n + 1))

    def from_row(self, row: Sequence[int]) -> MultidegreePoly:
        """The class sum_k row[k] * e_k(d), in the E-basis."""
        return MultidegreePoly(self.n, {self.key(k): v for k, v in enumerate(row)})

    @staticmethod
    def weight(key: tuple[int, ...]) -> int:
        return sum(k * m for k, m in enumerate(key, 1))

    def dominant_part(self, poly: MultidegreePoly) -> MultidegreePoly:
        """The terms of top weighted degree: the dominant part in d, in the E-basis."""
        top = max(map(self.weight, poly.terms), default=None)
        return MultidegreePoly(self.n, {m: a for m, a in poly.terms.items() if self.weight(m) == top})

    def _image(self, images, key: tuple[int, ...]) -> MultidegreePoly:
        memo, factors = images
        value = memo.get(key)
        if value is None:
            # peel one factor of the lowest E_k present: e_k has the fewest terms
            k = next(k for k, m in enumerate(key) if m)
            value = self._image(images, key[:k] + (key[k] - 1,) + key[k + 1 :]) * factors[k]
            memo[key] = value
        return value

    def expand(self, poly: MultidegreePoly) -> MultidegreePoly:
        """The same class as a polynomial in d_1..d_c."""
        return MultidegreePoly.zero(self.c).add_all(self._image(self._in_d, m) * a for m, a in poly.terms.items())

    def orbit_rows(self, poly: MultidegreePoly) -> dict[tuple[int, ...], list[int]]:
        """The rows of poly(r + t) = sum_mu g_mu(r) t^mu, one per S_c orbit.

        poly(r + t) is symmetric in t, so the rows of an orbit of t-exponents
        are equal, and the orbits are the partitions mu of weight <= n (at most
        n <= c parts).  With poly(r + t) = sum_m G_m(r) E(t)^m, g_mu is
        sum_m G_m [t^mu] E(t)^m.  Returns {mu padded to c slots: g_mu by
        powers of r, up to its last nonzero coefficient} for every nonzero
        g_mu, the constant row (the diagonal G_0) first even when it is zero.
        """
        n = self.n
        shifted = MultidegreePoly.zero(n + 1).add_all(self._image(self._shifted, m) * a for m, a in poly.terms.items())
        # weight -> [(E(t)^m in t, power of r, coefficient)]; [t^mu] E(t)^m is 0 unless |mu| = weight(m)
        by_weight: dict[int, list] = {}
        for key, v in shifted.terms.items():
            m = key[:n]
            by_weight.setdefault(self.weight(m), []).append((self._image(self._in_d, m), key[n], v))
        rows = {}
        for weight in range(max(by_weight, default=0) + 1):
            for mu in partitions_of(weight):
                t_key = mu + (0,) * (self.c - len(mu))
                row = _accumulate({}, ((k, in_t.coeff(t_key) * v) for in_t, k, v in by_weight.get(weight, ())))
                if row or not weight:
                    rows[t_key] = [row.get(k, 0) for k in range(max(row, default=-1) + 1)]
        return rows

    def threshold(self, poly: MultidegreePoly) -> int:
        """Uniform degree threshold for ``poly``, nonzero in weight >= 1: the
        least r that certifies the orbit rows, which is the least r that
        certifies every row of the Taylor table."""
        return bounds.shifted_positivity_threshold(list(self.orbit_rows(poly).values()))


def positivity_report(params: ModelParams, a: int) -> SchurReport:
    """Certify every Schur determinant in the twisted Segre classes.

    Requires codimension >= dimension.  For each partition of each weight up
    to the dimension: form the determinant in the h-coefficients of the
    twisted Segre classes (it is the coefficient of h^weight of the class),
    extract its dominant part, verify the two positivity routes agree, and
    attach the least uniform degree threshold the shift test certifies.

    The twisted Segre classes are the closed-form rows of
    ``chow.segre_elementary`` read in the ring of E_1..E_n (``_ElementaryRing``),
    where the determinants, the identification and the threshold rows run;
    the dominant part, the top weighted-degree part there, is expanded in d
    once, for the direct coefficient check and the output.
    """
    n, c = params.n, params.c
    if c < n:
        raise ValueError(f"numerical positivity requires c >= n, got c={c} < n={n}")
    if a < 0:
        raise ValueError("twist a must be >= 0")
    ring = _ElementaryRing(n, c)
    twisted = [ring.from_row(row) for row in chow.segre_elementary(params, -a)]
    chern_data = [MultidegreePoly.one(n)] + [MultidegreePoly.monomial(n, ring.key(j)) for j in range(1, n + 1)]
    segre_data = [MultidegreePoly.one(n)] + series_inverse(chern_data[1:], n)
    records = []
    for ell in range(1, n + 1):
        for lam in partitions_of(ell):
            conj = conjugate(lam)
            graded = schur_det(conj, twisted)
            top = ring.dominant_part(graded)
            via_chern = schur_det(conj, chern_data)
            via_segre = schur_det(lam, segre_data)
            identified = top == via_chern and top == via_segre
            dominant = ring.expand(top)
            direct = bool(dominant.terms) and all(v > 0 for v in dominant.terms.values())
            if not (identified and direct):
                raise ArithmeticError(
                    f"positivity routes disagree for partition {lam}:"
                    f" identified={identified}, direct={direct}"
                )
            records.append(
                PartitionRecord(
                    partition=lam,
                    conjugate=conj,
                    dominant=dominant,
                    threshold=ring.threshold(graded),
                )
            )
    overall = max(record.threshold for record in records)
    return SchurReport(params=params, a=a, records=records, threshold=overall)
