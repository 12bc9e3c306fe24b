"""Partitions, Schur determinants, and the numerical-positivity report.

The report certifies, degree threshold included, that every Schur determinant
in the Segre classes of the negatively twisted cotangent bundle is eventually
positive when the codimension dominates the dimension.  Positivity of each
dominant part is established twice: by identifying it with the corresponding
determinant for an ample sum of line bundles, and by directly inspecting its
monomial coefficients.  Disagreement between the two routes is a hard error.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import bounds, chow
from .chow import ModelParams
from .polyring import (
    MultidegreePoly,
    elementary_symmetric,
    express_in_elementary,
    series_inverse,
)


class Partition:
    """Weakly decreasing sequence of positive integer parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[int]):
        parts = tuple(parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def weight(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram; an involution."""
        if not self.parts:
            return self
        out = [0] * self.parts[0]
        for p in self.parts:
            for i in range(p):
                out[i] += 1
        return Partition(out)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        if isinstance(other, tuple):
            return self.parts == other
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition{self.parts}"


def partitions_of(weight: int) -> list[Partition]:
    """All partitions of the given weight, largest first part first."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return [Partition(p) for p in gen(weight, weight)]


def schur_det(partition: Partition, classes: Sequence):
    """Determinant det(c_{p_i + j - i}) over any commutative coefficient ring.

    ``classes`` lists c_0, c_1, ... with c_0 the unit; indices outside the
    list (negative or beyond the end) are zero.  Uses division-free Laplace
    expansion memoized over column subsets, so it stays exact over rings with
    zero divisors.
    """
    if not classes:
        raise ValueError("empty class sequence")
    parts = partition.parts
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

    partition: Partition
    conjugate: Partition
    dominant: MultidegreePoly
    threshold: Fraction

    def to_json(self) -> dict:
        return {
            "partition": list(self.partition),
            "conjugate": list(self.conjugate),
            "dominant": self.dominant.to_json(),
            "dominant_positive": True,
            "threshold": str(self.threshold),
        }


class SchurReport(NamedTuple):
    """One record per partition of each weight up to the dimension, plus the
    maximal sufficient uniform degree threshold."""

    params: ModelParams
    a: int
    records: list[PartitionRecord]
    threshold: Fraction

    def to_json(self) -> dict:
        return {
            "N": self.params.N,
            "n": self.params.n,
            "c": self.params.c,
            "a": self.a,
            "records": [r.to_json() for r in self.records],
            "D": str(self.threshold),
        }


def _threshold_for(poly: MultidegreePoly, c: int) -> Fraction:
    if poly.is_multilinear():
        coeffs = express_in_elementary(poly)
        k = coeffs[0][0]
        return bounds.symmetric_positivity_threshold(coeffs, c, k)
    table = poly.taylor_shift()
    return Fraction(bounds.shifted_positivity_threshold([table.pop((0,) * c, []), *table.values()]))


def positivity_report(params: ModelParams, a: int) -> SchurReport:
    """Certify every Schur determinant in the twisted Segre classes.

    Requires codimension >= dimension.  For each partition of each weight up
    to the dimension: form the determinant in the h-coefficients of the
    twisted Segre classes (it is the coefficient of h^weight of the class),
    extract its dominant part, verify the two positivity routes agree, and
    attach a sufficient uniform degree threshold.
    """
    n, c = params.n, params.c
    if c < n:
        raise ValueError(f"numerical positivity requires c >= n, got c={c} < n={n}")
    if a < 0:
        raise ValueError("twist a must be >= 0")
    twisted = chow.segre_cotangent(params, -a)
    chern_data = [MultidegreePoly.one(c)] + [elementary_symmetric(j, c) for j in range(1, n + 1)]
    segre_data = [MultidegreePoly.one(c)] + series_inverse(chern_data[1:], n)
    records = []
    for ell in range(1, n + 1):
        for lam in partitions_of(ell):
            conj = lam.conjugate()
            graded = schur_det(conj, twisted)
            dominant = graded.dominant_part()
            via_chern = schur_det(conj, chern_data)
            via_segre = schur_det(lam, segre_data)
            identified = dominant == via_chern and dominant == via_segre
            direct = bool(dominant.terms) and all(v > 0 for v in dominant.terms.values())
            if not (identified and direct):
                raise ArithmeticError(
                    f"positivity routes disagree for partition {tuple(lam)}:"
                    f" identified={identified}, direct={direct}"
                )
            records.append(
                PartitionRecord(
                    partition=lam,
                    conjugate=conj,
                    dominant=dominant,
                    threshold=_threshold_for(graded, c),
                )
            )
    overall = max(record.threshold for record in records)
    return SchurReport(params=params, a=a, records=records, threshold=overall)
