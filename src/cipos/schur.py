"""Partitions, Schur determinants, and the numerical-positivity report.

A partition is a weakly decreasing tuple of positive parts.

The report certifies, degree threshold included, that every Schur determinant
in the Segre classes of the negatively twisted cotangent bundle is eventually
positive when the codimension dominates the dimension.  Positivity of each
dominant part is established twice: by identifying it with the corresponding
determinant for an ample sum of line bundles, and by directly inspecting its
m_lam coefficients.  Disagreement between the two routes is a hard error.

Every class of the report is symmetric in the degrees, so the report works
on ``polyring.ElementaryClass``es: the Segre classes enter as the closed forms
of ``chow.segre_elementary``, never expanded in d, and the determinants and the
identification route run there.  Each determinant is read once, by
``polyring.shift_rows`` (which gives ``bound`` its rows too): one row per S_c
orbit, multiplying no polynomial in d.  Its threshold is the least integer r that
the Taylor-shift test of ``bounds`` certifies on those rows, and its dominant part,
for the direct route and the output, is kept as the r^0 entries of the rows of
top weight, its m_lam coefficients.  The classes the report writes itself skip
validation: it writes no zero or malformed term.

The report is plain data; the CLI renders it, writing each dominant part in d.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from . import bounds, chow
from .chow import ModelParams
from .polyring import ElementaryClass, partitions_of, series_inverse, shift_rows


def conjugate(parts: Sequence[int]) -> tuple[int, ...]:
    """Transpose of the Young diagram of a weakly decreasing tuple of positive
    parts; an involution."""
    return tuple(sum(p > i for p in parts) for i in range(parts[0] if parts else 0))


def schur_det(parts: Sequence[int], classes: Sequence):
    """Determinant det(c_{p_i + j - i}) over any commutative coefficient ring,
    for the partition with parts p_1 >= p_2 >= ....

    ``classes`` lists c_0, c_1, ... with c_0 the unit; indices outside the
    list (negative or beyond the end) are zero.  Uses division-free Laplace
    expansion memoized over column subsets, seeded with the empty minor c_0,
    so it stays exact over rings with zero divisors.
    """
    if not classes:
        raise ValueError("empty class sequence")
    m, weight = len(parts), sum(parts)
    # row_sums[k] = sum of p_i - i over the first k rows
    row_sums = [0, *itertools.accumulate(p - i for i, p in enumerate(parts))]
    # minors[mask] = det of the first popcount(mask) rows on column set mask,
    # expanded along the last of those rows; minors[0] = c_0.  Its product
    # terms have index sum w = row_sums[k] + sum(mask).  For w > |partition|
    # the rows below would need a negative index sum, so the minor is not
    # kept; expanding a kept minor along c_idx, idx >= 0, leaves a minor of
    # index sum w - idx <= w, which is kept, so no lookup misses
    minors = {0: classes[0]}
    for mask in range(1, 1 << m):
        cols = [j for j in range(m) if mask >> j & 1]
        row = len(cols) - 1
        if row_sums[row + 1] + sum(cols) > weight:
            continue
        acc = 0
        for t, j in enumerate(cols):
            idx = parts[row] + j - row
            if 0 <= idx < len(classes):
                e = classes[idx] * minors[mask ^ (1 << j)]
                acc = acc - e if (row + t) % 2 else acc + e
        minors[mask] = acc
    return minors[(1 << m) - 1]


class PartitionRecord(NamedTuple):
    """A partition whose dominant part, {lam: coefficient of m_lam}, passed both positivity routes."""

    partition: tuple[int, ...]
    conjugate: tuple[int, ...]
    dominant: dict[tuple[int, ...], int]
    threshold: int


class SchurReport(NamedTuple):
    """One record per partition of each weight up to the dimension, plus the
    largest threshold D: every class is positive on [D, inf)^c."""

    params: ModelParams
    a: int
    records: list[PartitionRecord]
    threshold: int


def positivity_report(params: ModelParams, a: int) -> SchurReport:
    """Certify every Schur determinant in the twisted Segre classes.

    Requires codimension >= dimension.  For each partition of each weight up
    to the dimension: form the determinant in the h-coefficients of the
    twisted Segre classes (it is the coefficient of h^weight of the class),
    extract its dominant part, verify the two positivity routes agree, and
    attach the least uniform degree threshold the shift test certifies.

    The determinants and the identification run on the closed-form twisted
    Segre classes of ``chow.segre_elementary``; the shift rows of each
    determinant give both its threshold and its dominant part for the output.
    """
    n, c = params.n, params.c
    if c < n:
        raise ValueError(f"numerical positivity requires c >= n, got c={c} < n={n}")
    if a < 0:
        raise ValueError("twist a must be >= 0")
    twisted = chow.segre_elementary(params, -a)
    chern_data = [ElementaryClass._from_row(c, [0] * j + [1]) for j in range(n + 1)]  # e_j, nonzero as j <= n <= c
    segre_data = chern_data[:1] + series_inverse(chern_data[1:], n)
    records = []
    for ell in range(1, n + 1):
        for lam in partitions_of(ell):
            conj = conjugate(lam)
            graded = schur_det(conj, twisted)
            top = graded.dominant_part()
            via_chern = schur_det(conj, chern_data)
            via_segre = schur_det(lam, segre_data)
            identified = top == via_chern and top == via_segre
            rows = shift_rows(graded)  # at r = 0, the rows of weight ell hold the m_mu coefficients of top
            dominant = {tuple(filter(None, mu)): g[0] for mu, g in rows.items() if sum(mu) == ell}
            # every monomial of m_lam carries its coefficient: this is the check on the monomials
            direct = bool(dominant) and all(v > 0 for v in dominant.values())
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
                    threshold=bounds.shifted_positivity_threshold(list(rows.values())),
                )
            )
    overall = max(record.threshold for record in records)
    return SchurReport(params=params, a=a, records=records, threshold=overall)
