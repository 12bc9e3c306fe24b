"""Acceptance suite: one callable per criterion, shared by pytest and the CLI.

Each criterion returns (passed, detail) and is timed by the runner; the stated
wall-clock budgets are recorded so callers can enforce them.  The runner
returns each outcome as a ``CriterionResult`` of plain values, which the CLI
renders.  Randomized criteria fix their seeds, so reruns are bit-for-bit
identical.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from typing import NamedTuple

from . import bounds, chow, jets, schur, vecfields
from .chow import ModelParams
from .polyring import MultidegreePoly, recombine_elementary, series_inverse


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    limit: float | None


def _criterion_1() -> tuple[bool, str]:
    """Closed-form Segre coefficients match the product expansion at every
    twist in -3..3; twisting the untwisted sequence matches the direct twisted
    expansion."""
    for N in range(2, 11):
        for c in range(1, N):
            params = ModelParams(N, N - c)
            for m in range(-3, 4):
                seg = chow.segre_cotangent(params, m)
                for j, row in enumerate(chow.segre_elementary(params, m)):
                    if seg[j] != recombine_elementary(enumerate(row), c):
                        return False, f"closed form mismatch at N={N} c={c} m={m} j={j}"
    for N in range(2, 7):
        for c in range(1, N):
            params = ModelParams(N, N - c)
            base = chow.segre_cotangent(params, 0)
            for m in range(-3, 4):
                twisted = chow.twist_segre(base, params.n, m)
                direct = chow.segre_cotangent(params, m)
                if twisted != direct:
                    return False, f"twist mismatch at N={N} c={c} m={m}"
    return True, "all N<=10 closed forms at twists -3..3 and N<=6 twists agree exactly"


def _criterion_2() -> tuple[bool, str]:
    """Schur determinants in c-data equal conjugate determinants in s-data."""
    rng = random.Random(821)
    partitions = [(w, schur.partitions_of(w)) for w in range(9)]
    for trial in range(200):
        cs = [rng.randint(-6, 6) for _ in range(8)]
        ss = series_inverse(cs, 8)
        c_data = [1] + cs
        s_data = [1] + ss
        for _, plist in partitions:
            for lam in plist:
                if schur.schur_det(lam, c_data) != schur.schur_det(schur.conjugate(lam), s_data):
                    return False, f"duality failed for c={cs}, partition {lam}"
    return True, "200 random sequences, all partitions of weight <= 8"


def _criterion_3() -> tuple[bool, str]:
    """Closed-form surface coefficients for all N in 4..12, a in 0..6."""
    for N in range(4, 13):
        for a in range(0, 7):
            checks = (
                bounds.morse_coeff(N, 2, a, 2) == 1,
                bounds.morse_coeff(N, 2, a, 1) == -(N + 1) - 3 * a,
                bounds.morse_coeff(N, 2, a, 0)
                == math.comb(N + 2, N) + 3 * a * (N + 1) - 12 * (a + 1),
            )
            if not all(checks):
                return False, f"surface coefficient mismatch at N={N} a={a}"
    return True, "all three closed forms reproduced exactly"


def _criterion_4() -> tuple[bool, str]:
    """The flagship surface threshold 34 and the sign flip around it."""
    if bounds.surface_degree_bound(4, 4) != 34:
        return False, "surface bound at N=4, a=4 is not 34"
    params = ModelParams(4, 2)
    cert = jets.morse_certificate(params, 4)
    at34 = cert.difference.eval((34, 34))
    at33 = cert.difference.eval((33, 33))
    if at34 != 15:
        return False, f"value at (34,34) is {at34}, expected 15"
    if at33 != -18:
        return False, f"value at (33,33) is {at33}, expected -18"
    diagonal = [0] * (cert.difference.total_degree() + 1)  # at d = (r, r), by powers of r
    for exps, coeff in cert.difference.terms.items():
        diagonal[sum(exps)] += coeff
    frontier = bounds.first_positive_uniform_degree(diagonal, 40)
    if frontier != 34:
        return False, f"scan frontier is {frontier}, expected 34"
    return True, "bound 34, values +15/-18, scan frontier 34"


def _criterion_5() -> tuple[bool, str]:
    """First-order pipeline: generic pushforward engine vs closed form."""
    for n in range(1, 7):
        for c in range(n, 7):
            N = n + c
            params = ModelParams(N, n)
            for a in (0, N):
                engine = jets.morse_certificate(params, a).difference
                closed = bounds.morse_closed_form(N, n, a)
                if engine != closed:
                    return False, f"pipelines disagree at N={N} n={n} a={a}"
    return True, "engine equals closed form for all n <= c <= 6, a in {0, N}"


def _criterion_6() -> tuple[bool, str]:
    """Dominant part of the full nef-sum power vs the base Segre product.

    Implemented exactly as stated.  The equality holds only in the single-term
    case (kappa = 1); for the kappa >= 2 pairs the full multinomial expansion
    contributes extra nonnegative top-degree terms (see the test suite for the
    distinguished-monomial identity, which does hold).
    """
    failures = []
    for n, c in ((2, 1), (2, 2), (3, 2)):
        params = ModelParams(n + c, n)
        kappa, b = params.kappa, params.b
        lhs = chow.integrate(jets.reduce_to_base(jets.nef_sum(params) ** params.tower_dim(kappa))).dominant_part()
        seg = chow.segre_cotangent(params, 0)
        rhs = chow.integrate(seg[b] * seg[c] ** (kappa - 1)).dominant_part()
        if lhs != rhs:
            failures.append(f"(n,c)=({n},{c}): {lhs.text()} != {rhs.text()}")
    if failures:
        return False, "; ".join(failures)
    return True, "dominant parts agree for all three pairs"


def _criterion_7() -> tuple[bool, str]:
    """Degree lemmas for integrals of base Segre monomials."""
    rng = random.Random(5150)
    cases = 0
    segre_table = functools.cache(lambda params: chow.segre_cotangent(params, 0))

    def product_integral(params, indices):
        # h^ell * prod s_i with ell + sum(indices) = n: h contributes the
        # coefficient 1, so the integrand's h^n coefficient is prod s_i
        seg = segre_table(params)
        return chow.integrate(math.prod((seg[i] for i in indices), start=MultidegreePoly.one(params.c)))

    # lemma 1: any positive hyperplane power forces degree < N
    for _ in range(400):
        N = rng.randint(3, 8)
        c = rng.randint(1, N - 1)
        n = N - c
        params = ModelParams(N, n)
        ell = rng.randint(1, n)
        remaining = n - ell
        indices = []
        for _ in range(rng.randint(1, 4)):
            take = rng.randint(0, remaining)
            indices.append(take)
            remaining -= take
        indices[-1] += remaining
        value = product_integral(params, indices)
        if not value.total_degree() < N:
            return False, f"lemma 1 violated at N={N} c={c} idx={indices} ell={ell}"
        cases += 1

    # lemma 2: without h, degree N exactly when every index <= c
    for N in range(3, 9):
        for c in range(1, N):
            n = N - c
            params = ModelParams(N, n)
            for lam in schur.partitions_of(n):
                if len(lam) > 4:
                    continue
                value = product_integral(params, list(lam))
                expect_full = max(lam) <= c
                if (value.total_degree() == N) != expect_full:
                    return False, f"lemma 2 violated at N={N} c={c} parts={lam}"
                cases += 1

    # lemma 3: kappa parts with a low leading index force degree < N
    for n, c in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2)):
        params = ModelParams(n + c, n)
        kappa, b = params.kappa, params.b
        for combo in itertools.combinations_with_replacement(range(n + 1), kappa):
            if sum(combo) != n:
                continue
            i1 = combo[0]
            hypothesis = i1 < b or (i1 == b and any(x < c for x in combo[1:]))
            if not hypothesis:
                continue
            value = product_integral(params, list(combo))
            if not value.total_degree() < params.N:
                return False, f"lemma 3 violated at (n,c)=({n},{c}) parts={combo}"
            cases += 1

    if cases < 500:
        return False, f"only {cases} cases exercised"
    return True, f"{cases} cases, zero violations"


def _criterion_8() -> tuple[bool, str]:
    """Every emitted threshold survives exact evaluation on the integer grid."""
    rng = random.Random(98017)
    instances = 0

    def grid_positive(poly, c, base) -> bool:
        for point in itertools.product((base, base + 1, base + 5), repeat=c):
            if not poly.eval(point) > 0:
                return False
        return True

    for _ in range(100):
        c = rng.randint(1, 6)
        k = rng.randint(1, c)
        table = {k: 1}
        for i in range(k):
            table[i] = rng.randint(-40, 40)
        r = bounds.shifted_positivity_threshold(bounds.elementary_shift_rows([table[i] for i in range(k + 1)], c))
        poly = recombine_elementary(table.items(), c)
        if not grid_positive(poly, c, r):
            return False, f"shift threshold unsound for c={c} coeffs={table}"
        instances += 1

    for N, n, a in ((4, 2, 0), (4, 2, 3), (5, 2, 0), (6, 2, 1), (6, 3, 0), (7, 3, 2)):
        params = ModelParams(N, n)
        report = schur.positivity_report(params, a)
        twisted = chow.segre_cotangent(params, -a)
        for record in report.records:
            poly = schur.schur_det(record.conjugate, twisted)
            if not grid_positive(poly, params.c, record.threshold):
                return False, (
                    f"report threshold unsound at N={N} n={n} a={a},"
                    f" partition {record.partition}"
                )
            instances += 1
    return True, f"{instances} thresholds grid-validated"


def _criterion_9() -> tuple[bool, str]:
    """Tangency of the solved and coordinate families as exact identities, and
    of f1 * d/dz1, tangent only on the locus, at sampled points of it."""
    rng = random.Random(40902)
    degree_sets = {1: [[1], [2], [3]], 2: [[1, 1], [2, 1], [2, 2], [3, 1], [3, 2], [3, 3]]}
    identities = 0
    for N in (1, 2, 3, 4):
        for c in (1, 2):
            for degrees in degree_sets[c]:
                chart = vecfields.UniversalChart(N, degrees)
                for family in vecfields.TANGENT_FAMILIES:
                    for field in vecfields.family_fields(chart, family, rng):
                        if family == "tj" and field.a_pole_order != 1:
                            return False, f"coordinate field a-order != 1 at N={N} d={degrees}"
                        if family == "solved" and field.z_pole_order > N:
                            return False, f"solved field z-order {field.z_pole_order} > N={N}"
                        # every action on the chart's equations vanishes as a polynomial
                        if not vecfields.point_tangency_check(field, samples=1).identically_zero:
                            return False, f"{family} field not tangent at N={N} d={degrees}"
                        identities += 2 * c
    # f1 * d/dz1: its actions do not vanish identically, so points are drawn and solved
    chart = vecfields.UniversalChart(3, [2, 2])
    field = vecfields.VectorField(chart, {chart.z_index(1): chart.equations[0][0]})
    report = vecfields.point_tangency_check(field, samples=100, seed=314)
    if report.identically_zero or report.nonzero_residuals:
        return False, f"f1*d/dz1 not sampled or not zero on the locus: {report.nonzero_residuals[:2]}"
    return True, f"{identities} exact identities; f1*d/dz1 vanishes at 100 sampled locus points"


def _criterion_10() -> tuple[bool, str]:
    """Rough bound dominates the surface bound; shifted-twist values decrease
    monotonically toward the limit constant and never fall below it."""
    for N in range(4, 13):
        for a in range(0, 7):
            if bounds.rough_degree_bound(N, 2, a) < bounds.surface_degree_bound(N, a):
                return False, f"rough < surface at N={N} a={a}"
    limit = bounds.rough_bound_limit(2)
    if limit != 96:
        return False, f"limit constant is {limit}, expected 96"
    values = [bounds.rough_degree_bound(N, 2, N) for N in range(4, 201)]
    for prev, cur in zip(values, values[1:]):
        if not cur < prev:
            return False, "shifted-twist sequence is not strictly decreasing"
    if not all(v > limit for v in values):
        return False, "sequence dipped below the limit constant"
    return True, f"monotone from {float(values[0]):.0f} down to {float(values[-1]):.2f} > 96"


CRITERIA = [
    (1, "Segre closed form vs product formula", _criterion_1, 10.0),
    (2, "Schur determinant duality", _criterion_2, 30.0),
    (3, "dimension-two Morse coefficients", _criterion_3, None),
    (4, "flagship surface threshold 34", _criterion_4, 1.0),
    (5, "first-order pipeline equivalence", _criterion_5, 60.0),
    (6, "jet dominant identity (as stated)", _criterion_6, 300.0),
    (7, "intersection degree lemmas", _criterion_7, 60.0),
    (8, "threshold soundness on grids", _criterion_8, 60.0),
    (9, "vector-field tangency", _criterion_9, 120.0),
    (10, "rough bound consistency and limit", _criterion_10, 10.0),
]


def run_criterion(number: int) -> CriterionResult:
    for num, name, func, limit in CRITERIA:
        if num == number:
            start = time.perf_counter()
            passed, detail = func()
            elapsed = time.perf_counter() - start
            return CriterionResult(num, name, passed, detail, elapsed, limit)
    raise ValueError(f"no criterion numbered {number}")


def run_all(numbers=None) -> list[CriterionResult]:
    known = [num for num, *_ in CRITERIA]
    unknown = set(numbers or ()) - set(known)
    if unknown:
        raise ValueError(f"no criterion numbered {min(unknown)}")
    return [run_criterion(num) for num in known if not numbers or num in numbers]
