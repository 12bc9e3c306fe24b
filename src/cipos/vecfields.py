"""Vector fields on the affine chart of the universal relative tangent space.

The chart carries coordinates z_1..z_N on the ambient space, velocity
coordinates z'_1..z'_N, and one coefficient variable per monomial of each
defining equation.  The chart object is the ring of every chart polynomial, so
polynomials and fields of two charts never mix, even of equal width.  Velocity
fields take int matrices, checked invertible by a fraction-free determinant.
Every field acts by one pass of :func:`lie_derivative` over a polynomial's
terms, and each equation's derivative f'_i is the action on f_i of the velocity
field sum_k z'_k * d/dz_k.  Fields are verified tangent either identically
(exact polynomial vanishing of their action on the defining equations, possible
for the ``TANGENT_FAMILIES``: coordinate fields and solved-coefficient fields
on the slots of ``solved_free_slots``) or by exact evaluation at random
rational points of the locus.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Mapping, NamedTuple, Sequence

from .polyring import _accumulate, _SparseTerms


def _monomials_up_to(N: int, degree: int) -> list[tuple[int, ...]]:
    out = [
        tuple(combo.count(j) for j in range(N))
        for k in range(degree + 1)
        for combo in itertools.combinations_with_replacement(range(N), k)
    ]
    out.sort(key=lambda a: (sum(a), a))
    return out


def _merge(key1: tuple, key2: tuple) -> tuple:
    """Pair key of the product of two monomials: exponents of a shared index add.
    A unit factor returns the other key itself, so the product shares its tuple."""
    if not key1 or not key2:
        return key1 or key2
    merged = dict(key1)
    for index, e in key2:
        merged[index] = merged.get(index, 0) + e
    return tuple(sorted(merged.items()))


class ChartPoly(_SparseTerms):
    """Integer polynomial whose ring is its :class:`UniversalChart`, so two charts never
    mix.  Each term is keyed by the sorted tuple of its nonzero (index, exponent) pairs,
    so it costs the few variables it holds, not the chart's width.  ``ChartPoly(chart)``
    is 0; the others come from :meth:`UniversalChart.monomial`, arithmetic and :func:`lie_derivative`."""

    __slots__ = ()

    def __init__(self, chart: UniversalChart):
        super().__init__(chart)

    @property
    def num_vars(self) -> int:
        return self.ring.num_vars

    def _unit_key(self) -> tuple:
        return ()

    def _product(self, other):
        for key1, c1 in self.terms.items():
            for key2, c2 in other.terms.items():
                yield _merge(key1, key2), c1 * c2

    def eval(self, point: Sequence):
        """Exact evaluation: ints stay ints, Fractions stay Fractions; int terms
        are summed as ints and the others added to that sum once, at the end."""
        if len(point) != self.num_vars:
            raise ValueError(f"point has length {len(point)}, expected {self.num_vars}")
        total, rest = 0, []
        for key, coeff in self.terms.items():
            value = coeff
            for i, e in key:
                value *= point[i] ** e
            if type(value) is int:
                total += value
            else:
                rest.append(value)
        return total + sum(rest) if rest else total


class UniversalChart:
    """Variable inventory for the family of all intersections of c hypersurfaces.

    Coordinates are ordered z_1..z_N, then z'_1..z'_N, then the coefficient
    variables of each hypersurface block (monomial exponents up to the block's
    degree, in graded order).  The chart is the ring of its polynomials.
    """

    def __init__(self, N: int, degrees: Sequence[int]):
        if N < 1:
            raise ValueError("ambient dimension must be >= 1")
        if not degrees or any(d < 1 for d in degrees):
            raise ValueError("each degree must be >= 1")
        self.N = N
        self.degrees = tuple(degrees)
        self.c = len(self.degrees)
        self.alphas = [_monomials_up_to(N, d) for d in self.degrees]
        offset = 2 * N
        self._a_pos: list[dict[tuple[int, ...], int]] = []
        for alphas in self.alphas:
            self._a_pos.append({alpha: offset + t for t, alpha in enumerate(alphas)})
            offset += len(alphas)
        self.num_vars = offset
        self._zero = ChartPoly(self)

    def __repr__(self):
        return f"UniversalChart({self.N}, {list(self.degrees)})"

    # -- variable indexing ----------------------------------------------------

    def z_index(self, j: int) -> int:
        if not 1 <= j <= self.N:
            raise ValueError(f"z index {j} outside 1..{self.N}")
        return j - 1

    def zp_index(self, k: int) -> int:
        if not 1 <= k <= self.N:
            raise ValueError(f"z' index {k} outside 1..{self.N}")
        return self.N + k - 1

    def a_index(self, i: int, alpha: Sequence[int]) -> int:
        if not 1 <= i <= self.c:
            raise ValueError(f"block index {i} outside 1..{self.c}")
        alpha = tuple(alpha)
        pos = self._a_pos[i - 1].get(alpha)
        if pos is None:
            raise ValueError(f"no coefficient variable a^{i}_{alpha} (degree {self.degrees[i - 1]})")
        return pos

    # -- polynomial builders ----------------------------------------------------

    def var(self, index: int) -> ChartPoly:
        return self.monomial({index: 1})

    def monomial(self, pairs: Mapping[int, int], coeff: int = 1) -> ChartPoly:
        """coeff times the product of variable ``index`` to the power ``e`` over
        the (index, e) pairs, which are checked and kept as the term's key."""
        for index, e in pairs.items():
            if not 0 <= index < self.num_vars:
                raise ValueError(f"variable index {index} out of range")
            if e < 0:
                raise ValueError(f"negative exponent {e} of variable {index}")
        key = tuple(sorted((index, e) for index, e in pairs.items() if e))
        return self._zero._wrap({key: coeff} if coeff else {})

    @functools.cached_property
    def equations(self) -> tuple[tuple[ChartPoly, ...], tuple[ChartPoly, ...]]:
        """:func:`defining_equations` of this chart, built on first use and
        shared by every field checked on the chart."""
        return defining_equations(self)


def _z_pairs(chart: UniversalChart, alpha: Sequence[int]) -> dict[int, int]:
    """Variable-index exponents of the monomial z^alpha."""
    return {chart.z_index(j + 1): e for j, e in enumerate(alpha) if e}


def defining_equations(chart: UniversalChart) -> tuple[tuple[ChartPoly, ...], tuple[ChartPoly, ...]]:
    """Two tuples: each hypersurface block's equation f_i, the sum of a_alpha *
    z^alpha over its slots, and f'_i, the action on f_i of the velocity field
    sum_k z'_k * d/dz_k; both are linear in the block's coefficient variables."""
    eqs = tuple(
        chart._zero.add_all(chart.monomial({chart.a_index(i, alpha): 1, **_z_pairs(chart, alpha)}) for alpha in alphas)
        for i, alphas in enumerate(chart.alphas, 1)
    )
    velocities = VectorField(chart, {chart.z_index(k): chart.var(chart.zp_index(k)) for k in range(1, chart.N + 1)})
    return eqs, tuple(lie_derivative(velocities, f) for f in eqs)


def _check_ring(chart: UniversalChart, poly: ChartPoly) -> None:
    if not isinstance(poly, ChartPoly):
        raise ValueError(f"expected a ChartPoly on {chart!r}, got {type(poly).__name__}")
    if poly.ring is not chart:
        raise ValueError(f"cannot mix ChartPoly operands over different rings: {chart!r} and {poly.ring!r}")


class VectorField:
    """Coefficient table: variable index -> polynomial coefficient of that
    partial derivative; zero coefficients are dropped.  Every index must be a
    variable of the chart and every coefficient a polynomial whose ring is that
    chart.  Pole orders are the maximal z- and a-degrees of the coefficients."""

    def __init__(self, chart: UniversalChart, coefficients: Mapping[int, ChartPoly] | None = None):
        coefficients = coefficients or {}
        for index, poly in coefficients.items():
            if not 0 <= index < chart.num_vars:
                raise ValueError(f"variable index {index} out of range")
            _check_ring(chart, poly)
        self.chart = chart
        self.coefficients = {v: p for v, p in coefficients.items() if not p.is_zero()}

    def _pole_order(self, lo: int, hi: int) -> int:
        keys = (key for p in self.coefficients.values() for key in p.terms)
        return max((sum(e for i, e in key if lo <= i < hi) for key in keys), default=0)

    @property
    def z_pole_order(self) -> int:
        return self._pole_order(0, self.chart.N)

    @property
    def a_pole_order(self) -> int:
        return self._pole_order(2 * self.chart.N, self.chart.num_vars)


def lie_derivative(field_: VectorField, poly: ChartPoly) -> ChartPoly:
    """Apply the field to a chart polynomial in one pass over its terms: each
    (index, exponent) pair whose index the field moves is lowered by one, and the
    term, times the exponent, is multiplied by that index's coefficient into one sum."""
    _check_ring(field_.chart, poly)
    moves = field_.coefficients
    out: dict = {}
    for key, c in poly.terms.items():
        for pos, (index, e) in enumerate(key):
            coeff = moves.get(index)
            if coeff is not None:
                lowered = key[:pos] + (((index, e - 1),) if e > 1 else ()) + key[pos + 1 :]
                _accumulate(out, ((_merge(lowered, k), c * e * v) for k, v in coeff.terms.items()))
    return field_.chart._zero._wrap(out)


def _pinned_slots(N: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exponents of the constant and the first linear coefficient slot, which
    the two tangency equations of a block solve for."""
    return (0,) * N, tuple(1 if j == 0 else 0 for j in range(N))


def solved_free_slots(chart: UniversalChart, i: int) -> list[tuple[int, ...]]:
    """Every free slot that :func:`solved_coefficient_field` accepts for block i:
    exponent weight at most min(N, d_i), the two pinned slots left out."""
    if not 1 <= i <= chart.c:
        raise ValueError(f"block index {i} outside 1..{chart.c}")
    cutoff = min(chart.N, chart.degrees[i - 1])
    pinned = _pinned_slots(chart.N)
    return [alpha for alpha in chart.alphas[i - 1] if sum(alpha) <= cutoff and alpha not in pinned]


def solved_coefficient_field(
    chart: UniversalChart, i: int, free_data: Mapping[tuple[int, ...], int]
) -> VectorField:
    """Coefficient-direction field with the two lowest coefficients solved.

    Free data assigns integers to slots of :func:`solved_free_slots`; the
    constant and the first linear slot are pinned by the two tangency
    equations.  The field is the completion of the constant field
    V = sum value * d/da_alpha: with r0 = V(f_i) and r1 = V(f'_i) taken on the
    chart's equations, it is z'_1 * V - r1 * d/da_e1 + (z_1 * r1 - z'_1 * r0) *
    d/da_0, so tangency holds as an exact polynomial identity and the z-degree
    of every coefficient is at most N.
    """
    free = set(solved_free_slots(chart, i))
    for alpha in free_data:
        if tuple(alpha) not in free:
            raise ValueError(f"slot {tuple(alpha)} of block {i} is not free: weight above min(N, d_i), or pinned")
    zero_alpha, e1 = _pinned_slots(chart.N)
    constant = VectorField(chart, {chart.a_index(i, alpha): chart.monomial({}, v) for alpha, v in free_data.items()})
    eqs, deqs = chart.equations
    r0, r1 = lie_derivative(constant, eqs[i - 1]), lie_derivative(constant, deqs[i - 1])
    z1 = chart.var(chart.z_index(1))
    zp1 = chart.var(chart.zp_index(1))
    coefficients = {index: zp1 * coeff for index, coeff in constant.coefficients.items()}
    coefficients[chart.a_index(i, e1)] = -r1
    coefficients[chart.a_index(i, zero_alpha)] = z1 * r1 - zp1 * r0
    return VectorField(chart, coefficients)


def coordinate_field(chart: UniversalChart, j: int) -> VectorField:
    """Tangent lift of the j-th coordinate direction: the naked partial in z_j
    corrected by a shift on every coefficient block; order one in each
    coefficient variable."""
    coefficients = {chart.z_index(j): chart.monomial({})}
    for i in range(1, chart.c + 1):
        d_i = chart.degrees[i - 1]
        for alpha in chart.alphas[i - 1]:
            if sum(alpha) > d_i - 1:
                continue
            shifted = tuple(e + 1 if t == j - 1 else e for t, e in enumerate(alpha))
            source = chart.a_index(i, shifted)
            target = chart.a_index(i, alpha)
            coefficients[target] = chart.var(source) * -(alpha[j - 1] + 1)
    return VectorField(chart, coefficients)


def coefficient_shift_field(
    chart: UniversalChart, i: int, alpha: Sequence[int], ell: Sequence[int]
) -> tuple[VectorField, VectorField]:
    """Higher-weight coefficient-direction fields, no tangency asserted.

    The defining display admits two index readings, returned as a pair from one
    pass over the splits ell' + ell'' = ell: the single reading targets the one
    slot alpha - ell with the full binomial z-profile, the spread reading each
    split's slot alpha - ell'.  Requires |ell| <= N and alpha >= ell componentwise.
    """
    alpha, ell = tuple(alpha), tuple(ell)
    if len(alpha) != chart.N or len(ell) != chart.N:
        raise ValueError("alpha and ell must have one entry per ambient coordinate")
    if sum(ell) > chart.N:
        raise ValueError(f"|ell| = {sum(ell)} exceeds the ambient dimension {chart.N}")
    if any(a < e for a, e in zip(alpha, ell)):
        raise ValueError("need alpha >= ell componentwise")
    single, spread = {}, {}  # target slot -> its z-profiles, in each reading
    for prime in itertools.product(*(range(e + 1) for e in ell)):
        weight = math.prod(math.comb(e, p) for e, p in zip(ell, prime))
        second = tuple(e - p for e, p in zip(ell, prime))
        profile = chart.monomial(_z_pairs(chart, second), weight)
        for pieces, slot in ((single, ell), (spread, prime)):
            pieces.setdefault(chart.a_index(i, tuple(a - s for a, s in zip(alpha, slot))), []).append(profile)
    return tuple(VectorField(chart, {t: chart._zero.add_all(ps) for t, ps in f.items()}) for f in (single, spread))


def velocity_field(chart: UniversalChart, matrix: Sequence[Sequence[int]]) -> VectorField:
    """Linear action sum_k (sum_l M[l][k] * z'_l) d/dz'_k on the velocities, for an N x N
    matrix M of ints that is invertible over the rationals; no tangency asserted."""
    N = chart.N
    if len(matrix) != N or any(len(row) != N or not all(isinstance(x, int) for x in row) for row in matrix):
        raise ValueError(f"matrix must be {N}x{N} with int entries")
    if _integer_det(matrix) == 0:
        raise ValueError("matrix must be invertible over the rationals")
    zps = [chart.var(chart.zp_index(ell)) for ell in range(1, N + 1)]
    coeffs = {chart.zp_index(k + 1): chart._zero.add_all(zp * row[k] for zp, row in zip(zps, matrix)) for k in range(N)}
    return VectorField(chart, coeffs)


def _integer_det(matrix: Sequence[Sequence[int]]) -> int:
    """Determinant of a square int matrix by fraction-free (Bareiss) elimination:
    after step k every entry below is a minor of the matrix, so each division is exact."""
    m, sign, previous = [list(row) for row in matrix], 1, 1
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for row in m[k + 1 :]:
            for j in range(k + 1, len(m)):
                row[j] = (row[j] * m[k][k] - row[k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * previous


#: The families of :func:`family_fields` tangent by construction; the rest assert no tangency.
TANGENT_FAMILIES = ("tj", "solved")


def family_fields(chart: UniversalChart, family: str, rng: random.Random) -> list[VectorField]:
    """The fields of one family on the chart, with their free data drawn from ``rng``.

    "tj": the coordinate fields 1..N, which draw nothing; "solved": one field
    per block, its free slots drawn from -5..5; "talpha": per block, one
    random slot shift in both readings; "tlambda": one velocity field.
    """
    if family == "tj":
        return [coordinate_field(chart, j) for j in range(1, chart.N + 1)]
    if family == "solved":
        return [
            solved_coefficient_field(chart, i, {alpha: rng.randint(-5, 5) for alpha in solved_free_slots(chart, i)})
            for i in range(1, chart.c + 1)
        ]
    if family == "talpha":
        fields = []
        for i in range(1, chart.c + 1):
            alpha = rng.choice([a for a in chart.alphas[i - 1] if sum(a) >= 1])
            ell = [0] * chart.N
            for _ in range(rng.randint(0, min(chart.N, sum(alpha)))):
                ell[rng.choice([t for t in range(chart.N) if ell[t] < alpha[t]])] += 1
            fields += coefficient_shift_field(chart, i, alpha, ell)
        return fields
    if family == "tlambda":
        # a diagonal of 4..10 need not dominate off-diagonal rows of up to 3(N-1),
        # so a singular draw is drawn again
        while True:
            matrix = [[rng.randint(-3, 3) + 7 * (j == k) for k in range(chart.N)] for j in range(chart.N)]
            if _integer_det(matrix):
                return [velocity_field(chart, matrix)]
    raise ValueError(f"unknown vector-field family {family!r}")


class TangencyReport(NamedTuple):
    """Exact nonzero residuals (sample, equation e, value) of the field at sampled rational points of the
    universal locus, e naming f_(e+1) for e < c and f'_(e-c+1) from c on.  ``identically_zero`` records
    whether every action of the field on the equations vanishes as a polynomial."""

    nonzero_residuals: list[tuple]
    identically_zero: bool


def point_tangency_check(field_: VectorField, samples: int = 100, seed: int = 0) -> TangencyReport:
    """Evaluate the field's live actions on the defining equations at exact
    rational points of the locus.

    An action is live when it is not identically zero; the others vanish at
    every point, so a field with no live action draws no point.  Points are
    built by drawing integer coordinates and velocities (first velocity
    nonzero) and integer values for all but two coefficient slots per block;
    the remaining two are solved from the block's pair of equations, which are
    linear with triangular structure, so the solve is exact.
    """
    chart = field_.chart
    if samples < 1:
        raise ValueError("need at least one sample")
    eqs, deqs = chart.equations
    actions = (lie_derivative(field_, g) for g in eqs + deqs)
    live = [(e, action) for e, action in enumerate(actions) if not action.is_zero()]
    nonzero: list[tuple] = []
    if live:
        rng = random.Random(seed)
        for s in range(samples):
            point = _sample_locus_point(chart, rng, eqs, deqs)
            for e, action in live:
                value = action.eval(point)
                if value != 0:
                    nonzero.append((s, e, value))
    return TangencyReport(nonzero, not live)


def _sample_locus_point(chart, rng, eqs, deqs):
    """Integer draws for every variable, then the two pinned slots of each block
    solved exactly: f'_i holds the linear slot only as a multiple of z'_1 and no
    constant slot, and f_i is linear in the constant slot."""
    from fractions import Fraction

    point: list = [rng.randint(-5, 5) for _ in range(chart.num_vars)]
    zp1 = rng.randint(1, 5) * rng.choice((-1, 1))
    point[chart.zp_index(1)] = zp1
    zero_alpha, e1 = _pinned_slots(chart.N)
    for i in range(chart.c):
        a_zero, a_e1 = chart.a_index(i + 1, zero_alpha), chart.a_index(i + 1, e1)
        point[a_zero] = point[a_e1] = 0
        point[a_e1] = Fraction(-deqs[i].eval(point), zp1)
        point[a_zero] = -eqs[i].eval(point)
    return point
