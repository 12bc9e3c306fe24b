"""Vector fields on the affine chart of the universal relative tangent space.

The chart carries coordinates z_1..z_N on the ambient space, velocity
coordinates z'_1..z'_N, and one coefficient variable per monomial of each
defining equation.  Fields are verified tangent either identically (exact
polynomial vanishing of their action on the defining equations, possible for
the ``TANGENT_FAMILIES``: coordinate fields and solved-coefficient fields on
the slots of ``solved_free_slots``) or by exact evaluation at random rational
points of the locus.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from typing import Mapping, NamedTuple, Sequence

from .polyring import _SparseTerms


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
    """Integer polynomial on a chart of ``num_vars`` variables, each term keyed by
    the sorted tuple of its (index, exponent) pairs with exponent > 0, so a term
    costs the few variables it holds, not the chart's width.  ``ChartPoly(num_vars)``
    is 0; the others come from :meth:`UniversalChart.monomial` and arithmetic."""

    __slots__ = ("_by_var",)
    num_vars = _SparseTerms.ring  # the ring is the number of variables

    def _unit_key(self) -> tuple:
        return ()

    def _product(self, other):
        for key1, c1 in self.terms.items():
            for key2, c2 in other.terms.items():
                yield _merge(key1, key2), c1 * c2

    def derivative(self, index: int) -> "ChartPoly":
        """Partial derivative by variable ``index`` (0-based).  The first call
        lists, per variable, the (lowered key, coefficient * exponent) pair of each
        term holding it and keeps that index in ``_by_var``, so each call reads one list."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        try:
            by_var = self._by_var
        except AttributeError:
            by_var = {}
            for key, coeff in self.terms.items():
                for pos, (i, e) in enumerate(key):
                    lowered = key[:pos] + (((i, e - 1),) if e > 1 else ()) + key[pos + 1 :]
                    by_var.setdefault(i, []).append((lowered, coeff * e))
            object.__setattr__(self, "_by_var", by_var)
        return self._wrap(dict(by_var.get(index, ())))

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
    degree, in graded order).  All chart polynomials are integer polynomials
    over this inventory.
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
        self._zero = ChartPoly(offset)

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
        shared by every field checked on the chart, so each equation builds
        its per-variable derivative index once."""
        return defining_equations(self)

    def z_degree(self, poly: ChartPoly) -> int:
        return max((sum(e for i, e in key if i < self.N) for key in poly.terms), default=0)

    def a_degree(self, poly: ChartPoly) -> int:
        return max((sum(e for i, e in key if i >= 2 * self.N) for key in poly.terms), default=0)


def _z_pairs(chart: UniversalChart, alpha: Sequence[int]) -> dict[int, int]:
    """Variable-index exponents of the monomial z^alpha."""
    return {chart.z_index(j + 1): e for j, e in enumerate(alpha) if e}


def defining_equations(chart: UniversalChart) -> tuple[tuple[ChartPoly, ...], tuple[ChartPoly, ...]]:
    """Two tuples: each hypersurface block's equation and its derivative pairing
    with the velocities, both linear in the block's coefficient variables."""
    zero = ChartPoly(chart.num_vars)
    eqs, deqs = [], []
    for i in range(1, chart.c + 1):
        f_terms, fp_terms = [], []
        for alpha in chart.alphas[i - 1]:
            a_var = chart.a_index(i, alpha)
            f_terms.append(chart.monomial({a_var: 1, **_z_pairs(chart, alpha)}))
            # the velocity pairing of z^alpha: alpha_k * z'_k * z^(alpha - e_k)
            for k, e in enumerate(alpha):
                if e:
                    lowered = _z_pairs(chart, alpha[:k] + (e - 1,) + alpha[k + 1 :])
                    fp_terms.append(chart.monomial({a_var: 1, chart.zp_index(k + 1): 1, **lowered}, e))
        eqs.append(zero.add_all(f_terms))
        deqs.append(zero.add_all(fp_terms))
    return tuple(eqs), tuple(deqs)


class VectorField:
    """Coefficient table: variable index -> polynomial coefficient of that
    partial derivative; zero coefficients are dropped.  Pole orders record the
    actual maximal z- and a-degrees over the stored coefficients."""

    def __init__(self, chart: UniversalChart, coefficients: Mapping[int, ChartPoly] | None = None):
        self.chart = chart
        self.coefficients = {v: p for v, p in (coefficients or {}).items() if not p.is_zero()}

    @property
    def z_pole_order(self) -> int:
        polys = self.coefficients.values()
        return max((self.chart.z_degree(p) for p in polys), default=0)

    @property
    def a_pole_order(self) -> int:
        polys = self.coefficients.values()
        return max((self.chart.a_degree(p) for p in polys), default=0)


def lie_derivative(field_: VectorField, poly: ChartPoly) -> ChartPoly:
    """Apply the field to a chart polynomial: sum of coefficient * partial."""
    return ChartPoly(field_.chart.num_vars).add_all(
        coeff * poly.derivative(index) for index, coeff in field_.coefficients.items()
    )


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
    if not 1 <= j <= chart.N:
        raise ValueError(f"coordinate index {j} outside 1..{chart.N}")
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
    chart: UniversalChart,
    i: int,
    alpha: Sequence[int],
    ell: Sequence[int],
    convention: str = "single",
) -> VectorField:
    """Higher-weight coefficient-direction fields, no tangency asserted.

    The defining display admits two index readings, both exposed: "single"
    targets the one slot alpha - ell with the full binomial z-profile,
    "spread" distributes over the slots alpha - ell' for every split
    ell' + ell'' = ell.  Requires |ell| <= N and alpha >= ell componentwise.
    """
    alpha, ell = tuple(alpha), tuple(ell)
    if not 1 <= i <= chart.c:
        raise ValueError(f"block index {i} outside 1..{chart.c}")
    if len(alpha) != chart.N or len(ell) != chart.N:
        raise ValueError("alpha and ell must have one entry per ambient coordinate")
    if sum(ell) > chart.N:
        raise ValueError(f"|ell| = {sum(ell)} exceeds the ambient dimension {chart.N}")
    if any(a < e for a, e in zip(alpha, ell)):
        raise ValueError("need alpha >= ell componentwise")
    if convention not in ("single", "spread"):
        raise ValueError("convention must be 'single' or 'spread'")
    pieces: dict[int, list[ChartPoly]] = {}
    for prime in itertools.product(*(range(e + 1) for e in ell)):
        weight = math.prod(math.comb(e, p) for e, p in zip(ell, prime))
        slot = ell if convention == "single" else prime
        target = chart.a_index(i, tuple(a - s for a, s in zip(alpha, slot)))
        second = tuple(e - p for e, p in zip(ell, prime))
        pieces.setdefault(target, []).append(chart.monomial(_z_pairs(chart, second), weight))
    zero = ChartPoly(chart.num_vars)
    coefficients = {target: zero.add_all(polys) for target, polys in pieces.items()}
    return VectorField(chart, coefficients)


def velocity_field(chart: UniversalChart, matrix: Sequence[Sequence]) -> VectorField:
    """Linear action on the velocity coordinates; no tangency asserted."""
    N = chart.N
    if len(matrix) != N or any(len(row) != N for row in matrix):
        raise ValueError(f"matrix must be {N}x{N}")
    if _rational_det(matrix) == 0:
        raise ValueError("matrix must be invertible over the rationals")
    coefficients: dict[int, ChartPoly] = {}
    zero = ChartPoly(chart.num_vars)
    for k in range(1, N + 1):
        poly = zero.add_all(
            chart.var(chart.zp_index(ell)) * int(matrix[ell - 1][k - 1]) for ell in range(1, N + 1)
        )
        if not poly.is_zero():
            coefficients[chart.zp_index(k)] = poly
    return VectorField(chart, coefficients)


def _rational_det(matrix: Sequence[Sequence]) -> Fraction:
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


#: The families of :func:`family_fields` tangent by construction; the rest assert no tangency.
TANGENT_FAMILIES = ("tj", "solved")


def family_fields(chart: UniversalChart, family: str, rng: random.Random) -> list[VectorField]:
    """The fields of one family on the chart, with their free data drawn from ``rng``.

    "tj": the coordinate fields 1..N, which draw nothing; "solved": one field
    per block, its free slots drawn from -5..5; "talpha": per block, one
    random slot shift in both conventions; "tlambda": one velocity field.
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
            fields += [coefficient_shift_field(chart, i, alpha, ell, convention) for convention in ("single", "spread")]
        return fields
    if family == "tlambda":
        # a diagonal of 4..10 need not dominate off-diagonal rows of up to 3(N-1),
        # so a singular draw is drawn again
        while True:
            matrix = [[rng.randint(-3, 3) + 7 * (j == k) for k in range(chart.N)] for j in range(chart.N)]
            if _rational_det(matrix):
                return [velocity_field(chart, matrix)]
    raise ValueError(f"unknown vector-field family {family!r}")


class TangencyReport(NamedTuple):
    """Exact residuals of the field against every defining equation at sampled
    rational points of the universal locus.  ``identically_zero`` records
    whether every action of the field on the equations vanishes as a polynomial."""

    nonzero_residuals: list[str]
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
    labels = [f"T(f{i + 1})" for i in range(chart.c)] + [f"T(f'{i + 1})" for i in range(chart.c)]
    actions = (lie_derivative(field_, g) for g in eqs + deqs)
    live = [(label, action) for label, action in zip(labels, actions) if not action.is_zero()]
    nonzero: list[str] = []
    if live:
        rng = random.Random(seed)
        for s in range(samples):
            point = _sample_locus_point(chart, rng, eqs, deqs)
            for label, action in live:
                value = action.eval(point)
                if value != 0:
                    nonzero.append(f"sample {s}: {label} = {value}")
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
