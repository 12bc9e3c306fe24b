"""Vector fields on the affine chart of the universal relative tangent space.

The chart carries coordinates z_1..z_N on the ambient space, velocity
coordinates z'_1..z'_N, and one coefficient variable per monomial of each
defining equation.  Fields are verified tangent either identically (exact
polynomial vanishing of their action on the defining equations, possible for
the solved-coefficient and coordinate families) or by exact evaluation at
random rational points of the locus.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .polyring import MultidegreePoly


def _monomials_up_to(N: int, degree: int) -> list[tuple[int, ...]]:
    out = [
        alpha
        for alpha in itertools.product(range(degree + 1), repeat=N)
        if sum(alpha) <= degree
    ]
    out.sort(key=lambda a: (sum(a), a))
    return out


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
        self._zero = MultidegreePoly.zero(offset)

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

    def var(self, index: int) -> MultidegreePoly:
        return self.monomial({index: 1})

    def monomial(self, pairs: Mapping[int, int], coeff: int = 1) -> MultidegreePoly:
        """coeff times the product of variable ``index`` to the power ``e`` over
        the (index, e) pairs; only the pairs are checked, not the whole width."""
        exps = [0] * self.num_vars
        for index, e in pairs.items():
            if not 0 <= index < self.num_vars:
                raise ValueError(f"variable index {index} out of range")
            if e < 0:
                raise ValueError(f"negative exponent {e} of variable {index}")
            exps[index] = e
        return self._zero._wrap({tuple(exps): coeff} if coeff else {})

    @functools.cached_property
    def equations(self) -> tuple[tuple[MultidegreePoly, ...], tuple[MultidegreePoly, ...]]:
        """:func:`defining_equations` of this chart, built on first use and
        shared, as tuples, by every field checked on the chart."""
        eqs, deqs = defining_equations(self)
        return tuple(eqs), tuple(deqs)

    def z_degree(self, poly: MultidegreePoly) -> int:
        return self._block_degree(poly, 0, self.N)

    def a_degree(self, poly: MultidegreePoly) -> int:
        return self._block_degree(poly, 2 * self.N, self.num_vars)

    @staticmethod
    def _block_degree(poly: MultidegreePoly, lo: int, hi: int) -> int:
        return max((sum(exps[lo:hi]) for exps in poly.terms), default=0)


def _z_pairs(chart: UniversalChart, alpha: Sequence[int]) -> dict[int, int]:
    """Variable-index exponents of the monomial z^alpha."""
    return {chart.z_index(j + 1): e for j, e in enumerate(alpha) if e}


def _velocity_pairs(chart: UniversalChart, alpha: Sequence[int]):
    """(exponents, weight) of each monomial of the velocity pairing of z^alpha:
    alpha_k * z'_k * z^(alpha - e_k) for every k with alpha_k > 0."""
    for k, e in enumerate(alpha):
        if e:
            lowered = tuple(x - 1 if j == k else x for j, x in enumerate(alpha))
            yield {chart.zp_index(k + 1): 1, **_z_pairs(chart, lowered)}, e


def defining_equations(chart: UniversalChart) -> tuple[list[MultidegreePoly], list[MultidegreePoly]]:
    """The equation of each hypersurface block and its derivative pairing with
    the velocities; both are linear in the block's coefficient variables."""
    zero = MultidegreePoly.zero(chart.num_vars)
    eqs, deqs = [], []
    for i in range(1, chart.c + 1):
        f_terms, fp_terms = [], []
        for alpha in chart.alphas[i - 1]:
            a_var = chart.a_index(i, alpha)
            f_terms.append(chart.monomial({a_var: 1, **_z_pairs(chart, alpha)}))
            for pairs, e in _velocity_pairs(chart, alpha):
                fp_terms.append(chart.monomial({a_var: 1, **pairs}, e))
        eqs.append(zero.add_all(f_terms))
        deqs.append(zero.add_all(fp_terms))
    return eqs, deqs


@dataclass
class VectorField:
    """Coefficient table: variable index -> polynomial coefficient of that
    partial derivative.  Pole orders record the actual maximal z- and
    a-degrees over the stored coefficients."""

    chart: UniversalChart
    coefficients: dict[int, MultidegreePoly] = field(default_factory=dict)
    family: str = "custom"

    def __post_init__(self):
        self.coefficients = {
            v: p for v, p in self.coefficients.items() if not p.is_zero()
        }

    @property
    def z_pole_order(self) -> int:
        polys = self.coefficients.values()
        return max((self.chart.z_degree(p) for p in polys), default=0)

    @property
    def a_pole_order(self) -> int:
        polys = self.coefficients.values()
        return max((self.chart.a_degree(p) for p in polys), default=0)


def lie_derivative(field_: VectorField, poly: MultidegreePoly) -> MultidegreePoly:
    """Apply the field to a chart polynomial: sum of coefficient * partial."""
    return MultidegreePoly.zero(field_.chart.num_vars).add_all(
        coeff * poly.derivative(index) for index, coeff in field_.coefficients.items()
    )


def _pinned_slots(N: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exponents of the constant and the first linear coefficient slot, which
    the two tangency equations of a block solve for."""
    return (0,) * N, tuple(1 if j == 0 else 0 for j in range(N))


def solved_free_slots(chart: UniversalChart, i: int) -> list[tuple[int, ...]]:
    """Every free slot that :func:`solved_coefficient_field` accepts for block i:
    exponent weight at most min(N, d_i), the two pinned slots left out."""
    cutoff = min(chart.N, chart.degrees[i - 1])
    pinned = _pinned_slots(chart.N)
    return [alpha for alpha in chart.alphas[i - 1] if sum(alpha) <= cutoff and alpha not in pinned]


def solved_coefficient_field(
    chart: UniversalChart, i: int, free_data: Mapping[tuple[int, ...], int]
) -> VectorField:
    """Coefficient-direction field with the two lowest coefficients solved.

    Free data assigns integers to the coefficient slots of block i with
    exponent weight at most min(N, d_i), excluding the constant and the first
    linear slot, which are pinned by the two tangency equations.  The raw
    solution has a single velocity denominator; the returned field is the
    cleared form (multiplied through by z'_1), so tangency holds as an exact
    polynomial identity and the z-degree of every coefficient is at most N.
    """
    N = chart.N
    if not 1 <= i <= chart.c:
        raise ValueError(f"block index {i} outside 1..{chart.c}")
    d_i = chart.degrees[i - 1]
    zero_alpha, e1 = _pinned_slots(N)
    for alpha in free_data:
        alpha = tuple(alpha)
        if sum(alpha) > N:
            raise ValueError(f"free slot {alpha} has weight > {N}; family only covers that range")
        if sum(alpha) > d_i:
            raise ValueError(f"free slot {alpha} exceeds the block degree {d_i}")
        if alpha in (zero_alpha, e1):
            raise ValueError(f"slot {alpha} is pinned by the tangency system, not free")

    z1 = chart.var(chart.z_index(1))
    zp1 = chart.var(chart.zp_index(1))
    # residuals of the two tangency equations over the free slots
    zero = MultidegreePoly.zero(chart.num_vars)
    used = [(tuple(alpha), value) for alpha, value in free_data.items() if value]
    r0 = zero.add_all(chart.monomial(_z_pairs(chart, alpha), value) for alpha, value in used)
    r1 = zero.add_all(
        chart.monomial(pairs, value * e) for alpha, value in used for pairs, e in _velocity_pairs(chart, alpha)
    )
    coefficients = {}
    for alpha, value in free_data.items():
        if value:
            coefficients[chart.a_index(i, tuple(alpha))] = zp1 * value
    lin = -r1
    const = z1 * r1 - zp1 * r0
    if not lin.is_zero():
        coefficients[chart.a_index(i, e1)] = lin
    if not const.is_zero():
        coefficients[chart.a_index(i, zero_alpha)] = const
    return VectorField(chart, coefficients, family="solved")


def coordinate_field(chart: UniversalChart, j: int) -> VectorField:
    """Tangent lift of the j-th coordinate direction: the naked partial in z_j
    corrected by a shift on every coefficient block; order one in each
    coefficient variable."""
    if not 1 <= j <= chart.N:
        raise ValueError(f"coordinate index {j} outside 1..{chart.N}")
    coefficients = {chart.z_index(j): MultidegreePoly.one(chart.num_vars)}
    for i in range(1, chart.c + 1):
        d_i = chart.degrees[i - 1]
        for alpha in chart.alphas[i - 1]:
            if sum(alpha) > d_i - 1:
                continue
            shifted = tuple(e + 1 if t == j - 1 else e for t, e in enumerate(alpha))
            source = chart.a_index(i, shifted)
            target = chart.a_index(i, alpha)
            coefficients[target] = chart.var(source) * -(alpha[j - 1] + 1)
    return VectorField(chart, coefficients, family="tj")


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
    pieces: dict[int, list[MultidegreePoly]] = {}
    for prime in itertools.product(*(range(e + 1) for e in ell)):
        weight = math.prod(math.comb(e, p) for e, p in zip(ell, prime))
        slot = ell if convention == "single" else prime
        target = chart.a_index(i, tuple(a - s for a, s in zip(alpha, slot)))
        second = tuple(e - p for e, p in zip(ell, prime))
        pieces.setdefault(target, []).append(chart.monomial(_z_pairs(chart, second), weight))
    zero = MultidegreePoly.zero(chart.num_vars)
    coefficients = {target: zero.add_all(polys) for target, polys in pieces.items()}
    return VectorField(chart, coefficients, family="talpha")


def velocity_field(chart: UniversalChart, matrix: Sequence[Sequence]) -> VectorField:
    """Linear action on the velocity coordinates; no tangency asserted."""
    N = chart.N
    if len(matrix) != N or any(len(row) != N for row in matrix):
        raise ValueError(f"matrix must be {N}x{N}")
    if _rational_det(matrix) == 0:
        raise ValueError("matrix must be invertible over the rationals")
    coefficients: dict[int, MultidegreePoly] = {}
    zero = MultidegreePoly.zero(chart.num_vars)
    for k in range(1, N + 1):
        poly = zero.add_all(
            chart.var(chart.zp_index(ell)) * int(matrix[ell - 1][k - 1]) for ell in range(1, N + 1)
        )
        if not poly.is_zero():
            coefficients[chart.zp_index(k)] = poly
    return VectorField(chart, coefficients, family="tlambda")


def _rational_det(matrix: Sequence[Sequence]) -> Fraction:
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


@dataclass
class TangencyReport:
    """Exact residuals of the field against every defining equation at sampled
    rational points of the universal locus.  ``identically_zero`` records
    whether every action of the field on the equations vanishes as a polynomial."""

    nonzero_residuals: list[str]
    identically_zero: bool


def point_tangency_check(field_: VectorField, samples: int = 100, seed: int = 0) -> TangencyReport:
    """Evaluate the field's action on the defining equations at exact rational
    points of the locus.

    Points are built by drawing integer coordinates and velocities (first
    velocity nonzero) and integer values for all but two coefficient slots per
    block; the remaining two are solved from the block's pair of equations,
    which are linear with triangular structure, so the solve is exact.
    """
    chart = field_.chart
    if samples < 1:
        raise ValueError("need at least one sample")
    eqs, deqs = chart.equations
    actions = [(f"T(f{i + 1})", lie_derivative(field_, eqs[i])) for i in range(chart.c)]
    actions += [(f"T(f'{i + 1})", lie_derivative(field_, deqs[i])) for i in range(chart.c)]
    rng = random.Random(seed)
    nonzero: list[str] = []
    for s in range(samples):
        point = _sample_locus_point(chart, rng, eqs, deqs)
        for label, action in actions:
            value = action.eval(point)
            if value != 0:
                nonzero.append(f"sample {s}: {label} = {value}")
    return TangencyReport(nonzero, all(action.is_zero() for _, action in actions))


def _sample_locus_point(chart, rng, eqs, deqs):
    """Integer draws for every variable, then the two pinned slots of each block
    solved exactly: f'_i holds the linear slot only as a multiple of z'_1 and no
    constant slot, and f_i is linear in the constant slot."""
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
