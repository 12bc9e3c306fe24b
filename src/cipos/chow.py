"""Truncated Chow ring of a complete intersection in projective space.

A class is a sparse map from flat keys ``(j, d1, ..., dc)`` (the power of the
hyperplane class h, then the exponents of the multidegree variables) to
nonzero integers, built on the ring core of ``polyring`` and truncated at h^n
(everything above the dimension dies).
The two Segre-class routes kept here on purpose, a truncated product
expansion and a closed-form convolution, act as independent oracles for each
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .polyring import MultidegreePoly, _SparseTerms, recombine_elementary


@dataclass(frozen=True)
class ModelParams:
    """Numerical frame: ambient dimension N, dimension n, codimension c = N - n.

    ``kappa`` is the smallest jet order ceil(n/c) at which the tower
    computations can produce something nonzero, and ``b`` the remainder with
    n = (kappa - 1) c + b, 0 < b <= c.
    """

    N: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if self.c < 1:
            raise ValueError(f"codimension N - n = {self.N - self.n} must be >= 1")

    @property
    def c(self) -> int:
        return self.N - self.n

    @property
    def kappa(self) -> int:
        return -(-self.n // self.c)

    @property
    def b(self) -> int:
        return self.n - (self.kappa - 1) * self.c

    def tower_dim(self, k: int) -> int:
        """Dimension n + k(n-1) of the k-th stage of the jet tower."""
        return self.n + k * (self.n - 1)


class ChowClass(_SparseTerms):
    """An h-graded class: ``terms`` maps (j, *exponents) to the nonzero integer
    coefficient of h^j * d^exponents, for 0 <= j <= n.

    Products drop everything in degree > n.  Immutable; ints and
    multidegree polynomials promote to multiples of the unit class.
    ``coeffs[j]`` is the polynomial coefficient of h^j.
    """

    __slots__ = ("params", "terms")
    _SHAPE = ("params",)

    def __init__(self, params: ModelParams, coeffs: Sequence):
        c = params.c
        terms = {}
        for j, entry in enumerate(coeffs[: params.n + 1]):
            if isinstance(entry, int):
                entry = MultidegreePoly.constant(c, entry)
            elif not isinstance(entry, MultidegreePoly):
                raise TypeError(f"coefficient of h^{j} must be int or MultidegreePoly")
            elif entry.num_vars != c:
                raise ValueError(f"coefficient of h^{j} lives in {entry.num_vars} variables, expected {c}")
            terms.update(((j, *exps), coeff) for exps, coeff in entry.terms.items())
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "terms", terms)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, params: ModelParams) -> "ChowClass":
        return cls(params, [])

    @classmethod
    def one(cls, params: ModelParams) -> "ChowClass":
        return cls.h_power(params, 0)

    @classmethod
    def h_power(cls, params: ModelParams, j: int) -> "ChowClass":
        return cls.of_poly(params, j, MultidegreePoly.one(params.c))

    @classmethod
    def of_poly(cls, params: ModelParams, j: int, poly: MultidegreePoly) -> "ChowClass":
        """The pure class poly * h^j (zero when j exceeds the dimension)."""
        return cls(params, [0] * j + [poly] if j >= 0 else [])

    # -- queries --------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[MultidegreePoly, ...]:
        grades: list[dict] = [{} for _ in range(self.params.n + 1)]
        for key, coeff in self.terms.items():
            grades[key[0]][key[1:]] = coeff
        zero = MultidegreePoly.zero(self.params.c)
        return tuple(zero._wrap(terms) for terms in grades)

    def grade(self, j: int) -> "ChowClass":
        return self._wrap({key: v for key, v in self.terms.items() if key[0] == j})

    def is_pure(self, j: int) -> bool:
        return all(key[0] == j for key in self.terms)

    # -- ring kernel -------------------------------------------------------------

    def _unit_key(self) -> tuple[int, ...]:
        return (0,) * (self.params.c + 1)

    def _alive(self, key) -> bool:
        return key[0] <= self.params.n

    def _promote(self, other):
        if isinstance(other, MultidegreePoly):
            return ChowClass(self.params, [other])
        return super()._promote(other)

    # bound in the class body, where tools that wrap a class's own operators find them
    __mul__ = _SparseTerms.__mul__

    def __repr__(self):
        parts = [f"({p.text()})*h^{j}" for j, p in enumerate(self.coeffs) if not p.is_zero()]
        return "ChowClass(" + (" + ".join(parts) if parts else "0") + ")"


def integrate(x: ChowClass) -> MultidegreePoly:
    """Pairing against the fundamental class: top coefficient times d1...dc."""
    params = x.params
    bezout = MultidegreePoly.monomial(params.c, (1,) * params.c)
    return x.coeffs[params.n] * bezout


def segre_cotangent(params: ModelParams, twist: int) -> list[ChowClass]:
    """Segre classes s_0..s_n of the twisted cotangent bundle of X.

    Computed by exact truncated multiplication of the product presentation:
    the (N+1)-st power of the alternating geometric series in (1-twist)h,
    times (1 - twist*h), times the product of (1 + (d_i - twist) h).
    """
    n, c = params.n, params.c
    geometric = ChowClass(params, [(-(1 - twist)) ** k for k in range(n + 1)])
    total = geometric ** (params.N + 1)
    total = total * ChowClass(params, [1, -twist])
    for i in range(c):
        factor = ChowClass(
            params,
            [1, MultidegreePoly.variable(c, i) - twist],
        )
        total = total * factor
    return [total.grade(j) for j in range(n + 1)]


def segre_closed_form(params: ModelParams, j: int) -> MultidegreePoly:
    """h^j coefficient of the untwisted Segre class s_j, by the closed-form sum.

    Independent oracle for :func:`segre_cotangent` at twist 0: the alternating
    convolution of binomial coefficients against elementary symmetrics.
    """
    if not 0 <= j <= params.n:
        raise ValueError(f"index {j} outside 0..{params.n}")
    return recombine_elementary(
        ((j - k, (-1) ** k * math.comb(params.N + k, params.N)) for k in range(j + 1)), params.c
    )


def twist_segre(s_seq: Sequence[ChowClass], rank: int, line_class: ChowClass) -> list[ChowClass]:
    """Segre classes of E tensor L from those of E and the divisor class of L.

    ``s_seq`` lists s_0..s_top with s_0 = 1; ``rank`` is the rank of E;
    ``line_class`` must be a pure degree-1 class (its h-coefficient is c_1(L)).
    """
    if not s_seq:
        raise ValueError("empty Segre sequence")
    params = s_seq[0].params
    if s_seq[0] != ChowClass.one(params):
        raise ValueError("s_seq[0] must be the unit class")
    if not line_class.is_pure(1):
        raise ValueError("line_class must be pure of degree 1")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return [
        ChowClass.zero(params).add_all(
            s_seq[j] * line_class ** (i - j) * math.comb(rank - 1 + i, i - j) for j in range(i + 1)
        )
        for i in range(len(s_seq))
    ]


def segre_table_json(params: ModelParams, twist: int) -> dict:
    """JSON report for a Segre table: {N, n, c, m, classes: [[j, poly-json]]}."""
    seg = segre_cotangent(params, twist)
    return {
        "N": params.N,
        "n": params.n,
        "c": params.c,
        "m": twist,
        "classes": [[j, seg[j].coeffs[j].to_json()] for j in range(params.n + 1)],
    }
