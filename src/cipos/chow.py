"""Truncated Chow ring of a complete intersection in projective space.

Classes are stored as vectors of integer polynomials in the multidegree
variables, graded by powers of the hyperplane class h and truncated at h^n
(everything above the dimension dies).  The two Segre-class routes kept here
on purpose, a truncated product expansion and a closed-form convolution, act
as independent oracles for each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .polyring import MultidegreePoly, _Ring, recombine_elementary


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


class ChowClass(_Ring):
    """An h-graded class: ``coeffs[j]`` is the polynomial coefficient of h^j.

    The vector has length n+1; products drop everything in degree > n.
    Immutable, and ints promote to multiples of the unit class.
    """

    __slots__ = ("params", "coeffs")

    def __init__(self, params: ModelParams, coeffs: Sequence):
        n, c = params.n, params.c
        vec = []
        for j in range(n + 1):
            entry = coeffs[j] if j < len(coeffs) else 0
            if isinstance(entry, int):
                entry = MultidegreePoly.constant(c, entry)
            elif not isinstance(entry, MultidegreePoly):
                raise TypeError(f"coefficient of h^{j} must be int or MultidegreePoly")
            elif entry.num_vars != c:
                raise ValueError(f"coefficient of h^{j} lives in {entry.num_vars} variables, expected {c}")
            vec.append(entry)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "coeffs", tuple(vec))

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, params: ModelParams) -> "ChowClass":
        return cls(params, [])

    @classmethod
    def one(cls, params: ModelParams) -> "ChowClass":
        return cls.h_power(params, 0)

    @classmethod
    def h_power(cls, params: ModelParams, j: int) -> "ChowClass":
        if not 0 <= j <= params.n:
            return cls.zero(params)
        return cls(params, [1 if i == j else 0 for i in range(j + 1)])

    @classmethod
    def of_poly(cls, params: ModelParams, j: int, poly: MultidegreePoly) -> "ChowClass":
        """The pure class poly * h^j (zero when j exceeds the dimension)."""
        if not 0 <= j <= params.n:
            return cls.zero(params)
        return cls(params, [poly if i == j else 0 for i in range(j + 1)])

    # -- queries --------------------------------------------------------------

    def grade(self, j: int) -> "ChowClass":
        return ChowClass.of_poly(self.params, j, self.coeffs[j]) if 0 <= j <= self.params.n else ChowClass.zero(self.params)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.coeffs)

    def is_pure(self, j: int) -> bool:
        return all(p.is_zero() for i, p in enumerate(self.coeffs) if i != j)

    # -- ring operations -------------------------------------------------------

    def _unit(self) -> "ChowClass":
        return ChowClass.one(self.params)

    def _promote(self, other):
        if isinstance(other, ChowClass):
            if other.params != self.params:
                raise ValueError("ChowClass parameters do not match")
            return other
        if isinstance(other, (int, MultidegreePoly)):
            return ChowClass(self.params, [other])
        return NotImplemented

    def __add__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return ChowClass(self.params, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return ChowClass(self.params, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, MultidegreePoly)):
            return ChowClass(self.params, [a * other for a in self.coeffs])
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        n = self.params.n
        out = [MultidegreePoly.zero(self.params.c) for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if i + j > n:
                    break
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return ChowClass(self.params, out)

    def __eq__(self, other):
        if isinstance(other, (int, MultidegreePoly)):
            other = ChowClass(self.params, [other])
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self.params == other.params and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.params, self.coeffs))

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
    out = []
    for i in range(len(s_seq)):
        acc = ChowClass.zero(params)
        for j in range(i + 1):
            acc = acc + s_seq[j] * line_class ** (i - j) * math.comb(rank - 1 + i, i - j)
        out.append(acc)
    return out


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
