"""Segre classes and integration on a complete intersection in projective space.

A class in the Chow ring is the list of its coefficients of h^0..h^n (h the
hyperplane class), each a ``MultidegreePoly`` in the degrees; products are
truncated power-series products (``polyring.series_product``) that drop
everything above h^n.
The two Segre-class routes kept here on purpose act as independent oracles
for each other: :func:`segre_cotangent` expands the product formula in d and
feeds ``segre`` and ``jet``; :func:`segre_elementary` states the same classes
in closed form, as rows of elementary symmetric coefficients at any twist, and
feeds ``positivity``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .polyring import MultidegreePoly, series_product


class ModelParams(NamedTuple("ModelParams", [("N", int), ("n", int)])):
    """Numerical frame: ambient dimension N, dimension n, codimension c = N - n.

    ``kappa`` is the smallest jet order ceil(n/c) at which the tower
    computations can produce something nonzero, and ``b`` the remainder with
    n = (kappa - 1) c + b, 0 < b <= c.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 1:
            raise ValueError("dimension n must be >= 1")
        if self.c < 1:
            raise ValueError(f"codimension N - n = {self.N - self.n} must be >= 1")
        return self

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


def integrate(top: MultidegreePoly) -> MultidegreePoly:
    """Pairing against the fundamental class: the h^n coefficient ``top``
    times the Bezout number d1...dc."""
    c = top.num_vars
    return top * MultidegreePoly.monomial(c, (1,) * c)


def segre_cotangent(params: ModelParams, twist: int) -> list[MultidegreePoly]:
    """Segre classes s_0..s_n of the twisted cotangent bundle of X, each as
    its coefficient of h^j.

    Computed by exact truncated multiplication of the product presentation:
    the (N+1)-st power of the alternating geometric series in (1-twist)h,
    times (1 - twist*h), times the product of (1 + (d_i - twist) h).
    """
    n, c = params.n, params.c
    one = MultidegreePoly.one(c)
    geometric = [one * (-(1 - twist)) ** k for k in range(n + 1)]
    total = [one]
    for _ in range(params.N + 1):
        total = series_product(total, geometric, n)
    total = series_product(total, [one, one * -twist], n)
    for i in range(c):
        total = series_product(total, [one, MultidegreePoly.variable(c, i) - twist], n)
    return total


def segre_elementary(params: ModelParams, twist: int) -> list[list[int]]:
    """Segre classes s_0..s_n of the twisted cotangent bundle of X in the
    elementary symmetric basis: row j lists the coefficients of
    e_0(d)..e_min(j,c)(d) in the h^j coefficient of s_j.

    The closed form of the product in :func:`segre_cotangent`, at any twist t:
    s_j = sum_{i<=j} G_{j-i} e_i(d - t), with G_m the h^m coefficient of
    (1 + (1-t)h)^-(N+1) (1 - th), and e_i(d - t) = sum_k C(c-k, i-k) (-t)^(i-k) e_k(d).
    """
    N, n, c, t = params.N, params.n, params.c, twist
    power = [math.comb(N + m, N) * (t - 1) ** m for m in range(n + 1)]
    g = [1] + [power[m] - t * power[m - 1] for m in range(1, n + 1)]
    return [
        [
            sum(g[j - i] * math.comb(c - k, i - k) * (-t) ** (i - k) for i in range(k, min(j, c) + 1))
            for k in range(min(j, c) + 1)
        ]
        for j in range(n + 1)
    ]


def twist_segre(s_seq: Sequence[MultidegreePoly], rank: int, line) -> list[MultidegreePoly]:
    """Segre classes of E tensor L from those of E and the divisor class of L.

    ``s_seq`` lists the h-coefficients of s_0..s_top with s_0 = 1; ``rank`` is
    the rank of E; ``line`` is the h-coefficient of c_1(L), an int or a
    polynomial.
    """
    if not s_seq:
        raise ValueError("empty Segre sequence")
    if not isinstance(s_seq[0], MultidegreePoly) or s_seq[0] != 1:
        raise ValueError("s_seq[0] must be the unit polynomial")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    zero = MultidegreePoly.zero(s_seq[0].num_vars)
    return [
        zero.add_all(s_seq[j] * (line ** (i - j) * math.comb(rank - 1 + i, i - j)) for j in range(i + 1))
        for i in range(len(s_seq))
    ]

