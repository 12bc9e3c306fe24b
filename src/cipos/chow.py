"""Segre classes and integration on a complete intersection in projective space.

A class in the Chow ring is the list of its coefficients of h^0..h^n (h the
hyperplane class), each a class symmetric in the degrees.  The Segre classes
have one route: :func:`segre_elementary` states them in closed form, as
``ElementaryClass``es sum_k a_k e_k(d), which ``segre``, ``positivity`` and ``jet``
read directly; the twist t is the shift of d by -t (``polyring.shifted``).
Self-test criterion 1 proves the closed form against the product formula by exact
evaluation.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .polyring import ElementaryClass, shifted


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


def integrate(top: ElementaryClass) -> ElementaryClass:
    """Pairing against the fundamental class: the h^n coefficient ``top``
    times the Bezout number d1...dc = e_c, which puts c in front of every key."""
    return top._wrap({(top.ring, *key): coeff for key, coeff in top.terms.items()})


def segre_elementary(params: ModelParams, twist: int) -> list[ElementaryClass]:
    """Segre classes s_0..s_n of the twisted cotangent bundle of X, each as its
    coefficient of h^j, sum_k a_jk e_k(d) over k <= min(j, c).

    The closed form, at any twist t, of the h-series of the product formula
    (1 + (1-t)h)^-(N+1) (1 - th) prod_i (1 + (d_i - t)h):
    s_j = sum_{i<=j} G_{j-i} e_i(d - t), with G_m the h^m coefficient of
    (1 + (1-t)h)^-(N+1) (1 - th), so s_j is the class sum_i G_{j-i} e_i shifted by -t.
    """
    N, n, c, t = params.N, params.n, params.c, twist
    power = [math.comb(N + m, N) * (t - 1) ** m for m in range(n + 1)]
    g = [1] + [power[m] - t * power[m - 1] for m in range(1, n + 1)]
    return [shifted(ElementaryClass._from_row(c, [g[j - i] for i in range(min(j, c) + 1)]), -t) for j in range(n + 1)]
