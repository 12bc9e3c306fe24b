"""Symbolic classes on the tower of projectivized jet bundles over X.

A level-k class is an integer combination of monomials in the tautological
divisors u_1..u_k, the hyperplane class h, and formal symbols for the base
Segre classes.  Tower Segre classes are expanded eagerly through the fiberwise
recursion, pushforwards trade the top tautological power for a base-level
Segre class, and iterating down to the base turns any top-degree class into an
exact multidegree polynomial.  The holomorphic-Morse bigness certificate and
the uniform-degree scan sit on top of that reduction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from . import chow
from .chow import ChowClass, ModelParams
from .polyring import MultidegreePoly, _SparseTerms

# term key: (u exponents, one per level, h exponent, base Segre exponents e_0..e_n)
TermKey = tuple[tuple[int, ...], int, tuple[int, ...]]


@lru_cache(maxsize=None)
def segre_recursion_coeff(n: int, ell: int, j: int) -> int:
    """Integer coefficient of s_{k-1,j} u_k^{ell-j} in the fiberwise Segre recursion.

    The alternating binomial sum over i <= ell - j; equals 1 at j = ell.
    Memoized; safe for concurrent reads once warmed (pure values, atomic dict).
    """
    if n < 1:
        raise ValueError("fiber dimension n must be >= 1")
    if j < 0 or j > ell:
        raise ValueError(f"need 0 <= j <= ell, got j={j}, ell={ell}")
    total = 0
    for i in range(ell - j + 1):
        top = n - 2 + i + j
        total += (-1) ** i * (1 if i == 0 else (math.comb(top, i) if top >= i else 0))
    return total


def _term_alive(params: ModelParams, level: int, u_exps, h_exp: int, s_exps) -> bool:
    # a monomial pulled back from stage j must fit in dimension n + j(n-1);
    # checking every prefix kills certified-zero terms as early as possible
    n = params.n
    deg = h_exp + sum(i * e for i, e in enumerate(s_exps))
    if deg > n:
        return False
    for j in range(level):
        deg += u_exps[j]
        if deg > n + (j + 1) * (n - 1):
            return False
    return True


class JetClass(_SparseTerms):
    """Formal integer combination of tower monomials at a fixed level.

    ``terms`` maps (u-exponents, h-exponent, base-Segre exponents) to nonzero
    integer coefficients.  Terms whose degree overflows any stage of the tower
    are identically zero and never stored.
    """

    __slots__ = ("params", "level", "terms")
    _SHAPE = ("params", "level")

    def __init__(self, params: ModelParams, level: int, terms: Mapping[TermKey, int] | None = None):
        if level < 0:
            raise ValueError("level must be >= 0")
        clean: dict[TermKey, int] = {}
        if terms:
            for (u_exps, h_exp, s_exps), coeff in terms.items():
                if not coeff:
                    continue
                u_exps, s_exps = tuple(u_exps), tuple(s_exps)
                if len(u_exps) != level:
                    raise ValueError(f"u-exponents {u_exps} do not match level {level}")
                if len(s_exps) != params.n + 1:
                    raise ValueError("base Segre exponent vector has wrong length")
                if _term_alive(params, level, u_exps, h_exp, s_exps):
                    clean[(u_exps, h_exp, s_exps)] = coeff
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "terms", clean)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, params: ModelParams, level: int) -> "JetClass":
        return cls(params, level)

    @classmethod
    def unit(cls, params: ModelParams, level: int) -> "JetClass":
        return cls.zero(params, level)._unit()

    @classmethod
    def hyperplane(cls, params: ModelParams, level: int) -> "JetClass":
        key = ((0,) * level, 1, (0,) * (params.n + 1))
        return cls(params, level, {key: 1})

    @classmethod
    def tautological(cls, params: ModelParams, level: int, i: int) -> "JetClass":
        """The divisor u_i pulled up to the given level (1 <= i <= level)."""
        if not 1 <= i <= level:
            raise ValueError(f"tautological index {i} outside 1..{level}")
        u = tuple(1 if j == i - 1 else 0 for j in range(level))
        return cls(params, level, {(u, 0, (0,) * (params.n + 1)): 1})

    @classmethod
    def base_segre_symbol(cls, params: ModelParams, level: int, i: int) -> "JetClass":
        """The formal base Segre symbol of index i (zero beyond the dimension)."""
        if i < 0:
            return cls.zero(params, level)
        if i == 0:
            return cls.unit(params, level)
        if i > params.n:
            return cls.zero(params, level)
        s = tuple(1 if j == i else 0 for j in range(params.n + 1))
        return cls(params, level, {((0,) * level, 0, s): 1})

    # -- ring kernel -------------------------------------------------------------

    def _unit_key(self) -> TermKey:
        return ((0,) * self.level, 0, (0,) * (self.params.n + 1))

    def _product(self, other: "JetClass"):
        params, level = self.params, self.level
        for (u1, q1, e1), c1 in self.terms.items():
            for (u2, q2, e2), c2 in other.terms.items():
                u = tuple(a + b for a, b in zip(u1, u2))
                q = q1 + q2
                e = tuple(a + b for a, b in zip(e1, e2))
                if _term_alive(params, level, u, q, e):
                    yield (u, q, e), c1 * c2

    # bound in the class body, where tools that wrap a class's own operators find them
    __mul__ = _SparseTerms.__mul__
    __pow__ = _SparseTerms.__pow__

    # -- queries ----------------------------------------------------------------

    def lift(self, level: int) -> "JetClass":
        """Pull the class up the tower by appending zero tautological exponents."""
        if level < self.level:
            raise ValueError("cannot lift downwards")
        if level == self.level:
            return self
        pad = (0,) * (level - self.level)
        out = {(u + pad, q, e): c for (u, q, e), c in self.terms.items()}
        return JetClass(self.params, level, out)

    def term_degrees(self) -> set[int]:
        return {
            sum(u) + q + sum(i * x for i, x in enumerate(e))
            for (u, q, e) in self.terms
        }

    def __repr__(self):
        return f"JetClass(level={self.level}, {len(self.terms)} terms)"


_TOWER_SEGRE_CACHE: dict[tuple[ModelParams, int, int], JetClass] = {}


def tower_segre(params: ModelParams, level: int, index: int) -> JetClass:
    """Tower Segre class of the given index at the given level, fully expanded.

    Level 0 returns the bare base symbol; higher levels apply the fiberwise
    recursion eagerly, so the result involves only tautological monomials and
    base symbols.  Negative index gives 0, index 0 gives 1.
    """
    if index < 0:
        return JetClass.zero(params, level)
    if index == 0:
        return JetClass.unit(params, level)
    key = (params, level, index)
    cached = _TOWER_SEGRE_CACHE.get(key)
    if cached is not None:
        return cached
    if level == 0:
        result = JetClass.base_segre_symbol(params, 0, index)
    else:
        result = JetClass.zero(params, level)
        u_top = JetClass.tautological(params, level, level)
        for j in range(index + 1):
            coeff = segre_recursion_coeff(params.n, index, j)
            if coeff == 0:
                continue
            piece = tower_segre(params, level - 1, j).lift(level)
            result = result + piece * u_top ** (index - j) * coeff
    _TOWER_SEGRE_CACHE[key] = result
    return result


def pushforward(x: JetClass) -> JetClass:
    """Push a class one level down: u_top^p becomes the Segre class of index
    p - (n-1) on the level below (0 for p < n-1, 1 for p = n-1)."""
    if x.level < 1:
        raise ValueError("cannot push a base-level class further down")
    params, level = x.params, x.level
    shift = params.n - 1
    buckets: dict[int, dict[TermKey, int]] = {}
    for (u, q, e), coeff in x.terms.items():
        p = u[-1]
        buckets.setdefault(p, {})[(u[:-1], q, e)] = coeff
    total = JetClass.zero(params, level - 1)
    for p, rest_terms in buckets.items():
        if p - shift < 0:
            continue
        rest = JetClass(params, level - 1, rest_terms)
        total = total + rest * tower_segre(params, level - 1, p - shift)
    return total


_BASE_SEGRE_CACHE: dict[ModelParams, list[ChowClass]] = {}


def _base_segre_classes(params: ModelParams) -> list[ChowClass]:
    cached = _BASE_SEGRE_CACHE.get(params)
    if cached is None:
        cached = chow.segre_cotangent(params, 0)
        _BASE_SEGRE_CACHE[params] = cached
    return cached


def reduce_to_base(x: JetClass) -> ChowClass:
    """Iterate pushforwards down to the base, then substitute every base Segre
    symbol by its untwisted cotangent Segre class and multiply out."""
    while x.level > 0:
        x = pushforward(x)
    params = x.params
    segre = _base_segre_classes(params)
    pieces = []
    for (_, q, e), coeff in x.terms.items():
        factors = (segre[i] ** exp for i, exp in enumerate(e) if exp)
        pieces.append(math.prod(factors, start=ChowClass.h_power(params, q)) * coeff)
    return ChowClass.zero(params).add_all(pieces)


def integrate_tower(x: JetClass) -> MultidegreePoly:
    """Integrate a level-k class over the k-th tower stage, exactly.

    Terms below the top degree integrate to 0; they are reported through a
    warning rather than an error so callers see sloppy inputs.
    """
    top = x.params.tower_dim(x.level)
    low = [d for d in x.term_degrees() if d < top]
    if low:
        warnings.warn(
            f"integrating a level-{x.level} class with terms of degree {sorted(low)}"
            f" below the top degree {top}; they contribute 0",
            stacklevel=2,
        )
    return chow.integrate(reduce_to_base(x))


def nef_tower_class(params: ModelParams, k: int) -> JetClass:
    """Divisor class of the k-th auxiliary nef bundle on the tower.

    Weights: u_k + 2 u_{k-1} + 6 u_{k-2} + ... + 2*3^{k-2} u_1 + 2*3^{k-1} h.
    """
    if k < 1:
        raise ValueError("nef tower classes start at level 1")
    cls = JetClass.tautological(params, k, k)
    for i in range(1, k):
        cls = cls + JetClass.tautological(params, k, i) * (2 * 3 ** (k - 1 - i))
    return cls + JetClass.hyperplane(params, k) * (2 * 3 ** (k - 1))


@dataclass
class MorseCertificate:
    """Outcome of the bigness test: exact difference polynomial and, when a
    degree vector was supplied, its value and sign there."""

    params: ModelParams
    a: int
    m: int
    difference: MultidegreePoly
    evaluated_at: tuple[int, ...] | None = None
    value: int | None = None
    positive: bool | None = None

    def to_json(self) -> dict:
        return {
            "N": self.params.N,
            "n": self.params.n,
            "c": self.params.c,
            "kappa": self.params.kappa,
            "a": self.a,
            "m": self.m,
            "difference": self.difference.to_json(),
            "evaluated_at": list(self.evaluated_at) if self.evaluated_at is not None else None,
            "value": str(self.value) if self.value is not None else None,
            "positive": self.positive,
        }


def morse_certificate(params: ModelParams, a: int, degrees: Sequence[int] | None = None) -> MorseCertificate:
    """Exact Morse-inequality test for bigness of the twisted tower bundle.

    With S the sum of the nef tower classes up to level kappa and m = 3^kappa - 1
    its total h-weight, the certificate is the h^n coefficient of the reduction
    of S^top - top * S^(top-1) * (m + a) h; a positive value at a degree vector
    certifies bigness of the twist by -a there.
    """
    if a < 0:
        raise ValueError("twist a must be >= 0")
    kappa = params.kappa
    top = params.tower_dim(kappa)
    m = 3**kappa - 1
    nef_classes = (nef_tower_class(params, i).lift(kappa) for i in range(1, kappa + 1))
    total = JetClass.zero(params, kappa).add_all(nef_classes)
    # reduce_to_base is linear, so one reduction covers both terms
    tail = total - JetClass.hyperplane(params, kappa) * (top * (m + a))
    difference = reduce_to_base(total ** (top - 1) * tail).coeffs[params.n]
    cert = MorseCertificate(params=params, a=a, m=m, difference=difference)
    if degrees is not None:
        degrees = tuple(degrees)
        if len(degrees) != params.c:
            raise ValueError(f"need {params.c} degrees, got {len(degrees)}")
        cert.evaluated_at = degrees
        cert.value = difference.eval(degrees)
        cert.positive = cert.value > 0
    return cert


def min_uniform_degree(params: ModelParams, a: int, d_max: int) -> int | None:
    """Smallest uniform degree r <= d_max with a positive Morse difference at
    (r, ..., r), or None when the scan is exhausted."""
    if d_max < 1:
        raise ValueError("d_max must be >= 1")
    difference = morse_certificate(params, a).difference
    c = params.c
    for r in range(1, d_max + 1):
        if difference.eval((r,) * c) > 0:
            return r
    return None
