"""Symbolic classes on the tower of projectivized jet bundles over X.

A level-k class is an integer combination of monomials in the tautological
divisors u_1..u_k, the hyperplane class h, and formal symbols for the base
Segre classes, stored on the ring core of ``polyring`` under flat keys
``(h, s1, ..., sn, u1, ..., uk)`` and truncated wherever a prefix overflows a
stage of the tower.  Tower Segre classes are expanded eagerly through the
fiberwise recursion, pushforwards trade the top tautological power for a
base-level Segre class, and iterating down to the base turns any top-degree
class into an exact multidegree polynomial, its coefficient of h^n.  The holomorphic-Morse bigness
certificate sits on top of that reduction.
"""

from __future__ import annotations

import math
import operator
import warnings
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

from . import chow
from .chow import ModelParams
from .polyring import MultidegreePoly, _SparseTerms

# term key: (h exponent, base Segre exponents s_1..s_n, u exponents, one per level)
TermKey = tuple[int, ...]


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


class JetClass(_SparseTerms):
    """Formal integer combination of tower monomials at a fixed level.

    ``terms`` maps flat keys ``(h, s1, ..., sn, u1, ..., u_level)`` (the
    exponents of h, of the base Segre symbols and of the tautological
    divisors; s_0 = 1 has no slot) to nonzero integer coefficients.  Terms
    whose degree overflows any stage of the tower are identically zero and
    never stored.
    """

    __slots__ = ("params", "level", "terms")
    _SHAPE = ("params", "level")

    def __init__(self, params: ModelParams, level: int, terms: Mapping[TermKey, int] | None = None):
        if level < 0:
            raise ValueError("level must be >= 0")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "level", level)
        width = len(self._unit_key())
        clean: dict[TermKey, int] = {}
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            if len(key) != width:
                raise ValueError(f"term key {key} does not have length 1 + n + level = {width}")
            if min(key) < 0:
                raise ValueError(f"negative exponent in {key}")
            if coeff and self._alive(key):
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, params: ModelParams, level: int) -> "JetClass":
        return cls(params, level)

    @classmethod
    def unit(cls, params: ModelParams, level: int) -> "JetClass":
        return cls.zero(params, level)._unit()

    @classmethod
    def _generator(cls, params: ModelParams, level: int, slot: int) -> "JetClass":
        key = tuple(1 if j == slot else 0 for j in range(1 + params.n + level))
        return cls(params, level, {key: 1})

    @classmethod
    def hyperplane(cls, params: ModelParams, level: int) -> "JetClass":
        return cls._generator(params, level, 0)

    @classmethod
    def tautological(cls, params: ModelParams, level: int, i: int) -> "JetClass":
        """The divisor u_i pulled up to the given level (1 <= i <= level)."""
        if not 1 <= i <= level:
            raise ValueError(f"tautological index {i} outside 1..{level}")
        return cls._generator(params, level, params.n + i)

    @classmethod
    def base_segre_symbol(cls, params: ModelParams, level: int, i: int) -> "JetClass":
        """The formal base Segre symbol of index i (zero beyond the dimension)."""
        if i < 0 or i > params.n:
            return cls.zero(params, level)
        if i == 0:
            return cls.unit(params, level)
        return cls._generator(params, level, i)

    # -- ring kernel -------------------------------------------------------------

    def _unit_key(self) -> TermKey:
        return (0,) * (1 + self.params.n + self.level)

    def _alive(self, key: TermKey) -> bool:
        # a monomial pulled back from stage j must fit in dimension n + j(n-1);
        # checking every prefix kills certified-zero terms as early as possible
        n = self.params.n
        deg = key[0] + sum(map(operator.mul, key, range(n + 1)))
        if deg > n:
            return False
        for j, u in enumerate(key[n + 1 :], 1):
            deg += u
            if deg > n + j * (n - 1):
                return False
        return True

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
        # a prefix that fits every stage still fits once zero exponents follow
        return JetClass.zero(self.params, level)._wrap({key + pad: c for key, c in self.terms.items()})

    def term_degrees(self) -> set[int]:
        n = self.params.n
        return {key[0] + sum(map(operator.mul, key, range(n + 1))) + sum(key[n + 1 :]) for key in self.terms}

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
        u_top = JetClass.tautological(params, level, level)
        coeffs = ((j, segre_recursion_coeff(params.n, index, j)) for j in range(index + 1))
        result = JetClass.zero(params, level).add_all(
            tower_segre(params, level - 1, j).lift(level) * u_top ** (index - j) * coeff
            for j, coeff in coeffs
            if coeff
        )
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
    for key, coeff in x.terms.items():
        buckets.setdefault(key[-1], {})[key[:-1]] = coeff
    # every prefix of a stored key fits the stages below, so the rests are canonical
    below = JetClass.zero(params, level - 1)
    return below.add_all(
        below._wrap(rest) * tower_segre(params, level - 1, p - shift)
        for p, rest in buckets.items()
        if p >= shift
    )


def reduce_to_base(x: JetClass) -> MultidegreePoly:
    """Iterate pushforwards down to the base, then substitute every base Segre
    symbol by its untwisted cotangent Segre class and multiply out.

    Returns the coefficient of h^n; base terms of lower degree lie in lower
    h-grades and are dropped.
    """
    while x.level > 0:
        x = pushforward(x)
    params = x.params
    n = params.n
    segre = chow.segre_cotangent(params, 0)
    one = MultidegreePoly.one(params.c)
    pieces = []
    for key, coeff in x.terms.items():
        if key[0] + sum(map(operator.mul, key, range(n + 1))) == n:
            factors = (segre[i] ** exp for i, exp in enumerate(key[1:], 1) if exp)
            pieces.append(math.prod(factors, start=one) * coeff)
    return MultidegreePoly.zero(params.c).add_all(pieces)


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


class MorseCertificate(NamedTuple):
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
    if degrees is not None:
        degrees = tuple(degrees)
        if len(degrees) != params.c:
            raise ValueError(f"need {params.c} degrees, got {len(degrees)}")
        if min(degrees) < 1:
            raise ValueError(f"degrees must be >= 1, got {list(degrees)}")
    kappa = params.kappa
    top = params.tower_dim(kappa)
    m = 3**kappa - 1
    nef_classes = (nef_tower_class(params, i).lift(kappa) for i in range(1, kappa + 1))
    total = JetClass.zero(params, kappa).add_all(nef_classes)
    # reduce_to_base is linear, so one reduction covers both terms
    tail = total - JetClass.hyperplane(params, kappa) * (top * (m + a))
    difference = reduce_to_base(total ** (top - 1) * tail)
    if degrees is None:
        return MorseCertificate(params, a, m, difference)
    value = difference.eval(degrees)
    return MorseCertificate(params, a, m, difference, degrees, value, value > 0)

