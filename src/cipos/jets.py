"""Symbolic classes on the tower of projectivized jet bundles over X.

A level-k class is an integer combination of monomials in the tautological
divisors u_1..u_k, the hyperplane class h, and formal symbols for the base
Segre classes, stored on the ring core of ``polyring`` under flat keys
``(h, s1, ..., sn, u1, ..., uk)`` and truncated wherever a prefix overflows a
stage of the tower.  One memoized recursion pushes each monomial down to the
base by pi_*(u^p) = s_{p-(n-1)}, expanding a tower Segre class one level at a
time through the fiberwise recursion, and so turns any top-degree class into
an exact multidegree polynomial, its coefficient of h^n.  The
holomorphic-Morse bigness certificate sits on top of that reduction.
"""

from __future__ import annotations

import itertools
import math
import operator
import warnings
from functools import cache
from typing import Mapping, NamedTuple

from . import chow
from .chow import ModelParams
from .polyring import MultidegreePoly, _SparseTerms

# term key: (h exponent, base Segre exponents s_1..s_n, u exponents, one per level)
TermKey = tuple[int, ...]


@cache
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

    __slots__ = ()

    def __init__(self, params: ModelParams, level: int, terms: Mapping[TermKey, int] | None = None):
        if level < 0:
            raise ValueError("level must be >= 0")
        super().__init__((params, level), terms)

    params = property(lambda self: self.ring[0])
    level = property(lambda self: self.ring[1])

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, params: ModelParams, level: int) -> "JetClass":
        return cls(params, level)

    @classmethod
    def unit(cls, params: ModelParams, level: int) -> "JetClass":
        return cls.zero(params, level)._constant(1)

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

    # -- ring kernel -------------------------------------------------------------

    def _unit_key(self) -> TermKey:
        return (0,) * (1 + self.params.n + self.level)

    def _alive(self, key: TermKey) -> bool:
        # a monomial pulled back from stage j must fit in dimension n + j(n-1);
        # checking every prefix kills certified-zero terms as early as possible
        n = self.ring[0].n
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


def reduce_to_base(x: JetClass) -> MultidegreePoly:
    """Push a class down to the base, monomial by monomial, then substitute
    every base Segre symbol by its untwisted cotangent Segre class.

    A state is a stored key at level L times the tower Segre classes s_{L,q},
    q in ``pending`` (sorted, zeros dropped).  Expanding each s_{L,q} by the
    fiberwise recursion collects a power e of u_L, which pushes down to
    s_{L-1, e-(n-1)}; at the base each pending q becomes the symbol s_q.
    Each step lowers the degree by n-1, and a stored key never exceeds its
    stage's dimension, so no pending index reaches past n at the base.
    States are memoized for the length of one call.  Returns the coefficient
    of h^n; base terms of lower degree lie in lower h-grades and are dropped.
    """
    params, n = x.params, x.params.n
    shift = n - 1

    @cache
    def down(key: TermKey, pending: tuple[int, ...]) -> dict[TermKey, int]:
        if len(key) == n + 1:
            slots = list(key)
            for q in pending:
                slots[q] += 1
            return {tuple(slots): 1} if slots[0] + sum(map(operator.mul, slots, range(n + 1))) == n else {}
        rest, top, out = key[:-1], key[-1] + sum(pending), {}
        for js in itertools.product(*(range(q + 1) for q in pending)):
            coeff = math.prod(segre_recursion_coeff(n, q, j) for q, j in zip(pending, js))
            e = top - sum(js)
            if coeff and e >= shift:
                for base, value in down(rest, tuple(sorted(j for j in (*js, e - shift) if j))).items():
                    out[base] = out.get(base, 0) + coeff * value
        return out

    totals: dict[TermKey, int] = {}
    for key, coeff in x.terms.items():
        for base, value in down(key, ()).items():
            totals[base] = totals.get(base, 0) + coeff * value
    segre = chow.segre_cotangent(params, 0)
    one = MultidegreePoly.one(params.c)
    pieces = []
    for key, coeff in totals.items():
        if coeff:
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
    """Outcome of the bigness test: the total h-weight m of the nef sum and the
    exact difference polynomial in the degrees."""

    m: int
    difference: MultidegreePoly


def morse_certificate(params: ModelParams, a: int) -> MorseCertificate:
    """Exact Morse-inequality test for bigness of the twisted tower bundle.

    With S the sum of the nef tower classes up to level kappa and m = 3^kappa - 1
    its total h-weight, the difference is the h^n coefficient of the reduction
    of S^top - top * S^(top-1) * (m + a) h, a polynomial in the degrees; a
    positive value at a degree vector certifies bigness of the twist by -a there.
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
    return MorseCertificate(m, reduce_to_base(total ** (top - 1) * tail))
