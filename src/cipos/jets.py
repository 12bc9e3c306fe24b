"""Symbolic classes on the tower of projectivized jet bundles over X.

A level-k class is an integer combination of monomials in the tautological
divisors u_1..u_k, the hyperplane class h, and formal symbols for the base
Segre classes, stored on the ring core of ``polyring`` under flat keys
``(h, s1, ..., sn, u1, ..., uk)`` and truncated wherever a prefix overflows a
stage of the tower.  A push down the tower, one level at a time, takes each
monomial to the base by pi_*(u^p) = s_{p-(n-1)}, expanding tower Segre classes
through the fiberwise recursion; one dict per level merges equal states, and
any top-degree class becomes an exact multidegree polynomial, its coefficient
of h^n.  The holomorphic-Morse bigness certificate sits on top of that
reduction; its nef sum S is built at the top level straight from its weights
(:func:`nef_sum`).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache
from typing import Mapping, NamedTuple

from . import chow
from .chow import ModelParams
from .polyring import MultidegreePoly, _accumulate, _SparseTerms

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
        total += (-1) ** i * (math.comb(n - 2 + i + j, i) if i else 1)
    return total


class JetClass(_SparseTerms):
    """Formal integer combination of tower monomials at a fixed level.

    ``terms`` maps flat keys ``(h, s1, ..., sn, u1, ..., u_level)`` (the
    exponents of h, of the base Segre symbols and of the tautological
    divisors; s_0 = 1 has no slot) to nonzero integer coefficients.  Terms
    whose degree overflows any stage of the tower are identically zero and
    never stored.  ``JetClass(params, level)`` is zero; add an int for a constant.
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


def reduce_to_base(x: JetClass) -> MultidegreePoly:
    """Push a class down to the base one level at a time, then substitute
    every base Segre symbol by its untwisted cotangent Segre class.

    A state is a key cut to level L times the tower Segre classes s_{L,q},
    q in ``pending`` (sorted, zeros dropped); one dict holds each state's
    coefficient.  Expanding each s_{L,q} by the fiberwise recursion collects a
    power e of u_L, which pushes down to s_{L-1, e-(n-1)}, and equal states of
    the level below merge.  Each step lowers the degree by n-1 and a stored key
    fits its stage, so at the base each pending q <= n becomes the symbol s_q.
    Returns the coefficient of h^n; base terms of lower degree are dropped.
    """
    params, n = x.params, x.params.n
    shift = n - 1

    def push(states):
        for (key, pending), value in states.items():
            rest, top = key[:-1], key[-1] + sum(pending)
            for js in itertools.product(*(range(q + 1) for q in pending)):
                coeff = math.prod(segre_recursion_coeff(n, q, j) for q, j in zip(pending, js))
                e = top - sum(js)
                if coeff and e >= shift:
                    yield (rest, tuple(sorted(j for j in (*js, e - shift) if j))), coeff * value

    states = {(key, ()): coeff for key, coeff in x.terms.items()}
    for _ in range(x.level):
        states = _accumulate({}, push(states))
    totals: dict[TermKey, int] = {}
    for (key, pending), value in states.items():
        if key[0] + sum(map(operator.mul, key, range(n + 1))) + sum(pending) == n:
            _accumulate(totals, [(tuple(k + pending.count(i) for i, k in enumerate(key)), value)])
    segre = chow.segre_cotangent(params, 0)
    one = MultidegreePoly.one(params.c)
    pieces = []
    for key, coeff in totals.items():
        factors = (segre[i] ** exp for i, exp in enumerate(key[1:], 1) if exp)
        pieces.append(math.prod(factors, start=one) * coeff)
    return MultidegreePoly.zero(params.c).add_all(pieces)


def nef_sum(params: ModelParams) -> JetClass:
    """The nef sum S = sum_i 3^(kappa-i) u_i + (3^kappa - 1) h at level kappa:
    the sum of the per-level nef classes u_k + 2 u_{k-1} + ... + 2*3^{k-2} u_1
    + 2*3^{k-1} h, k = 1..kappa.  Its terms come in that sum's order, u_1, h,
    u_2, ..., u_kappa, so its powers build their dicts in that order too."""
    kappa = params.kappa

    def u(i: int) -> JetClass:
        return JetClass.tautological(params, kappa, i) * 3 ** (kappa - i)

    h = JetClass.hyperplane(params, kappa) * (3**kappa - 1)
    return u(1).add_all([h, *map(u, range(2, kappa + 1))])


class MorseCertificate(NamedTuple):
    """Outcome of the bigness test: the total h-weight m of the nef sum and the
    exact difference polynomial in the degrees."""

    m: int
    difference: MultidegreePoly


def morse_certificate(params: ModelParams, a: int) -> MorseCertificate:
    """Exact Morse-inequality test for bigness of the twisted tower bundle.

    With S the nef sum (:func:`nef_sum`) and m its h-weight, the difference is
    the h^n coefficient of the reduction of S^top - top * S^(top-1) * (m + a) h,
    a polynomial in the degrees; a positive value at a degree vector certifies bigness of the twist by -a there.
    """
    if a < 0:
        raise ValueError("twist a must be >= 0")
    kappa = params.kappa
    top = params.tower_dim(kappa)
    total = nef_sum(params)
    hyperplane = JetClass.hyperplane(params, kappa)
    (h_key,) = hyperplane.terms
    m = total.terms[h_key]
    # reduce_to_base is linear, so one reduction covers both terms
    tail = total - hyperplane * (top * (m + a))
    return MorseCertificate(m, reduce_to_base(total ** (top - 1) * tail))
