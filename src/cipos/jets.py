"""Symbolic classes on the tower of projectivized jet bundles over X.

A level-k class is an integer combination of monomials in the tautological
divisors u_1..u_k, the hyperplane class h, and formal symbols for the base
Segre classes, stored on the ring core of ``polyring`` under flat keys
``(h, s1, ..., sn, u1, ..., uk)`` and truncated wherever a prefix overflows a
stage of the tower.  A push down the tower, one level at a time, takes each
monomial to the base by pi_*(u^p) = s_{p-(n-1)}, expanding tower Segre classes
through the fiberwise recursion; one dict per level merges equal states, and
any top-degree class becomes its coefficient of h^n, the base Segre classes of
``chow.segre_elementary`` multiplied as ``ElementaryClass``es, and stays one.
``JetClass`` is the ring only, with no generators: the holomorphic-Morse
bigness certificate on top of that reduction writes its nef sum S and the tail
of its integrand term by term from their weights (:func:`nef_sum`).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cache
from typing import Mapping, NamedTuple

from . import chow
from .chow import ModelParams
from .polyring import ElementaryClass, MultidegreePoly, _accumulate, _SparseTerms, recombine_elementary

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


def reduce_to_base(x: JetClass) -> ElementaryClass:
    """Push a class down to the base one level at a time, then return its h^n
    coefficient, a class symmetric in the degrees.

    A state is a key cut to level L times the tower Segre classes s_{L,q},
    q in ``pending`` (sorted, zeros dropped); one dict holds each state's
    coefficient.  Expanding each s_{L,q} by the fiberwise recursion collects a
    power e of u_L, which pushes down to s_{L-1, e-(n-1)}, and equal states of
    the level below merge.  Each step lowers the degree by n-1 and a stored key
    fits its stage, so at the base each pending q <= n becomes the symbol s_q.
    The base states of degree n add up by their sorted Segre indices, and each
    such product of the classes s_q of ``chow.segre_elementary`` is multiplied
    once and summed.  Lower degrees are dropped.
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
    # each base state as (its Segre indices, its power of h, its coefficient)
    base = (((*p, *(i for i, e in enumerate(k[1:], 1) for _ in range(e))), k[0], v) for (k, p), v in states.items())
    groups = _accumulate({}, ((tuple(sorted(qs)), v) for qs, h, v in base if h + sum(qs) == n))
    segre = chow.segre_elementary(params, 0)
    products = (math.prod((segre[q] for q in qs), start=v) for qs, v in groups.items())
    return ElementaryClass(params.c).add_all(products)


def nef_sum(params: ModelParams) -> JetClass:
    """The nef sum S = sum_i 3^(kappa-i) u_i + (3^kappa - 1) h at level kappa:
    the sum of the per-level nef classes u_k + 2 u_{k-1} + ... + 2*3^{k-2} u_1
    + 2*3^{k-1} h, k = 1..kappa.  Its terms are written from the weights in that
    sum's order, u_1, h, u_2, ..., u_kappa, the order its powers' dicts keep."""
    n, kappa = params.n, params.kappa
    # (slot, weight): h sits in slot 0 and u_i in slot n + i
    weights = [(n + 1, 3 ** (kappa - 1)), (0, 3**kappa - 1)] + [(n + i, 3 ** (kappa - i)) for i in range(2, kappa + 1)]
    unit = (0,) * (1 + n + kappa)
    return JetClass(params, kappa)._wrap({unit[:slot] + (1,) + unit[slot + 1 :]: w for slot, w in weights})


class MorseCertificate(NamedTuple):
    """Outcome of the bigness test: the total h-weight m of the nef sum and the
    exact difference, a class symmetric in the degrees."""

    m: int
    elementary: ElementaryClass

    @property
    def difference(self) -> MultidegreePoly:
        """The difference written in d, as ``perfbench/make_reference.py`` reads it."""
        return recombine_elementary(self.elementary)


def morse_certificate(params: ModelParams, a: int) -> MorseCertificate:
    """Exact Morse-inequality test for bigness of the twisted tower bundle.

    With S the nef sum (:func:`nef_sum`) and m its h-weight, the difference is
    the h^n coefficient of the reduction of S^top - top * S^(top-1) * (m + a) h,
    a class in the degrees; a positive value at a degree vector certifies bigness of the twist by -a there.
    """
    if a < 0:
        raise ValueError("twist a must be >= 0")
    kappa = params.kappa
    top = params.tower_dim(kappa)
    total = nef_sum(params)
    h_key = (1,) + (0,) * (params.n + kappa)
    m = total.terms[h_key]
    # reduce_to_base is linear, so one reduction covers both terms of the tail S - top (m + a) h
    tail = total._wrap(_accumulate(dict(total.terms), [(h_key, -top * (m + a))]))
    return MorseCertificate(m, reduce_to_base(total ** (top - 1) * tail))
