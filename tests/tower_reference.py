"""The eager route down the jet tower, kept as the tests' second route.

Tower Segre classes are expanded through every lower level by the fiberwise
recursion, and a pushforward multiplies whole classes: each bucket of terms
that share a top tautological power p becomes its rest times the tower Segre
class of index p - (n-1) one level down.  ``reduce_reference`` iterates that
to the base and substitutes the base Segre symbols, independently of
``jets.reduce_to_base``.
"""

import math
import operator
from functools import cache

from cipos import chow
from cipos.chow import ModelParams
from cipos.jets import JetClass, TermKey, segre_recursion_coeff
from cipos.polyring import MultidegreePoly


def base_segre_symbol(params: ModelParams, level: int, i: int) -> JetClass:
    """The formal base Segre symbol of index i (zero beyond the dimension)."""
    if i < 0 or i > params.n:
        return JetClass.zero(params, level)
    if i == 0:
        return JetClass.unit(params, level)
    return JetClass._generator(params, level, i)


@cache
def tower_segre(params: ModelParams, level: int, index: int) -> JetClass:
    """Tower Segre class of the given index at the given level, fully expanded.

    Level 0 returns the bare base symbol; higher levels apply the fiberwise
    recursion, so the result involves only tautological monomials and base
    symbols.  Negative index gives 0, index 0 gives 1.
    """
    if index < 0:
        return JetClass.zero(params, level)
    if index == 0:
        return JetClass.unit(params, level)
    if level == 0:
        return base_segre_symbol(params, 0, index)
    u_top = JetClass.tautological(params, level, level)
    coeffs = ((j, segre_recursion_coeff(params.n, index, j)) for j in range(index + 1))
    return JetClass.zero(params, level).add_all(
        tower_segre(params, level - 1, j).lift(level) * u_top ** (index - j) * coeff for j, coeff in coeffs if coeff
    )


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
    below = JetClass.zero(params, level - 1)
    return below.add_all(
        JetClass(params, level - 1, rest) * tower_segre(params, level - 1, p - shift)
        for p, rest in buckets.items()
        if p >= shift
    )


def reduce_reference(x: JetClass) -> MultidegreePoly:
    """Iterate pushforwards down to the base, then substitute every base Segre
    symbol by its untwisted cotangent Segre class; the coefficient of h^n."""
    while x.level > 0:
        x = pushforward(x)
    n = x.params.n
    segre = chow.segre_cotangent(x.params, 0)
    one = MultidegreePoly.one(x.params.c)
    pieces = []
    for key, coeff in x.terms.items():
        if key[0] + sum(map(operator.mul, key, range(n + 1))) == n:
            factors = (segre[i] ** exp for i, exp in enumerate(key[1:], 1) if exp)
            pieces.append(math.prod(factors, start=one) * coeff)
    return MultidegreePoly.zero(x.params.c).add_all(pieces)
