"""The tower generators and the eager route down the jet tower, on the engine's
own ``JetClass`` ring.

The generators live here, since the engine writes its classes term by term
and has none: ``generator`` is the class of one key with a 1 in one slot,
``hyperplane``, ``tautological`` and ``base_segre_symbol`` name its slots,
``variable`` is a degree d_i as a ``MultidegreePoly`` and ``elementary`` the
elementary symmetric polynomial e_j(d) written in d; ``segre_in_d`` and
``morse_in_d`` write the Segre classes and the first-order Morse difference,
which the engine keeps as ``ElementaryClass``es, in d.

Tower Segre classes are expanded through every lower level by the fiberwise
recursion, and a pushforward multiplies whole classes: each bucket of terms
that share a top tautological power p becomes its rest times the tower Segre
class of index p - (n-1) one level down.  ``reduce_reference`` iterates that
to the base, independently of ``jets.reduce_to_base``.  ``nef_tower_class``
and ``lift`` build the nef sum that ``jets.nef_sum`` writes by its weights,
and ``integrate_tower`` integrates a top-degree class.  These routes share
``JetClass`` and ``chow.segre_elementary`` with the engine; the Morse
integrals' cipos-free route is ``oracle.morse_tables``.
"""

import math
import operator
from functools import cache

from cipos import chow
from cipos.bounds import morse_coeff
from cipos.chow import ModelParams
from cipos.jets import JetClass, TermKey, reduce_to_base, segre_recursion_coeff
from cipos.polyring import ElementaryClass, MultidegreePoly, recombine_elementary


def variable(c: int, i: int) -> MultidegreePoly:
    """The degree d_{i+1} (0-based i) as a polynomial in c variables."""
    if not 0 <= i < c:
        raise ValueError(f"variable index {i} out of range")
    return MultidegreePoly(c, {tuple(int(j == i) for j in range(c)): 1})


def elementary(c: int, j: int) -> MultidegreePoly:
    """e_j(d_1..d_c) as a polynomial in c variables (zero for j > c)."""
    return recombine_elementary(ElementaryClass(c, [(j, 1)]))


def segre_in_d(params: ModelParams, twist: int) -> list[MultidegreePoly]:
    """The Segre classes s_0..s_n of ``chow.segre_elementary``, each written in d."""
    return [recombine_elementary(s) for s in chow.segre_elementary(params, twist)]


def morse_in_d(N: int, n: int, a: int) -> MultidegreePoly:
    """The first-order Morse difference, the class of its closed-form row
    ``bounds.morse_coeff``, written in d."""
    return recombine_elementary(ElementaryClass(N - n, enumerate([morse_coeff(N, n, a, j) for j in range(n + 1)])))


def generator(params: ModelParams, level: int, slot: int) -> JetClass:
    """The class of the single key with a 1 in ``slot`` (0 for h, i for the
    base symbol s_i, n + i for u_i)."""
    return JetClass(params, level, {tuple(1 if j == slot else 0 for j in range(1 + params.n + level)): 1})


def hyperplane(params: ModelParams, level: int) -> JetClass:
    return generator(params, level, 0)


def tautological(params: ModelParams, level: int, i: int) -> JetClass:
    """The divisor u_i pulled up to the given level (1 <= i <= level)."""
    if not 1 <= i <= level:
        raise ValueError(f"tautological index {i} outside 1..{level}")
    return generator(params, level, params.n + i)


def lift(x: JetClass, level: int) -> JetClass:
    """Pull a class up the tower by appending zero tautological exponents."""
    if level < x.level:
        raise ValueError("cannot lift downwards")
    pad = (0,) * (level - x.level)
    return JetClass(x.params, level, {key + pad: c for key, c in x.terms.items()})


def nef_tower_class(params: ModelParams, k: int) -> JetClass:
    """Divisor class of the k-th auxiliary nef bundle on the tower.

    Weights: u_k + 2 u_{k-1} + 6 u_{k-2} + ... + 2*3^{k-2} u_1 + 2*3^{k-1} h.
    """
    if k < 1:
        raise ValueError("nef tower classes start at level 1")
    cls = tautological(params, k, k)
    for i in range(1, k):
        cls = cls + tautological(params, k, i) * (2 * 3 ** (k - 1 - i))
    return cls + hyperplane(params, k) * (2 * 3 ** (k - 1))


def integrate_tower(x: JetClass) -> MultidegreePoly:
    """Integrate a level-k class over the k-th tower stage, exactly, written in
    d; terms below the top degree integrate to 0."""
    return recombine_elementary(chow.integrate(reduce_to_base(x)))


def base_segre_symbol(params: ModelParams, level: int, i: int) -> JetClass:
    """The formal base Segre symbol of index i (zero beyond the dimension)."""
    if i < 0 or i > params.n:
        return JetClass(params, level)
    if i == 0:
        return JetClass(params, level) + 1
    return generator(params, level, i)


@cache
def tower_segre(params: ModelParams, level: int, index: int) -> JetClass:
    """Tower Segre class of the given index at the given level, fully expanded.

    Level 0 returns the bare base symbol; higher levels apply the fiberwise
    recursion, so the result involves only tautological monomials and base
    symbols.  Negative index gives 0, index 0 gives 1.
    """
    if index < 0:
        return JetClass(params, level)
    if index == 0:
        return JetClass(params, level) + 1
    if level == 0:
        return base_segre_symbol(params, 0, index)
    u_top = tautological(params, level, level)
    coeffs = ((j, segre_recursion_coeff(params.n, index, j)) for j in range(index + 1))
    return JetClass(params, level).add_all(
        lift(tower_segre(params, level - 1, j), level) * u_top ** (index - j) * coeff for j, coeff in coeffs if coeff
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
    below = JetClass(params, level - 1)
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
    segre = segre_in_d(x.params, 0)
    one = elementary(x.params.c, 0)
    pieces = []
    for key, coeff in x.terms.items():
        if key[0] + sum(map(operator.mul, key, range(n + 1))) == n:
            factors = (segre[i] ** exp for i, exp in enumerate(key[1:], 1) if exp)
            pieces.append(math.prod(factors, start=one) * coeff)
    return MultidegreePoly(x.params.c).add_all(pieces)
