"""The eager route down the jet tower, kept as the tests' second route.

Tower Segre classes are expanded through every lower level by the fiberwise
recursion, and a pushforward multiplies whole classes: each bucket of terms
that share a top tautological power p becomes its rest times the tower Segre
class of index p - (n-1) one level down.  ``reduce_reference`` iterates that
to the base and substitutes the base Segre symbols, independently of
``jets.reduce_to_base``.

``nef_tower_class`` builds the per-level nef classes and ``lift`` pulls a
class up the tower; summed at the top level they are the nef sum that
``jets.nef_sum`` writes by its weights.  ``integrate_tower`` integrates a
top-degree class through ``jets.reduce_to_base``.

``morse_integrals`` is a route that takes no power of a class and uses nothing
of ``cipos.jets``: it integrates the powers of the nef sum by a memoized
recursion down the tower, with the fiberwise coefficients derived afresh from
their generating series.
"""

import itertools
import math
import operator
from functools import cache

from cipos import chow
from cipos.chow import ModelParams
from cipos.jets import JetClass, TermKey, reduce_to_base, segre_recursion_coeff
from cipos.polyring import MultidegreePoly


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
    cls = JetClass.tautological(params, k, k)
    for i in range(1, k):
        cls = cls + JetClass.tautological(params, k, i) * (2 * 3 ** (k - 1 - i))
    return cls + JetClass.hyperplane(params, k) * (2 * 3 ** (k - 1))


def integrate_tower(x: JetClass) -> MultidegreePoly:
    """Integrate a level-k class over the k-th tower stage, exactly; terms
    below the top degree integrate to 0."""
    return chow.integrate(reduce_to_base(x))


def base_segre_symbol(params: ModelParams, level: int, i: int) -> JetClass:
    """The formal base Segre symbol of index i (zero beyond the dimension)."""
    if i < 0 or i > params.n:
        return JetClass(params, level)
    if i == 0:
        return JetClass(params, level) + 1
    return JetClass._generator(params, level, i)


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
    u_top = JetClass.tautological(params, level, level)
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
    segre = chow.segre_cotangent(x.params, 0)
    one = MultidegreePoly.one(x.params.c)
    pieces = []
    for key, coeff in x.terms.items():
        if key[0] + sum(map(operator.mul, key, range(n + 1))) == n:
            factors = (segre[i] ** exp for i, exp in enumerate(key[1:], 1) if exp)
            pieces.append(math.prod(factors, start=one) * coeff)
    return MultidegreePoly.zero(x.params.c).add_all(pieces)


@cache
def _series_coefficient(r: int, L: int) -> int:
    """Coefficient g(r, L) of x^L in (1 + x)^-r / (1 - x).  Multiplying the
    series by 1 + x lowers r by one, so g(r, L) = g(r - 1, L) - g(r, L - 1),
    with g(0, L) = 1 and g(r, -1) = 0."""
    if L < 0:
        return 0
    return 1 if r == 0 else _series_coefficient(r - 1, L) - _series_coefficient(r, L - 1)


def fiber_coefficient(n: int, q: int, j: int) -> int:
    """Coefficient of s_{k-1,j} u_k^(q-j) in the tower Segre class s_{k,q}.

    The tower's Segre series is s_k(t) = s_{k-1}(t / (1 + u t)) / ((1 + u t)^(n-1) (1 - u t)),
    and s_{k-1,j} t^j enters it times (1 + u t)^-(n-1+j) / (1 - u t).
    """
    return _series_coefficient(n - 1 + j, q - j)


def morse_integrals(params: ModelParams) -> tuple[MultidegreePoly, MultidegreePoly]:
    """A = int S^top and B = int h S^(top-1) over the top stage of the tower, as
    h^n coefficients on the base, for the nef sum S = sum_i 3^(kappa-i) u_i + m h,
    m = 3^kappa - 1; the Morse difference at twist a is A - top (m + a) B.

    ``down(k, p, delta, pending)`` pushes R_k^p h^delta prod_{q in pending} s_{k,q}
    to the base, where R_k is S cut to the levels up to k (R_0 = m h).  It
    expands R_k^p = sum_b C(p, b) w_k^b u_k^b R_{k-1}^(p-b) and each s_{k,q} by
    :func:`fiber_coefficient`; the total power e of u_k pushes down to
    s_{k-1, e-(n-1)}, and to 0 when e < n - 1.  The degree drops by n - 1 at
    each level, so every base monomial m^p h^(p+delta) prod s_q has degree n.
    """
    n, kappa = params.n, params.kappa
    top, m = params.tower_dim(kappa), 3**kappa - 1

    @cache
    def down(k: int, p: int, delta: int, pending: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        if k == 0:
            return {pending: m**p}
        out: dict[tuple[int, ...], int] = {}
        for b in range(p + 1):
            weight = math.comb(p, b) * 3 ** ((kappa - k) * b)
            for js in itertools.product(*(range(q + 1) for q in pending)):
                e = b + sum(pending) - sum(js)
                coeff = weight * math.prod(fiber_coefficient(n, q, j) for q, j in zip(pending, js))
                if e >= n - 1 and coeff:
                    below = tuple(sorted(j for j in (*js, e - (n - 1)) if j))
                    for base, value in down(k - 1, p - b, delta, below).items():
                        out[base] = out.get(base, 0) + coeff * value
        return out

    segre = chow.segre_cotangent(params, 0)
    one = MultidegreePoly.one(params.c)

    def integral(p: int, delta: int) -> MultidegreePoly:
        monomials = down(kappa, p, delta, ()).items()
        return MultidegreePoly.zero(params.c).add_all(
            math.prod((segre[q] for q in base), start=one) * value for base, value in monomials
        )

    return integral(top, 0), integral(top - 1, 1)
