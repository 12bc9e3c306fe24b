"""Exact sparse polynomial arithmetic in the multidegree variables d1, ..., dc,
and the ring core shared by every class of ring elements in this package.

Every invariant computed by this package is an integer polynomial in the
degrees of the hypersurfaces being intersected, so this ring is the substrate
for everything else.  Coefficients are arbitrary-precision Python ints (the
bound computations involve factorial-scale binomials), terms are kept in a
canonical sparse form, and rendering uses a fixed graded-lex order so output
is reproducible bit for bit.

The ring core is one base class, ``_SparseTerms``, shared by ``MultidegreePoly``,
``ElementaryClass``, ``JetClass`` and ``vecfields.ChartPoly``: each element holds a
``ring`` descriptor that operands must share (c for ``MultidegreePoly`` and
``ElementaryClass``, the chart itself for ``ChartPoly``, ``(params, level)`` for
``JetClass``) and a dict from a monomial key to a nonzero int, and the core writes
the ring operations once for all of them.  Key layouts: ``(d1, ..., dc)`` for
``MultidegreePoly``, a partition lam for ``ElementaryClass``, ``(h, s1, ..., sn, u1,
..., u_level)`` for ``JetClass``, and for ``ChartPoly`` the sorted tuple of the term's
``(index, exponent)`` pairs with exponent > 0.  ``ElementaryClass`` and ``ChartPoly``
override ``_product``; ``JetClass`` keeps the core's, filtered by its ``_alive``.
Only public constructors validate; results are canonical by construction.

Every class symmetric in the degrees is an ``ElementaryClass``, sum_lam a_lam
e_lam(d1..dc) over partitions lam with parts <= c, which form a Z-basis of the
symmetric polynomials (Macdonald, I.2).  Two caches read each product e_rows:
``_m_row`` in the m basis, its m_lam coefficient the number of 0-1 matrices with row
sums rows and column sums lam (Macdonald, I.6), and ``_shift_row`` at d + r, by the
shift rule e_k(d + r) = sum_i C(c-i, k-i) r^(k-i) e_i(d).  From them, multiplying
nothing in d, come a class's m_lam coefficients (:func:`m_coefficients`), the class
at an integer shift (:func:`shifted`; a Segre twist t is the shift by -t) and its rows
at d = r + t for every threshold (:func:`shift_rows`); :func:`terms_in_d` writes m_lam
coefficients in d.  ``MultidegreePoly`` is the type :func:`recombine_elementary` writes a
class in d as, which ``perfbench`` reads and the tests use; no command computes with it.

A total Chern or Segre class given as a plain list of its coefficients is
inverted by :func:`series_inverse`; the package multiplies no such lists.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from typing import Iterable, Mapping, Sequence

#: Degree of the zero polynomial.  A sentinel that compares below every
#: integer, so `total_degree(p) < k` means "p = o(d^k)" with no special cases.
NEG_INFINITY = float("-inf")


def _accumulate(out: dict, items: Iterable) -> dict:
    """Add (key, coefficient) pairs into ``out`` in place; keys that cancel are dropped."""
    for key, coeff in items:
        new = out.get(key, 0) + coeff
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


class _SparseTerms:
    """Immutable commutative ring element: ``ring``, the descriptor that operands
    must share, and ``terms``, monomial key -> nonzero int.

    Keys are flat exponent tuples, which ``_product`` adds slot by slot (a subclass
    with other keys overrides it).  Subclasses supply ``_unit_key`` and may override
    ``_alive``, the truncation predicate: the product keeps a key only if it is
    alive, and every key is by default.  ``_promote`` turns an operand into an
    element of the same ring (NotImplemented for foreign types); a subclass widens
    it to take more.  Results share their operand's ``ring`` object, so operands
    of one ring usually pass the identity check before the ``==`` fallback.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms: Mapping | None = None):
        """Validating constructor: checks each key's length and signs, drops zero and dead terms."""
        object.__setattr__(self, "ring", ring)
        width = len(self._unit_key())
        clean = {}
        for key, coeff in (terms or {}).items():
            key = tuple(key)
            if len(key) != width:
                raise ValueError(f"term key {key} does not have length {width}")
            if min(key, default=0) < 0:
                raise ValueError(f"negative exponent in {key}")
            if coeff and self._alive(key):
                clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _of(cls, ring, terms: dict):
        """Element of ``ring`` holding ``terms`` as is: the caller guarantees valid keys and no zero coefficient."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "terms", terms)
        return obj

    def _wrap(self, terms: dict):
        """Element of the same ring holding ``terms`` as is (see ``_of``)."""
        return self._of(self.ring, terms)

    def _constant(self, value: int):
        return self._wrap({self._unit_key(): value} if value else {})

    def _alive(self, key) -> bool:
        return True

    def _product(self, other):
        alive = self._alive
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(operator.add, e1, e2))
                if alive(key):
                    yield key, c1 * c2

    def _promote(self, other):
        if isinstance(other, type(self)):
            if other.ring is not self.ring and other.ring != self.ring:
                name = type(self).__name__
                raise ValueError(f"cannot mix {name} operands over different rings: {self.ring!r} and {other.ring!r}")
            return other
        if isinstance(other, int):
            return self._constant(other)
        return NotImplemented

    def __add__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self._wrap(_accumulate(dict(self.terms), other.terms.items()))

    def __radd__(self, other):
        return self.__add__(other)

    def add_all(self, pieces: Iterable):
        """``self`` plus every piece (same ring, or ints), summed in one dict."""
        out = dict(self.terms)
        for piece in pieces:
            promoted = self._promote(piece)
            if promoted is NotImplemented:
                raise TypeError(f"cannot add {type(piece).__name__} to {type(self).__name__}")
            _accumulate(out, promoted.terms.items())
        return self._wrap(out)

    def __neg__(self):
        return self._wrap({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._wrap({key: c * other for key, c in self.terms.items()} if other else {})
        other = self._promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self._wrap(_accumulate({}, self._product(other)))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result, base = None, self
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return self._constant(1) if result is None else result

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            other = self._promote(other)
            if other is NotImplemented:
                return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms


class MultidegreePoly(_SparseTerms):
    """Sparse integer polynomial in ``ring`` variables, ``terms`` mapping exponent tuples to nonzero ints."""

    __slots__ = ()

    def _unit_key(self) -> tuple[int, ...]:
        return (0,) * self.ring

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        # graded-lex, descending: higher total degree first, then lexicographic;
        # keys are distinct, so reversing the ascending order gives no ties
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def to_json(self) -> list[dict]:
        """The terms in graded-lex order as ``{"coeff": str, "exps": list}`` dicts
        (read by ``perfbench/make_reference.py``; ``cipos.cli`` writes JSON)."""
        return [{"coeff": str(coeff), "exps": list(exps)} for exps, coeff in self.sorted_terms()]


class ElementaryClass(_SparseTerms):
    """Symmetric integer polynomial sum_lam a_lam e_lam(d1..dc), e_lam the product
    of the e_k(d) over the parts k of lam.

    ``ring`` is c, and each key is a partition lam with parts in 1..c, largest
    first (``()`` is 1).  These e_lam are a Z-basis of the symmetric polynomials
    in c variables, so ``==`` is equality of polynomials.  A product joins the
    two partitions; the degree in d of e_lam is sum(lam).
    """

    __slots__ = ()

    def __init__(self, c: int, pairs: Iterable[tuple] = ()):
        """The class sum a * prod_{k in rows} e_k over (rows, a) pairs, a bare int j
        meaning e_j: zero parts (e_0 = 1) drop, equal products add, and a product
        with a part beyond c is zero."""
        if c < 1:
            raise ValueError("num_vars must be a positive integer")
        pairs = [((rows,) if isinstance(rows, int) else tuple(rows), a) for rows, a in pairs]
        if any(min(rows, default=0) < 0 for rows, _ in pairs):
            raise ValueError("elementary symmetric index must be nonnegative")
        alive = ((tuple(sorted(filter(None, rows), reverse=True)), a) for rows, a in pairs if max(rows, default=0) <= c)
        object.__setattr__(self, "ring", c)
        object.__setattr__(self, "terms", _accumulate({}, alive))

    @classmethod
    def _from_row(cls, c: int, row: Sequence[int]) -> "ElementaryClass":
        """The class sum_k row[k] * e_k, for a row of at most c + 1 entries (trusted, see ``_of``)."""
        return cls._of(c, {(k,) if k else (): v for k, v in enumerate(row) if v})

    def _unit_key(self) -> tuple[int, ...]:
        return ()

    def _product(self, other):
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                yield tuple(sorted(k1 + k2, reverse=True)), c1 * c2

    # bound in the class body, where tools that wrap a class's own operators find them
    __add__ = _SparseTerms.__add__
    __mul__ = _SparseTerms.__mul__

    def total_degree(self):
        """Total degree in d, max sum(lam) over the terms: the -infinity sentinel for the zero class."""
        return max(map(sum, self.terms), default=NEG_INFINITY)

    def dominant_part(self):
        """Sum of the terms of maximal degree in d; 0 for the zero class."""
        top = self.total_degree()
        return self._wrap({lam: a for lam, a in self.terms.items() if sum(lam) == top})

    def eval(self, point: Sequence):
        """Exact value sum_lam a_lam prod_k e_{lam_k}(point), from e_0..e_c at the point."""
        if len(point) != self.ring:
            raise ValueError(f"point has length {len(point)}, expected {self.ring}")
        e = [1]
        for x in point:  # the coefficients of prod_i (1 + x_i t)
            e = [u + x * v for u, v in zip([*e, 0], [0, *e])]
        return sum(math.prod((e[k] for k in lam), start=a) for lam, a in self.terms.items())


def partitions_of(weight: int) -> list[tuple[int, ...]]:
    """All partitions of the given weight as weakly decreasing tuples, largest
    first part first."""
    if weight < 0:
        raise ValueError("weight must be nonnegative")

    def gen(remaining, cap):
        if not remaining:
            return [()]
        return [(first, *rest) for first in range(min(remaining, cap), 0, -1) for rest in gen(remaining - first, first)]

    return gen(weight, weight)


@functools.cache
def _zero_one(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    """[d^cols] of prod_{r in rows} e_r(d), ``cols`` positive and decreasing: the
    number of 0-1 matrices with these row and column sums (Macdonald, I.6)."""
    if not rows:
        return int(not cols)
    picks = itertools.combinations(range(len(cols)), rows[0])
    lefts = (sorted((e - (i in picked) for i, e in enumerate(cols)), reverse=True) for picked in picks)
    return sum(_zero_one(rows[1:], tuple(filter(None, left))) for left in lefts)


@functools.cache
def _m_row(rows: tuple[int, ...], c: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """e_rows in the m basis of c variables, for rows with parts <= c (every class key and ``_shift_row`` pick):
    its (lam, n) pairs, lam with at most c parts and n != 0.  e_j alone is m_{1^j}; a product reads ``_zero_one``."""
    if len(rows) <= 1:
        return (((1,) * sum(rows), 1),)
    return tuple((lam, n) for lam in partitions_of(sum(rows)) if len(lam) <= c and (n := _zero_one(rows, lam)))


def m_coefficients(x: ElementaryClass) -> dict[tuple[int, ...], int]:
    """{lam: nonzero m_lam coefficient} of the class, the sum of a times ``_m_row`` over its terms a e_rows."""
    return _accumulate({}, ((lam, a * n) for rows, a in x.terms.items() for lam, n in _m_row(rows, x.ring)))


def _descending_arrangements(lam: tuple[int, ...], a: int, c: int):
    """Yield (key, a) for every distinct key of length c whose nonzero entries are
    ``lam``, in descending lex order: one previous-permutation step each."""
    key = [*lam, *(0,) * (c - len(lam))]
    while True:
        yield tuple(key), a
        i = c - 2
        while i >= 0 and key[i] <= key[i + 1]:
            i -= 1
        if i < 0:
            return
        j = c - 1
        while key[j] >= key[i]:
            j -= 1
        key[i], key[j] = key[j], key[i]
        key[i + 1 :] = key[:i:-1]


def terms_in_d(coefficients: Mapping[tuple[int, ...], int], c: int):
    """Yield the (exps, a) terms of sum_lam a * m_lam(d1..dc) over {lam: a}, each a
    nonzero, in the graded-lex order of ``MultidegreePoly.sorted_terms``: the
    arrangements of the lam of each weight, highest weight first, merged."""
    lams = sorted((lam for lam in coefficients if len(lam) <= c), key=sum, reverse=True)
    for _, group in itertools.groupby(lams, key=sum):
        yield from heapq.merge(*(_descending_arrangements(lam, coefficients[lam], c) for lam in group), reverse=True)


def recombine_elementary(x: ElementaryClass) -> MultidegreePoly:
    """The class written in d: the :func:`terms_in_d` of its :func:`m_coefficients`."""
    return MultidegreePoly._of(x.ring, dict(terms_in_d(m_coefficients(x), x.ring)))


def terms_text(terms: Iterable[tuple[tuple[int, ...], int]]) -> str:
    """Render (exps, a) pairs in the order given, e.g. ``d1^2*d2 - 5*d1 + 3``; no pairs give ``0``."""
    pieces = []
    for exps, coeff in terms:
        factors = [f"d{i}^{e}" if e > 1 else f"d{i}" for i, e in enumerate(exps, 1) if e]
        if abs(coeff) != 1 or not factors:  # the magnitude is a factor unless it is a unit 1
            factors.insert(0, str(abs(coeff)))
        body = "*".join(factors)
        if pieces:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        else:
            pieces.append(body if coeff > 0 else f"-{body}")
    return " ".join(pieces) or "0"


@functools.cache
def _shift_row(rows: tuple[int, ...], c: int) -> tuple[tuple[tuple[tuple[int, ...], int], int], ...]:
    """e_rows(d + r) as its ((lam, p), v) pairs, the sum of v r^p e_lam(d): each factor
    e_k(d + r) = sum_i C(c-i, k-i) r^(k-i) e_i(d) (Macdonald, I.2) picks one e_i, and
    the nonzero picks are kept as a partition lam, so equal picks merge factor by factor."""
    partial = {((), 0): 1}
    for k in rows:
        picks = [(i, k - i, math.comb(c - i, k - i)) for i in range(k + 1)]
        partial = _accumulate({}, (((tuple(sorted((*lam, i), reverse=True)) if i else lam, p + q), v * w)
                                   for (lam, p), v in partial.items() for i, q, w in picks))
    return tuple(partial.items())


def shifted(x: ElementaryClass, r: int) -> ElementaryClass:
    """The class at d + r, r an integer: sum a v r^p e_lam over its terms a e_rows and their ``_shift_row``."""
    terms = ((lam, a * v * r**p) for rows, a in x.terms.items() for (lam, p), v in _shift_row(rows, x.ring))
    return x._wrap(_accumulate({}, terms))


def shift_rows(x: ElementaryClass) -> dict[tuple[int, ...], list[int]]:
    """The class at d = r + t, sum_mu g_mu(r) t^mu, one row per S_c orbit: {mu, a
    partition padded to c slots: g_mu by powers of r, to its last nonzero
    coefficient} for each nonzero g_mu, the constant row (the diagonal) first even when
    zero: each v r^p e_lam(t) of a term's ``_shift_row`` adds v ``_m_row``(lam) at r^p."""
    c = x.ring
    picked = _accumulate({}, ((key, a * v) for rows, a in x.terms.items() for key, v in _shift_row(rows, c)))
    grid: dict[tuple[int, ...], dict[int, int]] = {(0,) * c: {}}  # the constant row first
    for (lam, p), v in picked.items():
        for mu, n in _m_row(lam, c):
            _accumulate(grid.setdefault(mu + (0,) * (c - len(mu)), {}), [(p, v * n)])
    return {mu: [g.get(k, 0) for k in range(max(g, default=-1) + 1)] for mu, g in grid.items() if g or not any(mu)}


def series_inverse(c_seq: Sequence, order: int):
    """Invert a total-class series: the s-sequence dual to a c-sequence.

    ``c_seq`` lists c_1, c_2, ... (the constant term is implicitly 1; entries
    beyond the list are zero).  Returns ``[s_1, ..., s_order]`` with
    ``(1 + c_1 t + c_2 t^2 + ...) * (1 - s_1 t + s_2 t^2 - ...) = 1`` holding
    up to t^order.  Works over any commutative coefficient ring whose elements
    support ``+``, ``-``, ``*`` with each other and with plain ints; applying
    it twice gives back the input (the relation is symmetric in c and s).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    # sigma_k = (-1)^k s_k, the coefficients of 1 / (1 + c_1 t + c_2 t^2 + ...)
    sigma: list = [1]
    for k in range(1, order + 1):
        sigma.append(-sum((c_seq[k - j - 1] * sigma[j] for j in range(max(0, k - len(c_seq)), k)), 0))
    return [-s if k % 2 else s for k, s in enumerate(sigma)][1:]
