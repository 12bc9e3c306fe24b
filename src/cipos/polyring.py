"""Exact sparse polynomial arithmetic in the multidegree variables d1, ..., dc,
and the ring core shared by every class of ring elements in this package.

Every invariant computed by this package is an integer polynomial in the
degrees of the hypersurfaces being intersected, so this ring is the substrate
for everything else.  Coefficients are arbitrary-precision Python ints (the
bound computations involve factorial-scale binomials), terms are kept in a
canonical sparse form, and rendering uses a fixed graded-lex order so output
is reproducible bit for bit.

The ring core is one base class, ``_SparseTerms``, shared by ``MultidegreePoly``,
``JetClass`` and ``vecfields.ChartPoly``: each element holds a ``ring`` descriptor
that operands must share (``num_vars``, the chart itself for ``ChartPoly``, or
``(params, level)`` for ``JetClass``) and a dict from a monomial key to a nonzero
int.  The core writes validation, promotion, ``+``, ``-``, the product kernel (add
exponent tuples slot by slot, keep what the class's truncation predicate ``_alive``
accepts), square-and-multiply powering, equality, hashing, immutability and the
trusted constructor ``_wrap`` once for all three.  Key layouts: ``(d1, ..., dc)`` for
``MultidegreePoly``, ``(h, s1, ..., sn, u1, ..., u_level)`` for ``JetClass``, and
for ``ChartPoly`` the sorted tuple of the term's ``(index, exponent)`` pairs with
exponent > 0, multiplied by its own pair merge.  Only public constructors validate;
results are canonical by construction.

A class stated in the elementary symmetric basis is expanded in d by
:func:`recombine_elementary`; the closed forms state it there directly.

Truncated power series (a class in the Chow ring of a complete intersection
is the list of its h-power coefficients) are plain lists of coefficients,
multiplied by :func:`series_product` and inverted by :func:`series_inverse`.
"""

from __future__ import annotations

import itertools
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

    def _wrap(self, terms: dict):
        """Element of the same ring holding ``terms`` as is: the caller
        guarantees valid keys and no zero coefficient."""
        obj = object.__new__(type(self))
        object.__setattr__(obj, "ring", self.ring)
        object.__setattr__(obj, "terms", terms)
        return obj

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

    def __hash__(self):
        unit = self._unit_key()
        if self.terms.keys() <= {unit}:  # a constant equals its int, so hashes as it
            return hash(self.terms.get(unit, 0))
        return hash((self.ring, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms


class MultidegreePoly(_SparseTerms):
    """Sparse integer polynomial in ``num_vars`` variables.

    ``terms`` maps exponent tuples to nonzero integer coefficients.  Instances
    are immutable; arithmetic returns new canonical-form polynomials.  Plain
    ints mix freely with polynomials in ``+``, ``-`` and ``*``.
    """

    __slots__ = ()
    num_vars = _SparseTerms.ring  # the ring is the number of variables

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if num_vars < 1:
            raise ValueError("num_vars must be a positive integer")
        super().__init__(num_vars, terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "MultidegreePoly":
        return cls(num_vars)

    @classmethod
    def one(cls, num_vars: int) -> "MultidegreePoly":
        return cls(num_vars, {(0,) * num_vars: 1})

    @classmethod
    def variable(cls, num_vars: int, index: int) -> "MultidegreePoly":
        """The variable d_{index+1} (0-based index)."""
        if not 0 <= index < num_vars:
            raise ValueError(f"variable index {index} out of range")
        exps = tuple(1 if i == index else 0 for i in range(num_vars))
        return cls(num_vars, {exps: 1})

    @classmethod
    def monomial(cls, num_vars: int, exps: Sequence[int], coeff: int = 1) -> "MultidegreePoly":
        return cls(num_vars, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    def coeff(self, exps: Sequence[int]) -> int:
        return self.terms.get(tuple(exps), 0)

    def total_degree(self):
        """Total degree, or the -infinity sentinel for the zero polynomial."""
        if not self.terms:
            return NEG_INFINITY
        return max(sum(e) for e in self.terms)

    def dominant_part(self) -> "MultidegreePoly":
        """Sum of the terms of maximal total degree; 0 for the zero polynomial."""
        if not self.terms:
            return self
        top = self.total_degree()
        return self._wrap({e: c for e, c in self.terms.items() if sum(e) == top})

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        # graded-lex, descending: higher total degree first, then lexicographic;
        # keys are distinct, so reversing the ascending order gives no ties
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    # -- ring kernel -------------------------------------------------------

    def _unit_key(self) -> tuple[int, ...]:
        return (0,) * self.num_vars

    # bound in the class body, where tools that wrap a class's own operators find them
    __add__ = _SparseTerms.__add__
    __mul__ = _SparseTerms.__mul__

    # -- evaluation ----------------------------------------------------------

    def eval(self, point: Sequence):
        """Exact evaluation: ints stay ints, Fractions stay Fractions."""
        if len(point) != self.num_vars:
            raise ValueError(f"point has length {len(point)}, expected {self.num_vars}")
        total = 0
        for exps, coeff in self.terms.items():
            value = coeff
            for x, e in zip(point, exps):
                if e:
                    value *= x**e
            total += value
        return total

    # -- rendering ----------------------------------------------------------

    def text(self) -> str:
        """Canonical rendering, terms in graded-lex order, e.g. ``d1^2*d2 - 5*d1 + 3``."""
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps, 1):
                if e == 1:
                    factors.append(f"d{i}")
                elif e > 1:
                    factors.append(f"d{i}^{e}")
            mag = abs(coeff)
            if factors:
                body = "*".join(factors)
                if mag != 1:
                    body = f"{mag}*{body}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"MultidegreePoly({self.num_vars}, {self.text()!r})"

    def to_json(self) -> list[dict]:
        """The terms in graded-lex order as ``{"coeff": str, "exps": list}`` dicts
        (read by ``perfbench/make_reference.py``; ``cipos.cli`` writes JSON)."""
        return [{"coeff": str(coeff), "exps": list(exps)} for exps, coeff in self.sorted_terms()]


def elementary_symmetric(i: int, c: int) -> MultidegreePoly:
    """The i-th elementary symmetric polynomial in c variables (0 for i > c)."""
    if i < 0:
        raise ValueError("elementary symmetric index must be nonnegative")
    if c < 1:
        raise ValueError("need at least one variable")
    terms = {}
    for subset in itertools.combinations(range(c), i):
        exps = tuple(1 if j in subset else 0 for j in range(c))
        terms[exps] = 1
    return MultidegreePoly(c, terms)


def recombine_elementary(coeffs: Iterable[tuple[int, int]], c: int) -> MultidegreePoly:
    """The class given by (j, a) pairs in the elementary symmetric basis, in d:
    the sum of a * e_j(d1..dc) over the pairs."""
    return MultidegreePoly.zero(c).add_all(elementary_symmetric(j, c) * a for j, a in coeffs)


def series_product(a: Sequence, b: Sequence, order: int) -> list:
    """Truncated product of two power series given by their coefficient lists.

    Returns the coefficients of t^0..t^order of (sum a_i t^i)(sum b_j t^j);
    entries beyond either list are zero.  Works over any commutative
    coefficient ring whose elements support ``+`` and ``*`` with each other
    and with plain ints (a coefficient with no contribution is the int 0).
    """
    out = []
    for k in range(order + 1):
        acc = 0
        for i in range(max(0, k - len(b) + 1), min(k, len(a) - 1) + 1):
            acc = acc + a[i] * b[k - i]
        out.append(acc)
    return out


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
