"""Exact sparse polynomial arithmetic in the multidegree variables d1, ..., dc,
and the ring core shared by every class of ring elements in this package.

Every invariant computed by this package is an integer polynomial in the
degrees of the hypersurfaces being intersected, so this ring is the substrate
for everything else.  Coefficients are arbitrary-precision Python ints (the
bound computations involve factorial-scale binomials), terms are kept in a
canonical sparse form, and rendering uses a fixed graded-lex order so output
is reproducible bit for bit.  ``MultidegreePoly.taylor_shift`` expands
p(r + t) once, symbolically in r, for the positivity thresholds.

The ring core is one base class, ``_SparseTerms``, shared by
``MultidegreePoly`` and ``JetClass``: each stores its element as a dict from a
flat exponent tuple to a nonzero int, and the core writes promotion, ``+``,
``-``, the one product kernel (add exponent tuples slot by slot, keep what the
class's truncation predicate ``_alive`` accepts), square-and-multiply
powering, equality, hashing, immutability and the trusted constructor
``_wrap`` once for both.  Key layouts: ``(d1, ..., dc)`` for
``MultidegreePoly`` and ``(h, s1, ..., sn, u1, ..., u_level)`` for
``JetClass``.  Public constructors validate their input; arithmetic results
are canonical by construction and are wrapped without a second check.

Truncated power series (a class in the Chow ring of a complete intersection
is the list of its h-power coefficients) are plain lists of coefficients,
multiplied by :func:`series_product` and inverted by :func:`series_inverse`.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Mapping, Sequence

#: Degree of the zero polynomial.  A sentinel that compares below every
#: integer, so `total_degree(p) < k` means "p = o(d^k)" with no special cases.
NEG_INFINITY = float("-inf")


def _grlex_key(exps: tuple[int, ...]):
    # graded-lex, descending: higher total degree first, then lexicographic
    return (-sum(exps), tuple(-e for e in exps))


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
    """Immutable commutative ring element stored as ``terms``: monomial key -> nonzero int.

    Keys are flat exponent tuples.  Subclasses name the attributes that
    operands must share in ``_SHAPE``, supply ``_unit_key`` and may override
    ``_alive``, the truncation predicate: the product keeps a key only if it
    is alive, and every key is by default.  ``_promote`` turns
    an operand into an element of the same ring (NotImplemented for foreign
    types); a subclass widens it to take more operand types.
    """

    __slots__ = ()
    _SHAPE: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _shape(self) -> tuple:
        return tuple(getattr(self, name) for name in self._SHAPE)

    def _wrap(self, terms: dict):
        """Element of the same shape holding ``terms`` as is: the caller
        guarantees valid keys and no zero coefficient."""
        obj = object.__new__(type(self))
        for name in self._SHAPE:
            object.__setattr__(obj, name, getattr(self, name))
        object.__setattr__(obj, "terms", terms)
        return obj

    def _constant(self, value: int):
        return self._wrap({self._unit_key(): value} if value else {})

    def _unit(self):
        return self._constant(1)

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
            if other._shape() != self._shape():
                raise ValueError(
                    f"cannot mix {type(self).__name__} operands with different"
                    f" {'/'.join(self._SHAPE)}: {self._shape()} and {other._shape()}"
                )
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
        result, base = self._unit(), self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            other = self._promote(other)
            if other is NotImplemented:
                return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms

    def __hash__(self):
        return hash((self._shape(), frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms


class MultidegreePoly(_SparseTerms):
    """Sparse integer polynomial in ``num_vars`` variables.

    ``terms`` maps exponent tuples to nonzero integer coefficients.  Instances
    are immutable; arithmetic returns new canonical-form polynomials.  Plain
    ints mix freely with polynomials in ``+``, ``-`` and ``*``.
    """

    # _sparse: the term list ``eval`` builds on its first call; unset until then
    __slots__ = ("num_vars", "terms", "_sparse")
    _SHAPE = ("num_vars",)

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        if num_vars < 1:
            raise ValueError("num_vars must be a positive integer")
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != num_vars:
                    raise ValueError(f"exponent vector {exps} has length != {num_vars}")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                if coeff:
                    clean[exps] = coeff
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", clean)

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

    def is_multilinear(self) -> bool:
        return all(e <= 1 for exps in self.terms for e in exps)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda item: _grlex_key(item[0]))

    # -- ring kernel -------------------------------------------------------

    def _unit_key(self) -> tuple[int, ...]:
        return (0,) * self.num_vars

    # bound in the class body, where tools that wrap a class's own operators find them
    __add__ = _SparseTerms.__add__
    __mul__ = _SparseTerms.__mul__

    # -- evaluation and calculus -------------------------------------------

    def eval(self, point: Sequence):
        """Exact evaluation: ints stay ints, Fractions stay Fractions.

        The first call keeps each term's coefficient and nonzero (index,
        exponent) pairs with the polynomial, so a call costs the nonzero
        exponents, not the number of variables.  Int terms are summed as ints
        and the other terms are added to that sum once, at the end.
        """
        if len(point) != self.num_vars:
            raise ValueError(f"point has length {len(point)}, expected {self.num_vars}")
        try:
            sparse = self._sparse
        except AttributeError:
            sparse = [
                (coeff, tuple((i, e) for i, e in enumerate(exps) if e)) for exps, coeff in self.terms.items()
            ]
            object.__setattr__(self, "_sparse", sparse)
        total, rest = 0, []
        for coeff, pairs in sparse:
            value = coeff
            for i, e in pairs:
                value *= point[i] ** e
            if type(value) is int:
                total += value
            else:
                rest.append(value)
        return total + sum(rest) if rest else total

    def derivative(self, index: int) -> "MultidegreePoly":
        """Partial derivative with respect to variable ``index`` (0-based)."""
        if not 0 <= index < self.num_vars:
            raise ValueError(f"variable index {index} out of range")
        out: dict[tuple[int, ...], int] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e:
                out[exps[:index] + (e - 1,) + exps[index + 1 :]] = coeff * e
        return self._wrap(out)

    def taylor_shift(self) -> dict[tuple[int, ...], list[int]]:
        """The shift by a symbolic r: poly(r + t_1, ..., r + t_c) = sum_j g_j(r) t^j.

        Returns {j: [g_j(0), coefficient of r, ...]} for every g_j that is not
        identically zero; each list ends in a nonzero int.  One variable at a
        time (von zur Gathen and Gerhard, ISSAC 1997): exponent e of d_i
        becomes t_i^j r^(e-j) with weight C(e, j), j = 0..e, and equal keys
        merge before the next variable, so shared parts expand once.
        """
        # key: t-exponents of the variables done, then d-exponents of the rest;
        # value: {r-degree: coefficient}.  The j = e part keeps its key and row.
        table = {exps: {0: coeff} for exps, coeff in self.terms.items()}
        for i in range(self.num_vars):
            lower: dict[tuple[int, ...], dict[int, int]] = {}
            for key, row in table.items():
                e = key[i]
                for j in range(e):
                    weight, rise = math.comb(e, j), e - j
                    target = lower.setdefault(key[:i] + (j,) + key[i + 1 :], {})
                    for k, v in row.items():
                        target[k + rise] = target.get(k + rise, 0) + weight * v
            for key, row in lower.items():
                _accumulate(table.setdefault(key, {}), row.items())
        return {j: [row.get(k, 0) for k in range(max(row) + 1)] for j, row in table.items() if row}

    # -- rendering ----------------------------------------------------------

    def text(self, names: Sequence[str] | None = None) -> str:
        """Canonical rendering, terms in graded-lex order, e.g. ``d1^2*d2 - 5*d1 + 3``."""
        if not self.terms:
            return "0"
        if names is None:
            names = [f"d{i + 1}" for i in range(self.num_vars)]
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
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
        return [
            {"coeff": str(coeff), "exps": list(exps)} for exps, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, data: Iterable[dict], num_vars: int) -> "MultidegreePoly":
        return cls(num_vars, {tuple(item["exps"]): int(item["coeff"]) for item in data})


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


def express_in_elementary(p: MultidegreePoly) -> list[tuple[int, int]]:
    """Write a multilinear symmetric polynomial in the elementary symmetric basis.

    Returns ``[(j, coeff), ...]`` with j descending and zero coefficients
    omitted, such that ``p == sum(coeff * elementary_symmetric(j, c))``.
    Inputs outside the span (a squared variable, or an asymmetric monomial)
    raise ValueError naming the offending monomial.
    """
    c = p.num_vars
    for exps in p.terms:
        if any(e > 1 for e in exps):
            bad = MultidegreePoly.monomial(c, exps)
            raise ValueError(f"not multilinear: monomial {bad.text()}")
    residual = p
    out = []
    for j in range(c, -1, -1):
        lead = (1,) * j + (0,) * (c - j)
        a = residual.coeff(lead)
        if a:
            out.append((j, a))
            residual = residual - elementary_symmetric(j, c) * a
    if not residual.is_zero():
        bad_exps = residual.sorted_terms()[0][0]
        bad = MultidegreePoly.monomial(c, bad_exps)
        raise ValueError(f"not symmetric: monomial {bad.text()} has no matching orbit")
    return out


def recombine_elementary(coeffs: Iterable[tuple[int, int]], c: int) -> MultidegreePoly:
    """Inverse of :func:`express_in_elementary`: sum of a * e_j(d1..dc) over the pairs."""
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

    def c_at(i):
        return c_seq[i - 1] if 0 < i <= len(c_seq) else None

    out: list = []
    for k in range(1, order + 1):
        acc = 0
        for j in range(k):
            ck = c_at(k - j)
            if ck is None:
                continue
            term = ck if j == 0 else ck * out[j - 1]
            acc = acc + term if j % 2 == 0 else acc - term
        out.append(acc if k % 2 == 1 else -acc)
    return out
