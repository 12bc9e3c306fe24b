"""Property tests of the ring layer: ring laws for polynomials and for
truncated jet classes, the product rule, the Taylor shift against
substitution and under composition, and associativity of truncated series
products.  Skipped when hypothesis is not installed; the runtime itself needs
no dependency."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from cipos.chow import ModelParams  # noqa: E402
from cipos.jets import JetClass  # noqa: E402
from cipos.polyring import MultidegreePoly, series_product  # noqa: E402

# fixed example sequence and no example database, so every run is the same
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coefficients = st.integers(-9, 9)


def polys(c, max_exp=3):
    keys = st.tuples(*[st.integers(0, max_exp)] * c)
    return st.dictionaries(keys, coefficients, max_size=6).map(lambda terms: MultidegreePoly(c, terms))


def poly_triples():
    return st.integers(1, 3).flatmap(lambda c: st.tuples(polys(c), polys(c), polys(c)))


FRAMES = [(ModelParams(3, 2), 1), (ModelParams(4, 2), 2), (ModelParams(5, 3), 1), (ModelParams(4, 3), 2)]


def jet_classes(params, level):
    # base exponents at most 1 and tautological exponents at most 3, so that
    # products land on both sides of every stage bound
    base = st.tuples(*[st.integers(0, 1)] * (1 + params.n))
    keys = st.tuples(base, st.tuples(*[st.integers(0, 3)] * level)).map(lambda pair: pair[0] + pair[1])
    terms = st.dictionaries(keys, coefficients, max_size=5)
    return terms.map(lambda t: JetClass(params, level, t))


def jet_triples():
    frames = st.sampled_from(FRAMES)
    return frames.flatmap(lambda f: st.tuples(*[jet_classes(*f)] * 3))


def assert_ring_laws(x, y, z, one):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x * one == x
    assert x - y == x + (-y) and (x - x).is_zero()


@PROPERTY
@given(poly_triples())
def test_polynomial_ring_laws(triple):
    x, y, z = triple
    assert_ring_laws(x, y, z, MultidegreePoly.one(x.num_vars))


@PROPERTY
@given(jet_triples())
def test_jet_ring_laws_under_truncation(triple):
    # the truncated keys form a monomial ideal, so the quotient is a ring
    x, y, z = triple
    assert_ring_laws(x, y, z, JetClass.unit(x.params, x.level))


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda c: st.tuples(polys(c), polys(c), st.integers(0, c - 1))))
def test_derivative_product_rule(case):
    p, q, index = case
    assert (p * q).derivative(index) == p.derivative(index) * q + p * q.derivative(index)


def shift_at(p, a):
    """p(a + t_1, ..., a + t_c): the Taylor shift table evaluated at r = a."""
    return MultidegreePoly(p.num_vars, {j: sum(x * a**k for k, x in enumerate(g)) for j, g in p.taylor_shift().items()})


def substituted(p, a):
    """p(d_1 + a, ..., d_c + a) by ring + and *, without ``taylor_shift``."""
    c = p.num_vars
    total = MultidegreePoly.zero(c)
    for exps, coeff in p.terms.items():
        term = MultidegreePoly.one(c) * coeff
        for i, e in enumerate(exps):
            term = term * (MultidegreePoly.variable(c, i) + a) ** e
        total = total + term
    return total


@PROPERTY
@given(st.integers(1, 3).flatmap(polys), st.integers(-6, 6), st.integers(-6, 6))
def test_shifts_compose(p, a, b):
    assert shift_at(p, a) == substituted(p, a)
    assert shift_at(shift_at(p, a), b) == shift_at(p, a + b)
    assert shift_at(p, 0) == p


def int_series():
    return st.lists(coefficients, min_size=1, max_size=5)


def poly_series(c):
    return st.lists(polys(c, max_exp=2), min_size=1, max_size=4)


@PROPERTY
@given(
    st.one_of(
        st.tuples(int_series(), int_series(), int_series()),
        st.integers(1, 2).flatmap(lambda c: st.tuples(poly_series(c), poly_series(c), poly_series(c))),
    ),
    st.integers(0, 6),
)
def test_series_product_associative(series, order):
    a, b, c = series
    left = series_product(series_product(a, b, order), c, order)
    right = series_product(a, series_product(b, c, order), order)
    assert left == right
