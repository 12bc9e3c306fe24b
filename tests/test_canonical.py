"""Arithmetic results are built without re-validation; check that every one is
canonical anyway: passing its terms back through the validating constructor
changes nothing, no stored coefficient is 0, every stored jet term is
alive, every chart key is its sorted nonzero (index, exponent) pairs and no
Taylor shift row is zero or ends in 0."""

import random

import pytest

from cipos.chow import ModelParams, integrate, segre_elementary
from cipos.jets import JetClass
from cipos.polyring import ElementaryClass, MultidegreePoly, recombine_elementary
from cipos.schur import partitions_of, schur_det
from cipos.vecfields import ChartPoly, UniversalChart, VectorField, coordinate_field, lie_derivative

from oracle import series_product, taylor_shift
from test_chow import product_route, twisted
from tower_reference import elementary, nef_tower_class, tower_segre


def random_poly(rng, c, max_deg=3, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(c))
        terms[exps] = rng.randint(-3, 3)
    return MultidegreePoly(c, terms)


def random_jet(rng, params, level, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        u = tuple(rng.randint(0, 3) for _ in range(level))
        e = tuple(rng.randint(0, 1) for _ in range(params.n))
        terms[(rng.randint(0, 2), *e, *u)] = rng.randint(-3, 3)
    return JetClass(params, level, terms)


def assert_canonical_poly(p):
    assert isinstance(p, MultidegreePoly)
    assert MultidegreePoly(p.ring, p.terms).terms == p.terms
    assert all(p.terms.values())


def assert_canonical_class(x):
    assert isinstance(x, ElementaryClass)
    assert ElementaryClass(x.ring, x.terms.items()).terms == x.terms
    assert all(x.terms.values())


def random_chart_poly(rng, chart, max_terms=6):
    # indices from the first few slots, so that products share variables
    hot = range(min(chart.num_vars, 2 * chart.N + 3))
    monomials = []
    for _ in range(rng.randint(0, max_terms)):
        pairs = {rng.choice(hot): rng.randint(0, 3) for _ in range(rng.randint(0, 4))}
        pairs[rng.randrange(chart.num_vars)] = rng.randint(0, 2)
        monomials.append(chart.monomial(pairs, rng.randint(-3, 3)))
    return ChartPoly(chart).add_all(monomials)


def assert_canonical_chart(p, chart):
    # the monomial builder, which validates, returns each stored key as it is
    assert isinstance(p, ChartPoly) and p.num_vars == chart.num_vars
    for key, coeff in p.terms.items():
        assert coeff and chart.monomial(dict(key), coeff).terms == {key: coeff}


def assert_canonical_jet(x):
    assert isinstance(x, JetClass)
    assert JetClass(x.params, x.level, x.terms).terms == x.terms
    assert all(x.terms.values())
    assert all(x._alive(key) for key in x.terms)


def test_poly_results_canonical():
    rng = random.Random(17)
    for _ in range(80):
        c = rng.randint(1, 3)
        p, q = random_poly(rng, c), random_poly(rng, c)
        k = rng.randint(-3, 3)
        results = [p + q, p - q, p * q, p - p, p + (-p), p * (q - q), p + k, k - p, p * k, -p]
        results += [p ** rng.randint(0, 3), (p + q) * (p - q) - (p * p - q * q)]
        results.append(p.add_all([q, -p, k]))
        x = ElementaryClass(c, [(rng.randint(0, c), rng.randint(-2, 2)) for _ in range(3)])
        results += [recombine_elementary(x), recombine_elementary(x.dominant_part())]
        for result in results:
            assert_canonical_poly(result)
        # the Taylor shift table: valid t-keys, no zero row, no trailing zero
        table = taylor_shift(p.terms)
        assert all(len(j) == c and min(j) >= 0 for j in table)
        assert all(row and row[-1] and all(type(v) is int for v in row) for row in table.values())


@pytest.mark.parametrize("N,degrees", [(2, [2]), (3, [2, 2]), (5, [4])])
def test_chart_results_canonical(N, degrees):
    chart = UniversalChart(N, degrees)
    rng = random.Random(N * 10 + len(degrees))
    field = coordinate_field(chart, 1)

    def partial(p, index):
        return lie_derivative(VectorField(chart, {index: chart.monomial({})}), p)

    for _ in range(40):
        p, q = random_chart_poly(rng, chart), random_chart_poly(rng, chart)
        k = rng.randint(-3, 3)
        results = [p + q, p - q, p * q, p - p, p * (q - q), p + k, k - p, p * k, -p, p ** rng.randint(0, 3)]
        results += [partial(p, i) for key in p.terms for i, _ in key]
        results += [partial(p, rng.randrange(chart.num_vars)), p.add_all([q, -p, k]), lie_derivative(field, p)]
        for result in results:
            assert_canonical_chart(result, chart)


@pytest.mark.parametrize("N,n", [(4, 2), (5, 3), (6, 3)])
def test_jet_results_canonical(N, n):
    params = ModelParams(N, n)
    rng = random.Random(N * 10 + n)
    for _ in range(40):
        level = rng.randint(0, params.kappa)
        x, y = random_jet(rng, params, level), random_jet(rng, params, level)
        k = rng.randint(-3, 3)
        results = [x + y, x - y, x * y, x - x, x * (y - y), x + k, k - x, x * k, -x, x ** rng.randint(0, 4)]
        results += [x.add_all([y, -x, k])]
        for result in results:
            assert_canonical_jet(result)
    for level in range(1, params.kappa + 1):
        nef = nef_tower_class(params, level)
        for result in (nef ** 3, nef * tower_segre(params, level, 2), tower_segre(params, level, 3)):
            assert_canonical_jet(result)


@pytest.mark.parametrize("N,n", [(3, 1), (4, 2), (6, 3), (7, 4)])
def test_chow_results_canonical(N, n):
    # Chow classes are lists of h-coefficient polynomials; every coefficient
    # the chow layer and the Schur determinants build must be canonical
    params = ModelParams(N, n)
    rng = random.Random(N * 10 + n)
    m = rng.randint(-3, 3)
    classes = segre_elementary(params, m)
    seg = [recombine_elementary(s) for s in classes]
    assert len(seg) == n + 1 and seg[0] == 1
    assert_canonical_class(integrate(classes[n]))
    results = list(seg) + product_route(params, m) + twisted(seg, n, rng.randint(-3, 3))
    results += twisted(seg, n, random_poly(rng, params.c, max_deg=1))
    results += [schur_det(lam, seg) for w in range(1, n + 1) for lam in partitions_of(w)]
    for _ in range(20):
        x = [random_poly(rng, params.c, max_deg=2, max_terms=2) for _ in range(n + 1)]
        y = [random_poly(rng, params.c, max_deg=2, max_terms=2) for _ in range(rng.randint(1, n + 1))]
        results += series_product(x, y, n)
    for result in results:
        assert_canonical_poly(result)


def test_mismatched_operands_rejected():
    with pytest.raises(ValueError):
        elementary(2, 0).add_all([elementary(3, 0)])
    with pytest.raises(TypeError):
        elementary(2, 0).add_all(["x"])
    params = ModelParams(4, 2)
    with pytest.raises(ValueError):
        (JetClass(params, 1) + 1) * (JetClass(params, 2) + 1)
    # same key width, so only the ring tells each pair apart
    pairs = [
        (UniversalChart(3, [2]).monomial({}), UniversalChart(4, [2]).monomial({})),
        (JetClass(params, 1) + 1, JetClass(ModelParams(5, 2), 1) + 1),
    ]
    for x, y in pairs:
        for mix in (lambda: x + y, lambda: x * y, lambda: x.add_all([y])):
            with pytest.raises(ValueError, match="different rings"):
                mix()
        assert x != y
