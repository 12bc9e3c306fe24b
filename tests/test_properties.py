"""Property tests of the ring layer: ring laws for polynomials and for
truncated jet classes, the Taylor shift against substitution and under
composition, associativity of truncated series products, evaluation as a ring
homomorphism that leaves the polynomial unchanged, graded-lex term order and
the hand-rendered JSON of nested payloads holding polynomials against
``json.dumps``, chart polynomials on pair keys against their dense images,
with the product rule for the action of a vector field, and each defining
equation's derivative against its velocity pairing written out.  Skipped when
hypothesis is not installed; the runtime itself needs no dependency."""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from cipos import cli  # noqa: E402
from cipos.chow import ModelParams  # noqa: E402
from cipos.jets import JetClass  # noqa: E402
from cipos.polyring import MultidegreePoly, series_product  # noqa: E402
from cipos.vecfields import ChartPoly, UniversalChart, VectorField, defining_equations, lie_derivative  # noqa: E402

from oracle import shift_at as oracle_shift_at, terms_json  # noqa: E402
from test_polyring import substituted  # noqa: E402

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
    assert_ring_laws(x, y, z, JetClass(x.params, x.level) + 1)


def shift_at(p, a):
    """p(a + t_1, ..., a + t_c): the Taylor shift table evaluated at r = a."""
    return MultidegreePoly(p.num_vars, oracle_shift_at(p.terms, a))


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


def dense_eval(p, point):
    """p at ``point`` by a walk over every slot of every exponent vector."""
    total = 0
    for exps, coeff in p.terms.items():
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value *= x**e
        total += value
    return total


def points(c):
    ints = st.integers(-6, 6)
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.one_of(st.tuples(*[ints] * c), st.tuples(*[st.one_of(ints, fractions)] * c))


def eval_cases():
    return st.integers(1, 3).flatmap(lambda c: st.tuples(polys(c), polys(c), points(c)))


@PROPERTY
@given(eval_cases())
def test_eval_is_a_ring_homomorphism(case):
    p, q, point = case
    for _ in range(2):  # evaluation keeps no state: a second call agrees
        assert (p + q).eval(point) == p.eval(point) + q.eval(point)
        assert (p * q).eval(point) == p.eval(point) * q.eval(point)
        assert (-p).eval(point) == -p.eval(point)


@PROPERTY
@given(eval_cases())
def test_eval_matches_dense_walk(case):
    p, _, point = case
    expected = dense_eval(p, point)
    for _ in range(2):  # evaluation keeps no state: a second call agrees
        value = p.eval(point)
        assert value == expected and type(value) is type(expected)


@PROPERTY
@given(eval_cases())
def test_eval_leaves_the_polynomial_unchanged(case):
    p, _, point = case
    twin = MultidegreePoly(p.num_vars, dict(p.terms))
    before = (hash(p), p.text(), p.sorted_terms())
    p.eval(point)
    assert p == twin and twin == p
    assert (hash(p), p.text(), p.sorted_terms()) == before
    assert hash(p) == hash(twin)
    with pytest.raises(AttributeError):
        p.num_vars = p.num_vars + 1
    with pytest.raises(AttributeError):
        p.terms = {}


def grlex_key(exps):
    # graded-lex, descending: higher total degree first, then lexicographic
    return (-sum(exps), tuple(-e for e in exps))


# small and negative coefficients, and magnitudes above 2^64
wide_coefficients = st.one_of(coefficients, st.integers(2**64, 2**80), st.integers(-(2**80), -(2**64)))


def wide_polys(c):
    keys = st.tuples(*[st.integers(0, 4)] * c)
    return st.dictionaries(keys, wide_coefficients, max_size=8).map(lambda terms: MultidegreePoly(c, terms))


# the scalars a payload holds: wide ints, bools, None, timing floats, and
# strings that need escaping
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    wide_coefficients,
    st.sampled_from([0.1, 1e-07, 2.5e-05, 1e22, -0.0, float("inf"), float("nan")]),
    st.floats(0, 1000).map(lambda seconds: round(seconds, 3)),
    st.floats(),
    st.sampled_from(['say "no"', "back\\slash", "tab\tnew\nline", "naïve ∂ 𝔽", "\x00\x1f\u2028"]),
    st.text(max_size=8),
)
json_keys = st.one_of(st.text(max_size=6), st.sampled_from(['"', "\\", "é", "coeff"]))


def json_values():
    leaves = st.one_of(json_scalars, st.integers(1, 6).flatmap(wide_polys))
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.dictionaries(json_keys, inner, max_size=4),
        ),
        max_leaves=12,
    )


def json_reference(value):
    """``value`` with every polynomial replaced by its reference term list,
    once its terms are checked to come in graded-lex order."""
    if isinstance(value, dict):
        return {key: json_reference(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_reference(item) for item in value]
    if isinstance(value, MultidegreePoly):
        assert value.sorted_terms() == sorted(value.terms.items(), key=lambda item: grlex_key(item[0]))
        return terms_json(value)
    return value


@PROPERTY
@given(json_values(), st.text(" ", max_size=8))
@example({}, "")
@example([], "")
@example([[]], "")
@example({"partition": (1,), "conjugate": (1,), "dominant": MultidegreePoly.zero(3), "dominant_positive": True,
          "threshold": "0"}, "    ")
def test_rendered_json_is_json_dumps(value, pad):
    assert cli._json(value, pad) == json.dumps(json_reference(value), indent=2).replace("\n", "\n" + pad)


# charts of 26 to 262 variables
CHARTS = [UniversalChart(3, [3]), UniversalChart(3, [3, 3]), UniversalChart(4, [4]), UniversalChart(5, [4]),
          UniversalChart(6, [3, 3]), UniversalChart(5, [5])]


def chart_indices(chart):
    # the z, z' and first coefficient slots often, so that products share variables
    return st.one_of(st.integers(0, 2 * chart.N + 2), st.integers(0, chart.num_vars - 1))


def chart_polys(chart):
    pairs = st.dictionaries(chart_indices(chart), st.integers(1, 3), max_size=6)
    terms = st.lists(st.tuples(pairs, coefficients), max_size=6)
    return terms.map(lambda ts: ChartPoly(chart).add_all(chart.monomial(p, c) for p, c in ts))


def chart_points(chart):
    width = chart.num_vars
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    ints = st.lists(st.integers(-6, 6), min_size=width, max_size=width)
    overrides = st.dictionaries(chart_indices(chart), fractions, max_size=4)
    return st.tuples(ints, overrides).map(lambda pair: [pair[1].get(i, x) for i, x in enumerate(pair[0])])


def chart_cases():
    def for_chart(chart):
        polys_ = chart_polys(chart)
        return st.tuples(st.just(chart), polys_, polys_, chart_indices(chart), chart_points(chart))

    return st.sampled_from(CHARTS).flatmap(for_chart)


def field_cases():
    # up to three moved variables, each with a coefficient of up to six terms
    def for_chart(chart):
        polys_ = chart_polys(chart)
        fields = st.dictionaries(chart_indices(chart), polys_, max_size=3).map(lambda c: VectorField(chart, c))
        return st.tuples(polys_, polys_, fields, coefficients)

    return st.sampled_from(CHARTS).flatmap(for_chart)


def dense(p):
    """The chart polynomial with one exponent slot per chart variable."""
    terms = {}
    for key, coeff in p.terms.items():
        exps = [0] * p.num_vars
        for i, e in key:
            exps[i] = e
        terms[tuple(exps)] = coeff
    return MultidegreePoly(p.num_vars, terms)


def dense_derivative(p, index):
    out = {}
    for exps, coeff in p.terms.items():
        if exps[index]:
            out[exps[:index] + (exps[index] - 1,) + exps[index + 1 :]] = coeff * exps[index]
    return MultidegreePoly(p.num_vars, out)


@PROPERTY
@given(chart_cases())
def test_chart_polys_match_dense_images(case):
    chart, p, q, index, point = case
    assert dense(p + q) == dense(p) + dense(q)
    assert dense(p * q) == dense(p) * dense(q)
    partial = VectorField(chart, {index: chart.monomial({})})
    assert dense(lie_derivative(partial, p)) == dense_derivative(dense(p), index)
    value, expected = p.eval(point), dense(p).eval(point)
    assert value == expected and type(value) is type(expected)
    N, carrier = chart.N, VectorField(chart, {index: p})
    assert carrier.z_pole_order == max((sum(exps[:N]) for exps in dense(p).terms), default=0)
    assert carrier.a_pole_order == max((sum(exps[2 * N :]) for exps in dense(p).terms), default=0)


@PROPERTY
@given(field_cases())
def test_derivative_product_rule(case):
    # a field V is a derivation: V(p q) = V(p) q + p V(q), V is linear, and V(p)
    # is the sum of each coefficient times the partial derivative it scales
    p, q, field, k = case
    assert lie_derivative(field, p * q) == lie_derivative(field, p) * q + p * lie_derivative(field, q)
    assert lie_derivative(field, p + q * k) == lie_derivative(field, p) + lie_derivative(field, q) * k
    dense_p = dense(p)
    expected = MultidegreePoly(p.num_vars).add_all(
        dense(coeff) * dense_derivative(dense_p, index) for index, coeff in field.coefficients.items()
    )
    assert dense(lie_derivative(field, p)) == expected


def velocity_pairing(chart, i):
    """f'_i written out: the sum over block i's slots alpha and k of alpha_k *
    a_alpha * z'_k * z^(alpha - e_k)."""
    terms = []
    for alpha in chart.alphas[i - 1]:
        for k, e in enumerate(alpha):
            if e:
                lowered = alpha[:k] + (e - 1,) + alpha[k + 1 :]
                pairs = {chart.z_index(j + 1): x for j, x in enumerate(lowered) if x}
                pairs.update({chart.a_index(i, alpha): 1, chart.zp_index(k + 1): 1})
                terms.append(chart.monomial(pairs, e))
    return ChartPoly(chart).add_all(terms)


WIDE_CHARTS = [UniversalChart(6, [4, 4]), UniversalChart(8, [5, 5])]


@pytest.mark.parametrize(
    "chart", CHARTS + WIDE_CHARTS, ids=lambda chart: f"N{chart.N}-d{','.join(map(str, chart.degrees))}"
)
def test_defining_equations_match_the_velocity_pairing(chart):
    _, deqs = defining_equations(chart)
    assert [fp.terms for fp in deqs] == [velocity_pairing(chart, i).terms for i in range(1, chart.c + 1)]
