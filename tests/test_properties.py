"""Property tests of the ring layer: ring laws for polynomials, for
symmetric classes in the e_lam basis and for truncated jet classes, the e_lam
basis against its expansion over 0-1 subsets (products, equality and shift
rows), the integer shift of a class against its value at the shifted point and
under composition, the Taylor shift against substitution and under
composition, associativity of the tests' truncated series products, evaluation as a ring
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
from cipos.polyring import (  # noqa: E402
    ElementaryClass,
    MultidegreePoly,
    m_coefficients,
    partitions_of,
    recombine_elementary,
    shift_rows,
    shifted,
    terms_in_d,
)
from cipos.vecfields import ChartPoly, UniversalChart, VectorField, defining_equations, lie_derivative  # noqa: E402

from oracle import (  # noqa: E402
    elementary_product,
    m_in_d,
    series_product,
    shift_at as oracle_shift_at,
    taylor_shift,
    terms_json,
)
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
    assert_ring_laws(x, y, z, recombine_elementary(ElementaryClass(x.num_vars, enumerate([1]))))


@PROPERTY
@given(jet_triples())
def test_jet_ring_laws_under_truncation(triple):
    # the truncated keys form a monomial ideal, so the quotient is a ring
    x, y, z = triple
    assert_ring_laws(x, y, z, JetClass(x.params, x.level) + 1)


def as_rows(rows):
    return (rows,) if isinstance(rows, int) else tuple(rows)


def elementary_pairs():
    # products of weight <= 4 with parts in 0..4: e_0 = 1, and for c < 4 parts
    # beyond c, which make a term zero; a product of two has weight up to 8
    rows = st.one_of(st.integers(0, 4), st.lists(st.integers(0, 4), max_size=3).map(tuple))
    return st.lists(st.tuples(rows.filter(lambda r: sum(as_rows(r)) <= 4), coefficients), max_size=4)


def elementary_cases():
    """(c, pairs, pairs, flag) with c <= 4."""
    return st.tuples(st.integers(1, 4), elementary_pairs(), elementary_pairs(), st.booleans())


def by_subsets(pairs, c):
    """The class of (rows, a) pairs multiplied out over 0-1 subsets, no zero term."""
    out: dict = {}
    for rows, a in pairs:
        for key, v in elementary_product(as_rows(rows), c).items():
            out[key] = out.get(key, 0) + a * v
    return {key: v for key, v in out.items() if v}


def product_pairs(first, second):
    return [(as_rows(r1) + as_rows(r2), a1 * a2) for r1, a1 in first for r2, a2 in second]


@PROPERTY
@given(elementary_cases(), elementary_pairs())
def test_elementary_ring_laws(case, third):
    c, first, second, _ = case
    x, y, z = (ElementaryClass(c, pairs) for pairs in (first, second, third))
    assert_ring_laws(x, y, z, ElementaryClass(c, [(0, 1)]))


@PROPERTY
@given(elementary_cases())
def test_elementary_products_are_products_in_d(case):
    # the class written in d is the oracle's expansion, and joining partitions
    # is the product in d; every key is a partition with parts in 1..c
    c, first, second, _ = case
    x, y = ElementaryClass(c, first), ElementaryClass(c, second)
    assert recombine_elementary(x).terms == by_subsets(first, c)
    assert recombine_elementary(x * y) == recombine_elementary(x) * recombine_elementary(y)
    assert recombine_elementary(x * y).terms == by_subsets(product_pairs(first, second), c)
    for lam, a in (x * y).terms.items():
        assert a and list(lam) == sorted(lam, reverse=True) and all(1 <= k <= c for k in lam)


@PROPERTY
@given(elementary_cases())
def test_elementary_equality_is_equality_in_d(case):
    # the same class stated by other pairs (reordered, with e_0 factors, its
    # coefficients split), plus a second class when the flag is set: the two
    # are equal exactly when their expansions in d are
    c, first, second, extra = case
    restated = [pair for rows, a in reversed(first) for pair in (((0, *as_rows(rows)[::-1]), a - 1), (rows, 1))]
    restated += second if extra else []
    x, y = ElementaryClass(c, first), ElementaryClass(c, restated)
    assert (x == y) == (by_subsets(first, c) == by_subsets(restated, c))
    assert extra or (x == y and hash(x) == hash(y))


def grlex_key(exps):
    # graded-lex, descending: higher total degree first, then lexicographic
    return (-sum(exps), tuple(-e for e in exps))


def m_coefficient_cases():
    """(c, {lam: a}) with c <= 6: partitions of weights 0..8 (the empty one
    included) with at most c parts, each part <= c, and nonzero a."""

    def for_c(c):
        lams = [lam for w in range(9) for lam in partitions_of(w) if len(lam) <= c and max(lam, default=0) <= c]
        return st.dictionaries(st.sampled_from(lams), coefficients.filter(bool), max_size=6).map(lambda m: (c, m))

    return st.integers(1, 6).flatmap(for_c)


@PROPERTY
@given(m_coefficient_cases())
@example((3, {(): 4, (1,): -2, (2, 1): 1, (1, 1, 1): 3}))
@example((6, {(3, 2, 2, 1): 5, (2, 2, 2, 2): -1, (4, 4): 2, (2,): 7}))
def test_terms_in_d_come_in_graded_lex_order(case):
    # the writer arranges each m_lam in descending lex order and merges the lam
    # of one weight, highest weight first: the oracle's terms, sorted
    c, m = case
    expected = sorted(m_in_d(m, c).items(), key=lambda item: grlex_key(item[0]))
    assert list(terms_in_d(m, c)) == expected


point_entries = st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@PROPERTY
@given(elementary_cases(), st.data())
def test_elementary_eval_is_the_value_in_d(case, data):
    # sum_lam a_lam prod e_{lam_k} from e_0..e_c at the point, against the
    # class written in d, at an int point and at a point with Fractions
    c, first, second, _ = case
    x = ElementaryClass(c, first) * ElementaryClass(c, second) + ElementaryClass(c, second)
    for entries in (st.integers(-6, 6), point_entries):
        point = data.draw(st.lists(entries, min_size=c, max_size=c))
        assert x.eval(point) == recombine_elementary(x).eval(point), point


@PROPERTY
@given(elementary_cases())
def test_elementary_shift_rows_are_the_taylor_rows(case):
    # the orbit rows of a product are the Taylor rows at sorted keys of the
    # product multiplied out in d, the constant row first even when zero
    c, first, second, _ = case
    table = taylor_shift(by_subsets(product_pairs(first, second), c))
    zero = (0,) * c
    expected = {zero: table.get(zero, [])}
    expected.update((key, row) for key, row in table.items() if list(key) == sorted(key, reverse=True))
    rows = shift_rows(ElementaryClass(c, first) * ElementaryClass(c, second))
    assert rows == expected and next(iter(rows)) == zero


def elementary_class_cases(max_c=6):
    """(c, pairs) with c <= max_c: e_lam over partitions lam of weights 0..8 with
    parts <= c, followed by the negation of some of those pairs, so that terms
    cancel and the class may be zero."""

    def for_c(c):
        lams = [lam for w in range(9) for lam in partitions_of(w) if max(lam, default=0) <= c]
        pairs = st.lists(st.tuples(st.sampled_from(lams), coefficients), max_size=5)
        return st.tuples(pairs, st.integers(0, 5)).map(lambda t: (c, t[0] + [(lam, -a) for lam, a in t[0][: t[1]]]))

    return st.integers(1, max_c).flatmap(for_c)


@PROPERTY
@given(elementary_class_cases())
@example((3, []))
@example((3, [((1, 1), 1), ((2,), -2)]))
@example((6, [((4, 4), 2), ((2, 2, 2, 1, 1), -1), ((4, 4), -2)]))
def test_shift_rows_at_zero_are_the_m_coefficients(case):
    # at r = 0 the rows are the class itself: their r^0 entries are its m_lam
    # coefficients (e_1^2 - 2 e_2 = m_2, so the row of m_11 cancels and drops),
    # and written in d those are the class multiplied out over 0-1 subsets; the
    # constant row, first, is the class on the diagonal
    c, pairs = case
    x = ElementaryClass(c, pairs)
    rows = shift_rows(x)
    at_zero = {tuple(filter(None, mu)): g[0] for mu, g in rows.items() if g and g[0]}
    assert at_zero == m_coefficients(x)
    assert m_in_d(at_zero, c) == by_subsets(pairs, c)
    diagonal = next(iter(rows.values()))
    assert all(sum(v * r**p for p, v in enumerate(diagonal)) == x.eval([r] * c) for r in range(4))


def classes_with_points():
    """((c, pairs), point): a case of ``elementary_class_cases`` with c <= 5 and an
    integer point of c entries in -6..6."""

    def with_point(case):
        return st.tuples(st.just(case), st.lists(st.integers(-6, 6), min_size=case[0], max_size=case[0]))

    return elementary_class_cases(5).flatmap(with_point)


@PROPERTY
@given(classes_with_points(), st.integers(-6, 6), st.integers(-6, 6))
@example(((3, []), [1, -2, 4]), 3, -5)
@example(((2, [((1, 1), 1), ((2,), -2)]), [5, -3]), -4, 6)
@example(((5, [((4, 4), 2), ((2, 2, 2, 1, 1), -1), ((4, 4), -2)]), [0, 1, -1, 6, -6]), 2, 2)
def test_shifted_is_the_class_at_the_shifted_point(case, r, s):
    # a second route for the shift table: values, not rows.  The class shifted
    # by r takes at p the value of the class at p + r, and two shifts compose
    (c, pairs), point = case
    x = ElementaryClass(c, pairs)
    assert shifted(x, r).eval(point) == x.eval([v + r for v in point])
    assert shifted(shifted(x, r), s) == shifted(x, r + s)
    assert shifted(x, 0) == x


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


def payload(value):
    """``value`` with every polynomial replaced by a generator of its terms in graded-lex order."""
    if isinstance(value, dict):
        return {key: payload(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(payload(item) for item in value)
    if isinstance(value, MultidegreePoly):
        return (term for term in value.sorted_terms())
    return value


@PROPERTY
@given(json_values(), st.text(" ", max_size=8))
@example({}, "")
@example([], "")
@example([[]], "")
@example({"partition": (1,), "conjugate": (1,), "dominant": MultidegreePoly(3), "dominant_positive": True,
          "threshold": "0"}, "    ")
@example([MultidegreePoly(2, {(1, 0): 3, (0, 1): 3}), [], None], "  ")
def test_rendered_json_is_json_dumps(value, pad):
    # the pieces joined; a report holds each class as a generator of its
    # ordered terms, made here from each polynomial's sorted terms
    expected = json.dumps(json_reference(value), indent=2).replace("\n", "\n" + pad)
    assert "".join(cli._json(payload(value), pad)) == expected


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
