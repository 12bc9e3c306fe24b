import random
from fractions import Fraction

import pytest

from cipos.polyring import (
    NEG_INFINITY,
    MultidegreePoly,
    elementary_symmetric,
    express_in_elementary,
    recombine_elementary,
    series_inverse,
)


def dvar(i, c=2):
    return MultidegreePoly.variable(c, i)


def random_poly(rng, c, max_deg=3, max_terms=6):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(0, max_deg) for _ in range(c))
        terms[exps] = rng.randint(-9, 9)
    return MultidegreePoly(c, terms)


def substituted(p, offset):
    """p(d_1 + offset, ..., d_c + offset) by ring + and *; offset is an int or
    a polynomial in the same variables."""
    c = p.num_vars
    total = MultidegreePoly.zero(c)
    for exps, coeff in p.terms.items():
        term = MultidegreePoly.one(c) * coeff
        for i, e in enumerate(exps):
            term = term * (MultidegreePoly.variable(c, i) + offset) ** e
        total = total + term
    return total


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


def shift_oracle(p):
    """p(r + t) as {t-exponents: coefficient list in r}, by substitution in the
    ring of (t_1, ..., t_c, r); independent of ``taylor_shift``."""
    c = p.num_vars
    lifted = MultidegreePoly(c + 1, {exps + (0,): coeff for exps, coeff in p.terms.items()})
    rows = {}
    for key, coeff in substituted(lifted, MultidegreePoly.variable(c + 1, c)).terms.items():
        rows.setdefault(key[:c], {})[key[c]] = coeff
    return {j: [row.get(k, 0) for k in range(max(row) + 1)] for j, row in rows.items()}


class TestArithmetic:
    def test_product_of_conjugates(self):
        d1, d2 = dvar(0), dvar(1)
        assert (d1 + d2) * (d1 - d2) == d1**2 - d2**2

    def test_additive_identity(self):
        p = dvar(0) * 3 + 7
        assert p + MultidegreePoly.zero(2) == p

    def test_monomial_square(self):
        d1, d2 = dvar(0), dvar(1)
        assert (d1 * d2) * (d1 * d2) == MultidegreePoly.monomial(2, (2, 2))

    def test_ring_axioms_random(self):
        rng = random.Random(3)
        for _ in range(60):
            c = rng.randint(1, 3)
            p, q, r = (random_poly(rng, c) for _ in range(3))
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p * q == q * p

    def test_int_promotion(self):
        p = dvar(0)
        assert 2 + p == p + 2
        assert 1 - p == -(p - 1)
        assert 3 * p == p * 3
        assert p * 0 == MultidegreePoly.zero(2)

    def test_mismatched_vars_rejected(self):
        with pytest.raises(ValueError):
            MultidegreePoly.one(2) + MultidegreePoly.one(3)

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            MultidegreePoly(2, {(1,): 1})
        with pytest.raises(ValueError):
            MultidegreePoly(2, {(-1, 0): 1})


class TestDegree:
    def test_inspection_example(self):
        d1, d2 = dvar(0), dvar(1)
        p = d1**2 * d2 + 3 * d1
        assert p.total_degree() == 3
        assert p.dominant_part() == d1**2 * d2

    def test_zero_sentinel(self):
        z = MultidegreePoly.zero(2)
        assert z.total_degree() == NEG_INFINITY
        assert z.total_degree() < 0
        assert z.dominant_part() == z

    def test_linear_plus_constant(self):
        d1, d2 = dvar(0), dvar(1)
        p = d1 + d2 + 7
        assert p.total_degree() == 1
        assert p.dominant_part() == d1 + d2

    def test_dominant_multiplicative(self):
        rng = random.Random(17)
        for _ in range(60):
            c = rng.randint(1, 3)
            p, q = random_poly(rng, c), random_poly(rng, c)
            rhs = p.dominant_part() * q.dominant_part()
            if not rhs.is_zero():
                assert (p * q).dominant_part() == rhs


class TestElementarySymmetric:
    def test_basic(self):
        assert elementary_symmetric(1, 2) == dvar(0) + dvar(1)
        assert elementary_symmetric(3, 2).is_zero()
        d1, d2, d3 = (dvar(i, 3) for i in range(3))
        assert elementary_symmetric(2, 3) == d1 * d2 + d1 * d3 + d2 * d3
        assert elementary_symmetric(0, 4) == MultidegreePoly.one(4)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            elementary_symmetric(-1, 2)

    def test_express_read_off(self):
        d1, d2 = dvar(0), dvar(1)
        p = d1 * d2 - 5 * (d1 + d2) + 3
        assert express_in_elementary(p) == [(2, 1), (1, -5), (0, 3)]

    def test_express_identity_case(self):
        assert express_in_elementary(elementary_symmetric(2, 4)) == [(2, 1)]

    def test_express_roundtrip_random(self):
        rng = random.Random(23)
        for _ in range(40):
            c = rng.randint(1, 5)
            coeffs = [(j, rng.randint(-9, 9)) for j in range(c + 1)]
            p = recombine_elementary(coeffs, c)
            assert recombine_elementary(express_in_elementary(p), c) == p

    def test_express_rejects_non_multilinear(self):
        with pytest.raises(ValueError, match="multilinear.*d1\\^2"):
            express_in_elementary(dvar(0) ** 2)

    def test_express_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric.*d2"):
            express_in_elementary(dvar(0, 2))


class TestEval:
    def test_morse_polynomial_at_equal_degrees(self):
        d = MultidegreePoly.variable(1, 0)
        p = d**2 - 34 * d + 15
        assert p.eval((34,)) == 15

    def test_constant_term_at_origin(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_poly(rng, 3)
            assert p.eval((0, 0, 0)) == p.coeff((0, 0, 0))

    def test_square(self):
        assert elementary_symmetric(2, 2).eval((34, 34)) == 1156

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            MultidegreePoly.one(2).eval((1,))

    def test_wide_sparse_against_dense_walk(self):
        # chart-like polynomials: 150-220 slots, at most 6 nonzero exponents a
        # term, integer coordinates but for a few Fractions over one shared
        # denominator, the way the locus sampler solves the pinned slots
        rng = random.Random(11)
        kinds = set()
        for _ in range(40):
            width = rng.randint(150, 220)
            terms = {}
            for _ in range(rng.randint(1, 12)):
                exps = [0] * width
                for index in rng.sample(range(width), rng.randint(0, 6)):
                    exps[index] = rng.randint(1, 3)
                terms[tuple(exps)] = rng.randint(-9, 9)
            p = MultidegreePoly(width, terms)
            denominator = rng.randint(1, 5) * rng.choice((-1, 1))
            point = [rng.randint(-5, 5) for _ in range(width)]
            for index in rng.sample(range(width), rng.randint(0, 4)):
                point[index] = Fraction(rng.randint(-30, 30), denominator)
            expected = dense_eval(p, point)
            for _ in range(2):  # the first call builds the memo, the second reads it
                value = p.eval(point)
                assert value == expected and type(value) is type(expected)
            kinds.add(type(expected))
        assert kinds == {int, Fraction}


class TestSeriesInverse:
    def test_order_one(self):
        c1 = MultidegreePoly.variable(1, 0)
        assert series_inverse([c1], 1) == [c1]

    def test_order_two(self):
        c = 3
        c1 = MultidegreePoly.variable(2, 0)
        c2 = MultidegreePoly.variable(2, 1)
        s = series_inverse([c1, c2], 2)
        assert s[1] == c1 * c1 - c2

    def test_zero_sequence(self):
        assert series_inverse([0, 0, 0], 3) == [0, 0, 0]

    def test_involution_random(self):
        rng = random.Random(11)
        for _ in range(50):
            cs = [rng.randint(-9, 9) for _ in range(6)]
            assert series_inverse(series_inverse(cs, 6), 6) == cs

    def test_involution_over_polynomials(self):
        rng = random.Random(19)
        for _ in range(10):
            cs = [random_poly(rng, 2, max_deg=1, max_terms=3) for _ in range(4)]
            assert series_inverse(series_inverse(cs, 4), 4) == cs


class TestRendering:
    def test_canonical_text(self):
        d1, d2 = dvar(0), dvar(1)
        p = d1**2 * d2 - 5 * d1 + 3
        assert p.text() == "d1^2*d2 - 5*d1 + 3"
        assert MultidegreePoly.zero(2).text() == "0"

    def test_graded_lex_order(self):
        d1, d2 = dvar(0), dvar(1)
        p = d2**2 + d1 * d2 + d1**2 + d2 + d1
        assert p.text() == "d1^2 + d1*d2 + d2^2 + d1 + d2"

    def test_json_roundtrip(self):
        rng = random.Random(31)
        for _ in range(20):
            p = random_poly(rng, 3)
            assert MultidegreePoly.from_json(p.to_json(), 3) == p

    def test_json_coeffs_are_strings(self):
        p = dvar(0) * 10**30
        blob = p.to_json()
        assert blob[0]["coeff"] == str(10**30)


class TestCalculus:
    def test_derivative(self):
        d1, d2 = dvar(0), dvar(1)
        p = d1**3 * d2 + 2 * d2
        assert p.derivative(0) == 3 * d1**2 * d2
        assert p.derivative(1) == d1**3 + 2

    def test_shift(self):
        d = MultidegreePoly.variable(1, 0)
        # (r + t)^2 - 3(r + t) = t^2 + (2r - 3) t + (r^2 - 3r)
        assert (d**2 - 3 * d).taylor_shift() == {(2,): [1], (1,): [-3, 2], (0,): [0, -3, 1]}
        assert MultidegreePoly.zero(2).taylor_shift() == {}
        rng = random.Random(43)
        for _ in range(30):
            p = random_poly(rng, rng.randint(1, 3))
            assert p.taylor_shift() == shift_oracle(p)

    def test_shift_multivariate(self):
        # sum_j g_j(3) t^j at t = pt is p(pt + 3)
        rng = random.Random(41)
        for _ in range(10):
            p = random_poly(rng, 2, max_deg=2)
            table = p.taylor_shift()
            for pt in ((0, 0), (1, 2), (-4, 5)):
                value = sum(
                    sum(a * 3**k for k, a in enumerate(g)) * pt[0] ** j[0] * pt[1] ** j[1] for j, g in table.items()
                )
                assert value == p.eval((pt[0] + 3, pt[1] + 3))
