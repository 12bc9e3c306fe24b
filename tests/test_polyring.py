import json
import math
import random

import pytest

from cipos import cli
from cipos.chow import ModelParams
from cipos.jets import nef_sum
from cipos.polyring import (
    NEG_INFINITY,
    MultidegreePoly,
    _SparseTerms,
    elementary_symmetric,
    recombine_elementary,
    series_inverse,
    series_product,
)

from oracle import taylor_shift, terms_json


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
    a polynomial in the same variables.  The tests' one substitution loop."""
    c = p.num_vars
    total = MultidegreePoly.zero(c)
    for exps, coeff in p.terms.items():
        term = MultidegreePoly.one(c) * coeff
        for i, e in enumerate(exps):
            term = term * (MultidegreePoly.variable(c, i) + offset) ** e
        total = total + term
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
        assert MultidegreePoly(2, {(1, 0): 0, (0, 1): 2}).terms == {(0, 1): 2}

    # a four-term polynomial, and a jet class at level 3 whose powers above 9 are truncated to 0
    POWER_BASES = [random_poly(random.Random(6), 2, max_deg=2, max_terms=4), nef_sum(ModelParams(4, 3))]

    @pytest.mark.parametrize("base", POWER_BASES, ids=["poly", "jet"])
    def test_power_is_the_repeated_product(self, base):
        product = base * 0 + 1
        for k in range(21):
            assert base**k == product, k
            product = product * base

    @pytest.mark.parametrize("base", POWER_BASES, ids=["poly", "jet"])
    def test_power_takes_no_product_by_the_unit(self, monkeypatch, base):
        # one squaring per bit below the top one, one product per set bit after the first
        products = []
        product = _SparseTerms._product
        monkeypatch.setattr(_SparseTerms, "_product", lambda x, y: products.append(1) or product(x, y))
        for k in range(21):
            products.clear()
            base**k
            assert len(products) == max(k.bit_length() + k.bit_count() - 2, 0), k


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
        # a multilinear symmetric class is sum_j a_j e_j, and a_j is its
        # coefficient of d1*...*dj
        d1, d2 = dvar(0), dvar(1)
        p = d1 * d2 - 5 * (d1 + d2) + 3
        assert recombine_elementary([(2, 1), (1, -5), (0, 3)], 2) == p
        assert [p.coeff((1,) * j + (0,) * (2 - j)) for j in range(3)] == [3, -5, 1]

    def test_express_identity_case(self):
        assert recombine_elementary([(2, 1)], 4) == elementary_symmetric(2, 4)

    def test_express_roundtrip_random(self):
        rng = random.Random(23)
        for _ in range(40):
            c = rng.randint(1, 5)
            coeffs = [rng.randint(-9, 9) for _ in range(c + 1)]
            p = recombine_elementary(enumerate(coeffs), c)
            assert [p.coeff((1,) * j + (0,) * (c - j)) for j in range(c + 1)] == coeffs
            assert len(p.terms) == sum(math.comb(c, j) for j, a in enumerate(coeffs) if a)


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

    # c-sequences shorter than the order, as long, longer, and empty: entries
    # beyond the list are zero, and those beyond the order do not count
    LENGTHS = [(3, 6), (6, 6), (9, 6), (0, 6), (0, 0), (4, 0)]
    POLY_LENGTHS = [(2, 4), (4, 4), (6, 4), (0, 4)]

    @staticmethod
    def padded(cs, order):
        return (list(cs) + [0] * order)[:order]

    @staticmethod
    def alternating(ss):
        """1 - s_1 t + s_2 t^2 - ..., as its coefficient list."""
        return [1] + [-s if k % 2 else s for k, s in enumerate(ss, 1)]

    def test_involution_random(self):
        rng = random.Random(11)
        for length, order in self.LENGTHS:
            for _ in range(50):
                cs = [rng.randint(-9, 9) for _ in range(length)]
                assert series_inverse(series_inverse(cs, order), order) == self.padded(cs, order)

    def test_involution_over_polynomials(self):
        rng = random.Random(19)
        for length, order in self.POLY_LENGTHS:
            for _ in range(10):
                cs = [random_poly(rng, 2, max_deg=1, max_terms=3) for _ in range(length)]
                assert series_inverse(series_inverse(cs, order), order) == self.padded(cs, order)

    def test_defining_identity_over_ints(self):
        rng = random.Random(23)
        for length, order in self.LENGTHS:
            for _ in range(50):
                cs = [rng.randint(-9, 9) for _ in range(length)]
                ss = series_inverse(cs, order)
                assert len(ss) == order
                assert series_product([1, *cs], self.alternating(ss), order) == [1] + [0] * order

    def test_defining_identity_over_polynomials(self):
        rng = random.Random(29)
        for length, order in self.POLY_LENGTHS:
            for _ in range(10):
                cs = [random_poly(rng, 2, max_deg=1, max_terms=3) for _ in range(length)]
                ss = series_inverse(cs, order)
                assert series_product([1, *cs], self.alternating(ss), order) == [1] + [0] * order


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
            # the rendered terms are the reference list and rebuild the coefficient dict exactly
            blob = json.loads(cli._json(p))
            assert blob == terms_json(p)
            assert {tuple(item["exps"]): int(item["coeff"]) for item in blob} == p.terms

    def test_json_coeffs_are_strings(self):
        p = dvar(0) * 10**30
        blob = json.loads(cli._json(p))
        assert blob[0]["coeff"] == str(10**30)


class TestCalculus:
    def test_shift(self):
        d = MultidegreePoly.variable(1, 0)
        # (r + t)^2 - 3(r + t) = t^2 + (2r - 3) t + (r^2 - 3r)
        assert taylor_shift((d**2 - 3 * d).terms) == {(2,): [1], (1,): [-3, 2], (0,): [0, -3, 1]}
        assert taylor_shift(MultidegreePoly.zero(2).terms) == {}
        rng = random.Random(43)
        for _ in range(30):
            p = random_poly(rng, rng.randint(1, 3))
            assert taylor_shift(p.terms) == shift_oracle(p)

    def test_shift_multivariate(self):
        # sum_j g_j(3) t^j at t = pt is p(pt + 3)
        rng = random.Random(41)
        for _ in range(10):
            p = random_poly(rng, 2, max_deg=2)
            table = taylor_shift(p.terms)
            for pt in ((0, 0), (1, 2), (-4, 5)):
                value = sum(
                    sum(a * 3**k for k, a in enumerate(g)) * pt[0] ** j[0] * pt[1] ** j[1] for j, g in table.items()
                )
                assert value == p.eval((pt[0] + 3, pt[1] + 3))
