import itertools
import json
import math
import random

import pytest

from cipos import chow, cli, jets
from cipos.chow import ModelParams
from cipos.jets import nef_sum
from cipos.polyring import (
    NEG_INFINITY,
    ElementaryClass,
    MultidegreePoly,
    _m_row,
    _SparseTerms,
    _zero_one,
    m_coefficients,
    partitions_of,
    recombine_elementary,
    series_inverse,
    shift_rows,
)
from cipos.schur import positivity_report

from oracle import elementary_product, series_product, taylor_shift, terms_json
from tower_reference import elementary, variable


def dvar(i, c=2):
    return variable(c, i)


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
    total = MultidegreePoly(c)
    for exps, coeff in p.terms.items():
        term = elementary(c, 0) * coeff
        for i, e in enumerate(exps):
            term = term * (variable(c, i) + offset) ** e
        total = total + term
    return total


def shift_oracle(p):
    """p(r + t) as {t-exponents: coefficient list in r}, by substitution in the
    ring of (t_1, ..., t_c, r); independent of ``taylor_shift``."""
    c = p.num_vars
    lifted = MultidegreePoly(c + 1, {exps + (0,): coeff for exps, coeff in p.terms.items()})
    rows = {}
    for key, coeff in substituted(lifted, variable(c + 1, c)).terms.items():
        rows.setdefault(key[:c], {})[key[c]] = coeff
    return {j: [row.get(k, 0) for k in range(max(row) + 1)] for j, row in rows.items()}


class TestArithmetic:
    def test_product_of_conjugates(self):
        d1, d2 = dvar(0), dvar(1)
        assert (d1 + d2) * (d1 - d2) == d1**2 - d2**2

    def test_additive_identity(self):
        p = dvar(0) * 3 + 7
        assert p + MultidegreePoly(2) == p

    def test_monomial_square(self):
        d1, d2 = dvar(0), dvar(1)
        assert (d1 * d2) * (d1 * d2) == MultidegreePoly(2, {(2, 2): 1})

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
        assert p * 0 == MultidegreePoly(2)

    def test_mismatched_vars_rejected(self):
        with pytest.raises(ValueError):
            elementary(2, 0) + elementary(3, 0)

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
        z = MultidegreePoly(2)
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


def in_d(c, pairs):
    """recombine_elementary of the class the pairs state."""
    return recombine_elementary(ElementaryClass(c, pairs))


class TestElementarySymmetric:
    def test_basic(self):
        assert in_d(2, [(1, 1)]) == dvar(0) + dvar(1)
        assert in_d(2, [(3, 1)]).is_zero()
        d1, d2, d3 = (dvar(i, 3) for i in range(3))
        assert in_d(3, [(2, 1)]) == d1 * d2 + d1 * d3 + d2 * d3
        assert in_d(4, [(0, 1)]) == MultidegreePoly(4, {(0, 0, 0, 0): 1})

    def test_express_read_off(self):
        # a multilinear symmetric class is sum_j a_j e_j, and a_j is its
        # coefficient of d1*...*dj
        d1, d2 = dvar(0), dvar(1)
        p = d1 * d2 - 5 * (d1 + d2) + 3
        assert in_d(2, [(2, 1), (1, -5), (0, 3)]) == p
        assert [p.terms.get((1,) * j + (0,) * (2 - j), 0) for j in range(3)] == [3, -5, 1]

    def test_express_roundtrip_random(self):
        rng = random.Random(23)
        for _ in range(40):
            c = rng.randint(1, 5)
            coeffs = [rng.randint(-9, 9) for _ in range(c + 1)]
            p = recombine_elementary(ElementaryClass(c, enumerate(coeffs)))
            assert in_d(c, enumerate(coeffs)) == p
            assert [p.terms.get((1,) * j + (0,) * (c - j), 0) for j in range(c + 1)] == coeffs
            assert len(p.terms) == sum(math.comb(c, j) for j, a in enumerate(coeffs) if a)

    def test_writer_matches_the_count_oracle(self):
        # every product of e_r's of weight <= 8, alone and in a sum that mixes
        # bare ints with tuple rows, in up to eight variables, term for term
        # against the product multiplied out over 0-1 subsets
        multisets = (rows for k in range(9) for rows in itertools.combinations_with_replacement(range(1, 9), k))
        for rows in (rows for rows in multisets if sum(rows) <= 8):
            for c in range(1, 9):
                product = elementary_product(rows, c)
                single = {k: v for k, v in product.items() if v}
                assert in_d(c, [(rows, 1)]).terms == single, (rows, c)
                j = max(rows, default=0)
                mixed = [(rows, 3), (j, -2), ((0, *reversed(rows)), 1)]
                linear = elementary_product((j,), c)
                summed = {k: 4 * product.get(k, 0) - 2 * linear.get(k, 0) for k in product.keys() | linear.keys()}
                assert in_d(c, mixed).terms == {k: v for k, v in summed.items() if v}, (rows, c)


class TestElementaryClass:
    # the one constructor that reads (rows, a) pairs, a bare int j meaning e_j
    def test_negative_index_rejected(self):
        for pairs in ([(-1, 1)], [(1, 2), (-1, 0)], [((2, -1), 1)]):
            with pytest.raises(ValueError, match="index must be nonnegative"):
                ElementaryClass(2, pairs)
        with pytest.raises(ValueError, match="num_vars must be a positive integer"):
            ElementaryClass(0, [(1, 2)])

    def test_bare_int_and_tuple_rows_are_one_class(self):
        # a bare int j, the one-row product (j,) and (j,) with e_0 = 1 factors are one class
        e2 = ElementaryClass(4, [(2, 1)])
        assert ElementaryClass(4, [((2,), 1)]) == e2 == ElementaryClass(4, [((0, 2, 0), 1)])
        assert e2.terms == {(2,): 1}
        written = recombine_elementary(e2)
        assert len(written.terms) == 6 and set(written.terms.values()) == {1}

    def test_an_index_beyond_c_gives_zero(self):
        assert ElementaryClass(2, [(3, 5)]).is_zero()
        assert ElementaryClass(2, [((3, 1), 5), ((1, 1, 1), 2)]).terms == {(1, 1, 1): 2}
        assert ElementaryClass(2, [(3, 5), (1, 2)]).terms == {(1,): 2}

    def test_products_of_e_0_are_the_unit(self):
        # the empty product, e_0 and products of e_0's are all e_() = 1
        assert ElementaryClass(3, [((), 2), (0, 3), ((0, 0), -1)]) == 4
        assert ElementaryClass(1, [(0, 1), ((), -1)]).is_zero()

    def test_keys_are_sorted_and_equal_products_add(self):
        x = ElementaryClass(3, [((1, 3, 2), 2), ((2, 1, 3), 5), ((3, 1), -1), ((1, 3, 0), 1)])
        assert x.terms == {(3, 2, 1): 7}
        assert ElementaryClass(3, [((2, 1), 4), ((1, 2), -4)]).is_zero()

    def test_product_joins_the_partitions(self):
        x = ElementaryClass(3, [((2, 1), 2), (3, 1)])
        y = ElementaryClass(3, [(2, -1), (0, 5)])
        assert (x * y).terms == {(2, 2, 1): -2, (3, 2): -1, (2, 1): 10, (3,): 5}
        assert x * y == ElementaryClass(3, [((2, 1, 2), -2), ((3, 2), -1), ((2, 1), 10), (3, 5)])
        assert (x * y).dominant_part().terms == {(2, 2, 1): -2, (3, 2): -1}

    def test_from_row_is_the_sum_of_its_indices(self):
        for c in range(1, 5):
            row = list(range(-2, c - 1))
            assert ElementaryClass._from_row(c, row) == ElementaryClass(c, enumerate(row))

    def test_a_row_beyond_c_keeps_its_first_c_plus_1_entries(self):
        # e_3 vanishes in two variables, so 7 * e_3 adds nothing
        x = ElementaryClass(2, enumerate([1, 0, 0, 7]))
        assert x == ElementaryClass(2, [((), 1)])
        assert x.eval((1, 1)) == 1
        assert shift_rows(x) == {(0, 0): [1]}

    def test_rings_do_not_mix(self):
        with pytest.raises(ValueError, match="different rings"):
            ElementaryClass(2, [(1, 1)]) + ElementaryClass(3, [(1, 1)])


class TestReaders:
    def test_a_single_index_and_a_product_add_on_one_partition(self):
        # e_2 + e_1^2 = m_{1,1} + (m_2 + 2 m_{1,1}) at c = 2, and
        # e_1^2 - 2 e_2 = m_2: the single e_j adds to the count, either order
        assert m_coefficients(ElementaryClass(2, [(2, 1), ((1, 1), 1)])) == {(1, 1): 3, (2,): 1}
        assert m_coefficients(ElementaryClass(2, [((1, 1), 1), (2, 1)])) == {(1, 1): 3, (2,): 1}
        assert m_coefficients(ElementaryClass(2, [((1, 1), 1), (2, -2)])) == {(2,): 1}

    def test_an_index_beyond_c_gives_nothing(self):
        assert m_coefficients(ElementaryClass(2, [((3, 1), 5), ((1, 1, 1), 2)])) == {(3,): 2, (2, 1): 6}

    def test_a_single_index_reads_as_the_count(self):
        # the one-row branch of _m_row counts nothing; on its domain, one part
        # j <= c or none, it gives the row the 0-1 count gives
        for c in range(1, 9):
            for rows in [(), *((j,) for j in range(1, c + 1))]:
                count = tuple((lam, n) for lam in partitions_of(sum(rows)) if (n := _zero_one(rows, lam)))
                assert _m_row(rows, c) == count, (rows, c)

    def test_constants(self):
        assert m_coefficients(ElementaryClass(3, [((), 2), (0, 3), ((0, 0), -1)])) == {(): 4}
        assert shift_rows(ElementaryClass(2, [(0, 7)])) == {(0, 0): [7]}

    def test_shift_rows_match_the_taylor_shift(self):
        # seeded random pair lists mixing bare ints and products, some with an
        # index beyond c, in up to six variables: the rows are the Taylor rows
        # at sorted keys of the class multiplied out over 0-1 subsets, the
        # constant row first even when it is zero
        rng = random.Random(4141)
        for _ in range(150):
            c = rng.randint(1, 6)
            pairs = [(rng.randint(0, c + 1), rng.randint(-9, 9)) for _ in range(rng.randint(0, 3))]
            pairs += [
                (tuple(rng.randint(0, min(c + 1, 3)) for _ in range(rng.randint(0, 3))), rng.randint(-9, 9))
                for _ in range(rng.randint(0, 3))
            ]
            expanded: dict = {}
            for rows, a in pairs:
                product = elementary_product((rows,) if isinstance(rows, int) else rows, c)
                for key, v in product.items():
                    expanded[key] = expanded.get(key, 0) + a * v
            table = taylor_shift({key: v for key, v in expanded.items() if v})
            zero = (0,) * c
            expected = {zero: table.get(zero, [])}
            expected.update((key, row) for key, row in table.items() if list(key) == sorted(key, reverse=True))
            rows = shift_rows(ElementaryClass(c, pairs))
            assert rows == expected and next(iter(rows)) == zero, (pairs, c)


class TestClosedFormWriters:
    def test_classes_are_written_term_by_term(self, checks, monkeypatch):
        # at (2, 1) S = u_1 + 2h and top = 1, so the Morse tail S - top (m + a) h
        # at a = 0 is u_1 alone; the product with S^0 drops a zero term itself,
        # so the tail is caught as that product's operand as well as reduced
        product = jets.JetClass.__mul__
        tails, reduced = [], []

        def capture(x, y):
            if isinstance(y, jets.JetClass):
                tails.append(y)
            return product(x, y)

        monkeypatch.setattr(jets.JetClass, "__mul__", capture)
        monkeypatch.setattr(jets, "reduce_to_base", lambda x: reduced.append(x) or ElementaryClass(1))
        jets.morse_certificate(ModelParams(2, 1), 0)
        assert [x.terms for x in tails + reduced] == [{(0, 0, 1): 1}] * 2
        monkeypatch.undo()

        rng = random.Random(41)
        top = ElementaryClass(4, [((rng.randint(0, 4), rng.randint(0, 4)), rng.randint(-9, 9)) for _ in range(12)])
        e1 = in_d(3, [(1, 1)]) * 5
        stated = ElementaryClass(3, [(2, 3), (2, -3), (1, 5), (7, 4)])

        # the Segre classes, recombine_elementary and integrate construct and
        # multiply nothing: they write their terms through the trusted constructor
        def refuse(*args):
            raise AssertionError("a closed-form class went through the validating constructor or a product")

        monkeypatch.setattr(_SparseTerms, "__init__", refuse)
        monkeypatch.setattr(ElementaryClass, "__init__", refuse)
        monkeypatch.setattr(_SparseTerms, "_product", refuse)
        monkeypatch.setattr(ElementaryClass, "_product", refuse)
        seg = [recombine_elementary(s) for s in chow.segre_elementary(ModelParams(30, 5), 0)]
        for _ in range(10):
            point = [rng.randint(-(10**6), 10**6) for _ in range(25)]
            assert [s.eval(point) for s in seg] == checks.segre_values(30, 5, 0, point), point
        # repeated indices add, a zero sum drops, e_7 vanishes in three variables
        assert recombine_elementary(stated) == e1
        shifted = chow.integrate(top)
        assert shifted.ring == 4
        assert shifted.terms == {(4, *key): coeff for key, coeff in top.terms.items()}

    def test_no_product_in_the_degrees(self, monkeypatch):
        # the positivity report runs on ElementaryClasses, and the Morse
        # certificate's base fold multiplies its Segre classes there; both read
        # every coefficient in d from the 0-1 count and multiply no MultidegreePoly
        expected = positivity_report(ModelParams(10, 5), 3)
        multiply = MultidegreePoly.__mul__
        products = []

        def recording(x, y):
            products.append((x, y))
            return multiply(x, y)

        monkeypatch.setattr(MultidegreePoly, "__mul__", recording)
        assert positivity_report(ModelParams(10, 5), 3) == expected
        assert not products
        cert = jets.morse_certificate(ModelParams(30, 5), 0)
        assert not products
        assert cert.difference.total_degree() == 5 and cert.difference.num_vars == 25


class TestEval:
    def test_morse_polynomial_at_equal_degrees(self):
        d = variable(1, 0)
        p = d**2 - 34 * d + 15
        assert p.eval((34,)) == 15

    def test_constant_term_at_origin(self):
        rng = random.Random(5)
        for _ in range(20):
            p = random_poly(rng, 3)
            assert p.eval((0, 0, 0)) == p.terms.get((0, 0, 0), 0)

    def test_square(self):
        assert in_d(2, [(2, 1)]).eval((34, 34)) == 1156

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            elementary(2, 0).eval((1,))
        with pytest.raises(ValueError):
            ElementaryClass(2, enumerate([1])).eval((1,))


class TestSeriesInverse:
    def test_order_one(self):
        c1 = variable(1, 0)
        assert series_inverse([c1], 1) == [c1]

    def test_order_two(self):
        c = 3
        c1 = variable(2, 0)
        c2 = variable(2, 1)
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
        assert MultidegreePoly(2).text() == "0"

    def test_graded_lex_order(self):
        d1, d2 = dvar(0), dvar(1)
        p = d2**2 + d1 * d2 + d1**2 + d2 + d1
        assert p.text() == "d1^2 + d1*d2 + d2^2 + d1 + d2"

    def test_json_roundtrip(self):
        rng = random.Random(31)
        for _ in range(20):
            p = random_poly(rng, 3)
            # the rendered terms are the reference list and rebuild the coefficient dict exactly
            blob = json.loads("".join(cli._json(iter(p.sorted_terms()))))
            assert blob == terms_json(p)
            assert {tuple(item["exps"]): int(item["coeff"]) for item in blob} == p.terms

    def test_json_coeffs_are_strings(self):
        p = dvar(0) * 10**30
        blob = json.loads("".join(cli._json(iter(p.sorted_terms()))))
        assert blob[0]["coeff"] == str(10**30)


class TestCalculus:
    def test_shift(self):
        d = variable(1, 0)
        # (r + t)^2 - 3(r + t) = t^2 + (2r - 3) t + (r^2 - 3r)
        assert taylor_shift((d**2 - 3 * d).terms) == {(2,): [1], (1,): [-3, 2], (0,): [0, -3, 1]}
        assert taylor_shift(MultidegreePoly(2).terms) == {}
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
