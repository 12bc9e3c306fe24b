import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from cipos.bounds import (
    first_positive_uniform_degree,
    morse_coeff,
    rough_bound_limit,
    rough_degree_bound,
    shifted_positivity_threshold,
    surface_degree_bound,
)
from cipos import bounds, cli
from cipos.polyring import ElementaryClass, MultidegreePoly, recombine_elementary, shift_rows

from oracle import cascade_threshold, monic_root_bound, shift_at, taylor_shift
from tower_reference import elementary, morse_in_d, variable


def rows_of(p):
    """The rows of p's Taylor table, constant row first."""
    table = taylor_shift(p.terms)
    return [table.pop((0,) * p.num_vars, []), *table.values()]


class TestMonicRootBound:
    # the building block of the cascade oracle
    def test_quadratic(self):
        assert monic_root_bound([1, -3]) == 4
        # soundness at the bound: 16 - 12 + 1 = 5 > 0
        assert 4 * 4 - 3 * 4 + 1 > 0

    def test_pure_power(self):
        assert monic_root_bound([0, 0, 0]) == 1

    def test_linear(self):
        assert monic_root_bound([-10]) == 11
        assert 11 - 10 > 0

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            monic_root_bound([])

    def test_soundness_random(self):
        rng = random.Random(13)
        for _ in range(60):
            k = rng.randint(1, 5)
            coeffs = [Fraction(rng.randint(-50, 50), rng.randint(1, 5)) for _ in range(k)]
            bound = monic_root_bound(coeffs)
            for x in (bound, bound + 1, bound + Fraction(7, 2)):
                value = x**k + sum(coeffs[i] * x**i for i in range(k))
                assert value > 0


class TestMorseCoeff:
    def test_leading_is_one(self):
        for N in range(2, 13):
            for n in range(1, N // 2 + 1):
                for a in (0, 3, N):
                    assert morse_coeff(N, n, a, n) == 1

    def test_surface_closed_forms(self):
        for N in range(4, 13):
            for a in range(0, 7):
                assert morse_coeff(N, 2, a, 2) == 1
                assert morse_coeff(N, 2, a, 1) == -(N + 1) - 3 * a
                assert morse_coeff(N, 2, a, 0) == math.comb(N + 2, N) + 3 * a * (N + 1) - 12 * (a + 1)

    def test_flagship_values(self):
        assert [morse_coeff(4, 2, 4, j) for j in (0, 1, 2)] == [15, -17, 1]

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            morse_coeff(4, 2, 0, 3)
        with pytest.raises(ValueError):
            morse_coeff(4, 3, 0, 1)


class TestCascadeThreshold:
    def test_flagship(self):
        assert cascade_threshold([(2, 1), (1, -17), (0, 15)], 2, 2) == 35

    def test_linear_case(self):
        assert cascade_threshold([(1, 1), (0, -6)], 3, 1) == 1 + Fraction(6, 3)

    def test_no_lower_terms(self):
        assert cascade_threshold([(2, 1)], 4, 2) == 1

    def test_leading_must_be_monic(self):
        with pytest.raises(ValueError):
            cascade_threshold([(2, 2), (0, 1)], 3, 2)

    def test_soundness_on_grid(self):
        rng = random.Random(31)
        for _ in range(60):
            c = rng.randint(1, 5)
            k = rng.randint(1, c)
            table = {k: 1}
            for i in range(k):
                table[i] = rng.randint(-25, 25)
            r = cascade_threshold(sorted(table.items()), c, k)
            poly = MultidegreePoly(c)
            for j, a in table.items():
                poly = poly + elementary(c, j) * a
            base = math.ceil(r)
            for point in itertools.product((base, base + 1, base + 7), repeat=c):
                assert poly.eval(point) > 0


class TestShiftedThreshold:
    def test_already_positive(self):
        poly = elementary(2, 2) + 1
        assert shifted_positivity_threshold(rows_of(poly)) == 1

    def test_square_difference(self):
        d1 = variable(2, 0)
        d2 = variable(2, 1)
        poly = d1**2 + d1 * d2 + d2**2 - 5 * d1 - 5 * d2 + 10
        r = shifted_positivity_threshold(rows_of(poly))
        assert r == 2
        assert all(v > 0 for v in shift_at(poly.terms, r).values())
        assert any(v < 0 for v in shift_at(poly.terms, r - 1).values())

    def test_zero_coefficient_allowed(self):
        # (1 + t)^2 - 2(1 + t) + 5 = t^2 + 4: the zero linear coefficient
        # passes, so a strictly-positive reading (which gives 2) is wrong
        d = variable(1, 0)
        assert shifted_positivity_threshold(rows_of(d**2 - 2 * d + 5)) == 1

    def test_matches_substitution_frontier(self):
        # the least r >= 1 at which the shifted polynomial has no negative
        # coefficient and a positive constant term, found by a linear scan
        rng = random.Random(53)
        seen = set()
        for _ in range(30):
            c = rng.randint(1, 3)
            poly = elementary(c, 1) ** rng.randint(2, 3) + elementary(c, c) * rng.randint(0, 9)
            poly = poly + elementary(c, 1) * rng.randint(-30, 5) + rng.randint(-40, 40)
            shifts = ((r, shift_at(poly.terms, r)) for r in range(1, 200))
            r = next(r for r, q in shifts if min(q.values()) >= 0 and q.get((0,) * c, 0) > 0)
            assert shifted_positivity_threshold(rows_of(poly)) == r
            seen.add(r)
        assert len(seen) > 5

    def test_no_frontier_raises_before_any_probe(self, monkeypatch):
        # a row ending negative fails at every large r, and so does a zero
        # constant row; the certified set is upward closed, so none certifies
        def no_probe(*args):
            raise AssertionError("probed")

        monkeypatch.setattr(bounds, "_horner", no_probe)
        for rows in ([[5], [3, 1, -1]], [[1, -1], [2]], [[], [1]], [[0, 0], [1]]):
            with pytest.raises(ArithmeticError):
                shifted_positivity_threshold(rows)

    def test_frontier_beyond_ssize_t(self):
        # the bisection interval is 2^69 wide, more than a C ssize_t holds,
        # so the search must run on plain ints
        assert shifted_positivity_threshold([[-(2**70), 1]]) == 2**70 + 1

    def test_soundness(self):
        rng = random.Random(47)
        for _ in range(20):
            c = rng.randint(1, 3)
            dom = elementary(c, 1) ** 2
            noise = elementary(c, 1) * rng.randint(-20, 0) + rng.randint(-20, 20)
            poly = dom + noise
            r = shifted_positivity_threshold(rows_of(poly))
            for point in itertools.product((r, r + 2, r + 9), repeat=c):
                assert poly.eval(point) > 0


def random_diagonal(rng):
    """A random integer polynomial of degree <= 6, by powers of r: either
    random coefficients, or a product of factors (q r - k) with integer and
    half-integer roots k/q near the scanned range, some of them repeated."""
    if rng.random() < 0.3:
        return [rng.randint(-30, 30) for _ in range(rng.randint(0, 7))]
    poly = [rng.choice([-3, -2, -1, 1, 2, 3])]
    for _ in range(rng.randint(0, 6)):
        q = rng.choice([1, 2])
        k = rng.randint(-4, 62 * q)
        for _ in range(rng.choice([1, 1, 2])):
            if len(poly) <= 6:
                poly = [(poly[i - 1] * q if i else 0) - (poly[i] * k if i < len(poly) else 0) for i in range(len(poly) + 1)]
    return poly


class TestFirstPositiveDegree:
    def test_matches_the_walk(self):
        # the walk r = 1, 2, ..., d_max is the definition; the block search must agree
        rng = random.Random(1117)
        found = 0
        for _ in range(4000):
            diagonal, d_max = random_diagonal(rng), rng.randint(0, 60)
            walk = next((r for r in range(1, d_max + 1) if bounds._horner(diagonal, r) > 0), None)
            assert first_positive_uniform_degree(diagonal, d_max) == walk, (diagonal, d_max)
            found += walk not in (None, 1)
        assert found > 400

    def test_huge_frontier_without_walking(self):
        # r (r - 2)^2 (r - B): zero at 2 and at B, negative elsewhere below B,
        # so the first positive degree is B + 1, found without visiting 1..B
        big = 10**12
        diagonal = [0, -4 * big, 4 * big + 4, -big - 4, 1]
        assert first_positive_uniform_degree(diagonal, 10 * big) == big + 1
        assert first_positive_uniform_degree(diagonal, big) is None
        assert first_positive_uniform_degree(diagonal, 0) is None

    def test_blocks_beyond_ssize_t(self):
        # (r - 2^66)(r - 2^67)(r - 2^68): its derivative changes sign between
        # the roots, beyond 2^63, so the monotone blocks split there too
        a, b, c = 2**66, 2**67, 2**68
        diagonal = [-a * b * c, a * b + a * c + b * c, -(a + b + c), 1]
        assert first_positive_uniform_degree(diagonal, 2**70) == a + 1


class TestElementaryShiftRows:
    def test_flagship_rows(self):
        # e2 - 17 e1 + 15 at d = r + t: (r^2 - 34 r + 15) + (r - 17) e1(t) + e2(t)
        rows = shift_rows(ElementaryClass.from_row(2, [15, -17, 1]))
        assert rows == {(0, 0): [15, -34, 1], (1, 0): [-17, 1], (1, 1): [1]}
        assert next(iter(rows)) == (0, 0)

    def test_rows_are_the_expanded_table(self):
        # the shift of the difference expanded in d has exactly the squarefree
        # keys, and each key of weight i carries the row at mu = (1^i)
        for n in range(1, 5):
            for N in range(2 * n, 2 * n + 7):
                c = N - n
                for a in range(6):
                    coefficients = [morse_coeff(N, n, a, j) for j in range(n + 1)]
                    difference = ElementaryClass.from_row(c, coefficients)
                    table = taylor_shift(recombine_elementary(difference).terms)
                    rows = shift_rows(difference)
                    squarefree = {k for k in itertools.product((0, 1), repeat=c) if sum(k) <= n}
                    assert set(table) == squarefree, (N, n, a)
                    assert next(iter(rows)) == (0,) * c, (N, n, a)
                    assert set(rows) == {(1,) * i + (0,) * (c - i) for i in range(n + 1)}, (N, n, a)
                    assert all(row == rows[tuple(sorted(key, reverse=True))] for key, row in table.items()), (N, n, a)


class TestDegreeBounds:
    def test_surface_values(self):
        assert surface_degree_bound(4, 4) == 34
        assert surface_degree_bound(5, 5) == 21
        assert surface_degree_bound(10, 0) == Fraction(22, 7)

    def test_surface_validity_floor(self):
        with pytest.raises(ValueError):
            surface_degree_bound(3, 0)

    def test_rough_curve_case(self):
        for N in (2, 3, 5, 9):
            for a in (0, 2, 7):
                assert rough_degree_bound(N, 1, a) == Fraction(a + N + 1, N - 1)

    def test_rough_requires_small_dimension(self):
        with pytest.raises(ValueError):
            rough_degree_bound(5, 3, 0)

    def test_rough_exact_value(self):
        # n=2, N=6, a=0: (2*2*(4/7)*3 + 1) * 2 * (8!*2!)/(6!*4!)
        first = Fraction(2 * 2 * 4, 7) * 3 + 1
        ratio = Fraction(math.factorial(8) * math.factorial(2), math.factorial(6) * math.factorial(4))
        assert rough_degree_bound(6, 2, 0) == first * 2 * ratio

    def test_limit_constant(self):
        assert rough_bound_limit(2) == 96
        assert rough_bound_limit(1) == 1 * 1 * 1 * 1

    def test_shifted_sequence_monotone_above_limit(self):
        values = [rough_degree_bound(N, 2, N) for N in range(4, 101)]
        assert all(prev > cur for prev, cur in zip(values, values[1:]))
        assert all(v > 96 for v in values)

    def test_main_dispatch(self, capsys):
        # the main theorem's threshold is `bound` at the twist shifted by N:
        # the sharpened form for surfaces, the rough form otherwise
        def gamma(N, n, a, method):
            argv = ["bound", "--N", str(N), "--n", str(n), "--a", str(a), "--method", method, "--format", "json"]
            assert cli.main(argv) == 0
            return Fraction(json.loads(capsys.readouterr().out)["gamma"])

        assert gamma(4, 2, 0 + 4, "dim2") == 34
        assert gamma(5, 2, 0 + 5, "dim2") == 21
        assert gamma(6, 3, 0 + 6, "rough") == rough_degree_bound(6, 3, 6)

    def test_rough_dominates_surface(self):
        for N in range(4, 13):
            for a in range(0, 7):
                assert rough_degree_bound(N, 2, a) >= surface_degree_bound(N, a)


class TestClosedFormPolynomial:
    def test_flagship_polynomial(self):
        poly = morse_in_d(4, 2, 4)
        e1, e2 = elementary(2, 1), elementary(2, 2)
        assert poly == e2 - e1 * 17 + 15

    def test_surface_positive_at_surface_bound(self):
        for N in range(4, 13):
            for a in range(0, 7):
                poly = morse_in_d(N, 2, a)
                r = math.ceil(surface_degree_bound(N, a))
                point = (r,) * (N - 2)
                assert poly.eval(point) > 0


def test_bound_report_leading_invariant(capsys, monkeypatch):
    # the Morse difference is monic in e_n; bound refuses to report one that is not
    argv = ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", "dim2", "--format", "json"]
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["coefficients"] == ["15", "-17", "1"]
    monkeypatch.setattr(bounds, "morse_coeff", lambda N, n, a, j: [15, -17, 2][j])
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal invariant failed: leading elementary coefficient must be 1\n"
