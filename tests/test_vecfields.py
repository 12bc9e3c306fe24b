import contextlib
import io
import itertools
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from cipos import cli, selftest, vecfields
from cipos.polyring import ElementaryClass, recombine_elementary
from cipos.vecfields import (
    ChartPoly,
    UniversalChart,
    VectorField,
    _integer_det,
    _monomials_up_to,
    _sample_locus_point,
    coefficient_shift_field,
    coordinate_field,
    defining_equations,
    family_fields,
    lie_derivative,
    point_tangency_check,
    solved_coefficient_field,
    solved_free_slots,
    velocity_field,
)

# a chart polynomial's ring is its chart, and a refusal names both charts
NARROW_AND_WIDE = re.escape(
    "cannot mix ChartPoly operands over different rings: UniversalChart(2, [2]) and UniversalChart(3, [2])"
)


class TestChart:
    def test_variable_inventory(self):
        chart = UniversalChart(2, [1, 2])
        # 2 z's + 2 z''s + 3 linear coefficients + 6 quadratic coefficients
        assert chart.num_vars == 2 + 2 + 3 + 6
        # layout: z1, z2, zp1, zp2, then each block's coefficients by degree,
        # then lexicographically: a1_00 a1_01 a1_10 | a2_00 a2_01 a2_10 a2_02 a2_11 a2_20
        assert [chart.z_index(j) for j in (1, 2)] == [0, 1]
        assert [chart.zp_index(k) for k in (1, 2)] == [2, 3]
        assert [chart.a_index(1, alpha) for alpha in ((0, 0), (0, 1), (1, 0))] == [4, 5, 6]
        block2 = ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
        assert [chart.a_index(2, alpha) for alpha in block2] == list(range(7, 13))

    def test_monomials_against_filtered_product(self):
        for N in range(1, 7):
            for d in range(6):
                oracle = sorted(
                    (alpha for alpha in itertools.product(range(d + 1), repeat=N) if sum(alpha) <= d),
                    key=lambda a: (sum(a), a),
                )
                assert _monomials_up_to(N, d) == oracle, (N, d)

    def test_wide_chart_builds_quickly(self):
        # a chart of 20 coordinates holds C(22, 2) = 231 coefficient slots;
        # enumerating them must not scan the 3^20 candidate exponent vectors
        argv = ["vecfields", "verify", "--N", "20", "--degrees", "2", "--family", "tj", "--samples", "1"]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
        proc = subprocess.run([sys.executable, "-m", "cipos", *argv], env=env, capture_output=True, timeout=20)
        assert proc.returncode == 0 and b"identical vanishing: True" in proc.stdout

    def test_missing_coefficient_rejected(self):
        chart = UniversalChart(2, [1])
        with pytest.raises(ValueError):
            chart.a_index(1, (2, 0))

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            UniversalChart(2, [0])
        with pytest.raises(ValueError):
            UniversalChart(0, [1])

    def test_monomial_checks_its_pairs(self):
        chart = UniversalChart(2, [2])
        a20 = chart.a_index(1, (2, 0))
        # the key is the sorted tuple of the nonzero (index, exponent) pairs
        assert chart.monomial({a20: 1, 0: 2, 1: 0}, -3).terms == {((0, 2), (a20, 1)): -3}
        assert chart.monomial({}, 5).terms == {(): 5}
        assert chart.monomial({0: 1}, 0).is_zero()
        for pairs in ({chart.num_vars: 1}, {-1: 1}, {0: -1}):
            with pytest.raises(ValueError):
                chart.monomial(pairs)


class TestChartPoly:
    def test_derivative(self):
        # a partial derivative is the action of a unit coordinate field
        chart = UniversalChart(2, [1])
        z1, z2 = chart.var(chart.z_index(1)), chart.var(chart.z_index(2))
        p = z1**3 * z2 + 2 * z2
        before = hash(p)

        def partial(index):
            return lie_derivative(VectorField(chart, {index: chart.monomial({})}), p)

        assert partial(chart.z_index(1)) == 3 * z1**2 * z2
        assert partial(chart.z_index(2)) == z1**3 + 2
        assert partial(chart.zp_index(1)).is_zero()
        assert hash(p) == before and p == z1**3 * z2 + 2 * z2
        # an index outside the chart is refused when the field is built
        for index in (-1, chart.num_vars):
            with pytest.raises(ValueError, match=f"variable index {index} out of range"):
                VectorField(chart, {index: chart.monomial({})})

    def test_wide_sparse_against_dense_walk(self):
        # chart polynomials of 157-222 variables, at most 6 nonzero exponents a
        # term, integer coordinates but for a few Fractions over one shared
        # denominator, the way the locus sampler solves the pinned slots
        rng = random.Random(11)
        charts = [UniversalChart(N, degrees) for N, degrees in ((5, [4, 2]), (4, [5, 3]), (6, [3, 3]), (6, [4]))]
        kinds = set()
        for _ in range(40):
            chart = rng.choice(charts)
            width = chart.num_vars
            dense_terms = {}
            for _ in range(rng.randint(1, 12)):
                exps = [0] * width
                for index in rng.sample(range(width), rng.randint(0, 6)):
                    exps[index] = rng.randint(1, 3)
                if coeff := rng.randint(-9, 9):
                    dense_terms[tuple(exps)] = coeff
            p = ChartPoly(chart).add_all(
                chart.monomial({i: e for i, e in enumerate(exps) if e}, coeff) for exps, coeff in dense_terms.items()
            )
            denominator = rng.randint(1, 5) * rng.choice((-1, 1))
            point = [rng.randint(-5, 5) for _ in range(width)]
            for index in rng.sample(range(width), rng.randint(0, 4)):
                point[index] = Fraction(rng.randint(-30, 30), denominator)
            expected = 0
            for exps, coeff in dense_terms.items():
                value = coeff
                for x, e in zip(point, exps):
                    if e:
                        value *= x**e
                expected += value
            value = p.eval(point)
            assert value == expected and type(value) is type(expected)
            kinds.add(type(expected))
        assert kinds == {int, Fraction}
        with pytest.raises(ValueError):
            ChartPoly(UniversalChart(1, [1])).eval((1, 2))


class TestDefiningEquations:
    def test_linear_chart(self):
        chart = UniversalChart(2, [1])
        f, fp = (eqs[0] for eqs in defining_equations(chart))
        assert chart.num_vars == 7
        assert (chart.zp_index(1), chart.a_index(1, (1, 0))) == (2, 6)
        z1, z2, zp1, zp2 = chart.z_index(1), chart.z_index(2), chart.zp_index(1), chart.zp_index(2)
        a00, a01, a10 = (chart.a_index(1, alpha) for alpha in ((0, 0), (0, 1), (1, 0)))
        m = chart.monomial
        assert f == m({z1: 1, a10: 1}) + m({z2: 1, a01: 1}) + m({a00: 1})
        assert fp == m({zp1: 1, a10: 1}) + m({zp2: 1, a01: 1})

    def test_single_quadratic_monomial(self):
        chart = UniversalChart(2, [2])
        f, fp = (eqs[0] for eqs in defining_equations(chart))
        a20 = chart.a_index(1, (2, 0))
        assert f.terms[((chart.z_index(1), 2), (a20, 1))] == 1
        assert fp.terms[((chart.z_index(1), 1), (chart.zp_index(1), 1), (a20, 1))] == 2

    def test_constant_slot_missing_from_derivative(self):
        chart = UniversalChart(3, [2])
        _, fp = defining_equations(chart)
        a0 = chart.a_index(1, (0, 0, 0))
        assert all(a0 not in dict(key) for key in fp[0].terms)

    def test_linearity_in_coefficients(self):
        chart = UniversalChart(3, [3])
        f, fp = (eqs[0] for eqs in defining_equations(chart))
        assert VectorField(chart, {0: f}).a_pole_order == 1
        assert VectorField(chart, {0: fp}).a_pole_order == 1
        assert VectorField(chart, {0: f}).z_pole_order == 3 and VectorField(chart, {0: fp}).z_pole_order == 2


class TestLieDerivative:
    def test_single_direction(self):
        chart = UniversalChart(2, [1])
        z1 = chart.var(chart.z_index(1))
        field = VectorField(chart, {chart.z_index(1): chart.monomial({})})
        assert lie_derivative(field, z1 * z1) == z1 * 2

    def test_zero_field(self):
        chart = UniversalChart(2, [1])
        field = VectorField(chart, {})
        f = defining_equations(chart)[0][0]
        assert lie_derivative(field, f).is_zero()

    def test_linearity(self):
        rng = random.Random(3)
        chart = UniversalChart(2, [2])
        field = coordinate_field(chart, 1)
        for _ in range(10):
            g = chart.var(rng.randrange(chart.num_vars)) * rng.randint(-3, 3)
            h = chart.var(rng.randrange(chart.num_vars)) ** 2
            lhs = lie_derivative(field, g + h)
            assert lhs == lie_derivative(field, g) + lie_derivative(field, h)

    def test_polynomial_of_another_chart_refused(self):
        # the empty field moves no variable, so only the boundary check can see the mix
        narrow, wide = UniversalChart(2, [2]), UniversalChart(3, [2])
        f = wide.equations[0][0]
        for field in (VectorField(narrow, {}), coordinate_field(narrow, 1)):
            with pytest.raises(ValueError, match=NARROW_AND_WIDE):
                lie_derivative(field, f)

    def test_field_coefficient_of_another_chart_refused(self):
        narrow, wide = UniversalChart(2, [2]), UniversalChart(3, [2])
        for coeff in (wide.monomial({}), wide.var(12), ChartPoly(wide)):
            with pytest.raises(ValueError, match=NARROW_AND_WIDE):
                VectorField(narrow, {0: coeff})


class TestChartRing:
    # two charts of 7 variables each: equal widths, different rings
    SEVEN = re.escape(
        "cannot mix ChartPoly operands over different rings: UniversalChart(1, [4]) and UniversalChart(2, [1])"
    )

    def test_equal_width_charts_do_not_mix(self):
        first, second = UniversalChart(1, [4]), UniversalChart(2, [1])
        assert first.num_vars == second.num_vars == 7
        with pytest.raises(ValueError, match=self.SEVEN):
            lie_derivative(coordinate_field(first, 1), second.equations[0][0])
        with pytest.raises(ValueError, match=self.SEVEN):
            VectorField(first, {0: second.monomial({})})
        with pytest.raises(ValueError, match=self.SEVEN):
            first.equations[0][0] + second.equations[0][0]
        with pytest.raises(ValueError, match=self.SEVEN):
            first.var(0) * second.var(0)

    def test_coefficients_that_are_no_chart_polynomial_refused(self):
        chart = UniversalChart(2, [1])
        unit = recombine_elementary(ElementaryClass(chart.num_vars, enumerate([1])))
        for coeff, name in ((unit, "MultidegreePoly"), (1, "int")):
            message = re.escape(f"expected a ChartPoly on UniversalChart(2, [1]), got {name}") + "$"
            with pytest.raises(ValueError, match=message):
                VectorField(chart, {0: coeff})
            with pytest.raises(ValueError, match=message):
                lie_derivative(coordinate_field(chart, 1), coeff)

    def test_only_the_zero_is_built_from_a_chart(self):
        chart = UniversalChart(2, [1])
        zero = ChartPoly(chart)
        assert zero.is_zero() and zero.ring is chart and zero.num_vars == 7
        with pytest.raises(TypeError):
            ChartPoly(chart, {((0, 1),): 1})
        assert repr(chart) == "UniversalChart(2, [1])"


class TestSolvedFamily:
    def test_exact_tangency(self):
        rng = random.Random(17)
        for N in (2, 3, 4):
            for degrees in ([1], [2], [3], [2, 2], [3, 2]):
                chart = UniversalChart(N, degrees)
                eqs, deqs = defining_equations(chart)
                for i in range(1, len(degrees) + 1):
                    data = {alpha: rng.randint(-4, 4) for alpha in solved_free_slots(chart, i)}
                    field = solved_coefficient_field(chart, i, data)
                    assert lie_derivative(field, eqs[i - 1]).is_zero()
                    assert lie_derivative(field, deqs[i - 1]).is_zero()

    def test_completion_formula_by_hand(self):
        # V = 2 d/da01 - d/da20 + 3 d/da11 on f = a00 + a01 z2 + a10 z1 + a02 z2^2 + a11 z1 z2 + a20 z1^2:
        # r0 = V(f) = 2 z2 - z1^2 + 3 z1 z2 and r1 = V(f') = 2 zp2 + 3 (z2 zp1 + z1 zp2) - 2 z1 zp1
        chart = UniversalChart(2, [2])
        z1, z2 = chart.var(chart.z_index(1)), chart.var(chart.z_index(2))
        zp1, zp2 = chart.var(chart.zp_index(1)), chart.var(chart.zp_index(2))
        slot = {alpha: chart.a_index(1, alpha) for alpha in ((0, 0), (1, 0), (0, 1), (0, 2), (1, 1), (2, 0))}
        field = solved_coefficient_field(chart, 1, {(0, 1): 2, (2, 0): -1, (0, 2): 0, (1, 1): 3})
        r0 = z2 * 2 - z1 * z1 + z1 * z2 * 3
        r1 = zp2 * 2 + (z2 * zp1 + z1 * zp2) * 3 - z1 * zp1 * 2
        expected = {
            slot[(0, 1)]: zp1 * 2,
            slot[(2, 0)]: -zp1,
            slot[(1, 1)]: zp1 * 3,
            slot[(1, 0)]: -zp2 * 2 - z2 * zp1 * 3 - z1 * zp2 * 3 + z1 * zp1 * 2,
            slot[(0, 0)]: z1 * zp2 * 2 + z1 * z1 * zp2 * 3 - z1 * z1 * zp1 - z2 * zp1 * 2,
        }
        assert list(field.coefficients) == list(expected)
        assert field.coefficients == expected
        assert expected[slot[(1, 0)]] == -r1 and expected[slot[(0, 0)]] == z1 * r1 - zp1 * r0

    def test_zero_data_gives_zero_field(self):
        chart = UniversalChart(3, [2])
        assert solved_coefficient_field(chart, 1, {}).coefficients == {}

    def test_pole_order_audit(self):
        rng = random.Random(29)
        checked = 0
        while checked < 50:
            N = rng.randint(2, 4)
            d = rng.randint(1, 3)
            chart = UniversalChart(N, [d])
            data = {alpha: rng.randint(-6, 6) for alpha in solved_free_slots(chart, 1)}
            field = solved_coefficient_field(chart, 1, data)
            assert field.z_pole_order <= N
            checked += 1

    def test_rejects_heavy_slots(self):
        chart = UniversalChart(2, [3])
        with pytest.raises(ValueError, match="weight"):
            solved_coefficient_field(chart, 1, {(2, 1): 1})
        with pytest.raises(ValueError, match="pinned"):
            solved_coefficient_field(chart, 1, {(0, 0): 1})
        # a slot of the wrong length is no slot of the block
        with pytest.raises(ValueError, match="not free"):
            solved_coefficient_field(chart, 1, {(1, 0, 0): 1})
        # a block index outside 1..c is refused, never read from the end of the list
        for i in (0, chart.c + 1):
            with pytest.raises(ValueError, match="block index"):
                solved_free_slots(chart, i)
            with pytest.raises(ValueError, match="block index"):
                solved_coefficient_field(chart, i, {})


class TestCoordinateFamily:
    def test_exact_tangency(self):
        for N in (1, 2, 3, 4):
            for degrees in ([1], [3], [2, 2], [3, 3]):
                chart = UniversalChart(N, degrees)
                eqs, deqs = defining_equations(chart)
                for j in range(1, N + 1):
                    field = coordinate_field(chart, j)
                    for g in eqs + deqs:
                        assert lie_derivative(field, g).is_zero()

    def test_two_term_line(self):
        chart = UniversalChart(1, [1])
        field = coordinate_field(chart, 1)
        coeff = field.coefficients[chart.a_index(1, (0,))]
        assert coeff == -chart.var(chart.a_index(1, (1,)))
        f = defining_equations(chart)[0][0]
        assert lie_derivative(field, f).is_zero()

    def test_order_one_in_coefficients(self):
        chart = UniversalChart(3, [3, 2])
        for j in (1, 2, 3):
            assert coordinate_field(chart, j).a_pole_order == 1


class TestShiftFamily:
    def test_zero_profile_is_plain_direction(self):
        chart = UniversalChart(2, [3])
        # with ell = 0 the two readings are one field
        single, spread = coefficient_shift_field(chart, 1, (2, 1), (0, 0))
        target = chart.a_index(1, (2, 1))
        for field in (single, spread):
            assert list(field.coefficients) == [target]
            assert field.coefficients[target] == chart.monomial({})

    def test_single_convention_profile(self):
        chart = UniversalChart(2, [3])
        field, _ = coefficient_shift_field(chart, 1, (2, 1), (1, 1))
        target = chart.a_index(1, (1, 0))
        z1 = chart.var(chart.z_index(1))
        z2 = chart.var(chart.z_index(2))
        assert field.coefficients[target] == (1 + z1) * (1 + z2)

    def test_spread_convention(self):
        chart = UniversalChart(2, [3])
        _, field = coefficient_shift_field(chart, 1, (2, 1), (1, 0))
        assert set(field.coefficients) == {
            chart.a_index(1, (1, 1)),
            chart.a_index(1, (2, 1)),
        }

    def test_requires_window(self):
        chart = UniversalChart(2, [3])
        with pytest.raises(ValueError):
            coefficient_shift_field(chart, 1, (1, 0), (2, 0))
        with pytest.raises(ValueError):
            coefficient_shift_field(chart, 1, (3, 3), (3, 3))


class TestVelocityFamily:
    def test_identity_is_euler(self):
        chart = UniversalChart(2, [2])
        field = velocity_field(chart, [[1, 0], [0, 1]])
        for k in (1, 2):
            assert field.coefficients[chart.zp_index(k)] == chart.var(chart.zp_index(k))

    def test_euler_field_vanishes_on_locus(self):
        chart = UniversalChart(2, [2])
        field = velocity_field(chart, [[1, 0], [0, 1]])
        report = point_tangency_check(field, samples=25, seed=8)
        assert report.nonzero_residuals == []

    def test_singular_matrix_rejected(self):
        chart = UniversalChart(2, [2])
        with pytest.raises(ValueError):
            velocity_field(chart, [[1, 1], [2, 2]])

    def test_zero_pivot_is_swapped(self):
        # a zero in the pivot slot swaps rows, and each swap flips the sign
        assert _integer_det([[0, 1], [1, 0]]) == -1
        assert _integer_det([[0, 2, 1], [1, 0, 0], [0, 1, 3]]) == -5
        chart = UniversalChart(2, [2])
        field = velocity_field(chart, [[0, 1], [1, 0]])
        assert field.coefficients == {
            chart.zp_index(1): chart.var(chart.zp_index(2)),
            chart.zp_index(2): chart.var(chart.zp_index(1)),
        }

    def test_non_integer_entries_refused(self):
        # 1/2 once truncated to 0, which left d/dz'_1 without its z'_1 term
        chart = UniversalChart(2, [1])
        for entry in (Fraction(1, 2), 1.0):
            with pytest.raises(ValueError, match="with int entries"):
                velocity_field(chart, [[entry, 0], [0, 1]])


class TestFamilyFields:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown vector-field family"):
            family_fields(UniversalChart(2, [2]), "tmu", random.Random(0))

    def test_tj_draws_nothing(self):
        # criterion 9 draws tj then solved from one generator, so tj must leave it as it was
        rng = random.Random(3)
        state = rng.getstate()
        fields = family_fields(UniversalChart(3, [2, 2]), "tj", rng)
        assert len(fields) == 3 and rng.getstate() == state

    @pytest.mark.parametrize("N,seed", [(3, 12115), (4, 6757)])
    def test_singular_tlambda_draw_is_drawn_again(self, N, seed):
        # off-diagonal rows reach 3(N-1) against a diagonal as low as 4, and
        # these seeds' first matrix is singular
        rng = random.Random(seed)
        first = [[rng.randint(-3, 3) + 7 * (j == k) for k in range(N)] for j in range(N)]
        assert _integer_det(first) == 0
        (field,) = family_fields(UniversalChart(N, [2]), "tlambda", random.Random(seed))
        assert len(field.coefficients) == N


class TestPointChecks:
    def test_identically_tangent_fields_have_zero_residuals(self):
        chart = UniversalChart(3, [2, 2])
        field = coordinate_field(chart, 3)
        assert point_tangency_check(field, samples=100, seed=1).nonzero_residuals == []
        rng = random.Random(2)
        data = {alpha: rng.randint(-5, 5) for alpha in solved_free_slots(chart, 2)}
        solved = solved_coefficient_field(chart, 2, data)
        assert point_tangency_check(solved, samples=100, seed=3).nonzero_residuals == []

    @pytest.mark.parametrize("N,degrees", [(2, [2]), (3, [3]), (4, [2]), (3, [2, 2]), (4, [3, 1])])
    def test_sampled_points_lie_on_the_locus(self, N, degrees):
        chart = UniversalChart(N, degrees)
        eqs, deqs = defining_equations(chart)
        rng = random.Random(N * 10 + len(degrees))
        for _ in range(20):
            point = _sample_locus_point(chart, rng, eqs, deqs)
            assert [g.eval(point) for g in eqs + deqs] == [0] * (2 * chart.c)

    def test_zero_field_trivially_clean(self):
        chart = UniversalChart(2, [2])
        report = point_tangency_check(VectorField(chart, {}), samples=5, seed=0)
        assert report.nonzero_residuals == [] and report.identically_zero

    def test_equations_built_once_per_verify(self, monkeypatch):
        # the tj family has N fields; all of them share one build of the chart's equations
        calls = []

        def counted(chart):
            calls.append(chart)
            return defining_equations(chart)

        monkeypatch.setattr(vecfields, "defining_equations", counted)
        argv = ["vecfields", "verify", "--family", "tj", "--N", "4", "--degrees", "4", "--samples", "5"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        assert len(calls) == 1

    def test_fields_without_live_actions_draw_no_point(self, monkeypatch):
        class Drew(Exception):
            pass

        def no_draw(*args):
            raise Drew

        monkeypatch.setattr(vecfields, "_sample_locus_point", no_draw)
        chart = UniversalChart(3, [2, 2])
        rng = random.Random(5)
        data = {alpha: rng.randint(-5, 5) for alpha in solved_free_slots(chart, 1)}
        for field in (coordinate_field(chart, 2), solved_coefficient_field(chart, 1, data)):
            report = point_tangency_check(field, samples=50, seed=1)
            assert report.nonzero_residuals == [] and report.identically_zero
        # a field with a live action is still sampled
        broken = dict(coordinate_field(chart, 1).coefficients)
        broken[chart.a_index(1, (0, 0, 0))] *= -1
        with pytest.raises(Drew):
            point_tangency_check(VectorField(chart, broken), samples=1, seed=0)

    def test_criterion_9_samples_the_locus(self, monkeypatch):
        # the criterion checks a field that is tangent only on the locus, so
        # it draws points; with the sampler broken it cannot pass
        class Drew(Exception):
            pass

        def no_draw(*args):
            raise Drew

        monkeypatch.setattr(vecfields, "_sample_locus_point", no_draw)
        with pytest.raises(Drew):
            selftest.run_criterion(9)

    def test_corrupted_field_detected_quickly(self):
        chart = UniversalChart(3, [2, 2])
        field = coordinate_field(chart, 1)
        broken = dict(field.coefficients)
        victim = next(v for v in broken if v != chart.z_index(1))
        broken[victim] = broken[victim] * -1
        report = point_tangency_check(VectorField(chart, broken), samples=10, seed=4)
        assert report.nonzero_residuals and not report.identically_zero

    def test_residuals_are_data_that_the_cli_names(self):
        # a residual is (sample, equation, value), equation e naming f_(e+1)
        # for e < c and f'_(e-c+1) from c on; only cipos.cli writes the line
        chart = UniversalChart(3, [2, 2])
        broken = dict(coordinate_field(chart, 1).coefficients)
        broken[chart.a_index(2, (0, 0, 0))] *= -1
        report = point_tangency_check(VectorField(chart, broken), samples=10, seed=4)
        # the flipped slot a^2_0 is in f2 alone, and f'2 holds no constant slot
        assert [(sample, equation) for sample, equation, _ in report.nonzero_residuals] == [(s, 1) for s in range(10)]
        assert all(value != 0 for _, _, value in report.nonzero_residuals)
        assert cli.residual_line(2, 4, 3, 1, -7) == "field 4: sample 3: T(f2) = -7"
        assert cli.residual_line(2, 0, 0, 2, Fraction(1, 2)) == "field 0: sample 0: T(f'1) = 1/2"

    def test_criterion_9_names_residuals_as_the_cli_does(self, monkeypatch):
        # off the locus f1 * d/dz1 leaves residuals, and the failure names them
        monkeypatch.setattr(vecfields, "_sample_locus_point", lambda chart, rng, eqs, deqs: [1] * chart.num_vars)
        result = selftest.run_criterion(9)
        assert not result.passed
        assert "on the locus: ['field 0: sample 0: T(f1) = " in result.detail
