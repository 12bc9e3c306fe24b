import contextlib
import io
import random

import pytest

from cipos import cli, vecfields
from cipos.polyring import MultidegreePoly
from cipos.vecfields import (
    UniversalChart,
    VectorField,
    _sample_locus_point,
    coefficient_shift_field,
    coordinate_field,
    defining_equations,
    lie_derivative,
    point_tangency_check,
    solved_coefficient_field,
    solved_free_slots,
    velocity_field,
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
        exps = [0] * chart.num_vars
        exps[0], exps[a20] = 2, 1
        assert chart.monomial({0: 2, a20: 1}, -3) == MultidegreePoly.monomial(chart.num_vars, exps, -3)
        assert chart.monomial({0: 1}, 0).is_zero()
        for pairs in ({chart.num_vars: 1}, {-1: 1}, {0: -1}):
            with pytest.raises(ValueError):
                chart.monomial(pairs)


class TestDefiningEquations:
    def test_linear_chart(self):
        chart = UniversalChart(2, [1])
        f, fp = (eqs[0] for eqs in defining_equations(chart))
        names = ["z1", "z2", "zp1", "zp2", "a1_00", "a1_01", "a1_10"]
        assert chart.num_vars == len(names)
        assert (chart.zp_index(1), chart.a_index(1, (1, 0))) == (2, 6)
        assert f.text(names) == "z1*a1_10 + z2*a1_01 + a1_00"
        assert fp.text(names) == "zp1*a1_10 + zp2*a1_01"

    def test_single_quadratic_monomial(self):
        chart = UniversalChart(2, [2])
        f, fp = (eqs[0] for eqs in defining_equations(chart))
        a20 = chart.a_index(1, (2, 0))
        exps = [0] * chart.num_vars
        exps[a20] = 1
        exps[chart.z_index(1)] = 2
        assert f.coeff(exps) == 1
        exps_fp = [0] * chart.num_vars
        exps_fp[a20] = 1
        exps_fp[chart.z_index(1)] = 1
        exps_fp[chart.zp_index(1)] = 1
        assert fp.coeff(exps_fp) == 2

    def test_constant_slot_missing_from_derivative(self):
        chart = UniversalChart(3, [2])
        _, fp = defining_equations(chart)
        a0 = chart.a_index(1, (0, 0, 0))
        assert all(exps[a0] == 0 for exps in fp[0].terms)

    def test_linearity_in_coefficients(self):
        chart = UniversalChart(3, [3])
        f, fp = (eqs[0] for eqs in defining_equations(chart))
        assert chart.a_degree(f) == 1
        assert chart.a_degree(fp) == 1


class TestLieDerivative:
    def test_single_direction(self):
        chart = UniversalChart(2, [1])
        z1 = chart.var(chart.z_index(1))
        field = VectorField(chart, {chart.z_index(1): MultidegreePoly.one(chart.num_vars)})
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
        field = coefficient_shift_field(chart, 1, (2, 1), (0, 0))
        target = chart.a_index(1, (2, 1))
        assert list(field.coefficients) == [target]
        assert field.coefficients[target] == MultidegreePoly.one(chart.num_vars)

    def test_single_convention_profile(self):
        chart = UniversalChart(2, [3])
        field = coefficient_shift_field(chart, 1, (2, 1), (1, 1), convention="single")
        target = chart.a_index(1, (1, 0))
        z1 = chart.var(chart.z_index(1))
        z2 = chart.var(chart.z_index(2))
        assert field.coefficients[target] == (1 + z1) * (1 + z2)

    def test_spread_convention(self):
        chart = UniversalChart(2, [3])
        field = coefficient_shift_field(chart, 1, (2, 1), (1, 0), convention="spread")
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

    def test_corrupted_field_detected_quickly(self):
        chart = UniversalChart(3, [2, 2])
        field = coordinate_field(chart, 1)
        broken = dict(field.coefficients)
        victim = next(v for v in broken if v != chart.z_index(1))
        broken[victim] = broken[victim] * -1
        report = point_tangency_check(VectorField(chart, broken, family="tj"), samples=10, seed=4)
        assert report.nonzero_residuals and not report.identically_zero
