"""The constructors, equality and checks of the report records."""

import functools

import pytest

from cipos.chow import ModelParams, segre_elementary
from cipos.vecfields import ChartPoly, UniversalChart, VectorField


class TestModelParams:
    def test_keyword_and_positional_agree(self):
        assert ModelParams(N=5, n=3) == ModelParams(5, 3)
        assert ModelParams(5, 3) != ModelParams(5, 2)
        assert hash(ModelParams(N=5, n=3)) == hash(ModelParams(5, 3))
        assert (ModelParams(5, 3).N, ModelParams(5, 3).n) == (5, 3)

    @pytest.mark.parametrize(
        "N,n,message",
        [(4, 0, "dimension n must be >= 1"), (4, 4, "codimension N - n = 0 must be >= 1"), (3, 5, "= -2 must")],
    )
    def test_ranges_checked(self, N, n, message):
        with pytest.raises(ValueError, match=message):
            ModelParams(N, n)
        with pytest.raises(ValueError, match=message):
            ModelParams(N=N, n=n)

    def test_is_a_tuple_of_its_fields(self):
        assert ModelParams(4, 2) == (4, 2)
        assert tuple(ModelParams(N=4, n=2)) == (4, 2)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ModelParams(5, 3).n = 4

    def test_equal_frames_share_cache_entries(self):
        # a frame-keyed memo, as selftest criterion 7 keeps over the Segre table
        segre_table = functools.cache(lambda params: segre_elementary(params, 0))
        first = segre_table(ModelParams(3, 2))
        assert segre_table(ModelParams(N=3, n=2)) is first
        assert segre_table.cache_info().currsize == 1


class TestVectorField:
    def test_zero_coefficients_dropped(self):
        chart = UniversalChart(2, [1])
        one, zero = chart.monomial({}), ChartPoly(chart)
        field = VectorField(chart, {0: one, 1: zero, 2: one - one})
        assert field.coefficients == {0: one}
        assert VectorField(chart, coefficients={0: one}).coefficients == {0: one}

    def test_defaults_and_equality(self):
        # fields compare by their coefficient tables
        chart = UniversalChart(2, [1])
        one = chart.monomial({})
        assert VectorField(chart).coefficients == {}
        assert VectorField(chart, {0: one}).coefficients == VectorField(chart, {0: one, 1: one - one}).coefficients
        assert VectorField(chart, {0: one}).coefficients != VectorField(chart, {1: one}).coefficients
