"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criterion 6 is expected to fail: the equality it states between the dominant
part of the full nef-sum power and the base Segre product is false for the
kappa >= 2 pairs.  The underlying inequality only bounds the former below by
the latter; the distinguished-monomial identity that does hold is verified in
test_jets.py together with the coefficientwise domination.
"""

import pytest

from cipos import chow, selftest
from cipos.polyring import ElementaryClass

# the factors the README quotes under "Known red criterion"
CRITERION_6_DETAIL = (
    "(n,c)=(2,1): 44*d1^3 != d1^3; "
    "(n,c)=(3,2): 2096*d1^3*d2^2 + 2096*d1^2*d2^3 != d1^3*d2^2 + d1^2*d2^3"
)


@pytest.mark.parametrize("number", [num for num, *_ in selftest.CRITERIA])
def test_criterion(number):
    result = selftest.run_criterion(number)
    message = f"criterion {number}: {result.name} [{result.seconds:.2f}s] - {result.detail}"
    print(message)
    assert result.passed, message
    if result.limit is not None:
        assert result.seconds < result.limit, (
            f"criterion {number} took {result.seconds:.2f}s, budget {result.limit:.0f}s"
        )


def test_criterion_6_red_detail():
    result = selftest.run_criterion(6)
    assert result.passed is False
    assert result.detail == CRITERION_6_DETAIL


@pytest.mark.parametrize(
    "frame,detail",
    [
        # s_4 at N=7, c=3, twist -2 gains e_2(d): the closed form misses the product
        ((7, 3, -2, 4, 2), "closed form mismatch at N=7 c=3 m=-2 j=4"),
        # s_3 at N=5, c=2, twist 0 gains e_1(d): the twists of it miss the twisted classes
        ((5, 2, 0, 3, 1), "twist mismatch at N=5 c=2 m=-3"),
    ],
)
def test_criterion_1_catches_one_wrong_coefficient(monkeypatch, frame, detail):
    N, c, twist, j, k = frame
    closed_form = chow.segre_elementary

    def off_by_one(params, m):
        classes = closed_form(params, m)
        if (params.N, params.c, m) == (N, c, twist):
            classes[j] += ElementaryClass(c, [(k, 1)])
        return classes

    monkeypatch.setattr(chow, "segre_elementary", off_by_one)
    result = selftest.run_criterion(1)
    assert result.passed is False
    assert result.detail == detail
