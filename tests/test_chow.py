import json
import math
import random

import pytest

from cipos import cli
from cipos.chow import ModelParams, integrate, segre_elementary
from cipos.polyring import ElementaryClass, MultidegreePoly, recombine_elementary, series_inverse

from oracle import segre_product, series_product, terms_json
from tower_reference import elementary, segre_in_d, variable


def product_route(p, twist):
    """The Segre classes of frame ``p`` by the tests' product formula, in d."""
    variables = [variable(p.c, i) for i in range(p.c)]
    return segre_product(p.N, p.n, twist, elementary(p.c, 0), variables)


class TestModelParams:
    def test_frame(self):
        p = ModelParams(4, 2)
        assert (p.c, p.kappa, p.b) == (2, 1, 2)
        p = ModelParams(3, 2)
        assert (p.c, p.kappa, p.b) == (1, 2, 1)
        p = ModelParams(7, 5)
        assert (p.c, p.kappa, p.b) == (2, 3, 1)

    def test_remainder_range(self):
        for N in range(2, 12):
            for n in range(1, N):
                p = ModelParams(N, n)
                assert 0 < p.b <= p.c
                assert p.n == (p.kappa - 1) * p.c + p.b

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(4, 4)
        with pytest.raises(ValueError):
            ModelParams(4, 0)

    def test_tower_dim(self):
        p = ModelParams(5, 3)
        assert p.tower_dim(0) == 3
        assert p.tower_dim(2) == 7


class TestRing:
    # the tests' truncated Chow ring: classes are lists of h-coefficients,
    # multiplied by the oracle's truncated series products
    def test_truncation(self):
        p = ModelParams(4, 2)
        h, top = [0, 1], [0] * p.n + [1]
        assert series_product(h, top, p.n) == [0] * (p.n + 1)

    def test_unit(self):
        p = ModelParams(4, 2)
        seg = segre_in_d(p, 0)
        assert series_product([1], seg, p.n) == seg

    def test_curve_line_product(self):
        p = ModelParams(3, 1)
        c = p.c
        d1 = variable(c, 0)
        d2 = variable(c, 1)
        prod = series_product([1, d1], [1, d2], p.n)
        assert prod == [1, d1 + d2]

    def test_params_mismatch(self):
        with pytest.raises(ValueError):
            series_product([elementary(2, 0)], [elementary(3, 0)], 2)


class TestIntegrate:
    # integrate multiplies a class by e_c = d1...dc
    def test_bezout(self):
        top = integrate(ElementaryClass(3, enumerate([1])))
        assert top == ElementaryClass(3, [(3, 1)])
        assert recombine_elementary(top) == MultidegreePoly(3, {(1, 1, 1): 1})

    def test_zero_top(self):
        # h^1 on a surface has no h^2 coefficient
        assert integrate(ElementaryClass(2)).is_zero()

    def test_linearity(self):
        x = ElementaryClass(2, [(1, 1)])
        d1d2 = MultidegreePoly(2, {(1, 1): 1})
        assert integrate(x * 3) == integrate(x) * 3
        assert recombine_elementary(integrate(x * 3)) == elementary(2, 1) * d1d2 * 3


class TestSegre:
    def test_first_class_general(self):
        for N in range(2, 8):
            for c in range(1, N):
                p = ModelParams(N, N - c)
                s1 = segre_in_d(p, 0)[1]
                assert s1 == elementary(c, 1) - (N + 1)

    def test_closed_form_examples(self):
        # row j lists the coefficients of e_0..e_j in s_j; at twist 1 on a
        # surface in P^4, G = (1 - h) and e_2(d - 1) = e_2 - e_1 + 1
        p = ModelParams(4, 2)
        for m, rows in ((0, [[1], [-5, 1], [15, -5, 1]]), (1, [[1], [-3, 1], [3, -2, 1]])):
            assert segre_elementary(p, m) == [ElementaryClass(2, enumerate(row)) for row in rows]

    def test_closed_form_range_check(self):
        # e_k vanishes in c variables for k > c, so s_j stops at e_min(j, c)
        for N, n in ((4, 2), (7, 5), (9, 3), (6, 5)):
            p = ModelParams(N, n)
            for m in (-2, 0, 3):
                classes = segre_elementary(p, m)
                assert len(classes) == n + 1 and all(s.ring == p.c for s in classes)
                assert all(len(k) <= 1 and sum(k) <= min(j, p.c) for j, s in enumerate(classes) for k in s.terms)
                assert all(classes[j].terms[(j,) if j else ()] == 1 for j in range(min(n, p.c) + 1))

    def test_closed_form_matches_product_everywhere(self):
        for N in range(2, 9):
            for c in range(1, N):
                p = ModelParams(N, N - c)
                for m in range(-3, 4):
                    assert segre_in_d(p, m) == product_route(p, m), (N, c, m)

    def test_closed_form_matches_product_at_negative_twists(self):
        # the frames and twists of the positivity report: n <= c, N <= 12, a in 0..5
        frames = [(N, n, a) for N in range(2, 13) for n in range(1, N // 2 + 1) for a in range(6)]
        assert len(frames) == 216
        for N, n, a in frames:
            p = ModelParams(N, n)
            assert segre_in_d(p, -a) == product_route(p, -a), (N, n, a)

    def test_dominant_identity_all_twists(self):
        # below the codimension the dominant part is the plain elementary symmetric
        for N in range(2, 8):
            for c in range(1, N):
                p = ModelParams(N, N - c)
                for m in (-2, 0, 1, 3):
                    seg = segre_in_d(p, m)
                    for ell in range(1, min(c, p.n) + 1):
                        dom = seg[ell].dominant_part()
                        assert dom == elementary(c, ell), (N, c, m, ell)

    def test_degree_profile(self):
        # degree of the graded coefficient is ell below c and caps at c above
        p = ModelParams(7, 5)
        seg = segre_in_d(p, 0)
        for ell in range(1, p.n + 1):
            assert seg[ell].total_degree() == min(ell, p.c)


def twisted(base, rank, line):
    """Segre classes of E tensor L from those of E (rank ``rank``, s_0 = 1)
    and the h-coefficient ``line`` of c_1(L):
    s_i(E(L)) = sum_j s_j(E) line^(i-j) C(rank - 1 + i, i - j)."""
    return [
        sum((base[j] * (line ** (i - j) * math.comb(rank - 1 + i, i - j)) for j in range(i + 1)), 0)
        for i in range(len(base))
    ]


class TestTwist:
    # the engine's classes at every twist are the twists of one of them
    def test_first_order_rule(self):
        p = ModelParams(5, 3)
        line = 4
        assert segre_in_d(p, line)[1] == segre_in_d(p, 0)[1] + line * p.n

    def test_matches_direct_expansion(self):
        for N in range(2, 7):
            for c in range(1, N):
                p = ModelParams(N, N - c)
                base = segre_in_d(p, 0)
                for m in range(-3, 4):
                    assert twisted(base, p.n, m) == segre_in_d(p, m)

    def test_twist_composition(self):
        # twisting from any base twist lands on the direct expansion
        for N, n in ((4, 2), (5, 3), (6, 2)):
            p = ModelParams(N, n)
            for m0 in (-2, 1, 3):
                base = segre_in_d(p, m0)
                for m in range(-2, 3):
                    assert twisted(base, n, m - m0) == segre_in_d(p, m), (N, n, m0, m)


def _series_inverse_class(den, params):
    # truncated inverse of a class with unit head: geometric series in (1 - den)
    nil = [0] + [-x for x in den[1:]]
    total, power = [1], [1]
    for _ in range(params.n):
        power = series_product(power, nil, params.n)
        total = [x + y for x, y in zip(total + [0] * params.n, power)]
    return total


class TestChernSegrePairing:
    def test_dual_bundle_route(self):
        # Chern classes of the twisted cotangent bundle computed through the
        # tangent-side product formula pair to 1 against the Segre classes
        for N, n in ((3, 2), (4, 2), (5, 3), (6, 4)):
            p = ModelParams(N, n)
            c = p.c
            for m in (-2, 0, 1):
                seg = segre_in_d(p, m)
                numerator = [(1 - m) ** k * math.comb(N + 1, k) for k in range(p.n + 1)]
                den = [1, -m]
                for i in range(c):
                    den = series_product(den, [1, variable(c, i) - m], p.n)
                tangent_chern = series_product(numerator, _series_inverse_class(den, p), p.n)
                chern = [tangent_chern[i] * (-1) ** i for i in range(p.n + 1)]
                # defining pairing: sum_{i+j=k} (-1)^j c_i s_j = 0 for k >= 1
                for k in range(1, p.n + 1):
                    acc = MultidegreePoly(c)
                    for j in range(k + 1):
                        acc = acc + chern[k - j] * seg[j] * (-1) ** j
                    assert acc.is_zero(), (N, n, m, k)
                # series inversion of the Segre data reproduces the Chern data
                # (the relation is symmetric, so the generic inverter applies)
                inverted = series_inverse(seg[1:], p.n)
                for i in range(1, p.n + 1):
                    assert inverted[i - 1] == chern[i], (N, n, m, i)


class TestDegreeLemmas:
    def _integral(self, p, indices, ell):
        # h^ell * prod s_i with ell + sum(indices) = n lies in the top grade,
        # where h^ell contributes the coefficient 1
        assert ell + sum(indices) == p.n
        seg = segre_elementary(p, 0)
        product = math.prod((seg[i] for i in indices), start=ElementaryClass(p.c, enumerate([1])))
        return recombine_elementary(integrate(product))

    def test_positive_h_power_drops_degree(self):
        rng = random.Random(99)
        for _ in range(120):
            N = rng.randint(3, 8)
            c = rng.randint(1, N - 1)
            p = ModelParams(N, N - c)
            ell = rng.randint(1, p.n)
            left = p.n - ell
            indices = []
            while left > 0:
                take = rng.randint(0, left)
                indices.append(take)
                left -= take
            assert self._integral(p, indices, ell).total_degree() < N

    def test_full_degree_iff_indices_small(self):
        from cipos.schur import partitions_of

        for N in range(3, 9):
            for c in range(1, N):
                p = ModelParams(N, N - c)
                for lam in partitions_of(p.n):
                    if len(lam) > 4:
                        continue
                    value = self._integral(p, list(lam), 0)
                    assert (value.total_degree() == N) == (max(lam) <= c)


@pytest.mark.parametrize(
    "N,n,twist,points",
    # the s_4 of (60,4,3) holds 396,607 terms in 56 variables, about a second
    # per evaluation, so it gets one point; a wrong class of degree <= n is
    # zero at a point drawn from [-10^6, 10^6]^c with probability at most
    # n / (2 10^6 + 1) (Schwartz-Zippel)
    [(40, 3, -2, 30), (60, 4, 3, 1), (100, 2, 0, 30)],
)
def test_wide_frames_match_the_product_values(checks, N, n, twist, points):
    seg = segre_in_d(ModelParams(N, n), twist)
    rng = random.Random(N * 100 + n)
    for _ in range(points):
        point = [rng.randint(-(10**6), 10**6) for _ in range(N - n)]
        assert [s.eval(point) for s in seg] == checks.segre_values(N, n, twist, point), (N, n, twist, point)


def test_segre_table_json_roundtrip(capsys):
    p = ModelParams(4, 2)
    seg = segre_in_d(p, -1)
    assert cli.main(["segre", "--N", "4", "--n", "2", "--twist", "-1", "--format", "json"]) == 0
    table = json.loads(capsys.readouterr().out)
    assert table["N"] == 4 and table["m"] == -1
    assert [j for j, _ in table["classes"]] == list(range(p.n + 1))
    for j, poly_json in table["classes"]:
        assert poly_json == terms_json(seg[j])
