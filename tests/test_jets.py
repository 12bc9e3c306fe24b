import itertools
import math
import random
import tracemalloc

import pytest

from cipos import chow
from cipos.chow import ModelParams
from cipos.jets import JetClass, morse_certificate, nef_sum, reduce_to_base, segre_recursion_coeff
from cipos.bounds import first_positive_uniform_degree, surface_degree_bound
from cipos.polyring import ElementaryClass, MultidegreePoly, recombine_elementary

from oracle import morse_on_grid, taylor_shift
from test_chow import product_route
from tower_reference import (
    base_segre_symbol,
    elementary,
    hyperplane,
    integrate_tower,
    lift,
    morse_in_d,
    nef_tower_class,
    pushforward,
    reduce_reference,
    tautological,
    tower_segre,
    variable,
)

P42 = ModelParams(4, 2)


def diagonal(poly):
    """poly at (r, ..., r) by powers of r: the constant row of its Taylor table."""
    return taylor_shift(poly.terms)[(0,) * poly.num_vars]


def assert_oracle_difference(difference, p, a, checks):
    """``difference`` is the oracle's Morse difference: both have total degree
    <= n, so agreeing on {0..n}^c makes them equal."""
    assert difference.total_degree() <= p.n, (p, a)
    for point, value in morse_on_grid(p.N, p.n, a, checks.segre_values).items():
        assert difference.eval(point) == value, (p, a, point)


def bezout(c):
    return MultidegreePoly(c, {(1,) * c: 1})


class TestJetAlgebra:
    def _random_class(self, rng, p, level):
        cls = JetClass(p, level)
        for _ in range(rng.randint(1, 4)):
            factor = rng.choice(
                [hyperplane(p, level)]
                + [tautological(p, level, i) for i in range(1, level + 1)]
                + [base_segre_symbol(p, level, rng.randint(1, p.n))]
            )
            cls = cls + factor * rng.randint(-3, 3)
        return cls

    def test_ring_laws_with_truncation(self):
        rng = random.Random(8)
        for _ in range(40):
            p = ModelParams(rng.randint(3, 5), rng.randint(2, 2))
            level = rng.randint(1, 2)
            x = self._random_class(rng, p, level)
            y = self._random_class(rng, p, level)
            z = self._random_class(rng, p, level)
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x * (y + z) == x * y + x * z

    def test_truncation_follows_stage_dimensions(self):
        # a key survives the constructor exactly when its base degree
        # h + sum(i * s_i) fits X = stage 0 and, for every level j, the degree
        # of its prefix through u_j fits stage j, of dimension tower_dim(j)
        def fits(p, key, bound):
            n = p.n
            degree = key[0] + sum(i * e for i, e in enumerate(key[1 : n + 1], 1))
            stages = [degree]
            for u in key[n + 1 :]:
                degree += u
                stages.append(degree)
            return all(d <= bound(j) for j, d in enumerate(stages))

        for p, level in ((ModelParams(3, 2), 2), (ModelParams(4, 3), 2), (ModelParams(5, 2), 3)):
            n = p.n
            kept = dropped = borderline = 0
            for h in range(n + 2):
                for s in itertools.product(range(2), repeat=n):
                    for u in itertools.product(range(2 * n + 1), repeat=level):
                        key = (h, *s, *u)
                        expect = fits(p, key, p.tower_dim)
                        assert JetClass(p, level, {key: 3}).terms == ({key: 3} if expect else {}), (p, key)
                        kept += expect
                        dropped += not expect
                        # dropped, yet inside the looser stage bounds n + j*n
                        borderline += not expect and fits(p, key, lambda j: n + j * n)
            assert kept and dropped and borderline, (p, kept, dropped, borderline)

    def test_negative_exponent_rejected(self):
        # a negative exponent would survive the truncation test, whose
        # prefix degrees it lowers; the constructor refuses it instead
        with pytest.raises(ValueError, match="negative exponent"):
            JetClass(P42, 1, {(0, 0, 0, -1): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            JetClass(P42, 0, {(-1, 1, 0): 2})
        # so does a key of the wrong width; a zero coefficient and a key that
        # overflows a stage (h^3 on the surface X) are dropped
        with pytest.raises(ValueError, match="length"):
            JetClass(P42, 1, {(0, 0, 0): 1})
        assert JetClass(P42, 1, {(1, 0, 0, 0): 0, (3, 0, 0, 0): 4, (0, 0, 0, 1): 5}).terms == {(0, 0, 0, 1): 5}

    def test_pushforward_is_linear(self):
        rng = random.Random(9)
        p = ModelParams(4, 2)
        for _ in range(20):
            x = self._random_class(rng, p, 1) * tautological(p, 1, 1)
            y = self._random_class(rng, p, 1)
            assert pushforward(x + y) == pushforward(x) + pushforward(y)


class TestRecursionCoeff:
    def test_diagonal_is_one(self):
        for n in range(1, 7):
            for ell in range(0, 9):
                assert segre_recursion_coeff(n, ell, ell) == 1

    def test_small_values(self):
        assert segre_recursion_coeff(2, 1, 0) == 0
        assert segre_recursion_coeff(3, 2, 0) == 2

    def test_whole_table_is_a_series_coefficient(self):
        # the coefficient is [x^(ell - j)] (1 + x)^-k / (1 - x), k = n - 1 + j:
        # the prefix sums of the coefficients (-1)^i C(k + i - 1, i) of
        # (1 + x)^-k, which are 1, 0, 0, ... at k = 0
        top = 30
        for n in range(1, 11):
            for j in range(top + 1):
                k = n - 1 + j
                inverse = [(-1) ** i * math.comb(k + i - 1, i) if k else int(i == 0) for i in range(top - j + 1)]
                series = list(itertools.accumulate(inverse))
                for ell in range(j, top + 1):
                    assert segre_recursion_coeff(n, ell, j) == series[ell - j], (n, ell, j)

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            segre_recursion_coeff(2, 1, 2)
        with pytest.raises(ValueError):
            segre_recursion_coeff(2, 1, -1)


class TestTowerSegre:
    def test_base_symbol(self):
        assert tower_segre(P42, 0, 2) == base_segre_symbol(P42, 0, 2)

    def test_level_one_first(self):
        got = tower_segre(P42, 1, 1)
        expected = base_segre_symbol(P42, 1, 1) + tautological(P42, 1, 1) * segre_recursion_coeff(2, 1, 0)
        assert got == expected

    def test_index_zero_is_unit(self):
        assert tower_segre(P42, 1, 0) == JetClass(P42, 1) + 1

    def test_negative_index_is_zero(self):
        assert tower_segre(P42, 2, -1).is_zero()

    def test_beyond_dimension_vanishes_at_base(self):
        assert tower_segre(P42, 0, 3).is_zero()


class TestPushforward:
    def test_fiber_rules(self):
        u = tautological(P42, 1, 1)
        assert pushforward(u ** 1) == JetClass(P42, 0) + 1
        assert pushforward(JetClass(P42, 1) + 1).is_zero()
        assert pushforward(u ** 2) == base_segre_symbol(P42, 0, 1)

    def test_projection_formula(self):
        # pullback factors ride along unchanged
        u = tautological(P42, 1, 1)
        h = hyperplane(P42, 1)
        assert pushforward(u * h) == hyperplane(P42, 0)

    def test_base_level_rejected(self):
        with pytest.raises(ValueError):
            pushforward(JetClass(P42, 0) + 1)


class TestReduceToBase:
    # the level-by-level push down the tower against the eager route of
    # tower_reference, its linearity and its memory

    def _random_class(self, rng, p, level):
        # a term of the top degree, up to three more of the top degree or one
        # below, each a product of h, the u_i and base Segre symbols
        generators = [hyperplane(p, level)] + [tautological(p, level, i) for i in range(1, level + 1)]
        cls = JetClass(p, level)
        for drop in [0] + [rng.randint(0, 1) for _ in range(rng.randint(0, 3))]:
            term = JetClass(p, level) + rng.choice([-3, -2, -1, 1, 2, 3])
            degree = p.tower_dim(level) - drop
            while degree > 0:
                i = rng.randint(1, min(degree, p.n)) if rng.random() < 0.25 else 0
                term = term * (base_segre_symbol(p, level, i) if i else rng.choice(generators))
                degree -= max(i, 1)
            cls = cls + term
        return cls

    def test_random_classes_match_reference(self):
        rng = random.Random(15)
        nonzero = 0
        for _ in range(72):
            n = rng.randint(2, 4)
            p = ModelParams(n + rng.randint(1, 3), n)
            x = self._random_class(rng, p, rng.randint(1, 3))
            got = reduce_to_base(x)
            assert recombine_elementary(got) == reduce_reference(x), (p, x.level, x.terms)
            nonzero += not got.is_zero()
        # truncation kills many random products; a third must survive the descent
        assert nonzero >= 24

    def test_cancelling_states_are_dropped(self):
        # the states of x and of -y share each level's dict, where equal
        # states merge and the ones that cancel are dropped; x - x is zero
        rng = random.Random(33)
        both = 0
        for _ in range(48):
            n = rng.randint(2, 4)
            p = ModelParams(n + rng.randint(1, 3), n)
            level = rng.randint(1, 3)
            x, y = self._random_class(rng, p, level), self._random_class(rng, p, level)
            rx, ry = reduce_to_base(x), reduce_to_base(y)
            assert reduce_to_base(x - y) == rx - ry, (p, level)
            assert reduce_to_base(x - x).is_zero()
            both += not (rx.is_zero() or ry.is_zero())
        # a fifth of the pairs must reach the base on both sides
        assert both >= 10

    def test_peak_stays_below_the_integrand(self):
        # one dict of states per level, nothing held for the whole call: the
        # traced peak of reducing the (8,6) Morse integrand stays below the
        # integrand's own size (about 0.5 times it; a memo that keeps every
        # state's result dict until the call ends takes about 3 times)
        p = ModelParams(8, 6)
        top, m = p.tower_dim(p.kappa), 3**p.kappa - 1

        def integrand():
            total = nef_sum(p)
            return total ** (top - 1) * (total - hyperplane(p, p.kappa) * (top * m))

        # an untraced first reduction fills the module caches
        reduce_to_base(integrand())
        tracemalloc.start()
        try:
            x = integrand()
            size = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            reduce_to_base(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - size < size, (peak - size, size)

    def test_morse_integrands_match_reference(self, checks):
        frames = [ModelParams(N, n) for N in range(3, 8) for n in range(1, N)]
        frames = [p for p in frames if 2 <= p.kappa <= 4]
        assert len(frames) == 7
        for p in frames:
            kappa, m = p.kappa, 3**p.kappa - 1
            top = p.tower_dim(kappa)
            total = JetClass(p, kappa).add_all(lift(nef_tower_class(p, i), kappa) for i in range(1, kappa + 1))
            power = total ** (top - 1)
            for a in (0, 2):
                integrand = power * (total - hyperplane(p, kappa) * (top * (m + a)))
                expected = reduce_reference(integrand)
                assert recombine_elementary(reduce_to_base(integrand)) == expected, (p, a)
                assert morse_certificate(p, a).difference == expected, (p, a)
                assert_oracle_difference(expected, p, a, checks)

    # the oracle's recursion takes no power of a class; the frames up to N = 7
    # are checked against it in the test above
    @pytest.mark.parametrize("N,n", [(8, 5), (8, 6), (9, 6), (10, 7)])
    def test_morse_recursion_matches_certificates(self, checks, N, n):
        p = ModelParams(N, n)
        for a in (0, 2):
            assert_oracle_difference(morse_certificate(p, a).difference, p, a, checks)


class TestIntegrate:
    def test_base_hyperplane_power(self):
        assert integrate_tower(hyperplane(P42, 0) ** 2) == bezout(2)

    def test_tautological_top_power(self):
        for N, n in ((3, 2), (4, 2), (5, 3), (6, 2)):
            p = ModelParams(N, n)
            u = tautological(p, 1, 1)
            got = integrate_tower(u ** (2 * n - 1))
            assert got == product_route(p, 0)[n] * bezout(p.c)

    def test_binomial_oracle(self):
        # independent route: expand (u + 2h)^(2n-1) by hand and integrate the
        # base Segre classes in the Chow ring, no tower machinery involved
        for N, n in ((3, 2), (4, 2), (5, 2), (5, 3), (7, 3)):
            p = ModelParams(N, n)
            u = tautological(p, 1, 1)
            h = hyperplane(p, 1)
            got = integrate_tower((u + h * 2) ** (2 * n - 1))
            seg = chow.segre_elementary(p, 0)
            expected = ElementaryClass(p.c)
            for i in range(2 * n):
                idx = 2 * n - 1 - i - (n - 1)
                if idx < 0:
                    continue
                # h^i * s_idx lies in grade i + idx = n, where h^i has coefficient 1
                expected = expected + seg[idx] * (math.comb(2 * n - 1, i) * 2**i)
            assert got == recombine_elementary(chow.integrate(expected)), (N, n)

    def test_frozen_surface_value(self):
        u = tautological(P42, 1, 1)
        h = hyperplane(P42, 1)
        got = integrate_tower((u + h * 2) ** 3)
        e1, e2 = elementary(2, 1), elementary(2, 2)
        assert got == (e2 + e1 - 3) * bezout(2)

    def test_degree_bookkeeping(self):
        # integrals of top-degree classes never exceed total degree N
        rng = random.Random(77)
        for _ in range(40):
            n = rng.randint(2, 3)
            c = rng.randint(1, 3)
            p = ModelParams(n + c, n)
            k = rng.randint(1, min(p.kappa + 1, 3))
            cls = JetClass(p, k) + 1
            budget = p.tower_dim(k)
            while budget > 0:
                choice = rng.randint(0, k + 1)
                if choice == 0:
                    factor = hyperplane(p, k)
                elif choice <= k:
                    factor = tautological(p, k, choice)
                else:
                    i = rng.randint(1, min(budget, p.n))
                    factor = tower_segre(p, k, i)
                    budget -= i - 1
                cls = cls * factor
                budget -= 1
            if cls.is_zero():
                continue
            assert integrate_tower(cls).total_degree() <= p.N


class TestNefClasses:
    def test_first_levels(self):
        assert nef_tower_class(P42, 1) == tautological(P42, 1, 1) + hyperplane(P42, 1) * 2
        p = ModelParams(5, 3)
        expected = (
            tautological(p, 2, 2)
            + tautological(p, 2, 1) * 2
            + hyperplane(p, 2) * 6
        )
        assert nef_tower_class(p, 2) == expected

    def test_total_h_weight_is_geometric_sum(self):
        for n, c in ((2, 1), (3, 1), (4, 1), (5, 2)):
            p = ModelParams(n + c, n)
            kappa = p.kappa
            total = JetClass(p, kappa)
            for i in range(1, kappa + 1):
                total = total + lift(nef_tower_class(p, i), kappa)
            h_key = (1,) + (0,) * (p.n + kappa)
            assert total.terms[h_key] == 3**kappa - 1

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            nef_tower_class(P42, 0)

    def test_nef_sum_is_the_sum_of_the_lifted_classes(self, monkeypatch):
        frames = [ModelParams(N, n) for N in range(2, 11) for n in range(1, N)]
        frames = [p for p in frames if 1 <= p.kappa <= 5]
        assert len(frames) == 41
        # the certificate reads m off the nef sum before it takes the power, the
        # slow part (killed at (6,5)); a unit power keeps every frame cheap
        monkeypatch.setattr(JetClass, "__pow__", lambda x, e: JetClass(x.params, x.level) + 1)
        for p in frames:
            kappa = p.kappa
            total = nef_sum(p)
            lifted = JetClass(p, kappa).add_all(lift(nef_tower_class(p, i), kappa) for i in range(1, kappa + 1))
            # same terms in the same order, so powers of either build the same dicts
            assert list(total.terms.items()) == list(lifted.terms.items()), p
            h_key = (1,) + (0,) * (p.n + kappa)
            u_keys = [tuple(1 if j == p.n + k else 0 for j in range(1 + p.n + kappa)) for k in range(1, kappa + 1)]
            # S^(top-1) builds its dicts in the order of S's terms, and that order
            # fixes the memory jet --N 6 --n 5 holds when the benchmark's tower
            # workload kills it at its deadline, so the peak RSS it reports
            assert list(total.terms) == [u_keys[0], h_key, *u_keys[1:]], p
            assert total.terms[h_key] == morse_certificate(p, 0).m, p
            for k, u_key in enumerate(u_keys, 1):
                # the weight of u_k in oracle.morse_tables
                assert total.terms[u_key] == 3 ** (kappa - k), (p, k)


class TestMorseCertificate:
    def test_flagship_numbers(self):
        cert = morse_certificate(P42, 4)
        assert cert == (2, ElementaryClass.from_row(2, [15, -17, 1]))
        assert cert.difference == recombine_elementary(ElementaryClass.from_row(2, [15, -17, 1]))
        for x in (cert.elementary, cert.difference):
            assert x.eval((34, 34)) == 15
            assert x.eval((33, 33)) == -18

    def test_first_order_closed_form(self):
        for n in range(1, 5):
            for c in range(n, 6):
                N = n + c
                p = ModelParams(N, n)
                for a in (0, 1, N):
                    assert morse_certificate(p, a).difference == morse_in_d(N, n, a)

    def test_second_order_frozen_value(self):
        # hand-computed through both pushforward levels for a surface in P^3:
        # normalized S^4 integral is 44d^2 + 280d - 300, S^3 h integral is 36d,
        # and the certificate subtracts 4 * (8 + a) times the latter
        p = ModelParams(3, 2)
        d = variable(1, 0)
        cert = morse_certificate(p, 0)
        assert (cert.m, cert.difference) == (8, 44 * d**2 - 872 * d - 300)
        assert morse_certificate(p, 1).difference == 44 * d**2 - 872 * d - 36 * 4 * d - 300
        assert first_positive_uniform_degree(diagonal(cert.difference), 100) == 21

    def test_degree_vector_length_checked(self):
        cert = morse_certificate(P42, 4)
        for degrees in ((34,), (34, 34, 34)):
            for difference in (cert.elementary, cert.difference):
                with pytest.raises(ValueError):
                    difference.eval(degrees)

    def test_negative_twist_rejected(self):
        with pytest.raises(ValueError):
            morse_certificate(P42, -1)

    def test_power_at_six_five_squares_the_pinned_classes(self, monkeypatch):
        # at (6, 5), kappa = 5, the certificate raises the nef sum S to
        # tower_dim(5) - 1 = 24 = 8 + 16: the power squares S, S^2 and S^4
        # at once, then S^8 (1266 terms) for seconds, then multiplies S^8 by
        # S^16.  The weights, the truncation of the base (the only stage bound
        # that binds below degree 9) and the powering fix these operands, so a
        # change to them fails here before it moves that slow work
        params = ModelParams(6, 5)
        assert params.tower_dim(params.kappa) - 1 == 24
        assert sorted(nef_sum(params).terms.values()) == [1, 3, 9, 27, 81, 242]
        product = JetClass.__mul__
        operands = []

        class Stop(Exception):
            pass

        def recording(x, y):
            operands.append((len(x.terms), len(y.terms)))
            if len(operands) == 4:
                raise Stop
            return product(x, y)

        monkeypatch.setattr(JetClass, "__mul__", recording)
        with pytest.raises(Stop):
            morse_certificate(params, 0)
        assert operands == [(6, 6), (21, 21), (126, 126), (1266, 1266)]


class TestDegreeScan:
    # the uniform-degree scan of bounds, run on the engine's difference
    def test_flagship_frontier(self):
        assert first_positive_uniform_degree(diagonal(morse_certificate(P42, 4).difference), 40) == 34

    def test_untwisted_frontier(self):
        assert first_positive_uniform_degree(diagonal(morse_certificate(P42, 0).difference), 15) == 10
        assert surface_degree_bound(4, 0) == 10

    def test_exhausted_scan(self):
        assert first_positive_uniform_degree(diagonal(morse_certificate(P42, 4).difference), 33) is None

    def test_frontier_below_surface_bound(self):
        for N in range(4, 9):
            for a in range(0, 5):
                p = ModelParams(N, 2)
                ceiling = math.ceil(surface_degree_bound(N, a))
                frontier = first_positive_uniform_degree(diagonal(morse_certificate(p, a).difference), ceiling)
                assert frontier is not None and frontier <= ceiling


class TestTowerEstimates:
    def test_h_factor_drops_degree(self):
        # a full monomial in tower divisor classes with one hyperplane factor
        rng = random.Random(2024)
        for _ in range(30):
            n = rng.randint(2, 4)
            c = rng.randint(1, 3)
            p = ModelParams(n + c, n)
            k = rng.randint(1, 2)
            cls = hyperplane(p, k)
            for _ in range(p.tower_dim(k) - 1):
                coeffs = [rng.randint(-2, 3) for _ in range(k + 1)]
                gamma = hyperplane(p, k) * coeffs[0]
                for i in range(1, k + 1):
                    gamma = gamma + tautological(p, k, i) * coeffs[i]
                cls = cls * gamma
            value = integrate_tower(cls)
            assert value.total_degree() < p.N

    def test_descent_steps_match_up_to_lower_order(self):
        # each level drop preserves the degree-N part of the distinguished product
        for n, c in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (5, 2), (4, 3)):
            p = ModelParams(n + c, n)
            kappa, b = p.kappa, p.b
            chat = c + n - 1

            def side(level, cpow):
                cls = tower_segre(p, level, b) * tower_segre(p, level, c) ** cpow
                for i in range(1, level + 1):
                    cls = cls * lift(nef_tower_class(p, i), level) ** chat
                return integrate_tower(cls)

            for k in range(1, kappa):
                lhs = side(k, kappa - k - 1)
                rhs = side(k - 1, kappa - k)
                assert (lhs - rhs).total_degree() < p.N, (n, c, k)

    def test_heavy_towers_descend_too(self):
        for n, c in ((5, 1), (6, 1)):
            p = ModelParams(n + c, n)
            kappa, b = p.kappa, p.b
            chat = c + n - 1

            def side(level, cpow):
                cls = tower_segre(p, level, b) * tower_segre(p, level, c) ** cpow
                for i in range(1, level + 1):
                    cls = cls * lift(nef_tower_class(p, i), level) ** chat
                return integrate_tower(cls)

            for k in range(1, kappa):
                assert (side(k, kappa - k - 1) - side(k - 1, kappa - k)).total_degree() < p.N

    def test_distinguished_monomial_dominant_identity(self):
        # the monomial the bigness argument keeps has the same degree-N part
        # as the base Segre product; the full power only dominates it
        for n, c in ((2, 1), (2, 2), (3, 2)):
            p = ModelParams(n + c, n)
            kappa, b = p.kappa, p.b
            bhat, chat = b + n - 1, c + n - 1
            mono = nef_tower_class(p, kappa) ** bhat
            for i in range(1, kappa):
                mono = mono * lift(nef_tower_class(p, i), kappa) ** chat
            lhs = integrate_tower(mono).dominant_part()
            seg = chow.segre_elementary(p, 0)
            rhs = recombine_elementary(chow.integrate(seg[b] * seg[c] ** (kappa - 1))).dominant_part()
            assert lhs == rhs, (n, c)

            total = JetClass(p, kappa)
            for i in range(1, kappa + 1):
                total = total + lift(nef_tower_class(p, i), kappa)
            full = integrate_tower(total ** p.tower_dim(kappa)).dominant_part()
            gap = full - rhs
            assert gap.is_zero() or all(v > 0 for v in gap.terms.values())
