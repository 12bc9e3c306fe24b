import itertools
import math
import random

import pytest

from cipos import bounds, chow, polyring, schur
from cipos.chow import ModelParams
from cipos.polyring import ElementaryClass, MultidegreePoly, _SparseTerms, recombine_elementary, series_inverse, shift_rows, terms_in_d
from cipos.schur import conjugate, partitions_of, positivity_report, schur_det

from oracle import cascade_threshold, elementary_product, m_in_d, taylor_shift
from test_chow import product_route
from tower_reference import elementary, segre_in_d


class TestPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            partitions_of(-1)

    def test_enumeration(self):
        assert partitions_of(2) == [(2,), (1, 1)]
        assert partitions_of(0) == [()]
        counts = [len(partitions_of(w)) for w in range(9)]
        assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]

    def test_conjugate_examples(self):
        assert conjugate((2,)) == (1, 1)
        assert conjugate((2, 1)) == (2, 1)
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()

    def test_conjugate_involution_and_weight(self):
        for w in range(9):
            for lam in partitions_of(w):
                conj = conjugate(lam)
                assert sum(conj) == sum(lam)
                assert conjugate(conj) == lam


class TestSchurDet:
    CLASSES = [1, 4, 9, 16, 25, 36]

    def test_single_box(self):
        assert schur_det((1,), self.CLASSES) == 4

    def test_row_and_column_of_two(self):
        c = self.CLASSES
        assert schur_det((2,), c) == 9
        assert schur_det((1, 1), c) == 4 * 4 - 9

    def test_empty_partition(self):
        assert schur_det((), self.CLASSES) == 1

    def test_padding_invariance(self):
        # appending zero parts must not change the determinant; compare the
        # stored-parts determinant against an explicitly padded one
        rng = random.Random(6)
        for _ in range(30):
            cs = [1] + [rng.randint(-5, 5) for _ in range(8)]
            for lam in partitions_of(4):
                padded = list(lam) + [0] * (4 - len(lam))
                m = len(padded)
                mat = []
                for i in range(m):
                    row = []
                    for j in range(m):
                        idx = padded[i] + j - i
                        row.append(cs[idx] if 0 <= idx < len(cs) else 0)
                    mat.append(row)
                brute = _brute_det(mat)
                assert schur_det(lam, cs) == brute

    def test_duality_random(self):
        rng = random.Random(12)
        for _ in range(40):
            cs = [rng.randint(-6, 6) for _ in range(8)]
            ss = series_inverse(cs, 8)
            for w in range(9):
                for lam in partitions_of(w):
                    assert schur_det(lam, [1] + cs) == schur_det(conjugate(lam), [1] + ss)

    def test_works_over_chow_ring(self):
        # Chow classes as lists of h-coefficients: the determinant of weight 2
        # is the h^2 coefficient of s_1^2 - s_2
        p = ModelParams(4, 2)
        seg = segre_in_d(p, 0)
        det = schur_det((1, 1), seg)
        expected = seg[1] * seg[1] - seg[2]
        assert det == expected


class TestLeibnizOracle:
    # schur_det skips the minors whose index sum exceeds the weight; compare it
    # with the plain sum over permutations of the Jacobi-Trudi matrix
    @staticmethod
    def _leibniz(parts, classes):
        m = len(parts)

        def entry(i, j):
            idx = parts[i] + j - i
            return classes[idx] if 0 <= idx < len(classes) else 0

        total = 0
        for perm in itertools.permutations(range(m)):
            factors = [entry(i, perm[i]) for i in range(m)]
            if any(isinstance(f, int) and f == 0 for f in factors):
                continue
            inversions = sum(perm[i] > perm[j] for i in range(m) for j in range(i + 1, m))
            total = total + math.prod(factors, start=(-1) ** inversions)
        return total

    @staticmethod
    def _random_poly(rng):
        terms = {(rng.randint(0, 1), rng.randint(0, 1)): rng.randint(-3, 3) for _ in range(2)}
        return MultidegreePoly(2, terms)

    def test_matches_leibniz_sum(self):
        rng = random.Random(2718)
        for w in range(8):
            for lam in partitions_of(w):
                need = (lam[0] + len(lam)) if len(lam) else 1
                # full length, one short, and much too short
                for length in sorted({need, max(1, need - 1), min(2, need), 1}):
                    ints = [1] + [rng.randint(-4, 4) for _ in range(length - 1)]
                    polys = [elementary(2, 0)] + [self._random_poly(rng) for _ in range(length - 1)]
                    for classes in (ints, polys):
                        assert schur_det(lam, classes) == self._leibniz(lam, classes), (lam, classes)

    def test_segre_classes_match_leibniz_sum(self):
        p = ModelParams(8, 4)
        seg = segre_in_d(p, -2)
        for w in range(1, p.n + 1):
            for lam in partitions_of(w):
                assert schur_det(lam, seg) == self._leibniz(lam, seg), lam


def _brute_det(mat):
    n = len(mat)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = 1
        for i in range(n):
            prod *= mat[i][perm[i]]
        total += sign * prod
    return total


class TestDominantDeterminant:
    def test_dominant_commutes_with_det(self):
        # dominant of the determinant equals the determinant of dominants
        # whenever the latter is nonzero
        for N in range(4, 8):
            for n in range(1, N):
                c = N - n
                if c < n:
                    continue
                p = ModelParams(N, n)
                for a in (0, 2):
                    seg = segre_in_d(p, -a)
                    doms = [elementary(c, 0)] + [
                        seg[i].dominant_part() for i in range(1, n + 1)
                    ]
                    for w in range(1, n + 1):
                        for lam in partitions_of(w):
                            det_doms = schur_det(lam, doms)
                            if det_doms == 0 or (
                                hasattr(det_doms, "is_zero") and det_doms.is_zero()
                            ):
                                continue
                            full = schur_det(lam, seg)
                            assert full.dominant_part() == det_doms, (N, n, a, lam)


class TestPositivityReport:
    def test_requires_codimension(self):
        with pytest.raises(ValueError, match="c >= n"):
            positivity_report(ModelParams(4, 3), 0)

    def test_surface_report_contents(self):
        report = positivity_report(ModelParams(4, 2), 0)
        assert [r.partition for r in report.records] == [(1,), (2,), (1, 1)]
        assert all(r.dominant and min(r.dominant.values()) > 0 for r in report.records)
        dominants = [dict(terms_in_d(r.dominant, 2)) for r in report.records]
        assert all(d and min(d.values()) > 0 for d in dominants)
        assert report.threshold == max(r.threshold for r in report.records)
        assert report.threshold > 0

    def test_single_box_dominant(self):
        for N, n, a in ((4, 2, 0), (5, 2, 3), (6, 3, 1)):
            report = positivity_report(ModelParams(N, n), a)
            first = report.records[0]
            assert first.partition == (1,)
            assert first.dominant == {(1,): 1}
            assert dict(terms_in_d(first.dominant, N - n)) == elementary(N - n, 1).terms

    def test_thresholds_sound_on_grid(self):
        for N, n, a in ((4, 2, 0), (5, 2, 1), (6, 3, 0)):
            p = ModelParams(N, n)
            report = positivity_report(p, a)
            twisted = segre_in_d(p, -a)
            for record in report.records:
                poly = schur_det(record.conjugate, twisted)
                base = math.ceil(record.threshold)
                for point in itertools.product((base, base + 1, base + 5), repeat=p.c):
                    assert poly.eval(point) > 0

    def test_runs_without_the_product_route(self, monkeypatch):
        # the report reads the closed-form rows and never expands them in d
        def expanded(*args):
            raise AssertionError("positivity_report expanded the Segre classes in d")

        monkeypatch.setattr(polyring, "terms_in_d", expanded)
        assert positivity_report(ModelParams(8, 4), 1).threshold == 50
        assert positivity_report(ModelParams(7, 3), 5).records[-1].partition == (1, 1, 1)

    def test_classes_are_written_trusted(self, monkeypatch):
        # the shift classes, the Segre classes and the Chern classes the report
        # writes itself skip the validating constructors; only the zero and the
        # unit, which hold no other key, may pass through them
        frames = [(10, 5, 3), (8, 4, 2), (4, 2, 0)]
        expected = [positivity_report(ModelParams(N, n), a) for N, n, a in frames]
        validate, state = _SparseTerms.__init__, ElementaryClass.__init__
        validated = []

        def recording(self, ring, terms=None):
            validate(self, ring, terms)
            if set(map(tuple, terms or {})) - {self._unit_key()}:
                validated.append(dict(terms))

        def stating(self, c, pairs=()):
            pairs = list(pairs)
            state(self, c, pairs)
            if set(self.terms) - {()}:
                validated.append(pairs)

        monkeypatch.setattr(_SparseTerms, "__init__", recording)
        monkeypatch.setattr(ElementaryClass, "__init__", stating)
        reports = [positivity_report(ModelParams(N, n), a) for N, n, a in frames]
        assert validated == []
        assert reports == expected


def d_basis_threshold(poly, c):
    """The threshold read from the class expanded in d: one search over every
    row of its Taylor table, with no orbit rows."""
    table = taylor_shift(poly.terms)
    return bounds.shifted_positivity_threshold([table.pop((0,) * c, []), *table.values()])


class TestElementaryRoute:
    # the report runs on ElementaryClasses, the closed-form Segre classes; the
    # d-basis determinant and threshold over the tests' product route are the
    # second route, for every partition of every frame with n <= c <= 6
    FRAMES = [(n + c, n) for c in range(1, 7) for n in range(1, c + 1)]

    @pytest.mark.parametrize("a", [0, 1, 3])
    def test_determinants_and_thresholds_match_the_d_basis(self, a):
        # the orbit rows themselves are the Taylor rows at sorted keys of the
        # d-basis determinant, the constant row first even when zero
        for N, n in self.FRAMES:
            p = ModelParams(N, n)
            in_d = product_route(p, -a)
            in_e = chow.segre_elementary(p, -a)
            zero = (0,) * p.c
            for weight in range(1, n + 1):
                for lam in partitions_of(weight):
                    conj = conjugate(lam)
                    graded_d, graded_e = schur_det(conj, in_d), schur_det(conj, in_e)
                    assert recombine_elementary(graded_e) == graded_d, (N, n, a, lam)
                    table = taylor_shift(graded_d.terms)
                    expected = {zero: table.get(zero, [])}
                    expected.update((key, row) for key, row in table.items() if list(key) == sorted(key, reverse=True))
                    rows = shift_rows(graded_e)
                    assert rows == expected and next(iter(rows)) == zero, (N, n, a, lam)
                    threshold = bounds.shifted_positivity_threshold(list(rows.values()))
                    assert threshold == d_basis_threshold(graded_d, p.c), (N, n, a, lam)

    @pytest.mark.parametrize("a", [0, 1])
    def test_dominant_parts_in_m_basis_match_the_d_basis(self, a, monkeypatch):
        # each record keeps its dominant part as m_lam coefficients, the r^0
        # entries of the top-weight shift rows; written in d (by the engine and
        # by the oracle) they are recombine_elementary of the dominant part of
        # the recorded class term for term, on every frame with n <= c <= 7, and
        # the r^0 entries of all rows are the whole class in the m basis.
        # All m_lam coefficients are positive exactly when all d-coefficients
        # are, for the dominant parts and for the whole classes, whose lower
        # parts have both signs
        read = []

        def recording(x):
            rows = polyring.shift_rows(x)
            read.append((x, rows))
            return rows

        monkeypatch.setattr(schur, "shift_rows", recording)
        signs = set()
        for c in range(1, 8):
            for n in range(1, c + 1):
                read.clear()
                report = positivity_report(ModelParams(n + c, n), a)
                assert len(read) == len(report.records)
                dominant = [(x.dominant_part(), record.dominant) for (x, _), record in zip(read, report.records)]
                assert [m for _, m in dominant] == [polyring.m_coefficients(top) for top, _ in dominant]
                whole = [(x, {tuple(filter(None, mu)): g[0] for mu, g in rows.items() if g and g[0]})
                         for x, rows in read]
                for x, m in dominant + whole:
                    in_d = dict(terms_in_d(m, x.ring))
                    assert in_d == recombine_elementary(x).terms == m_in_d(m, x.ring), (n, c, a)
                    positive = all(v > 0 for v in m.values())
                    assert positive == all(v > 0 for v in in_d.values()), (n, c, a, x.terms)
                    signs.add(positive)
        assert signs == {True, False}

    def test_zero_diagonal_has_no_threshold_on_either_route(self):
        # e_1^2 - 3 e_2 in three variables is sum d_i^2 - e_2, zero on the diagonal
        x = ElementaryClass(3, [((1, 1), 1), (2, -3)])
        # the constant row comes first even when it is zero
        assert next(iter(shift_rows(x).items())) == ((0, 0, 0), [])
        routes = (
            lambda: bounds.shifted_positivity_threshold(list(shift_rows(x).values())),
            lambda: d_basis_threshold(recombine_elementary(x), 3),
        )
        for route in routes:
            with pytest.raises(ArithmeticError, match="no shifted-positivity threshold"):
                route()


class TestOrbitRows:
    def test_rows_are_the_taylor_rows_of_the_expanded_class(self):
        # every e_lam of weight <= 6 in c <= 7 variables (zero when a part
        # exceeds c): its orbit rows are, row for row, the Taylor rows at sorted
        # exponents of the class multiplied out over 0-1 subsets, the constant
        # row first
        for c in range(1, 8):
            zero = (0,) * c
            for weight in range(7):
                for factors in partitions_of(weight):
                    table = taylor_shift(elementary_product(factors, c))
                    expected = {zero: table.get(zero, [])}
                    expected.update((key, row) for key, row in table.items() if list(key) == sorted(key, reverse=True))
                    rows = shift_rows(ElementaryClass(c, [(factors, 1)]))
                    assert rows == expected and next(iter(rows)) == zero, (factors, c)


class TestThresholdIsTheShiftSearch:
    # every threshold is the least r the shift test certifies, for every class
    SWEEP = [(N, n, a) for N in range(2, 13) for n in range(1, N // 2 + 1) for a in (0, 1, 2, 5)]

    def test_never_above_the_cascade(self):
        # where a class is linear in the e_k the derivative cascade also applies;
        # the shift search is exact, so it never lands above the cascade's ceiling
        linear = below = 0
        for N, n, a in self.SWEEP:
            p = ModelParams(N, n)
            twisted = chow.segre_elementary(p, -a)
            for record in positivity_report(p, a).records:
                graded = schur_det(record.conjugate, twisted)
                if any(len(lam) > 1 for lam in graded.terms):
                    continue
                coeffs = {sum(lam): v for lam, v in graded.terms.items()}
                cascade = math.ceil(cascade_threshold(coeffs.items(), p.c, max(coeffs)))
                assert record.threshold <= cascade, (N, n, a, record.partition)
                linear += 1
                below += record.threshold < cascade
        assert (linear, below) == (364, 346)

    @pytest.mark.parametrize(
        "N,n,a,D",
        [
            (4, 2, 0, 9), (4, 2, 1, 14), (6, 2, 0, 4), (6, 2, 1, 5), (6, 3, 0, 17), (7, 3, 0, 8), (8, 4, 0, 27),
            (8, 4, 1, 50), (9, 4, 1, 23), (10, 5, 0, 41), (10, 5, 1, 76), (11, 5, 0, 19), (12, 6, 0, 57),
            (12, 6, 1, 108),
        ],
    )
    def test_D_is_exact_on_the_diagonal(self, N, n, a, D):
        # evaluation is a ring map: the classes at a point are the determinants
        # of the Segre classes' values there
        p = ModelParams(N, n)
        report = positivity_report(p, a)
        assert report.threshold == D
        segre = segre_in_d(p, -a)

        def values(r):
            at = [s.eval((r,) * p.c) for s in segre]
            return [schur_det(record.conjugate, at) for record in report.records]

        assert min(values(D)) > 0
        assert min(values(D - 1)) <= 0
