"""Dev-only oracle: sympy expands p(d_1 + r, ..., d_c + r) and its
r-coefficients must equal ``oracle.taylor_shift``, and, at the sorted
t-exponents, the shift rows the positivity report reads from its classes in
the elementary-symmetric basis.  Covers every graded Schur determinant of the
positivity report at two frames and seeded random polynomials.  The
velocity-field determinant must equal sympy's on seeded integer matrices.
Skipped when sympy is not installed; the runtime itself needs no dependency."""

import random

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.rings import ring  # noqa: E402

from cipos.chow import ModelParams, segre_elementary  # noqa: E402
from cipos.polyring import MultidegreePoly, recombine_elementary, shift_rows  # noqa: E402
from cipos.schur import conjugate, partitions_of, schur_det  # noqa: E402
from cipos.vecfields import _integer_det  # noqa: E402

from oracle import taylor_shift  # noqa: E402


def rows_in_r(items, c):
    """{(t-exponents, r-degree): coefficient} pairs as {t-exponents: coefficient list in r}."""
    rows = {}
    for key, coeff in items:
        rows.setdefault(tuple(key[:c]), {})[key[c]] = int(coeff)
    return {j: [row.get(k, 0) for k in range(max(row) + 1)] for j, row in rows.items()}


def expanded_shift(p):
    """The r-coefficients of expand(p.subs(d_i -> d_i + r))."""
    c = p.num_vars
    d, r = sympy.symbols(f"d1:{c + 1}"), sympy.Symbol("r")
    expr = sympy.Add(*(coeff * sympy.Mul(*(x**e for x, e in zip(d, exps))) for exps, coeff in p.terms.items()))
    shifted = sympy.expand(expr.subs({x: x + r for x in d}, simultaneous=True))
    return rows_in_r(sympy.Poly(shifted, *d, r).as_dict().items(), c) if shifted != 0 else {}


def composed_shift(p):
    """The same substitution in sympy's sparse polynomial ring, fast enough for
    the determinants of weight 5 in five variables."""
    c = p.num_vars
    R, *gens = ring(",".join([f"d{i + 1}" for i in range(c)] + ["r"]), sympy.ZZ)
    lifted = R.from_dict({exps + (0,): coeff for exps, coeff in p.terms.items()})
    return rows_in_r(lifted.compose([(gens[i], gens[i] + gens[c]) for i in range(c)]).items(), c)


@pytest.mark.parametrize("N,n,a", [(8, 4, 2), (10, 5, 3)])
def test_graded_determinants(N, n, a):
    twisted = [recombine_elementary(s) for s in segre_elementary(ModelParams(N, n), -a)]
    for weight in range(1, n + 1):
        for lam in partitions_of(weight):
            graded = schur_det(conjugate(lam), twisted)
            assert taylor_shift(graded.terms) == composed_shift(graded), lam


@pytest.mark.parametrize("N,n,a", [(8, 4, 2), (10, 5, 3)])
def test_orbit_rows(N, n, a):
    # sympy shifts the determinant taken in d over the product route; the rows
    # come from the one taken over the closed-form ElementaryClasses
    in_e = segre_elementary(ModelParams(N, n), -a)
    in_d = [recombine_elementary(s) for s in in_e]
    for weight in range(1, n + 1):
        for lam in partitions_of(weight):
            conj = conjugate(lam)
            rows = composed_shift(schur_det(conj, in_d))
            sorted_keys = {j: row for j, row in rows.items() if list(j) == sorted(j, reverse=True)}
            assert shift_rows(schur_det(conj, in_e)) == sorted_keys, lam


def test_random_polynomials():
    rng = random.Random(71)
    for _ in range(30):
        c = rng.randint(1, 3)
        terms = {tuple(rng.randint(0, 3) for _ in range(c)): rng.randint(-20, 20) for _ in range(rng.randint(0, 6))}
        p = MultidegreePoly(c, terms)
        expected = expanded_shift(p)
        assert taylor_shift(p.terms) == expected
        assert composed_shift(p) == expected


def integer_matrices(rng, size):
    """Seeded size x size int matrices of four shapes: dense, sparse (so zero
    pivots turn up), singular (a row is zero or a combination of two others)
    and the tlambda draw (-3..3 with 7 added on the diagonal)."""
    dense = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
    sparse = [[rng.choice((0, 0, 0, rng.randint(-4, 4))) for _ in range(size)] for _ in range(size)]
    if size:
        sparse[0][0] = 0
    singular = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
    if size == 1:
        singular[0][0] = 0
    elif size > 1:
        p, q, r = (rng.randrange(size) for _ in range(3))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        singular[r] = [a * x + b * y for x, y in zip(singular[p], singular[q])] if r not in (p, q) else [0] * size
    tlambda = [[rng.randint(-3, 3) + 7 * (j == k) for k in range(size)] for j in range(size)]
    return [dense, sparse, singular, tlambda]


def test_integer_determinant():
    rng = random.Random(29)
    for size in range(9):
        for _ in range(6):
            for m in integer_matrices(rng, size):
                expected = sympy.Matrix(size, size, [x for row in m for x in row]).det()
                assert _integer_det(m) == expected, m
