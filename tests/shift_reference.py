"""The Taylor shift of a polynomial in the degrees, kept as the tests' d-basis
oracle.

``taylor_shift(p)`` expands p(r + t_1, ..., r + t_c) once, symbolically in r.
The tests read a diagonal or a shifted-positivity threshold in d from it, and
check the rows that ``cipos.bounds`` and ``cipos.schur`` read straight from the
elementary symmetric basis against it.
"""

import math

from cipos.polyring import MultidegreePoly, _accumulate


def taylor_shift(p: MultidegreePoly) -> dict[tuple[int, ...], list[int]]:
    """The shift by a symbolic r: p(r + t_1, ..., r + t_c) = sum_j g_j(r) t^j.

    Returns {j: [g_j(0), coefficient of r, ...]} for every g_j that is not
    identically zero; each list ends in a nonzero int.  One variable at a
    time (von zur Gathen and Gerhard, ISSAC 1997): exponent e of d_i
    becomes t_i^j r^(e-j) with weight C(e, j), j = 0..e, and equal keys
    merge before the next variable, so shared parts expand once.
    """
    # key: t-exponents of the variables done, then d-exponents of the rest;
    # value: {r-degree: coefficient}.  The j = e part keeps its key and row.
    table = {exps: {0: coeff} for exps, coeff in p.terms.items()}
    for i in range(p.num_vars):
        lower: dict[tuple[int, ...], dict[int, int]] = {}
        for key, row in table.items():
            e = key[i]
            for j in range(e):
                weight, rise = math.comb(e, j), e - j
                target = lower.setdefault(key[:i] + (j,) + key[i + 1 :], {})
                for k, v in row.items():
                    target[k + rise] = target.get(k + rise, 0) + weight * v
        for key, row in lower.items():
            _accumulate(table.setdefault(key, {}), row.items())
    return {j: [row.get(k, 0) for k in range(max(row) + 1)] for j, row in table.items() if row}
