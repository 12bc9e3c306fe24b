"""Output checks for the cipos benchmark, computed apart from the program.

Nothing here imports cipos.  Polynomials arrive as the program's JSON term
lists and are evaluated in plain ints; every expected value comes from a
closed form or an independent numeric route:

- Segre classes from the product formula, expanded numerically at integer
  degrees, and Schur determinants by fraction-free (Bareiss) elimination of
  the Jacobi-Trudi matrix over those integers;
- first-order Morse differences (kappa = 1) from the closed form in the
  elementary symmetric basis, and for surfaces from the explicit coefficients.

Each check returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

Poly = dict  # exponent tuple -> nonzero int coefficient


def poly_from_json(terms) -> Poly:
    out: Poly = {}
    for item in terms:
        exps = tuple(int(e) for e in item["exps"])
        coeff = int(item["coeff"])
        if exps in out or coeff == 0:
            raise ValueError(f"malformed term list at {exps}")
        out[exps] = coeff
    return out


def poly_eval(poly: Poly, point) -> int:
    total = 0
    for exps, coeff in poly.items():
        value = coeff
        for x, e in zip(point, exps):
            value *= x**e
        total += value
    return total


def total_degree(poly: Poly) -> int:
    return max((sum(e) for e in poly), default=-1)


def is_symmetric(poly: Poly) -> bool:
    """Every permutation orbit of exponents is present with one coefficient."""
    orbits: dict[tuple, list] = {}
    for exps, coeff in poly.items():
        orbits.setdefault(tuple(sorted(exps)), []).append(coeff)
    for shape, coeffs in orbits.items():
        size = math.factorial(len(shape))
        for count in Counter(shape).values():
            size //= math.factorial(count)
        if len(coeffs) != size or len(set(coeffs)) != 1:
            return False
    return True


def elementary_values(degrees) -> list[int]:
    """e_0 .. e_c of the integer degrees, from prod (1 + d_i x)."""
    e = [1]
    for d in degrees:
        e = [a + d * b for a, b in zip(e + [0], [0] + e)]
    return e


def elementary_poly(j: int, c: int) -> Poly:
    return {tuple(1 if i in s else 0 for i in range(c)): 1 for s in itertools.combinations(range(c), j)}


def segre_values(N: int, n: int, twist: int, degrees) -> list[int]:
    """s_0 .. s_n at integer degrees: the h-series of
    (1 + (1-t)h)^-(N+1) (1 - t h) prod (1 + (d_i - t) h), with t the twist."""
    x = 1 - twist
    series = [math.comb(N + k, k) * (-x) ** k for k in range(n + 1)]
    for factor in [-twist] + [d - twist for d in degrees]:
        series = [series[k] + (factor * series[k - 1] if k else 0) for k in range(n + 1)]
    return series


def bareiss_det(matrix) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = [list(row) for row in matrix]
    size = len(m)
    if size == 0:
        return 1
    sign, prev = 1, 1
    for k in range(size - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def jacobi_trudi(parts, seq) -> int:
    """det(seq[p_i + j - i]), entries outside seq are 0."""
    size = len(parts)

    def entry(i, j):
        idx = parts[i] + j - i
        return seq[idx] if 0 <= idx < len(seq) else 0

    return bareiss_det([[entry(i, j) for j in range(size)] for i in range(size)])


def partitions(weight: int, cap: int | None = None):
    cap = weight if cap is None else cap
    if weight == 0:
        yield ()
        return
    for first in range(min(weight, cap), 0, -1):
        for rest in partitions(weight - first, first):
            yield (first,) + rest


def conjugate(parts) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > i) for i in range(parts[0])) if parts else ()


# -- Morse differences --------------------------------------------------------


def kappa_of(n: int, c: int) -> int:
    return -(-n // c)


def morse_closed_form(N: int, n: int, a: int) -> Poly:
    """First-order Morse difference (n <= c) in the elementary symmetric basis."""
    c = N - n
    out: Poly = {}
    for j in range(n + 1):
        total = 0
        for i in range(n - j + 1):
            weight = 1 if i == 0 else 2**i - i * (2 + a) * 2 ** (i - 1)
            total += (-1) ** i * weight * math.comb(2 * n - 1, i) * math.comb(N + n - i - j, N)
        coeff = (-1) ** (n - j) * total
        if coeff:
            for exps in elementary_poly(j, c):
                out[exps] = coeff
    return out


def surface_form(N: int, a: int) -> Poly:
    """Surfaces: e_2 - (N+1+3a) e_1 + C(N+2,2) + 3a(N+1) - 12(a+1)."""
    c = N - 2
    out: Poly = {}
    for j, coeff in (
        (2, 1),
        (1, -(N + 1) - 3 * a),
        (0, math.comb(N + 2, 2) + 3 * a * (N + 1) - 12 * (a + 1)),
    ):
        if coeff:
            for exps in elementary_poly(j, c):
                out[exps] = coeff
    return out


FLAGSHIP = {(34, 34): 15, (33, 33): -18}  # N=4, n=2, a=4


def check_morse(out: dict, N: int, n: int, a: int, degrees, reference: Poly | None = None) -> list[str]:
    """A `jet` report; kappa >= 2 frames are compared with ``reference``."""
    errors = []
    c = N - n
    kappa = kappa_of(n, c)
    tag = f"jet N={N} n={n} a={a}"
    expect = {"N": N, "n": n, "c": c, "kappa": kappa, "a": a, "m": 3**kappa - 1}
    for key, value in expect.items():
        if out.get(key) != value:
            errors.append(f"{tag}: {key}={out.get(key)!r}, expected {value}")
    try:
        diff = poly_from_json(out["difference"])
    except (KeyError, TypeError, ValueError) as exc:
        return errors + [f"{tag}: unreadable difference ({exc})"]
    if degrees is not None:
        if out.get("evaluated_at") != list(degrees):
            errors.append(f"{tag}: evaluated_at={out.get('evaluated_at')}, expected {list(degrees)}")
        value = poly_eval(diff, degrees)
        if out.get("value") != str(value):
            errors.append(f"{tag}: value={out.get('value')}, polynomial gives {value}")
        if out.get("positive") is not (value > 0):
            errors.append(f"{tag}: positive={out.get('positive')} but value is {value}")
    if not is_symmetric(diff):
        errors.append(f"{tag}: difference is not symmetric in the degrees")
    if total_degree(diff) > n:
        errors.append(f"{tag}: difference has degree {total_degree(diff)} > n={n}")
    if kappa == 1:
        if diff != morse_closed_form(N, n, a):
            errors.append(f"{tag}: difference differs from the closed form")
        if n == 2 and diff != surface_form(N, a):
            errors.append(f"{tag}: difference differs from the surface coefficients")
        if (N, n, a) == (4, 2, 4):
            for point, want in FLAGSHIP.items():
                got = poly_eval(diff, point)
                if got != want:
                    errors.append(f"{tag}: value {got} at {point}, the flagship value is {want}")
    elif reference is None:
        errors.append(f"{tag}: no reference polynomial for kappa={kappa}")
    elif diff != reference:
        errors.append(f"{tag}: difference differs from the stored reference")
    return errors


# -- Schur positivity -------------------------------------------------------------


def check_positivity(report: dict, N: int, n: int, a: int, rng) -> list[str]:
    """A `positivity` report: partitions, dominant parts, thresholds and D."""
    tag = f"positivity N={N} n={n} a={a}"
    c = N - n
    errors = []
    for key, value in {"N": N, "n": n, "c": c, "a": a}.items():
        if report.get(key) != value:
            errors.append(f"{tag}: {key}={report.get(key)!r}, expected {value}")
    records = report.get("records", [])
    want_parts = [p for ell in range(1, n + 1) for p in partitions(ell)]
    if [tuple(r.get("partition", ())) for r in records] != want_parts:
        return errors + [f"{tag}: records do not list every partition of 1..{n} once"]
    thresholds = []
    for record in records:
        lam = tuple(record["partition"])
        conj = tuple(record["conjugate"])
        ell = sum(lam)
        rtag = f"{tag} partition={lam}"
        if conj != conjugate(lam):
            errors.append(f"{rtag}: conjugate {conj} is wrong")
            continue
        try:
            dominant = poly_from_json(record["dominant"])
            threshold = Fraction(record["threshold"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            errors.append(f"{rtag}: unreadable record ({exc})")
            continue
        thresholds.append(threshold)
        if not dominant or any(v <= 0 for v in dominant.values()) or record.get("dominant_positive") is not True:
            errors.append(f"{rtag}: dominant part is not positive")
        if any(sum(e) != ell for e in dominant):
            errors.append(f"{rtag}: dominant part is not homogeneous of degree {ell}")
        for _ in range(3):
            point = [rng.randint(1, 50) for _ in range(c)]
            want = jacobi_trudi(conj, elementary_values(point))
            if poly_eval(dominant, point) != want:
                errors.append(f"{rtag}: dominant part at {point} differs from the e-determinant {want}")
                break
        r = max(1, math.ceil(threshold))
        points = [[r] * c] + [[r + rng.randint(0, 3 * r + 10) for _ in range(c)] for _ in range(3)]
        for point in points:
            det = jacobi_trudi(conj, segre_values(N, n, -a, point))
            if det <= 0:
                errors.append(f"{rtag}: determinant {det} <= 0 at {point}, above threshold {threshold}")
                break
    try:
        D = Fraction(report.get("D"))
    except (TypeError, ValueError, ZeroDivisionError):
        return errors + [f"{tag}: unreadable D={report.get('D')!r}"]
    if thresholds and D != max(thresholds):
        errors.append(f"{tag}: D={D} is not the largest threshold {max(thresholds)}")
    return errors


# -- vector fields ------------------------------------------------------------------


def check_tangency(out: dict, family: str, N: int, samples: int, seed: int) -> list[str]:
    tag = f"vecfields {family} N={N} seed={seed}"
    errors = []
    if out.get("family") != family or out.get("samples") != samples or out.get("seed") != seed:
        errors.append(f"{tag}: report echoes family/samples/seed wrongly")
    residuals = out.get("residuals")
    count = out.get("residual_count")
    if not isinstance(residuals, list) or not isinstance(count, int) or len(residuals) != min(count, 50):
        return errors + [f"{tag}: residual list and count disagree"]
    poles = out.get("pole_orders") or {}
    if family == "tlambda":
        # negative control: the uncorrected velocity field is not tangent
        if count < 1:
            errors.append(f"{tag}: no nonzero residual for a non-tangent field")
        if out.get("identical_vanishing") is not None:
            errors.append(f"{tag}: identical_vanishing must be null")
        return errors
    if out.get("identical_vanishing") is not True:
        errors.append(f"{tag}: identical_vanishing is not true")
    if count != 0:
        errors.append(f"{tag}: {count} nonzero residuals")
    if family == "tj" and (poles.get("z") != 0 or poles.get("a") != 1):
        errors.append(f"{tag}: pole orders {poles}, expected z=0 a=1")
    if family == "solved" and not (isinstance(poles.get("z"), int) and poles["z"] <= N and poles.get("a") == 0):
        errors.append(f"{tag}: pole orders {poles}, expected z<={N} a=0")
    return errors
