"""Command-line front end: every computation as a subcommand, text or JSON out.

Each subcommand imports the layers it runs, so a cold process loads only those,
computes its report, then writes it piece by piece (``_emit``).  Every report
is rendered here, in its handler, its text lines next to its JSON document; the
layers return data only.  A small report's JSON is one ``json.dumps`` piece;
``positivity`` streams its document one record per piece, each record joined
from strings, one per term, to the bytes ``json.dumps`` gives for it.  Exit
codes: 0 on success, 1 on an internal invariant failure (or a failing
selftest), 2 on argument or validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys


class _Parser(argparse.ArgumentParser):
    """argparse whose own errors, like every other rejected input, are one
    ``error:`` line on stderr and exit code 2; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _parent() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cipos",
        description="Exact positivity certificates for complete intersections in projective space.",
    )
    common = _parent()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segre", parents=[common], help="Segre classes of the twisted cotangent bundle")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--twist", type=int, default=0)

    p = sub.add_parser("positivity", parents=[common], help="Schur-determinant positivity report")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)

    p = sub.add_parser("bound", parents=[common], help="effective degree threshold")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--method", choices=("rough", "dim2", "scan"), default="rough")
    p.add_argument("--d-max", type=int, default=None, help="scan ceiling (scan method only)")

    p = sub.add_parser("jet", parents=[common], help="Morse bigness certificate on the jet tower")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--degrees", type=str, default=None, help="comma-separated degree vector")

    p = sub.add_parser("vecfields", help="tangent vector fields on the universal chart")
    vsub = p.add_subparsers(dest="action", required=True)
    v = vsub.add_parser("verify", parents=[common])
    v.add_argument("--N", type=int, required=True)
    v.add_argument("--degrees", type=str, required=True, help="comma-separated hypersurface degrees")
    v.add_argument("--family", choices=("solved", "tj", "talpha", "tlambda"), required=True)
    v.add_argument("--samples", type=int, default=100)
    v.add_argument("--seed", type=int, default=0, help="seed for the random fields and sample points")

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance suite")
    p.add_argument("--criteria", type=str, default=None, help="comma-separated criterion numbers")

    return parser


def _emit(args, json_pieces, text_pieces) -> None:
    """Write the rendering that --format selects to stdout or --out.

    Only the selected zero-argument callable runs.  It returns the pieces of
    the rendering, each printed as it comes, so one piece at a time is held.
    print writes the newline apart: unbuffered, a write into a closed pipe is
    cut short silently, and the next one raises BrokenPipeError."""
    pieces = json_pieces() if args.format == "json" else text_pieces()
    if not args.out:
        _print_each(pieces)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            _print_each(pieces, handle)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None


def _print_each(pieces, file=None) -> None:
    for piece in pieces:
        print(piece, file=file)


def _document(payload: dict) -> list[str]:
    """The JSON pieces of a small report: one piece, its whole document."""
    return [json.dumps(payload, indent=2)]


def _json_ints(values, pad: str) -> str:
    """``json.dumps(list(values), indent=2)``, each line after the first
    indented by ``pad``."""
    return json.dumps(list(values), indent=2).replace("\n", "\n" + pad)


def _json_terms(poly, pad: str) -> str:
    """``json.dumps(poly.to_json(), indent=2)`` for a ``MultidegreePoly``, each
    line after the first indented by ``pad``: one string per term, no dict."""
    if not poly.terms:
        return "[]"
    item, field, exp = pad + "  ", pad + "    ", pad + "      "
    opening = f'{item}{{\n{field}"coeff": "'
    middle = f'",\n{field}"exps": [\n{exp}'
    sep = f",\n{exp}"
    closing = f"\n{field}]\n{item}}}"
    terms = [f"{opening}{coeff}{middle}{sep.join(map(str, exps))}{closing}" for exps, coeff in poly.sorted_terms()]
    return "[\n" + ",\n".join(terms) + f"\n{pad}]"


def _json_record(record, pad: str) -> str:
    """The JSON object of a ``schur.PartitionRecord`` as ``json.dumps(...,
    indent=2)`` writes it, each line after the first indented by ``pad``,
    joined from strings field by field."""
    field = pad + "  "
    return (
        f'{{\n{field}"partition": {_json_ints(record.partition, field)},'
        f'\n{field}"conjugate": {_json_ints(record.conjugate, field)},'
        f'\n{field}"dominant": {_json_terms(record.dominant, field)},'
        f'\n{field}"dominant_positive": true,'
        f'\n{field}"threshold": "{record.threshold}"\n{pad}}}'
    )


def _params(N: int, n: int, a: int = 0):
    from .chow import ModelParams

    if a < 0:
        raise ValueError("twist a must be >= 0")
    return ModelParams(N, n)


def _int_list(text: str, option: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} must be a comma-separated integer list") from None


def _cmd_segre(args) -> int:
    from . import chow

    params = _params(args.N, args.n)
    seg = chow.segre_cotangent(params, args.twist)
    head = f"Segre classes, N={params.N} n={params.n} c={params.c} twist={args.twist}"

    def document() -> list[str]:
        classes = [[j, s.to_json()] for j, s in enumerate(seg)]
        return _document({"N": params.N, "n": params.n, "c": params.c, "m": args.twist, "classes": classes})

    _emit(args, document, lambda: [head] + [f"  s_{j} = ({s.text()}) * h^{j}" for j, s in enumerate(seg)])
    return 0


def _cmd_positivity(args) -> int:
    from . import schur

    params = _params(args.N, args.n)
    report = schur.positivity_report(params, args.a)

    def document():
        # the document without its records fixes every other field, in order;
        # each record is one piece, so the document is never held whole
        fields = {"N": params.N, "n": params.n, "c": params.c, "a": args.a, "records": [], "D": str(report.threshold)}
        start, end = json.dumps(fields, indent=2).split(" []")
        yield start + " ["
        last = len(report.records) - 1  # a report has the record of (1,) at least
        for i, record in enumerate(report.records):
            piece = _json_record(record, "    ")
            yield f"    {piece}," if i < last else f"    {piece}"
        yield "  ]" + end

    def text():
        yield f"Numerical positivity, N={params.N} n={params.n} c={params.c} a={args.a}"
        yield f"{'partition':<12} {'threshold':>10}  dominant part"
        for record in report.records:
            yield f"{str(record.partition):<12} {str(record.threshold):>10}  {record.dominant.text()}"
        yield f"sufficient uniform degree D = {report.threshold}"

    _emit(args, document, text)
    return 0


def _cmd_bound(args) -> int:
    from . import bounds

    params = _params(args.N, args.n, args.a)
    N, n, a = args.N, args.n, args.a
    if n > params.c:
        raise ValueError(f"bound requires n <= c, got n={n}, c={params.c}")
    if args.d_max is not None and args.method != "scan":
        raise ValueError("--d-max applies to --method scan only")
    if args.d_max is not None and args.d_max < 1:
        raise ValueError("--d-max must be >= 1")
    if args.method == "dim2" and n != 2:
        raise ValueError("dim2 method requires n = 2")
    coefficients = [bounds.morse_coeff(N, n, a, j) for j in range(n + 1)]
    if coefficients[-1] != 1:
        raise ArithmeticError("leading elementary coefficient must be 1")
    rows = bounds.elementary_shift_rows(coefficients, params.c)
    # the least r >= 1 from which the shift test proves the difference positive on [r, inf)^c
    certified_from = bounds.shifted_positivity_threshold(rows)
    if args.method == "dim2":
        gamma = bounds.surface_degree_bound(N, a)
    elif args.method == "rough":
        gamma = bounds.rough_degree_bound(N, n, a)
    else:
        # the scan succeeds by certified_from, so it never needs to look further
        ceiling = certified_from if args.d_max is None else min(args.d_max, certified_from)
        gamma = bounds.first_positive_uniform_degree(rows[0], ceiling)
    # the explicit bounds are exact rationals; integer degrees compare with the ceiling
    gamma_ceil = None if gamma is None else math.ceil(gamma)
    # "integer degrees >= r" only where the shift test proves it (an upward-closed set)
    if gamma is None:
        threshold_line = "threshold = none"
    elif gamma_ceil >= certified_from:
        threshold_line = f"threshold = {gamma} (integer degrees >= {gamma_ceil})"
    elif args.method == "scan":
        threshold_line = f"threshold = {gamma} (first positive uniform degree; larger degrees not certified)"
    else:
        threshold_line = f"threshold = {gamma} (not certified: positivity from degree {gamma_ceil} on is unproven)"
    payload = {
        "N": N,
        "n": n,
        "a": a,
        "coefficients": [str(v) for v in coefficients],
        "gamma": None if gamma is None else str(gamma),
        "gamma_ceil": gamma_ceil,
        "certified_from": certified_from,
        "method": args.method,
    }
    text = [
        f"Degree bound, N={N} n={n} a={a} method={args.method}",
        "difference coefficients (elementary symmetric basis, ascending): "
        + ", ".join(str(v) for v in coefficients),
        threshold_line,
    ]
    _emit(args, lambda: _document(payload), lambda: text)
    return 0


def _cmd_jet(args) -> int:
    from . import jets

    params = _params(args.N, args.n, args.a)
    degrees = None
    if args.degrees is not None:
        degrees = tuple(_int_list(args.degrees, "--degrees"))
        if len(degrees) != params.c:
            raise ValueError(f"need {params.c} degrees, got {len(degrees)}")
        if min(degrees) < 1:
            raise ValueError(f"degrees must be >= 1, got {list(degrees)}")
    cert = jets.morse_certificate(params, args.a)
    value = None if degrees is None else cert.difference.eval(degrees)

    def text() -> list[str]:
        lines = [
            f"Morse certificate, N={params.N} n={params.n} c={params.c} kappa={params.kappa} a={args.a}",
            f"difference = {cert.difference.text()}",
        ]
        if degrees is not None:
            verdict = "positive (big twist certified)" if value > 0 else "not positive"
            lines.append(f"value at {degrees} = {value} -> {verdict}")
        return lines

    def document() -> list[str]:
        return _document(
            {
                "N": params.N,
                "n": params.n,
                "c": params.c,
                "kappa": params.kappa,
                "a": args.a,
                "m": cert.m,
                "difference": cert.difference.to_json(),
                "evaluated_at": None if degrees is None else list(degrees),
                "value": None if value is None else str(value),
                "positive": None if value is None else value > 0,
            }
        )

    _emit(args, document, text)
    return 0


def _cmd_vecfields(args) -> int:
    import random

    from . import vecfields

    degrees = _int_list(args.degrees, "--degrees")
    if args.samples < 1:
        raise ValueError("--samples must be >= 1")
    chart = vecfields.UniversalChart(args.N, degrees)
    fields = vecfields.family_fields(chart, args.family, random.Random(args.seed))

    reports = [
        vecfields.point_tangency_check(field, samples=args.samples, seed=args.seed + index)
        for index, field in enumerate(fields)
    ]
    identical: bool | None = None
    if args.family in vecfields.TANGENT_FAMILIES:
        identical = all(report.identically_zero for report in reports)
    residuals = [
        f"field {index}: {entry}" for index, report in enumerate(reports) for entry in report.nonzero_residuals
    ]
    payload = {
        "family": args.family,
        "identical_vanishing": identical,
        "residuals": residuals[:50],
        "residual_count": len(residuals),
        "pole_orders": {
            "z": max((f.z_pole_order for f in fields), default=0),
            "a": max((f.a_pole_order for f in fields), default=0),
        },
        "samples": args.samples,
        "seed": args.seed,
    }
    text = [
        f"Vector fields, family={args.family} N={chart.N} degrees={list(chart.degrees)} seed={args.seed}",
        f"identical vanishing: {'n/a' if identical is None else identical}",
        f"nonzero residuals over {args.samples} samples per field: {len(residuals)}",
        f"pole orders: z <= {payload['pole_orders']['z']}, a <= {payload['pole_orders']['a']}",
    ]
    _emit(args, lambda: _document(payload), lambda: text)
    return 1 if identical is False else 0


def _cmd_selftest(args) -> int:
    from . import selftest

    numbers = _int_list(args.criteria, "--criteria") if args.criteria is not None else None
    results = selftest.run_all(numbers)
    payload = {
        "results": [
            {
                "criterion": r.number,
                "name": r.name,
                "passed": r.passed,
                "detail": r.detail,
                "seconds": round(r.seconds, 3),
                "limit": r.limit,
            }
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }

    def line(r) -> str:
        status = "PASS" if r.passed else "FAIL"
        budget = f" (limit {r.limit:.0f}s)" if r.limit else ""
        msg = f" - {r.detail}" if r.detail else ""
        return f"{status} criterion {r.number}: {r.name} [{r.seconds:.2f}s{budget}]{msg}"

    _emit(args, lambda: _document(payload), lambda: [line(r) for r in results])
    return 0 if payload["all_passed"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "segre": _cmd_segre,
        "positivity": _cmd_positivity,
        "bound": _cmd_bound,
        "jet": _cmd_jet,
        "vecfields": _cmd_vecfields,
        "selftest": _cmd_selftest,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at
        # interpreter exit cannot raise a second time (recipe from the
        # documentation of the signal module)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
