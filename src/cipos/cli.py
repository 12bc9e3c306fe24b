"""Command-line front end: every computation as a subcommand, text or JSON out.

Shared options are declared once, in parent parsers of ``build_parser``, and
each subcommand's parser holds its handler as ``run``.  Each handler imports the
layers it runs, so a cold process loads only those, computes and checks its
whole report, then writes it; only a failed write follows a written byte.
Every report is rendered here, its text lines next to its JSON payload; the
layers return data only.  A class reaches a report as its m_lam coefficients,
and one ``polyring.terms_in_d`` generator, shared by the text lines and the
payload, arranges its terms in d as they are written.  One renderer, ``_json``,
yields every payload as pieces of the bytes ``json.dumps(payload, indent=2)``
gives, one per term (``_json_terms``), and ``_emit`` writes the pieces of
either format in batches, so no document or class in d is held whole.  Exit
codes: 0 on success; 1 on a failed internal invariant, a failing selftest or a
closed pipe; 2 on invalid input or a failed write.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

#: characters per write: unbuffered, each write is a system call
_WRITE_SIZE = 1 << 16


class _Parser(argparse.ArgumentParser):
    """argparse whose own errors, like every other rejected input, are one
    ``error:`` line on stderr and exit code 2; subparsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cipos",
        description="Exact positivity certificates for complete intersections in projective space.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    common.add_argument("--out", metavar="PATH", help="write output to a file instead of stdout")
    frame = argparse.ArgumentParser(add_help=False, parents=[common])
    frame.add_argument("--N", type=int, required=True)
    frame.add_argument("--n", type=int, required=True)
    twisted = argparse.ArgumentParser(add_help=False, parents=[frame])
    twisted.add_argument("--a", type=int, required=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("segre", parents=[frame], help="Segre classes of the twisted cotangent bundle")
    p.set_defaults(run=_cmd_segre)
    p.add_argument("--twist", type=int, default=0)

    p = sub.add_parser("positivity", parents=[twisted], help="Schur-determinant positivity report")
    p.set_defaults(run=_cmd_positivity)

    p = sub.add_parser("bound", parents=[twisted], help="effective degree threshold")
    p.set_defaults(run=_cmd_bound)
    p.add_argument("--method", choices=("rough", "dim2", "scan"), default="rough")

    p = sub.add_parser("jet", parents=[twisted], help="Morse bigness certificate on the jet tower")
    p.set_defaults(run=_cmd_jet)
    p.add_argument("--degrees", type=str, default=None, help="comma-separated degree vector")

    p = sub.add_parser("vecfields", help="tangent vector fields on the universal chart")
    vsub = p.add_subparsers(dest="action", required=True)
    v = vsub.add_parser("verify", parents=[common])
    v.set_defaults(run=_cmd_vecfields)
    v.add_argument("--N", type=int, required=True)
    v.add_argument("--degrees", type=str, required=True, help="comma-separated hypersurface degrees")
    # the families are named in the help: a choice list in the usage line wraps by Python version
    families = ("solved", "tj", "talpha", "tlambda")
    v.add_argument("--family", choices=families, required=True, metavar="FAMILY", help=f"one of {', '.join(families)}")
    v.add_argument("--samples", type=int, default=100)
    v.add_argument("--seed", type=int, default=0, help="seed for the random fields and sample points")

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance suite")
    p.set_defaults(run=_cmd_selftest)
    p.add_argument("--criteria", type=str, default=None, help="comma-separated criterion numbers")

    return parser


def _emit(args, payload, lines) -> None:
    """Write the JSON document of ``payload`` or, under --format text, the
    iterable ``lines``, run only then, to stdout or --out: at most
    ``_WRITE_SIZE`` characters per write and the closing newline apart, since
    unbuffered a write into a closed pipe is cut short silently, and the next
    one raises BrokenPipeError."""
    pieces = _json(payload) if args.format == "json" else _lines(lines)
    if not args.out:
        _write(pieces, sys.stdout)
        return
    try:
        with open(args.out, "w", encoding="utf-8") as handle:
            _write(pieces, handle)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None


def _lines(lines):
    """The lines joined by newlines, one piece each."""
    for i, line in enumerate(lines):
        yield f"\n{line}" if i else line


def _write(pieces, file) -> None:
    """Hold at most ``_WRITE_SIZE`` characters, sent when a piece does not fit."""
    pending = ""
    for piece in pieces:
        if len(pending) + len(piece) > _WRITE_SIZE:
            file.write(pending)
            pending, whole = "", len(piece) - len(piece) % _WRITE_SIZE
            for start in range(0, whole, _WRITE_SIZE):
                file.write(piece[start : start + _WRITE_SIZE])
            piece = piece[whole:]
        pending += piece
    file.write(pending)
    file.write("\n")


def _json(value, pad: str = ""):
    """Yield the pieces of the bytes ``json.dumps(value, indent=2)`` gives for
    nested dicts, lists, tuples and scalars, each line after the first indented
    by ``pad``; any other value is the ordered terms of a class, written by
    ``_json_terms``."""
    inner = pad + "  "
    if isinstance(value, dict):
        opening, items, closing = "{", [(f"{json.dumps(key)}: ", item) for key, item in value.items()], "}"
    elif isinstance(value, (list, tuple)):
        opening, items, closing = "[", [("", item) for item in value], "]"
    elif isinstance(value, (str, int, float)) or value is None:
        yield json.dumps(value)
        return
    else:
        yield from _json_terms(value, pad)
        return
    sep = f"{opening}\n{inner}"
    for key, item in items:
        yield sep + key
        yield from _json(item, inner)
        sep = f",\n{inner}"
    yield f"\n{pad}{closing}" if items else opening + closing


def _json_terms(terms, pad: str):
    """Yield the pieces of the bytes ``json.dumps(..., indent=2)`` gives for
    (exps, coeff) pairs, in the order given, each as ``{"coeff": str, "exps":
    [int, ...]}``, each line after the first indented by ``pad``: one piece per
    term, joined from strings, no dict."""
    item, field, exp = pad + "  ", pad + "    ", pad + "      "
    opening = f'{item}{{\n{field}"coeff": "'
    middle = f'",\n{field}"exps": [\n{exp}'
    sep = f",\n{exp}"
    closing = f"\n{field}]\n{item}}}"
    head = "[\n"
    for exps, coeff in terms:
        yield f"{head}{opening}{coeff}{middle}{sep.join(map(str, exps))}{closing}"
        head = ",\n"
    yield f"\n{pad}]" if head == ",\n" else "[]"


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
    from . import chow, polyring

    params = _params(args.N, args.n)
    seg = [polyring.m_coefficients(s) for s in chow.segre_elementary(params, args.twist)]
    classes = [(j, polyring.terms_in_d(s, params.c)) for j, s in enumerate(seg)]
    head = f"Segre classes, N={params.N} n={params.n} c={params.c} twist={args.twist}"
    payload = {"N": params.N, "n": params.n, "c": params.c, "m": args.twist, "classes": classes}
    lines = (f"  s_{j} = ({polyring.terms_text(terms)}) * h^{j}" for j, terms in classes)
    _emit(args, payload, itertools.chain([head], lines))
    return 0


def _cmd_positivity(args) -> int:
    from . import polyring, schur

    params = _params(args.N, args.n)
    report = schur.positivity_report(params, args.a)
    records = [
        {"partition": lam, "conjugate": conj, "dominant": polyring.terms_in_d(dominant, params.c),
         "dominant_positive": True, "threshold": str(threshold)}
        for lam, conj, dominant, threshold in report.records
    ]
    payload = {"N": params.N, "n": params.n, "c": params.c, "a": args.a, "records": records, "D": str(report.threshold)}

    def text():
        yield f"Numerical positivity, N={params.N} n={params.n} c={params.c} a={args.a}"
        yield f"{'partition':<12} {'threshold':>10}  dominant part"
        for record in records:
            yield f"{str(record['partition']):<12} {record['threshold']:>10}  {polyring.terms_text(record['dominant'])}"
        yield f"sufficient uniform degree D = {report.threshold}"

    _emit(args, payload, text())
    return 0


def _cmd_bound(args) -> int:
    from . import bounds, polyring

    params = _params(args.N, args.n, args.a)
    N, n, a = args.N, args.n, args.a
    if n > params.c:
        raise ValueError(f"bound requires n <= c, got n={n}, c={params.c}")
    if args.method == "dim2" and n != 2:
        raise ValueError("dim2 method requires n = 2")
    coefficients = [bounds.morse_coeff(N, n, a, j) for j in range(n + 1)]
    if coefficients[-1] != 1:
        raise ArithmeticError("leading elementary coefficient must be 1")
    rows = list(polyring.shift_rows(polyring.ElementaryClass._from_row(params.c, coefficients)).values())
    # the least r >= 1 from which the shift test proves the difference positive on [r, inf)^c
    certified_from = bounds.shifted_positivity_threshold(rows)
    if args.method == "dim2":
        gamma = bounds.surface_degree_bound(N, a)
    elif args.method == "rough":
        gamma = bounds.rough_degree_bound(N, n, a)
    else:
        # the diagonal rows[0] is positive at certified_from, so the scan stops there
        gamma = bounds.first_positive_uniform_degree(rows[0], certified_from)
    # the explicit bounds are exact rationals; integer degrees compare with the ceiling
    gamma_ceil = math.ceil(gamma)
    # "integer degrees >= r" only where the shift test proves it (an upward-closed set)
    if gamma_ceil >= certified_from:
        threshold_line = f"threshold = {gamma} (integer degrees >= {gamma_ceil})"
    elif args.method == "scan":
        threshold_line = f"threshold = {gamma} (first positive uniform degree; larger degrees not certified)"
    else:
        threshold_line = f"threshold = {gamma} (not certified: positivity from degree {gamma_ceil} on is unproven)"
    payload = {
        "N": N, "n": n, "a": a, "coefficients": [str(v) for v in coefficients],
        "gamma": str(gamma), "gamma_ceil": gamma_ceil,
        "certified_from": certified_from, "method": args.method,
    }
    text = [
        f"Degree bound, N={N} n={n} a={a} method={args.method}",
        "difference coefficients (elementary symmetric basis, ascending): "
        + ", ".join(str(v) for v in coefficients),
        threshold_line,
    ]
    _emit(args, payload, text)
    return 0


def _cmd_jet(args) -> int:
    from . import jets, polyring

    params = _params(args.N, args.n, args.a)
    degrees = None
    if args.degrees is not None:
        degrees = tuple(_int_list(args.degrees, "--degrees"))
        if len(degrees) != params.c:
            raise ValueError(f"need {params.c} degrees, got {len(degrees)}")
        if min(degrees) < 1:
            raise ValueError(f"degrees must be >= 1, got {list(degrees)}")
    cert = jets.morse_certificate(params, args.a)
    difference = polyring.terms_in_d(polyring.m_coefficients(cert.elementary), params.c)
    value = None if degrees is None else cert.elementary.eval(degrees)

    def text():
        yield f"Morse certificate, N={params.N} n={params.n} c={params.c} kappa={params.kappa} a={args.a}"
        yield f"difference = {polyring.terms_text(difference)}"
        if degrees is not None:
            yield f"value at {degrees} = {value} -> {'positive (big twist certified)' if value > 0 else 'not positive'}"

    payload = {
        "N": params.N, "n": params.n, "c": params.c, "kappa": params.kappa, "a": args.a, "m": cert.m,
        "difference": difference, "evaluated_at": degrees,
        "value": None if value is None else str(value), "positive": None if value is None else value > 0,
    }
    _emit(args, payload, text())
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
    residuals = [residual_line(chart.c, i, *r) for i, report in enumerate(reports) for r in report.nonzero_residuals]
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
    _emit(args, payload, text)
    return 1 if identical is False else 0


def residual_line(c: int, field: int, sample: int, e: int, value) -> str:
    """One ``vecfields.TangencyReport`` residual on a chart of c blocks, as ``field 0: sample 3: T(f'2) = v``."""
    name = f"f{e + 1}" if e < c else f"f'{e - c + 1}"
    return f"field {field}: sample {sample}: T({name}) = {value}"


def _cmd_selftest(args) -> int:
    from . import selftest

    numbers = _int_list(args.criteria, "--criteria") if args.criteria is not None else None
    results = selftest.run_all(numbers)
    payload = {
        "results": [
            {"criterion": r.number, "name": r.name, "passed": r.passed, "detail": r.detail,
             "seconds": round(r.seconds, 3), "limit": r.limit}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }

    def line(r) -> str:
        status = "PASS" if r.passed else "FAIL"
        budget = f" (limit {r.limit:.0f}s)" if r.limit else ""
        msg = f" - {r.detail}" if r.detail else ""
        return f"{status} criterion {r.number}: {r.name} [{r.seconds:.2f}s{budget}]{msg}"

    _emit(args, payload, map(line, results))
    return 0 if payload["all_passed"] else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
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
    except OSError as exc:
        # stdout failed: point it at devnull so the flush at exit cannot raise again (signal module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):  # the reader went away
            sys.exit(1)
        print(f"error: cannot write standard output: {exc.strerror}", file=sys.stderr)
        sys.exit(2)
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
