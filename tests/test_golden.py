"""Byte-for-byte CLI outputs: every README command (selftest aside, its output
carries timings) and fourteen frames the README misses, in text and JSON, and
the ``--help`` text of every parser at a width of 80 columns.  A golden is a
copy of the program's own output, so each JSON golden is also checked by a
second route: the benchmark's output checks (``perfbench/checks.py``) and the
Morse integrals of ``oracle``.  So are the checks themselves, by their self-test.

Regenerate the files after an intended output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cipos import cli, jets
from cipos.chow import ModelParams

from oracle import morse_on_grid

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

COMMANDS = {
    "segre_N4_n2": ["segre", "--N", "4", "--n", "2", "--twist", "0"],
    "positivity_N4_n2_a0": ["positivity", "--N", "4", "--n", "2", "--a", "0"],
    "bound_dim2": ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", "dim2"],
    "bound_scan": ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", "scan"],
    "bound_rough": ["bound", "--N", "4", "--n", "2", "--a", "4", "--method", "rough"],
    "jet_N4_n2_a4_at_34": ["jet", "--N", "4", "--n", "2", "--a", "4", "--degrees", "34,34"],
    "jet_N4_n2_a4": ["jet", "--N", "4", "--n", "2", "--a", "4"],
    "vecfields_solved_seed7": [
        "vecfields", "verify", "--N", "3", "--degrees", "2,2", "--family", "solved",
        "--samples", "100", "--seed", "7",
    ],
    # four-row Schur determinants with a twist
    "positivity_N8_n4_a2": ["positivity", "--N", "8", "--n", "4", "--a", "2"],
    # a kappa = 3 tower
    "jet_N4_n3_a0_at_7": ["jet", "--N", "4", "--n", "3", "--a", "0", "--degrees", "7"],
    # the kappa = 4 hypersurface
    "jet_N5_n4_a0_at_7": ["jet", "--N", "5", "--n", "4", "--a", "0", "--degrees", "7"],
    # shift rows of a difference that holds 68406 terms when expanded in the 25 degrees
    "bound_N30_n5_a0_scan": ["bound", "--N", "30", "--n", "5", "--a", "0", "--method", "scan"],
    "bound_N12_n3_a2_rough": ["bound", "--N", "12", "--n", "3", "--a", "2", "--method", "rough"],
    # a codimension-3 frame (kappa = 3)
    "jet_N10_n7_a0_at_345": ["jet", "--N", "10", "--n", "7", "--a", "0", "--degrees", "3,4,5"],
    # a negative twist through the Segre product route
    "segre_N7_n3_twist_m2": ["segre", "--N", "7", "--n", "3", "--twist", "-2"],
    # five-row Schur determinants with a twist
    "positivity_N10_n5_a3": ["positivity", "--N", "10", "--n", "5", "--a", "3"],
    # codimension above the dimension, so C(c - k, i - k) != C(n - k, i - k), at a twist above 3
    "positivity_N7_n3_a5": ["positivity", "--N", "7", "--n", "3", "--a", "5"],
    # identically tangent coordinate fields
    "vecfields_tj_N4_seed3": [
        "vecfields", "verify", "--N", "4", "--degrees", "4", "--family", "tj", "--samples", "20", "--seed", "3",
    ],
    # sampled residuals: 40 of the velocity field, 63 of the coefficient-shift fields
    "vecfields_tlambda_N4_seed5": [
        "vecfields", "verify", "--N", "4", "--degrees", "3,2", "--family", "tlambda", "--samples", "20", "--seed", "5",
    ],
    "vecfields_talpha_N3_seed2": [
        "vecfields", "verify", "--N", "3", "--degrees", "2,2", "--family", "talpha", "--samples", "10", "--seed", "2",
    ],
    # wide charts: 432 and 136 variables
    "vecfields_tj_N6_d44": ["vecfields", "verify", "--N", "6", "--degrees", "4,4", "--family", "tj", "--samples", "10"],
    "vecfields_solved_N5_seed11": [
        "vecfields", "verify", "--N", "5", "--degrees", "4", "--family", "solved", "--samples", "20", "--seed", "11",
    ],
    # a wide codimension-2 solved chart: each field completes from both blocks' equations
    "vecfields_solved_N6_d44": [
        "vecfields", "verify", "--N", "6", "--degrees", "4,4", "--family", "solved", "--samples", "10",
    ],
}

# --help has no JSON form; argparse wraps it at the width COLUMNS gives
HELP = {
    "help_cipos": ["--help"],
    "help_segre": ["segre", "--help"],
    "help_positivity": ["positivity", "--help"],
    "help_bound": ["bound", "--help"],
    "help_jet": ["jet", "--help"],
    "help_vecfields": ["vecfields", "--help"],
    "help_vecfields_verify": ["vecfields", "verify", "--help"],
    "help_selftest": ["selftest", "--help"],
}

CASES = [(name, fmt) for name in COMMANDS for fmt in ("text", "json")]


def golden_path(name: str, fmt: str) -> Path:
    return GOLDEN / f"{name}.{'txt' if fmt == 'text' else 'json'}"


def argv_for(name: str, fmt: str) -> list:
    return COMMANDS[name] + ["--format", fmt]


@pytest.mark.parametrize("name,fmt", CASES, ids=[f"{n}-{f}" for n, f in CASES])
def test_matches_golden(capsys, name, fmt):
    code = cli.main(argv_for(name, fmt))
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == golden_path(name, fmt).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", HELP)
def test_help_matches_golden(capsys, monkeypatch, name):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        cli.main(HELP[name])
    assert exited.value.code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_golden_directory_holds_exactly_the_listed_files():
    # an orphan golden that no entry checks, or an entry with no golden, fails here
    listed = [golden_path(n, f).name for n, f in CASES] + [f"{n}.txt" for n in HELP]
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(listed)


# checks.check_tangency has no talpha case: it counts talpha's residuals as
# failures, as for a tangent family
CHECKED = [name for name in COMMANDS if name != "vecfields_talpha_N3_seed2"]


@pytest.mark.parametrize("name", CHECKED)
def test_json_golden_passes_the_benchmark_checks(checks, name):
    args = cli.build_parser().parse_args(COMMANDS[name])
    out = json.loads(golden_path(name, "json").read_text(encoding="utf-8"))
    if args.command == "jet":
        N, n, a = args.N, args.n, args.a
        degrees = [int(d) for d in args.degrees.split(",")] if args.degrees else None
        reference = None
        if checks.kappa_of(n, N - n) >= 2:
            # both sides have total degree <= n, so agreeing on {0..n}^c proves
            # the difference equal to the oracle's
            reference = checks.poly_from_json(out["difference"])
            assert checks.total_degree(reference) <= n
            for point, value in morse_on_grid(N, n, a, checks.segre_values).items():
                assert checks.poly_eval(reference, point) == value, point
        assert checks.check_morse(out, N, n, a, degrees, reference) == []
    elif args.command == "positivity":
        assert checks.check_positivity(out, args.N, args.n, args.a, random.Random(0)) == []
    elif args.command == "vecfields":
        assert checks.check_tangency(out, args.family, args.N, args.samples, args.seed) == []
    elif args.command == "bound":
        assert (out["N"], out["n"], out["a"]) == (args.N, args.n, args.a)
        coefficients, c = map(int, out["coefficients"]), args.N - args.n
        difference = {exps: v for j, v in enumerate(coefficients) if v for exps in checks.elementary_poly(j, c)}
        assert difference == checks.morse_closed_form(args.N, args.n, args.a)
    else:
        N, n = args.N, args.n
        assert (out["N"], out["n"], out["m"]) == (N, n, args.twist)
        assert [j for j, _ in out["classes"]] == list(range(n + 1))
        classes = [checks.poly_from_json(terms) for _, terms in out["classes"]]
        assert all(checks.total_degree(s) <= n for s in classes)
        for point in itertools.product(range(n + 1), repeat=N - n):
            want = checks.segre_values(N, n, args.twist, point)
            assert [checks.poly_eval(s, point) for s in classes] == want, point


def test_benchmark_checker_selftest():
    # every check passes real output and rejects a corrupted copy of it
    script = ROOT / "perfbench" / "checker_selftest.py"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_hooks_into_the_package(tmp_path):
    # perfbench/tracer.py wraps the package by name (it reads
    # polyring.MultidegreePoly and jets.JetClass), and perfbench/make_reference.py
    # writes MorseCertificate.difference.to_json(): a renamed hook fails here,
    # on a jet, a positivity and a vecfields golden and on every reference frame
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    trace = tmp_path / "t.json"
    calls = {}
    for name in ("jet_N4_n2_a4", "positivity_N8_n4_a2", "vecfields_solved_seed7"):
        argv = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--trace", str(trace), *argv_for(name, "json")]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == golden_path(name, "json").read_text(encoding="utf-8")
        calls[name] = json.loads(trace.read_text(encoding="utf-8"))["calls"]
    assert calls["jet_N4_n2_a4"].get("jets.JetClass.__mul__", 0) > 0
    vecfields = calls["vecfields_solved_seed7"]
    assert vecfields.get("vecfields.lie_derivative", 0) > 0 and vecfields.get("vecfields.point_tangency_check", 0) > 0
    reference = json.loads((ROOT / "perfbench" / "reference" / "tower.json").read_text(encoding="utf-8"))
    assert "4,3,0" in reference
    for frame, terms in reference.items():
        N, n, a = map(int, frame.split(","))
        assert jets.morse_certificate(ModelParams(N, n), a).difference.to_json() == terms, frame


def test_stdlib_only_runtime():
    # -I -S: no site-packages and no PYTHONPATH, so any import from outside the
    # standard library fails here; -B writes no bytecode into src/ (-I ignores
    # PYTHONDONTWRITEBYTECODE)
    name = "vecfields_solved_seed7"
    script = f"import sys; sys.path.insert(0, {str(SRC)!r}); from cipos import cli; sys.exit(cli.main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script, *argv_for(name, "json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == golden_path(name, "json").read_text(encoding="utf-8")


if __name__ == "__main__":
    import contextlib
    import io
    import os

    GOLDEN.mkdir(exist_ok=True)
    for name, fmt in CASES:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            cli.main(argv_for(name, fmt))
        golden_path(name, fmt).write_text(buffer.getvalue(), encoding="utf-8")
    os.environ["COLUMNS"] = "80"
    for name, argv in HELP.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.suppress(SystemExit):
            cli.main(argv)
        (GOLDEN / f"{name}.txt").write_text(buffer.getvalue(), encoding="utf-8")
