"""Byte-for-byte CLI outputs: every README command (selftest aside, its output
carries timings) and fourteen frames the README misses, in text and JSON, and
the ``--help`` text of every parser at a width of 80 columns.

Regenerate the files after an intended output change with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from cipos import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

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
