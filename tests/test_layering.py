"""Importing one layer loads only that layer and the layers below it, and
each subcommand loads only the layers it runs."""

import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def modules_after(statements: str) -> set[str]:
    """Every module name in sys.modules once ``statements`` have run in a fresh interpreter."""
    # -I ignores PYTHONPATH and the user site, -S skips site-packages, so the
    # only cipos on the path is the one under src/; -B, because -I also
    # ignores PYTHONDONTWRITEBYTECODE, keeps bytecode out of src/
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"{statements}\n"
        "print(' '.join(sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def loaded_after(module: str) -> set[str]:
    return {name for name in modules_after(f"import {module}") if name.split(".")[0] == "cipos"}


# subcommand -> (argv, cipos layers it must leave unloaded)
SUBCOMMANDS = {
    "segre": (["segre", "--N", "4", "--n", "2"], {"jets", "schur", "bounds", "vecfields", "selftest"}),
    "positivity": (["positivity", "--N", "4", "--n", "2", "--a", "0"], {"jets", "vecfields", "selftest"}),
    "bound": (["bound", "--N", "4", "--n", "2", "--a", "0"], {"jets", "schur", "vecfields", "selftest"}),
    "jet": (["jet", "--N", "4", "--n", "2", "--a", "0"], {"schur", "bounds", "vecfields", "selftest"}),
    # polyring and vecfields only
    "vecfields": (
        ["vecfields", "verify", "--N", "2", "--degrees", "2", "--family", "tj", "--samples", "2"],
        {"chow", "jets", "schur", "bounds", "selftest"},
    ),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
def test_subcommand_loads_only_its_layers(command):
    argv, forbidden = SUBCOMMANDS[command]
    loaded = modules_after(
        "import contextlib, io\n"
        "from cipos import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    assert "cipos.cli" in loaded
    assert not loaded & {f"cipos.{layer}" for layer in forbidden}
    # dataclasses alone loads inspect, ast, dis and tokenize
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("family", ["tj", "solved"])
def test_identically_tangent_families_load_no_fractions(family):
    # their fields draw no locus point and build no Fraction, so neither
    # fractions nor the decimal module it imports is loaded
    argv = ["vecfields", "verify", "--N", "3", "--degrees", "2", "--family", family, "--samples", "2"]
    loaded = modules_after(
        "import contextlib, io\n"
        "from cipos import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    assert "cipos.vecfields" in loaded
    assert not loaded & {"fractions", "decimal"}


def test_positivity_loads_no_fractions():
    # only the explicit bounds of `bound` build a Fraction; positivity's
    # thresholds are integer shift searches
    argv = ["positivity", "--N", "8", "--n", "4", "--a", "2"]
    loaded = modules_after(
        "import contextlib, io\n"
        "from cipos import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    assert "cipos.bounds" in loaded
    assert not loaded & {"fractions", "decimal"}


def test_polyring_loads_nothing_else():
    assert loaded_after("cipos.polyring") == {"cipos", "cipos.polyring"}


def test_chow_loads_no_higher_layer():
    loaded = loaded_after("cipos.chow")
    assert "cipos.chow" in loaded
    assert not loaded & {"cipos.jets", "cipos.schur", "cipos.vecfields"}


def test_schur_loads_no_json():
    # the positivity report is plain data; only the CLI renders it
    assert "json" not in modules_after("import cipos.schur")
