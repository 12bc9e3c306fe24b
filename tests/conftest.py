"""The benchmark's output checks as a fixture, for the tests that compare the
program's output with them."""

import runpy
from pathlib import Path
from types import SimpleNamespace

import pytest

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


@pytest.fixture(scope="session")
def checks():
    # run from source, so nothing is written under perfbench/
    return SimpleNamespace(**runpy.run_path(str(CHECKS)))
