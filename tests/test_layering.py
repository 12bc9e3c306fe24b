"""Importing one layer loads only that layer and the layers below it."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def loaded_after(module: str) -> set[str]:
    # -I ignores PYTHONPATH and the user site, -S skips site-packages, so the
    # only cipos on the path is the one under src/
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        f"import {module}\n"
        "print(' '.join(name for name in sys.modules if name.split('.')[0] == 'cipos'))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_polyring_loads_nothing_else():
    assert loaded_after("cipos.polyring") == {"cipos", "cipos.polyring"}


def test_chow_loads_no_higher_layer():
    loaded = loaded_after("cipos.chow")
    assert "cipos.chow" in loaded
    assert not loaded & {"cipos.jets", "cipos.schur", "cipos.vecfields"}
