"""Regenerate perfbench/reference/tower.json from the program.

Usage (from the repository root): PYTHONPATH=src python3 perfbench/make_reference.py

The file stores the Morse difference polynomial of every kappa >= 2 frame the
`tower` workload runs, at its twist.  The program has no second route for those
certificates yet, so this copy shows only that the output did not change; it
is not an independent check.  kappa = 1 frames are checked against the
closed form instead and are not stored.
"""

import json
import sys
from pathlib import Path

from cipos import jets
from cipos.chow import ModelParams

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402  (frame lists live with the workloads)


def frames() -> list:
    # (6, 5) does not finish today; it has no reference until it does
    return [(N, n, a) for N, n, a, _ in run.TOWER_FRAMES if ModelParams(N, n).kappa >= 2 and (N, n) != (6, 5)]


def main() -> int:
    stored = {}
    for N, n, a in frames():
        stored[f"{N},{n},{a}"] = jets.morse_certificate(ModelParams(N, n), a).difference.to_json()
    with open(run.REFERENCE, "w", encoding="utf-8") as handle:
        # one line per polynomial, so a changed certificate shows as one changed line
        lines = [f"{json.dumps(key)}: {json.dumps(terms)}" for key, terms in sorted(stored.items())]
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(stored)} polynomials to {run.REFERENCE.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
