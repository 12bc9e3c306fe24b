"""cipos benchmark: three workloads, independent output checks, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload {tower,positivity,tangency}
                             --seed N --seconds S --trace {0,1}

Each run repeats whole rounds of the workload's operations, single client,
closed loop, one operation at a time, until the next round would end past
S seconds.  Every operation is one fresh `cipos` process, started as a CLI
user starts it.  Outputs are checked after the timed rounds.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 every cipos layer is wrapped (see tracer.py) and it carries the
per-layer metrics.  A results file with provenance goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import child
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference" / "tower.json"

PROBES = 10  # import-only processes per run, so setup_s always has a median
TOWER_DEADLINE_S = 4.0  # about 2.8x the slowest tower frame that finishes
DEADLINE_S = 90.0  # every other operation

# (N, n, a, degrees or None for seeded); (6, 5) is the kappa=5 hypersurface
# that does not finish today and is counted as failed at the deadline
TOWER_FRAMES = [
    (4, 2, 4, (34, 34)),
    (6, 3, 0, None),
    (4, 3, 0, None),
    (7, 5, 0, None),
    (8, 6, 0, None),
    (9, 6, 0, None),
    (5, 4, 0, None),
    (10, 7, 0, None),
    (6, 5, 0, None),
]
# (11, 5, 0) at 4.7 s and (12, 5, 0) at 10 s would leave a single round in a 20 s run
POSITIVITY_FRAMES = [(4, 2, 0), (8, 4, 2), (9, 4, 0), (10, 5, 0), (10, 5, 3)]
# (family, N, degrees, samples, seed or None for seeded); seed 7 is the README command
TANGENCY_CASES = [
    ("solved", 5, (4,), 20, None),
    ("solved", 4, (5,), 20, None),
    ("tj", 4, (4,), 100, None),
    ("solved", 3, (2, 2), 100, 7),
    ("tlambda", 4, (3, 2), 20, None),
]


@dataclass
class Op:
    label: str
    argv: list
    check: Callable[[dict], list]


@dataclass
class Outcome:
    seconds: float
    setup_s: float | None
    peak_kb: int | None
    returncode: int | None
    stdout: bytes
    stderr: bytes
    trace: dict | None = None


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    traced: bool
    rounds: list = field(default_factory=list)  # per round: list of Outcome
    round_s: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    traces: list = field(default_factory=list)


def degrees_from(rng: random.Random, c: int) -> tuple:
    return tuple(rng.randint(1, 60) for _ in range(c))


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        stored = json.load(handle)
    return {tuple(int(x) for x in key.split(",")): checks.poly_from_json(terms) for key, terms in stored.items()}


# -- workloads ---------------------------------------------------------------------


def tower_ops(rng: random.Random, check_rng: random.Random) -> list:
    reference = load_reference()
    ops = []
    for N, n, a, degrees in TOWER_FRAMES:
        degrees = degrees or degrees_from(rng, N - n)
        argv = ["jet", "--N", str(N), "--n", str(n), "--a", str(a), "--degrees", ",".join(map(str, degrees)), "--format", "json"]

        def check(out, N=N, n=n, a=a, degrees=degrees):
            return checks.check_morse(out, N, n, a, degrees, reference.get((N, n, a)))

        ops.append(Op(f"jet {N} {n} a={a}", argv, check))
    return ops


def positivity_ops(rng: random.Random, check_rng: random.Random) -> list:
    ops = []
    for N, n, a in POSITIVITY_FRAMES:
        argv = ["positivity", "--N", str(N), "--n", str(n), "--a", str(a), "--format", "json"]

        def check(out, N=N, n=n, a=a):
            return checks.check_positivity(out, N, n, a, check_rng)

        ops.append(Op(f"positivity {N} {n} a={a}", argv, check))
    return ops


def tangency_ops(rng: random.Random, check_rng: random.Random) -> list:
    ops = []
    for family, N, degrees, samples, seed in TANGENCY_CASES:
        seed = rng.randint(0, 10**6) if seed is None else seed
        # --format must follow `verify`: `vecfields --format json verify` prints text
        argv = ["vecfields", "verify", "--N", str(N), "--degrees", ",".join(map(str, degrees)),
                "--family", family, "--samples", str(samples), "--seed", str(seed), "--format", "json"]

        def check(out, family=family, N=N, samples=samples, seed=seed):
            return checks.check_tangency(out, family, N, samples, seed)

        ops.append(Op(f"vecfields {family} {N} {degrees}", argv, check))
    return ops


WORKLOADS = {"tower": tower_ops, "positivity": positivity_ops, "tangency": tangency_ops}


# -- processes ------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # the same string hashing, so the same set orders, in every run
    return env


def spawn(args: list, deadline: float, trace_path: Path | None = None) -> Outcome:
    """Run one child to its end (or kill it at the deadline), reading all its output."""
    argv = [sys.executable, str(BENCH / "child.py")]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv + args,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
    )
    peak_kb = None
    try:
        out, err = proc.communicate(timeout=deadline)
        returncode = proc.returncode
    except subprocess.TimeoutExpired:
        try:
            peak_kb = child.peak_rss_kb(f"/proc/{proc.pid}/status")
        except FileNotFoundError:
            pass  # it ended at the deadline; its own report follows
        proc.kill()
        out, err = proc.communicate()
        returncode = None
    seconds = time.perf_counter() - start
    setup = None
    for line in err.splitlines():
        if line.startswith(b"perfbench-imported "):
            setup = float(line.split()[1]) - start
        elif line.startswith(b"perfbench-peak-kb "):
            peak_kb = int(line.split()[1])
    trace = None
    if trace_path is not None and trace_path.exists():
        with open(trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        trace_path.unlink()
    return Outcome(seconds, setup, peak_kb, returncode, out, err, trace)


def trace_file(run: Run) -> Path | None:
    if not run.traced:
        return None
    return RESULTS / f"{run.workload}-seed{run.seed}-trace-{os.getpid()}.tmp"


def run_rounds(run: Run, ops: list, deadline: float) -> None:
    """Whole rounds of ops until the next one would end after run.seconds,
    then check every output."""
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        run.rounds.append([spawn(op.argv, deadline, trace_path=trace_file(run)) for op in ops])
        run.round_s.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(run.round_s) > run.seconds:
            break
    for outcomes in run.rounds:
        for op, outcome in zip(ops, outcomes):
            run.attempted += 1
            if outcome.setup_s is not None:
                run.setup_s.append(outcome.setup_s)
            if outcome.trace is not None:
                run.traces.append(outcome.trace)
            if outcome.returncode != 0:
                run.failed += 1
                continue
            try:
                payload = json.loads(outcome.stdout)
            except ValueError:
                run.failed += 1
                continue
            run.errors += op.check(payload)


# -- metrics and report ------------------------------------------------------------------


def operation_medians(run: Run) -> list:
    """Median latency of each operation over the rounds.  Every round runs the
    same operations, so this is robust to a slow stretch of the machine that
    hits one round."""
    return [statistics.median(o.seconds for o in column) for column in zip(*run.rounds)]


def end_to_end(run: Run) -> dict:
    peak_kb = max(o.peak_kb for outcomes in run.rounds for o in outcomes if o.peak_kb is not None)
    values = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "wall_s": (sum(operation_medians(run)), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def provenance() -> dict:
    return {
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_results(run: Run, metrics: dict, ops: list) -> None:
    stem = RESULTS / f"{run.workload}-seed{run.seed}-trace{int(run.traced)}"
    rounds = [
        [
            {"op": op.label, "seconds": o.seconds, "setup_s": o.setup_s, "peak_kb": o.peak_kb, "returncode": o.returncode}
            for op, o in zip(ops, outcomes)
        ]
        for outcomes in run.rounds
    ]
    summary = {
        "provenance": provenance(),
        "args": {"workload": run.workload, "seed": run.seed, "seconds": run.seconds, "trace": int(run.traced)},
        "round_s": run.round_s,
        "rounds": rounds,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "metrics": metrics,
    }
    if run.traced:
        summary["trace"] = tracer.merge(run.traces)
        # one list of (id, parent id, name, start, end) per process
        with gzip.open(f"{stem}-spans.json.gz", "wt", compresslevel=1, encoding="utf-8") as handle:
            json.dump([t["spans"] for t in run.traces], handle)
    with open(f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cipos" / "cli.py").is_file():
        print(f"error: no cipos sources under {SRC}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    rng = random.Random(f"inputs-{args.seed}")
    check_rng = random.Random(f"checks-{args.seed}")
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))

    for _ in range(PROBES):
        probe = spawn(["--probe"], DEADLINE_S)
        if probe.returncode != 0 or probe.setup_s is None:
            print(f"error: cipos does not import:\n{probe.stderr.decode(errors='replace')}", file=sys.stderr)
            return 1
        run.setup_s.append(probe.setup_s)

    ops = WORKLOADS[args.workload](rng, check_rng)
    run_rounds(run, ops, TOWER_DEADLINE_S if args.workload == "tower" else DEADLINE_S)

    if run.traced:
        metrics = tracer.layer_metrics(tracer.merge(run.traces), len(run.round_s), sum(operation_medians(run)))
    else:
        metrics = end_to_end(run)
    write_results(run, metrics, ops)
    for error in run.errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    result = {"correct": not run.errors, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
