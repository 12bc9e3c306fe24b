"""One cold cipos CLI process, as `python3 -m cipos.cli ARGS` would run it.

Usage: child.py [--trace PATH] [--probe | ARGS...]

Right after `cipos.cli` is imported the process writes
`perfbench-imported <perf_counter>` to stderr; the parent subtracts its spawn
time (both clocks are the system-wide monotonic clock).  `--probe` stops
there.  `--trace PATH` wraps the cipos layers and writes the trace to PATH
when the command ends.  Last, the process writes `perfbench-peak-kb <VmHWM>`,
its own peak RSS.
"""

import sys
import time


def peak_rss_kb(status_path: str = "/proc/self/status") -> int | None:
    """Peak RSS in KiB, or None once the process has exited.  VmHWM starts
    afresh at exec, unlike ru_maxrss, which also counts the spawning parent's
    memory that the child held before exec."""
    with open(status_path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def run(argv: list, trace_path: str | None) -> int:
    import cipos.cli

    print(f"perfbench-imported {time.perf_counter()!r}", file=sys.stderr, flush=True)
    if argv == ["--probe"]:
        return 0
    if trace_path is None:
        return cipos.cli.main(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cipos.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path)


def main() -> int:
    argv = sys.argv[1:]
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    try:
        return run(argv, trace_path)
    finally:
        print(f"perfbench-peak-kb {peak_rss_kb()}", file=sys.stderr, flush=True)


if __name__ == "__main__":
    sys.exit(main())
