"""One pass of a workload in a fresh process; prints one JSON line.

    python3 worker.py T0 probe
    python3 worker.py T0 WORKLOAD SEED TRACE

T0 is the parent's CLOCK_MONOTONIC reading just before it started this
process, so `setup_s` covers interpreter start-up and the imports of
numpy and `kleinforge.cli`, as every CLI invocation pays them.  The
"probe" form stops there.  Otherwise the worker runs every operation of
the workload through `cli.main(argv)` with stdout captured and reports
each exit code, stdout and time; run.py checks them, so checking adds
nothing to this process's time or peak memory.  With TRACE=1 it first
installs the tracer and adds the per-layer metrics.

Every time is divided by the CPU slowdown the sampler measured over it
(see sampler.py).  The raw times and the pass's slowdown are reported
beside them.
"""

import sys
import time

T0 = float(sys.argv[1])
import kleinforge.cli  # noqa: E402  (timed: this import is the set-up)

SETUP_S = time.monotonic() - T0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from collections import defaultdict  # noqa: E402

import numpy  # noqa: E402

import workloads  # noqa: E402
from sampler import SAMPLES_FILE, Speed  # noqa: E402
from tracer import Tracer  # noqa: E402


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    ops = []
    for op in workloads.build(workload, seed):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                rc = kleinforge.cli.main(list(op.argv))
            except Exception as exc:  # a traceback is a failed operation, not a crash
                rc = f"uncaught {type(exc).__name__}: {exc}"
            end = time.perf_counter()
        ops.append({"command": op.command, "rc": rc, "stdout": out.getvalue(), "start": start, "end": end})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # perf_counter and the sampler's monotonic clock are both CLOCK_MONOTONIC
    speed = Speed(SAMPLES_FILE)
    op_seconds: defaultdict = defaultdict(float)
    for op in ops:
        op["raw_seconds"] = op["end"] - op["start"]
        op["seconds"] = op["raw_seconds"] / speed.factor(op["start"], op["end"])
        op_seconds[op["command"]] += op["seconds"]
    report = {
        "setup_s": SETUP_S / speed.factor(T0, T0 + SETUP_S),
        "wall_s": sum(op["seconds"] for op in ops),
        "raw_wall_s": sum(op["raw_seconds"] for op in ops),
        "slowdown": speed.factor(ops[0]["start"], ops[-1]["end"]),
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        stdout_bytes = sum(len(op["stdout"].encode()) for op in ops)
        report["layers"] = tracer.metrics(dict(op_seconds), stdout_bytes, speed.factor)
    return report


def main() -> None:
    if sys.argv[2] == "probe":
        slowdown = Speed(SAMPLES_FILE).factor(T0, T0 + SETUP_S)
        report = {"setup_s": SETUP_S / slowdown, "slowdown": slowdown}
    else:
        report = run_pass(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
