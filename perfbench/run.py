"""klein-forge benchmark: one run of one workload, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads are `verify-paper`,
`algebra-queries` and `mesh-files` (see workloads.py and README.md).

A run first times set-up: one untimed warm-up process (it also writes the
bytecode caches), then SETUP_PROBES fresh processes that only import
`kleinforge.cli`.  It then runs passes of the workload, each in a fresh
single-threaded worker process, one at a time: with --trace 0 until the
next pass would end after --seconds (at least one pass), with --trace 1
exactly one untraced and one traced pass.  Every operation's exit code and
stdout are checked; see checks.py.

The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the line before it gives the raw (not normalised) wall time, the CPU
slowdown factor, the failures, the machine and the code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads
from sampler import SAMPLES_FILE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "kleinforge"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 5
RUN_BUDGET_S = 170.0  # a run must exit within 180 s
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class Runner:
    """Starts worker processes one at a time and keeps what they report."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.errors: list[str] = []

    def spawn(self, *args: str) -> dict | None:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            self.errors.append(f"no time left for worker {args}")
            return None
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), repr(t0), *args],
                cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            self.errors.append(f"worker {args} timed out")
            return None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            self.errors.append(f"worker {args} exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(proc.stdout.splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        h.update(str(path.relative_to(SOURCE)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _argv_key(argv) -> str:
    return _sha256(json.dumps(list(argv)))


def _check_pass(ops, report: dict, digests: dict, workdir: Path) -> list[str]:
    """One line per operation whose exit code, output or stdout digest is wrong."""
    ctx = {"workdir": workdir}
    problems = []
    for op, res in zip(ops, report["ops"]):
        try:
            problem = checks.check(op, res["rc"], res["stdout"], ctx)
        except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
            problem = f"malformed output: {type(exc).__name__}: {exc}"
        recorded = digests.get(_argv_key(op.argv))
        if problem is None and recorded not in (None, _sha256(res["stdout"])):
            problem = "stdout differs from the SHA-256 recorded for this argv"
        if problem:
            problems.append(f"{op.command}: {problem}")
    return problems


def _median_wall(passes: list[dict], key: str = "seconds") -> float:
    """Sum over operations of each operation's median time across passes."""
    per_op = zip(*([op[key] for op in p["ops"]] for p in passes))
    return float(sum(statistics.median(times) for times in per_op))


def _measure(args, runner: Runner) -> tuple[list[float], list[dict], list[dict]]:
    """Set-up samples, untraced passes and traced passes."""
    pass_args = (args.workload, str(args.seed))
    plain: list[dict] = []
    traced: list[dict] = []
    sampler = subprocess.Popen([sys.executable, str(HERE / "sampler.py")], cwd=runner.workdir)
    try:
        while not (runner.workdir / SAMPLES_FILE).exists():
            if sampler.poll() is not None:
                raise RuntimeError(f"CPU sampler exited with code {sampler.returncode}")
            time.sleep(0.01)
        runner.spawn("probe")  # warm-up: bytecode caches, page cache
        setup = [r["setup_s"] for r in (runner.spawn("probe") for _ in range(SETUP_PROBES)) if r]
        start = time.monotonic()
        if args.trace:
            plain.append(runner.spawn(*pass_args, "0"))
            traced.append(runner.spawn(*pass_args, "1"))
        else:
            while True:
                before = time.monotonic()
                plain.append(runner.spawn(*pass_args, "0"))
                now = time.monotonic()
                last = now - before
                if now - start + last > args.seconds or now + last > runner.deadline:
                    break
    finally:
        sampler.terminate()
        sampler.wait()
    return setup, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "cli.py").is_file():
        print(f"perfbench: no klein-forge sources at {SOURCE}; run from a checkout", file=sys.stderr)
        return 2

    # a terminated run still stops its sampler and removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one CPU for every process of the run; children inherit the pin
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    began = time.monotonic()
    ops = workloads.build(args.workload, args.seed)
    digests = json.loads(DIGESTS.read_text())
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        runner = Runner(workdir, began + RUN_BUDGET_S)
        setup, plain, traced = _measure(args, runner)
        passes = plain + traced
        done = [p for p in passes if p is not None]
        problems = [line for p in done for line in _check_pass(ops, p, digests, workdir)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) * len(passes)
    failed = len(problems) + len(ops) * (len(passes) - len(done))
    correct = failed == 0 and not runner.errors

    ok_plain = [p for p in plain if p is not None]
    setup += [p["setup_s"] for p in done]
    if args.trace:
        layers = traced[0]["layers"] if traced[0] else {}
        overhead = traced[0]["wall_s"] - plain[0]["wall_s"] if traced[0] and plain[0] else 0.0
        metrics = dict(layers, **{
            "trace.overhead_s": (overhead, "s"),
            "run.raw_wall_s": (plain[0]["raw_wall_s"] if plain[0] else 0.0, "s"),
            "run.slowdown": (plain[0]["slowdown"] if plain[0] else 0.0, "x"),
        })
    else:
        metrics = {
            "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
            "wall_s": (_median_wall(ok_plain), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in ok_plain) if ok_plain else 0.0, "MB"),
        }

    for line in problems + runner.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "raw_wall_s": _median_wall(ok_plain, "raw_seconds") if ok_plain else None,
        "slowdown": statistics.median(p["slowdown"] for p in done) if done else None,
        "pass_wall_s": [p["wall_s"] if p else None for p in passes],
        "pass_raw_wall_s": [p["raw_wall_s"] if p else None for p in passes],
        "pass_slowdown": [p["slowdown"] if p else None for p in passes],
        "failed_ratio": failed / attempted,
        "env": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": done[0]["numpy"] if done else None,
            "commit": _commit(),
            "src_sha256": _source_digest(),
        },
        "run_s": time.monotonic() - began,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
