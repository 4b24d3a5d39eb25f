"""Samples how fast the benchmark's CPU is running right now.

    python3 sampler.py

Started on the same CPU as the worker (run.py pins itself, and children
inherit the pin), it wakes every PERIOD_S, runs a fixed pure-Python
kernel and appends "monotonic_time kernel_cpu_seconds" to SAMPLES_FILE in
its working directory until it is terminated or its parent has gone.  The kernel's CPU time (not
wall time, so being preempted by the worker does not count) rises when a
tenant on a sibling hardware thread competes for the core.  `Speed.factor`
turns the samples over an interval into that interval's slowdown against
KERNEL_REF_S; the worker divides every time it reports by it.

The kernel is integer arithmetic.  A kernel of random reads in a large
list was also tried: it tracked the slowdown of the Python-heavy algebra
queries better, but over-corrected the numpy-heavy verify-paper scan by
up to 40%, while this one stayed within about 10% there.
"""

import bisect
import os
import signal
import statistics
import sys
import time

SAMPLES_FILE = "cpu-samples.txt"
PERIOD_S = 0.025
ITERATIONS = 10_000
KERNEL_REF_S = 0.00054  # fastest kernel CPU time seen on the reference machine, a 2-vCPU Xeon VM


def kernel() -> int:
    total = 0
    for j in range(ITERATIONS):
        total += j * j
    return total


class Speed:
    """Slowdown of the CPU over an interval, from a sampler's SAMPLES_FILE."""

    MIN_SAMPLES = 3

    def __init__(self, path: str):
        with open(path) as fh:
            rows = [line.split() for line in fh if line.endswith("\n")]
        self.times = [float(t) for t, _ in rows]
        self.costs = [float(c) for _, c in rows]
        if len(self.times) < self.MIN_SAMPLES:
            raise ValueError(f"{path} holds {len(self.times)} CPU samples")

    def factor(self, start: float, end: float) -> float:
        """Median kernel cost over [start, end] (at least MIN_SAMPLES nearest) / reference."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < self.MIN_SAMPLES:
            before = start - self.times[lo - 1] if lo > 0 else float("inf")
            after = self.times[hi] - end if hi < len(self.times) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.costs[lo:hi]) / KERNEL_REF_S


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    with open(SAMPLES_FILE, "w", buffering=1) as out:
        while os.getppid() == parent:
            start = time.thread_time()
            kernel()
            spent = time.thread_time() - start
            out.write(f"{time.monotonic()!r} {spent!r}\n")
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main()
