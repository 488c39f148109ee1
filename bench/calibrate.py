"""Host-speed sampler for the benchmark's timed metrics.

On a shared host the speed of a CPU flips between a fast and a slow state,
about 1.7x apart, several times a second, and the share of time spent in
each drifts over minutes.  CPU time follows wall time: the process runs
slower, it is not descheduled.  So while a run lasts, this sampler runs on
the CPU the repetitions are pinned to.  Every ``PERIOD_S`` it wakes and
times one call of a fixed pure-Python kernel of about 0.3 ms: function
calls, branches, float arithmetic and dict and str operations.  It runs
the interpreter code that the repetitions keep hot, so its speed follows
theirs; on all three workloads it tracked the repetitions' time better
than kernels of numpy element-wise passes, batched solves or strided
reads of a large array.  It costs the repetition about 1.5 % of the CPU.
The launcher divides each timed interval by the mean kernel time sampled
inside it and reports it at the speed where one kernel call takes
``REFERENCE_S``.  The kernel's code is fixed here and uses nothing from
``src/``, so a change to graphspde moves the reported times and not the
calibration.

    python3 bench/calibrate.py <samples file>   # sample until killed

The sampler also stops when the process that started it ends.

Each line of the samples file is ``<perf_counter at start> <seconds>``;
``time.perf_counter`` is CLOCK_MONOTONIC, shared by all processes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.02
# Mean kernel time, in seconds, that normalized times are expressed at:
# about the mean measured on the 2-core Xeon (KVM) host that defined the
# benchmark, so normalized and raw seconds are of the same size there.
REFERENCE_S = 0.0003


def _step(value: float, k: int) -> float:
    return value * 0.5 + k if k % 3 else value - k


def kernel() -> None:
    value = 0.0
    for k in range(1500):
        value = _step(value, k)
    table = {}
    for k in range(300):
        table[str(k)] = k


def sample(path: str) -> None:
    parent = os.getppid()
    with open(path, "w") as out:
        while os.getppid() == parent:
            time.sleep(PERIOD_S)
            began = time.perf_counter()
            kernel()
            out.write(f"{began:.6f} {time.perf_counter() - began:.7f}\n")
            out.flush()


class Sampler:
    """The sampler process, started on the caller's CPU affinity."""

    def __init__(self, path: Path) -> None:
        self.path = path
        self.proc = subprocess.Popen([sys.executable, __file__, str(path)])
        while not (path.is_file() and path.stat().st_size):
            if self.proc.poll() is not None:
                raise RuntimeError(f"sampler exited {self.proc.returncode}")
            time.sleep(0.05)

    def mean(self, begin: float, end: float) -> float:
        """Mean kernel time of the samples started in [begin, end]."""
        times = []
        # Only whole lines: the last one may still be being written.
        for line in self.path.read_text().split("\n")[:-1]:
            started, seconds = line.split()
            if begin <= float(started) <= end:
                times.append(float(seconds))
        if not times:
            raise RuntimeError(f"no sample in {end - begin:.3f} s; the "
                               "sampler stopped")
        return sum(times) / len(times)

    def stop(self) -> None:
        self.proc.kill()
        self.proc.wait()


if __name__ == "__main__":
    sample(sys.argv[1])
