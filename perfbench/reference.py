"""A fixed reference task, timed beside the workload, that gives the speed
of the machine at each moment of a run.

The machine these timings are taken on is shared: its speed moves, in
phases of seconds to minutes, by up to 1.7x, and CPU time moves with wall
time (the slowdown is contention in the host, not time the process waits).
No statistic inside one run removes a phase that covers the whole run.  So
the run also times a reference task that uses no `hartman` code between
its ops, and each op's latency is rescaled by the reference task's time
around it:

    normalized latency = latency * REFERENCE_S[task] / reference time near the op

That is the latency on a machine on which the reference task takes
REFERENCE_S, a constant.  A change to the library moves the normalized
latency as it moves the raw one; a phase of the machine moves both the op
and the reference, and cancels.

Contention slows interpreter-bound code more than code that streams large
arrays, so each workload names the task that does the kind of work its ops
do: `scalar` runs the interpreter on scalars (as the presets and the
analysis ops do), `array` streams complex arithmetic over arrays of one
flux-oracle batch, 1.7M points (as the flux oracle's kernel does).  Of the
array tasks tried beside the flux oracle (`exp`, `cos`/`sin`/`sqrt`, and
this one), this one's time followed the oracle's most closely.
"""
from __future__ import annotations

import bisect
import cmath
import math
import statistics
from time import perf_counter

import numpy as np

# each task's median time on an idle 2-core x86-64 VM of the kind the first
# numbers were taken on (Python 3.11, NumPy 2.4)
REFERENCE_S = {"scalar": 0.006, "array": 0.070}
SCALAR_STEPS = 20_000
ARRAY_POINTS = 1_700_000
NEIGHBOURS = 2  # reference samples taken on each side of an op


def _scalar() -> float:
    z, table = 0j, {}
    for i in range(SCALAR_STEPS):
        z += cmath.exp(1j * (i * 1e-3)) * 0.5
        table[i & 255] = z
    return abs(z)


def _array() -> float:
    # allocated per sample and freed between the ops, so that the run's peak
    # memory stays the workload's own
    x = np.linspace(0.5, 50.0, ARRAY_POINTS)
    z = x + 1j * x[::-1]
    return float((z * z - 2.0 * z / (x + 1j)).real.sum())


TASKS = {"scalar": _scalar, "array": _array}


class ReferenceClock:
    """Reference-task samples over a run, and the factor that rescales a
    latency measured in an interval of it."""

    def __init__(self, task: str, interval: float = 0.25):
        self.task = TASKS[task]
        self.reference_s = REFERENCE_S[task]
        self.interval = interval
        self.ends: list[float] = []
        self.times: list[float] = []
        self.sample()  # the first sample pays for page faults; drop it
        self.ends.clear()
        self.times.clear()

    def sample(self) -> None:
        start = perf_counter()
        value = self.task()
        end = perf_counter()
        if not math.isfinite(value):
            raise RuntimeError("reference task produced a non-finite result")
        self.times.append(end - start)
        self.ends.append(end)

    def maybe_sample(self) -> None:
        """Sample when `interval` has passed since the last sample."""
        if not self.ends or perf_counter() - self.ends[-1] >= self.interval:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the median of the reference samples nearest to
        [start, end]: NEIGHBOURS ending before it and NEIGHBOURS after."""
        i = bisect.bisect_right(self.ends, start)
        j = bisect.bisect_left(self.ends, end)
        near = self.times[max(0, i - NEIGHBOURS):i] + self.times[j:j + NEIGHBOURS]
        return self.reference_s / statistics.median(near or self.times)

    def median(self) -> float:
        return statistics.median(self.times)
