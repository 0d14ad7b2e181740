"""Op times corrected for the host's speed at the moment they were taken.

The benchmark runs on shared hosts whose speed drifts by a fifth or more
within seconds to minutes, for every process alike: a fixed pure-Python
loop run back to back for 150 s on a 2-vCPU VM took 0.15 s in some 15 s
stretches and 0.22 s in others, with process CPU time tracking wall time (so
the drift is contention, not stolen time). A 25 s run sits inside one or two
such stretches, so raw wall times of identical work spread across runs by as
much as the drift itself.

`Clock` measures the drift instead of averaging over it. Between ops it
times a fixed calibration kernel (a semi-naive transitive closure over tuples
in sets and dicts, the same kind of work as the engine's) whenever
`INTERVAL_S` has gone by since the last calibration, and once more after the
last op. Each op's wall time is then scaled by REFERENCE_S / k, where k is the
mean kernel time of the calibrations just before and just after the op:
the op's time at the reference speed, the speed at which the kernel takes
`REFERENCE_S`. A change in premlog moves the op times and not the kernel,
so it shows in full; a change in the host's speed moves both and cancels.
Raw wall times are reported next to the corrected ones in the detail line.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List, Tuple

# Kernel time at the reference speed: within a fifth of what the kernel
# takes on a 2-vCPU Xeon VM at 2.1 GHz, so corrected times read close to wall
# times there.
REFERENCE_S = 0.005
INTERVAL_S = 0.15
REPEATS = 3

_NODES = 97
_ARCS = tuple((u, (u * 5 + k * 11 + 1) % _NODES) for u in range(_NODES) for k in range(2))


def kernel() -> int:
    """Transitive closure of a fixed 97-node graph, semi-naive, tuples in sets."""
    succ = {}
    for u, v in _ARCS:
        succ.setdefault(u, []).append(v)
    closure = set(_ARCS)
    delta = set(_ARCS)
    while delta:
        new = set()
        for x, y in delta:
            for z in succ.get(y, ()):
                t = (x, z)
                if t not in closure:
                    new.add(t)
        closure |= new
        delta = new
    return len(closure)


KERNEL_RESULT = _NODES * _NODES


def kernel_seconds() -> float:
    """Median of REPEATS timed kernel runs."""
    times = []
    # The kernel makes no cycles; with the collector off, its time does not
    # depend on how large a heap the ops before it left behind.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            n = kernel()
            times.append(time.perf_counter() - t0)
            if n != KERNEL_RESULT:
                raise AssertionError(f"calibration kernel derived {n} tuples, not {KERNEL_RESULT}")
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Clock:
    """Times ops and calibrates between them; see the module docstring."""

    def __init__(self) -> None:
        self.kernel_s: List[float] = []
        self.last = 0.0
        # (wall seconds, index of the last calibration before the op)
        self.samples: List[Tuple[float, int]] = []
        self.calibrate()

    def calibrate(self) -> None:
        self.kernel_s.append(kernel_seconds())
        self.last = time.perf_counter()

    def before_op(self) -> int:
        """Calibrates when due; returns the mark to pass to `record`."""
        if time.perf_counter() - self.last >= INTERVAL_S:
            self.calibrate()
        return len(self.kernel_s) - 1

    def record(self, mark: int, wall_s: float) -> None:
        self.samples.append((wall_s, mark))

    def finish(self) -> None:
        """The calibration after the last op; call once, after the last `record`."""
        self.calibrate()

    def factor(self, mark: int) -> float:
        """Reference speed over the host's speed around an op recorded at `mark`."""
        return 2 * REFERENCE_S / (self.kernel_s[mark] + self.kernel_s[mark + 1])

    def corrected(self) -> List[float]:
        return [wall * self.factor(mark) for wall, mark in self.samples]

    def raw(self) -> List[float]:
        return [wall for wall, _ in self.samples]

    def median_factor(self) -> float:
        return statistics.median(self.factor(mark) for _, mark in self.samples)
