"""Timing that cancels the machine's speed drift.

On a shared machine the CPU runs fast or up to 40% slower in phases
that last from a fraction of a second to minutes, and process CPU time
slows with it. Every timed region is therefore bracketed by runs of a
short fixed calibration kernel, and its CPU time is rescaled to the
speed at which that kernel takes REFERENCE_S. Time spent off the CPU (sleeping on a
round trip) is kept as measured. The result is in seconds at the
reference speed. REFERENCE_S is close to the kernel's time on a 2-vCPU
Xeon virtual machine running at full speed, so there the rescaled times
read close to raw wall times.
"""

from __future__ import annotations

import json
import time

REFERENCE_S = 0.00025
_WORDS = [f"w{i}x" for i in range(300)]


def _kernel() -> str:
    # Dict updates, a keyed sort, JSON and string building: the same kind
    # of interpreter work the planner does.
    counts: dict[str, int] = {}
    for i, word in enumerate(_WORDS * 3):
        counts[word] = counts.get(word, 0) + i
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return json.dumps(ranked)[:8] + "".join(w.upper() for w in _WORDS)[:8]


def calibrate(repeats: int = 3) -> float:
    """Fastest of `repeats` kernel runs, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - started)
    return best


class Stopwatch:
    """Times one region. Calibrates before starting and after stopping,
    and rescales by the mean of the two."""

    def __init__(self) -> None:
        self._calibration = calibrate()
        self.wall = self.seconds = 0.0
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def stop(self) -> "Stopwatch":
        wall = time.perf_counter() - self._wall
        cpu = min(time.process_time() - self._cpu, wall)
        calibration = (self._calibration + calibrate()) / 2
        self.wall = wall
        self.seconds = cpu * REFERENCE_S / calibration + wall - cpu
        return self
