"""The fixed calibration loop that puts benchmark times on a reference speed.

The machine the benchmark runs on shares its CPUs with other tenants, and
its speed swings by up to 2x over seconds to minutes. A fixed loop slows
down with the program, so each timed sample is divided by the loop's time
right before and after it, on the same CPU, and multiplied by CAL_REF_S:
the sample's time at the speed where the loop takes CAL_REF_S.

The loop is the decoder's kind of work: small numpy reductions over a
4096-symbol stream, driven from Python. On a 2-vCPU Xeon whose sibling vCPU
was kept busy, it slowed 2.05x while the four workloads' passes slowed
1.9-2.3x; a pure-Python loop slowed only 1.76x.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

# CAL_REF_S is about the loop's time on an Intel Xeon vCPU at full speed,
# so reference seconds read close to raw seconds there
CAL_LOOPS, CAL_REPS, CAL_REF_S = 120, 3, 0.008


@functools.cache
def _stream():
    # numpy is imported on first use, so that importing this module does not
    # take numpy's import out of the traced run's import.framesync_s
    import numpy as np

    return np.random.default_rng(3).integers(0, 8, 4096)


def _loop(n: int) -> int:
    stream, acc = _stream(), 0
    for _ in range(n):
        for symbol in range(8):
            acc += int((stream == symbol).sum())
    return acc


def calibrate() -> float:
    """Seconds the calibration loop takes now (median of CAL_REPS timings)."""
    _loop(CAL_LOOPS // 10)  # untimed: brings the loop's code and data back into cache
    times = []
    for _ in range(CAL_REPS):
        t0 = perf_counter()
        _loop(CAL_LOOPS)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def at_reference(seconds: float, cal_before: float, cal_after: float) -> float:
    """seconds, measured between two calibrations, at the reference speed."""
    return seconds * CAL_REF_S / ((cal_before + cal_after) / 2)
