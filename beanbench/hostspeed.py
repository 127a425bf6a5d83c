"""Host-speed correction: a fixed reference loop timed next to every window.

The machines this benchmark runs on are shared, and their speed moves
by tens of percent from one second to the next.  Timed windows are
therefore interleaved with runs of :func:`reference_loop` — plain Python
plus NumPy, sharing no code with the program under test — and raw times
are scaled by ``NOMINAL_CALIB_S / calib``, where ``calib`` is the mean
loop time (see :class:`HostClock` for which samples).  The corrected
figure reads as "seconds on a host where the reference loop takes
``NOMINAL_CALIB_S``"; raw wall-clock is reported beside it.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np

#: A typical reference-loop time on the 2-core Intel Xeon the benchmark
#: was tuned on (Python 3.11, NumPy 2.4): the host speed every
#: corrected figure is expressed at.
NOMINAL_CALIB_S = 0.007

_SMALL = np.linspace(0.5, 1.5, 64)


def reference_loop() -> float:
    """One fixed unit of interpreter + NumPy work; returns a checksum.

    The mix mirrors the benchmarked program: a string scan and dict and
    integer work (the lexer and checker side) and dispatch-bound NumPy
    calls on short arrays (the batch engine).  It deliberately has no
    pass over a large array: such a pass slows down with the host's
    cache traffic far more than any workload here does, and with it the
    correction made ``bulk`` twice as noisy as without it.
    """
    acc = 0
    table: Dict[int, int] = {}
    for i in range(12000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc ^= key
    text = " ".join(str(i) for i in range(3000))
    acc += sum(1 for word in text.split() if word.endswith("7"))
    small = _SMALL
    for _ in range(600):
        small = np.sqrt(small * 1.0000001 + 1e-9)
    return float(acc) + float(small[0])


def calibrate() -> float:
    """The wall-clock time of one reference loop."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class HostClock:
    """Reference-loop samples along a run, and the corrections they give.

    Call :meth:`mark` between timed windows, never inside one: the loop
    must not compete with the work it corrects.

    The operations of a measured phase share one factor, from every
    sample taken during the phase.  The host flips between fast and
    slow states within tens of milliseconds, so a loop next to a single
    operation says little about that operation (their times correlate
    at 0.6 at best, about 0.2 for ``bulk``), while the mean over a
    run's hundred-odd samples tracks the run's speed well.  Start-ups
    happen once, before the operations, so each is corrected by many
    samples taken right around it.
    """

    def __init__(self) -> None:
        self._at: List[float] = []
        self._calib: List[float] = []

    def mark(self, loops: int = 1) -> None:
        for _ in range(loops):
            self._calib.append(calibrate())
            self._at.append(time.perf_counter())

    def factor(self, start: float, end: float, span: float = 0.0) -> float:
        """``NOMINAL_CALIB_S / mean(samples in [start - span, end + span])``."""
        near = [
            c
            for at, c in zip(self._at, self._calib)
            if start - span <= at <= end + span
        ]
        if not near:
            raise RuntimeError("HostClock.factor: no samples in range")
        return NOMINAL_CALIB_S / statistics.fmean(near)

    def median_calib(self) -> float:
        return statistics.median(self._calib)

    def calib_range(self) -> Tuple[float, float]:
        return min(self._calib), max(self._calib)


def hardware() -> Dict[str, object]:
    """What the run ran on, recorded honestly next to every result."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        affinity = []
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": affinity,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nominal_calib_s": NOMINAL_CALIB_S,
    }
