"""Operation records, host-corrected summaries and the serial run loop."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from hostspeed import HostClock

#: Calibrate between windows of at least this much work.
WINDOW_S = 0.2
#: Reference loops timed right before and right after each start-up.
SETUP_LOOPS = 8
#: How far from a start-up its calibration samples may lie.
SETUP_SPAN_S = 0.5
#: Slack around the measured phase: its first mark comes just before
#: the first window, its last just after the last window.
PHASE_SPAN_S = 0.1


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass
class Op:
    """One timed operation: ``answered`` is when the caller had its
    answer (the end for buffered calls, the first verdict for streams)."""

    start: float
    answered: float
    units: int


@dataclass
class Window:
    start: float
    end: float
    busy: float
    ops: List[Op]


@dataclass
class Recorder:
    """Everything one workload measured, raw; corrected in :meth:`summary`."""

    clock: HostClock
    tail_pct: float
    windows: List[Window] = field(default_factory=list)
    setups: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def timed_setup(self, action: Callable[[], object]) -> object:
        """Run ``action`` between calibration marks; keep its time."""
        self.clock.mark(SETUP_LOOPS)
        start = time.perf_counter()
        value = action()
        self.add_setup(start, time.perf_counter())
        return value

    def add_setup(self, start: float, end: float) -> None:
        """Keep a start-up that ran in ``[start, end]`` (marks follow)."""
        self.clock.mark(SETUP_LOOPS)
        self.setups.append((start, end))

    def phase_factor(self) -> float:
        """The host-speed factor of the measured phase."""
        return self.clock.factor(
            self.windows[0].start, self.windows[-1].end, span=PHASE_SPAN_S
        )

    def n_ops(self) -> int:
        return sum(len(w.ops) for w in self.windows)

    def summary(self) -> Dict[str, object]:
        """Corrected and raw end-to-end figures, with sample counts."""
        if not self.n_ops() or not self.setups:
            raise RuntimeError(
                f"no operation succeeded ({self.failed} failed): "
                f"{self.problems[:3]}"
            )
        factor = self.phase_factor()
        raw_latencies = [
            op.answered - op.start for w in self.windows for op in w.ops
        ]
        latencies = [t * factor for t in raw_latencies]
        raw_busy = sum(w.busy for w in self.windows)
        busy = raw_busy * factor
        units = sum(op.units for w in self.windows for op in w.ops)
        setup = [
            (end - start)
            * self.clock.factor(start, end, span=SETUP_SPAN_S)
            for start, end in self.setups
        ]
        raw_setup = [end - start for start, end in self.setups]
        n = len(latencies)
        beyond = n * (100.0 - self.tail_pct) / 100.0
        return {
            "metrics": {
                "setup_s": statistics.median(setup),
                "rate_per_s": units / busy,
                "latency_p50_s": percentile(latencies, 50),
                "latency_tail_s": percentile(latencies, self.tail_pct),
            },
            "raw": {
                "setup_s": statistics.median(raw_setup),
                "rate_per_s": units / raw_busy,
                "latency_p50_s": percentile(raw_latencies, 50),
                "latency_tail_s": percentile(raw_latencies, self.tail_pct),
            },
            "samples": n,
            "tail_percentile": self.tail_pct,
            "samples_beyond_tail": math.floor(beyond),
            "setup_samples": len(setup),
            "units": units,
            "windows": len(self.windows),
            "host_factor": factor,
            "calib_s": {
                "median": self.clock.median_calib(),
                "min": self.clock.calib_range()[0],
                "max": self.clock.calib_range()[1],
            },
        }


OpFn = Callable[[], Tuple[Optional[float], int]]


def run_serial(
    rec: Recorder,
    ops: Sequence[OpFn],
    passes: Iterable[Sequence[int]],
    seconds: float,
    min_ops: int,
) -> None:
    """Run whole passes of operations, one at a time, for ``seconds``.

    ``passes`` yields orders of indices into ``ops``.  Each op returns
    ``(answered_at or None, units)``.  The loop stops at the first pass
    boundary after ``seconds`` once at least ``min_ops`` ops ran, so
    every run sees the same operation mix and enough samples lie beyond
    the tail percentile.  An op that raises
    counts as failed (and outside every window).
    """
    rec.clock.mark()
    deadline = time.perf_counter() + seconds
    # A run whose ops keep failing never reaches ``min_ops``.
    give_up = deadline + 2 * seconds
    pending: List[Op] = []
    busy = last_end = 0.0

    def close() -> None:
        nonlocal pending, busy
        if pending:
            rec.windows.append(
                Window(pending[0].start, last_end, busy, pending)
            )
        pending, busy = [], 0.0
        rec.clock.mark()

    for order in passes:
        for key in order:
            rec.attempted += 1
            start = time.perf_counter()
            try:
                answered, units = ops[key]()
            except Exception as exc:  # noqa: BLE001 - counted, reported
                rec.fail(f"{type(exc).__name__}: {exc}")
                close()
                continue
            end = last_end = time.perf_counter()
            pending.append(Op(start, answered or end, units))
            busy += end - start
            if end - pending[0].start >= WINDOW_S:
                close()
        now = time.perf_counter()
        enough = rec.n_ops() + len(pending) >= min_ops
        if (now >= deadline and enough) or now >= give_up:
            break
    close()
