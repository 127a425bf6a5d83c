"""Bean's end-to-end benchmark: one command, four workloads.

Run from the repository root::

    python3 beanbench/run.py --workload infer --seed 1 --seconds 15 --trace 0

``--workload`` is one of ``infer``, ``bulk``, ``rows`` and ``serve``
(``NOTES.md`` says why each exists).  With ``--trace 0`` the workload
is measured untraced and the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and the end-to-end
``metrics``.  With ``--trace 1`` the run wraps each layer's public
functions from outside and reports the per-layer metrics instead, for
every workload.  The line before it holds the details: hardware, raw
wall-clock beside every host-corrected figure, sample counts, problems.

The program is used from source (``src/``); the benchmark reads and
writes only inside the checkout (scratch files go to ``.bench_tmp/``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
for _path in (SRC, HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

NAMES = ("infer", "bulk", "rows", "serve")

END_TO_END_UNITS = {
    "setup_s": "s",
    "rate_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
}

PER_LAYER_UNITS = {
    "core.lexer.tokenize_s": "s",
    "core.lexer.tokens_per_s": "1/s",
    "core.parser.parse_s": "s",
    "ir.lower.lower_s": "s",
    "ir.lower.ops": "count",
    "ir.infer.sweep_s": "s",
    "semantics.pool.run_shards_s": "s",
    "semantics.shard.merge_s": "s",
    "semantics.pool.prepared_hit_ratio": "ratio",
    "semantics.pool.restarts": "count",
    "semantics.pool.pickle_fallbacks": "count",
    "semantics.pool.shm_bytes_end": "bytes",
    "semantics.batch.run_s": "s",
    "api.stream.chunks": "count",
    "api.stream.merge_s": "s",
    "api.result.witness_row_s": "s",
    "api.result.render_s": "s",
    "service.server.audit_s": "s",
    "service.server.wait_s": "s",
    "service.server.prep_hit_ratio": "ratio",
    "service.server.audits_heavy": "count",
    "service.server.audit_failures": "count",
    "service.server.http_errors": "count",
    "host.calib_s": "s",
    **{f"trace.{name}.overhead_s": "s" for name in NAMES},
}


def _context(hosted: bool):
    from workloads import Context

    tmp = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    return Context(tmp, env, len(os.sched_getaffinity(0)), hosted)


def untraced(name: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced run of ``name``: end-to-end metrics and details."""
    from endpoints import Hygiene
    from hostspeed import HostClock
    from measure import Recorder
    from workloads import WORKLOADS

    workload = WORKLOADS[name](_context(hosted=False), seed)
    hygiene = Hygiene()
    rec = Recorder(HostClock(), workload.tail_pct)
    stop = None
    try:
        stop = workload.setup(rec, workload.setup_repeats)
        workload.run(rec, seconds, workload.min_ops)
        workload.verify(rec)
    finally:
        if stop is not None:
            stop()
    leaks = hygiene.leaks()
    summary = rec.summary()
    return {
        "correct": rec.failed == 0 and not leaks,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {
            key: {"value": value, "unit": END_TO_END_UNITS[key]}
            for key, value in summary.pop("metrics").items()
        },
        "details": {
            "workload": name,
            "rate_unit": workload.unit,
            **summary,
            "problems": rec.problems,
            "leaks": leaks,
        },
    }


def trace(seed: int, seconds: float) -> Dict[str, Any]:
    """The traced run: every workload, untraced then traced phases."""
    from endpoints import Hygiene
    from tracing import traced_workload
    from workloads import WORKLOADS

    ctx = _context(hosted=True)
    phase_s = max(1.0, seconds / 8)
    metrics: Dict[str, float] = {}
    calibs: List[float] = []
    attempted = failed = 0
    details: Dict[str, Any] = {}
    leaks: List[str] = []
    for name in NAMES:
        workload = WORKLOADS[name](ctx, seed)
        hygiene = Hygiene()
        stop = workload.setup_once()
        try:
            layers, plain, traced = traced_workload(workload, phase_s)
            workload.verify(traced)
        finally:
            stop()
        found = hygiene.leaks()
        leaks += found
        calibs.append(layers.pop("host.calib_s"))
        metrics.update(layers)
        attempted += plain.attempted + traced.attempted
        failed += plain.failed + traced.failed
        details[name] = {
            "untraced_ops": plain.n_ops(),
            "traced_ops": traced.n_ops(),
            "problems": plain.problems + traced.problems,
            "leaks": found,
        }
    metrics["host.calib_s"] = statistics.median(calibs)
    missing = set(PER_LAYER_UNITS) - set(metrics)
    if missing:
        raise RuntimeError(f"traced run lacks {sorted(missing)}")
    return {
        "correct": failed == 0 and not leaks,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": metrics[key], "unit": unit}
            for key, unit in PER_LAYER_UNITS.items()
        },
        "details": details,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"error: no Bean sources at {SRC}; run from a repository checkout",
            file=sys.stderr,
        )
        return 2

    from endpoints import stop_resource_tracker
    from hostspeed import hardware

    try:
        if args.trace:
            result = trace(args.seed, args.seconds)
        else:
            result = untraced(args.workload, args.seed, args.seconds)
    finally:
        stop_resource_tracker()
    details = result.pop("details")
    details.update(
        seed=args.seed, seconds=args.seconds, trace=args.trace,
        hardware=hardware(),
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
