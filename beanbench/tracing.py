"""The traced run: per-layer numbers taken from outside the program.

:class:`Tracer` replaces a function at the name its caller looks up
(a module global, a class attribute or one object's attribute) with a
wrapper that records a span — name, start, end, self time — into
memory, and puts the original back afterwards.  ``src/`` is never
edited.  A layer's self time is its span minus the spans of wrapped
functions it called on the same thread.

Every traced run reports every per-layer metric, so it runs all four
workloads, each on its own layers (see ``NOTES.md`` for the map).  Each
workload gets an untraced phase and then a traced phase on the same
warm program; their difference in corrected seconds per operation is
the tracing overhead.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import HostClock
from measure import Recorder

_MISSING = object()


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float
    value: Any


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        measure: Optional[Callable[[Any], Any]] = None,
    ) -> None:
        """Trace ``owner.attr`` as span ``name`` until :meth:`restore`.

        ``measure(result)`` is stored on the span (e.g. a token count).
        """
        original = getattr(owner, attr)
        spans = self.spans
        local = self._local

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]  # time spent in wrapped callees
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
            value = measure(result) if measure is not None else None
            spans.append(Span(name, start, end, end - start - frame[0], value))
            return result

        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def of(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.of(name))

    def self_total(self, name: str) -> float:
        return sum(s.self_s for s in self.of(name))


def _mean_op_s(rec: Recorder) -> float:
    """Corrected busy seconds per operation of one phase."""
    busy = sum(w.busy for w in rec.windows) * rec.phase_factor()
    return busy / max(rec.n_ops(), 1)


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _install_infer(tracer: Tracer, workload: Any) -> None:
    import repro.api.session as session_mod
    import repro.core.parser as parser_mod
    import repro.ir.infer as infer_mod
    from repro.ir.inline import count_ops

    tracer.wrap(parser_mod, "tokenize", "tokenize", measure=len)
    tracer.wrap(session_mod, "parse_program", "parse")
    tracer.wrap(session_mod, "check_program", "check")
    tracer.wrap(
        infer_mod, "lower_definition", "lower",
        measure=lambda ir: count_ops(ir.ops),
    )


def _layers_infer(
    tracer: Tracer, rec: Recorder, workload: Any, before: Any
) -> Dict[str, Any]:
    f = rec.phase_factor()
    programs = rec.n_ops()
    passes = programs // len(workload.corpus)
    ops = sum(s.value for s in tracer.of("lower"))
    tokens = sum(s.value for s in tracer.of("tokenize"))
    tokenize_s = tracer.total("tokenize") * f
    return {
        "core.lexer.tokenize_s": tokenize_s / programs,
        "core.lexer.tokens_per_s": tokens / tokenize_s,
        "core.parser.parse_s": tracer.self_total("parse") * f / programs,
        "ir.lower.lower_s": tracer.total("lower") * f / programs,
        "ir.lower.ops": ops / passes,
        "ir.infer.sweep_s": tracer.self_total("check") * f / programs,
    }


def _install_bulk(tracer: Tracer, workload: Any) -> Dict[str, int]:
    import repro.semantics.shard as shard_mod
    from repro.semantics.pool import ShardWorkerPool

    tracer.wrap(shard_mod, "run_witness_sharded", "sharded")
    tracer.wrap(ShardWorkerPool, "run_shards", "run_shards")
    return workload.session.pool_stats()


def _layers_bulk(
    tracer: Tracer, rec: Recorder, workload: Any, before: Dict[str, int]
) -> Dict[str, Any]:
    f = rec.phase_factor()
    audits = rec.n_ops()
    after = workload.session.pool_stats()
    delta = {k: after[k] - before[k] for k in before}
    return {
        "semantics.pool.run_shards_s": tracer.total("run_shards") * f / audits,
        "semantics.shard.merge_s": tracer.self_total("sharded") * f / audits,
        "semantics.pool.prepared_hit_ratio": _ratio(
            delta["prepared_hits"], delta["prepared_misses"]
        ),
        "semantics.pool.restarts": delta["restarts"],
        "semantics.pool.pickle_fallbacks": delta["pickle_fallbacks"],
        "semantics.pool.shm_bytes_end": after["shm_bytes_in_flight"],
    }


def _install_rows(tracer: Tracer, workload: Any) -> None:
    import repro.api.result as result_mod
    import repro.semantics.batch as batch_mod
    import repro.service.server as server_mod

    tracer.wrap(batch_mod, "run_witness_batch", "batch")
    tracer.wrap(
        server_mod, "ramp_chunk_bounds", "chunks",
        measure=lambda bounds: len(bounds) - 1,
    )
    tracer.wrap(server_mod, "merge_stream_trailers", "merge")
    tracer.wrap(result_mod, "witness_row", "witness_row")
    tracer.wrap(server_mod, "render_stream_line", "render")
    tracer.wrap(server_mod, "render_payload", "render")


def _layers_rows(
    tracer: Tracer, rec: Recorder, workload: Any, before: Any
) -> Dict[str, Any]:
    f = rec.phase_factor()
    streams = rec.n_ops()
    return {
        "semantics.batch.run_s": tracer.total("batch") * f / streams,
        "api.stream.chunks": sum(s.value for s in tracer.of("chunks")) / streams,
        "api.stream.merge_s": tracer.total("merge") * f / streams,
        "api.result.witness_row_s": tracer.total("witness_row") * f / streams,
        "api.result.render_s": tracer.total("render") * f / streams,
    }


def _install_serve(tracer: Tracer, workload: Any) -> Dict[str, int]:
    tracer.wrap(workload.server.server.session, "audit", "audit")
    return workload.stats()["server"]


def _layers_serve(
    tracer: Tracer, rec: Recorder, workload: Any, before: Dict[str, int]
) -> Dict[str, Any]:
    f = rec.phase_factor()
    after = workload.stats()["server"]
    delta = {k: after[k] - before[k] for k in before}
    requests = rec.n_ops()
    latency = f * sum(
        op.answered - op.start for w in rec.windows for op in w.ops
    )
    audit_s = tracer.total("audit") * f / requests
    return {
        "service.server.audit_s": audit_s,
        "service.server.wait_s": latency / requests - audit_s,
        "service.server.prep_hit_ratio": _ratio(
            delta["prep_hits"], delta["prep_misses"]
        ),
        "service.server.audits_heavy": delta["audits_heavy"],
        "service.server.audit_failures": delta["audit_failures"],
        "service.server.http_errors": delta["http_errors"],
    }


#: Per workload: ``install(tracer, workload)`` wraps its layers and
#: returns the counters to diff; ``layers(tracer, rec, workload,
#: before)`` turns the spans into per-layer metrics.
LAYERS = {
    "infer": (_install_infer, _layers_infer),
    "bulk": (_install_bulk, _layers_bulk),
    "rows": (_install_rows, _layers_rows),
    "serve": (_install_serve, _layers_serve),
}


def traced_workload(
    workload: Any, phase_s: float
) -> Tuple[Dict[str, Any], Recorder, Recorder]:
    """Untraced then traced phase of one started workload.

    Returns its per-layer metrics (with ``trace.<name>.overhead_s``)
    and both phases' recorders.
    """
    install, layers = LAYERS[workload.name]
    clock = HostClock()
    plain = Recorder(clock, workload.tail_pct)
    workload.run(plain, phase_s, workload.pass_size())
    tracer = Tracer()
    traced = Recorder(clock, workload.tail_pct)
    try:
        before = install(tracer, workload)
        workload.run(traced, phase_s, workload.pass_size())
    finally:
        tracer.restore()
    metrics = layers(tracer, traced, workload, before)
    metrics[f"trace.{workload.name}.overhead_s"] = _mean_op_s(
        traced
    ) - _mean_op_s(plain)
    metrics["host.calib_s"] = clock.median_calib()
    return metrics, plain, traced
