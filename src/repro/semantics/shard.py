"""Sharding batch witness runs across worker processes.

The vectorized :class:`~repro.semantics.batch.BatchWitnessEngine` spends
its time in NumPy array kernels and ``Decimal`` object loops — CPU-bound
pure-Python work the GIL serializes onto one core.
:func:`run_witness_sharded` splits the environment rows into contiguous
shards, certifies each shard on a
:class:`~repro.semantics.pool.ShardWorkerPool` worker, and folds the
per-shard results into one
:class:`~repro.semantics.batch.BatchWitnessReport`, row indices intact.

Design points:

* **deterministic shard→row mapping** — shard ``i`` of ``W`` receives
  the contiguous rows ``[bounds[i], bounds[i+1])`` with the first
  ``n_rows % W`` shards one row longer (:func:`shard_bounds`), so the
  merged report's row ``i`` is always input row ``i`` regardless of
  worker scheduling;
* **one executor** — the shards run on a warm pool passed as ``pool=``,
  or else on a transient pool opened for this one audit and closed
  after it; either way the workers unpickle the ASTs and **re-lower the
  IR locally**, nothing relies on forked interpreter state, and a
  worker that dies mid-shard is restarted and its slice re-dispatched;
* **bit-identical results** — every shard runs the same engine
  configuration on its row slice, the engine is bitwise equal to
  looping :func:`~repro.semantics.witness.run_witness`, and the shard
  results fold through :class:`repro.api.merge.RowAggregate` (the one
  row-merge rule every split surface shares); the merged verdicts,
  distances, and captured per-row errors are exactly those of a
  single-process run.  Lazy per-row reports materialize in the parent
  by running the scalar witness on demand (reports cannot cross the
  process boundary — they hold closures over engine state).

``workers=None`` uses ``os.cpu_count()``; with one worker (or one row)
the call degrades to an in-process :func:`run_witness_batch`, so callers
can pass ``--workers`` unconditionally.  Setting ``REPRO_POOL=1``
routes every sharded run without ``pool=`` through a process-default
warm pool (how the nightly soak exercises pooled execution).
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, ContextManager, Mapping, Optional, Sequence

import numpy as np

from ..api.merge import RowAggregate, shard_bounds
from ..core import ast_nodes as A
from ..core.grades import BINARY64_UNIT_ROUNDOFF
from .batch import BatchWitnessEngine, BatchWitnessReport
from .pool import ShardWorkerPool, default_pool
from .witness import run_witness

__all__ = ["run_witness_sharded", "shard_bounds"]


def run_witness_sharded(
    definition: A.Definition,
    inputs: Mapping[str, Sequence],
    *,
    program: Optional[A.Program] = None,
    u: float = BINARY64_UNIT_ROUNDOFF,
    workers: Optional[int] = None,
    mp_context: Optional[str] = None,
    cache_dir: Optional[str] = None,
    pool: Optional[ShardWorkerPool] = None,
    compose: bool = False,
    **engine_options: Any,
) -> BatchWitnessReport:
    """Certify a batch of environments across ``workers`` processes.

    ``inputs`` takes the same shape as
    :func:`~repro.semantics.batch.run_witness_batch`; ``engine_options``
    are the engine's configuration kwargs (``precision``, ``rounding``,
    ``seed``, ``precision_bits``).  A pre-built lens cannot ship to
    worker processes — pass its configuration instead.

    ``pool`` dispatches the shards to a persistent
    :class:`~repro.semantics.pool.ShardWorkerPool` (repeat audits of a
    known fingerprint skip pickling and re-lowering).  Without it the
    audit opens a transient pool of one worker per shard and closes it
    afterwards; ``mp_context`` selects that pool's multiprocessing start
    method (default: the platform's).  Results are byte-identical
    either way.

    ``cache_dir`` names a shared on-disk artifact cache
    (:class:`repro.service.cache.ArtifactCache`): the parent activates
    it before building its engine — persisting the lowered IR, inlined
    IR, and judgments — and every worker warm-starts from it instead of
    re-lowering from the pickled AST.  Results are bitwise identical
    either way; the cache only changes who pays for lowering.

    With ``compose=True`` the execution IR is planned from composed
    per-definition summaries
    (:func:`repro.compose.engine.compose_execution_ir`) in the parent
    and re-planned deterministically in every worker — payload bytes
    are unchanged vs the non-composed audit.
    """
    if "lens" in engine_options:
        raise ValueError(
            "run_witness_sharded cannot ship a lens to worker processes; "
            "pass the engine configuration (precision, rounding, seed, "
            "precision_bits) instead"
        )
    if cache_dir:
        from ..service.cache import activate

        activate(cache_dir)
    if pool is None and os.environ.get("REPRO_POOL"):
        pool = default_pool()
    parent_options = dict(engine_options)
    if compose and program is not None:
        from ..compose.engine import compose_execution_ir, composed_judgments

        composed = composed_judgments(program)
        planned_ir, _execution = compose_execution_ir(
            definition, program, composed.summaries
        )
        parent_options["inlined_ir"] = planned_ir
    engine = BatchWitnessEngine(definition, program, u=u, **parent_options)
    # Pin the parent's resolved exact-arithmetic backend into the
    # options the workers receive: a worker must never re-resolve
    # ``REPRO_EXACT_BACKEND`` (or the default) for itself, so every
    # shard provably runs the same backend as the merged report claims.
    engine_options = dict(engine_options)
    engine_options["exact_backend"] = engine.exact_backend
    columns = engine._columns(inputs)
    n_rows = next(iter(columns.values())).shape[0]
    if workers is None:
        workers = os.cpu_count() or 1
    shards = max(1, min(int(workers), n_rows))
    if pool is not None:
        shards = min(shards, pool.workers)
    if shards <= 1 or n_rows == 0:
        return engine.run(inputs)

    bounds = shard_bounds(n_rows, shards)
    # Without a warm pool, a transient one serves this audit alone.
    executor: ContextManager[ShardWorkerPool] = (
        ShardWorkerPool(shards, mp_context=mp_context)
        if pool is None
        else contextlib.nullcontext(pool)
    )
    with executor as runner:
        results = runner.run_shards(
            definition,
            program,
            columns,
            bounds,
            u=u,
            engine_options=engine_options,
            cache_dir=cache_dir,
            compose=compose,
        )

    aggregate = RowAggregate(
        (p.name for p in definition.params), rows=engine.collect_rows
    )
    for (lo, hi), (_, _, errors, dist, fallback, rows) in zip(
        zip(bounds, bounds[1:]), results
    ):
        aggregate.add(
            hi - lo,
            errors=errors,
            fallback_rows=fallback,
            distances=dist.items(),
            rows=rows or (),
        )

    def materialize(i: int) -> Any:
        # Row reports cannot travel between processes; rebuild on demand
        # with the scalar runner, which the engine is bit-identical to.
        return run_witness(
            definition,
            engine._row_inputs(columns, i),
            program=program,
            u=u,
            lens=engine.lens,
        )

    return BatchWitnessReport(
        definition,
        n_rows,
        np.concatenate([r[0] for r in results]),
        np.concatenate([r[1] for r in results]),
        aggregate.errors,
        materialize,
        aggregate.max_distances(),
        dict(engine._bounds),
        fallback_rows=aggregate.fallback_rows,
        exact_backend=engine.exact_backend,
        rows=aggregate.rows,
    )
