"""The four workloads, each against a surface a user calls.

* ``infer`` — cold static inference: ``Session.parse`` + ``Session.check``
  on fresh Table-1 source text, so every identity cache misses.
* ``bulk`` — large buffered audits, ``Session(pool=True)`` and the
  ``sharded`` engine on a warm pool of one worker per core.
* ``rows`` — the same kernels streamed as per-row witnesses (schema v4
  NDJSON) from ``repro serve``, one stream at a time.
* ``serve`` — many small buffered ``batch`` audits over HTTP from
  closed-loop clients, spread over 16 hot programs.

Each workload object prepares its inputs (and any golden outputs) from
the seed, then offers :meth:`setup_once` (what ``setup_s`` times),
:meth:`run` (the measured phase) and :meth:`verify` (oracles that run
after it).  Every oracle mismatch counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import endpoints
from corpus import (
    KERNELS,
    SERVE_PROGRAMS,
    infer_corpus,
    kernel_rows,
    kernel_source,
    request_body,
)
from measure import SETUP_LOOPS, Op, Recorder, Window, run_serial

#: Rows per kernel audit in ``bulk``.
BULK_ROWS = {"Horner": 10000, "SafeDiv": 10000, "DotProd": 20000}
#: Rows per slice compared against the ``decimal`` reference engine.
BULK_SLICE_ROWS = 200
#: Rows per stream in ``rows``: a 256-row opening chunk and a short one.
STREAM_ROWS = 300
#: Rows per request and distinct input sets per program in ``serve``.
SERVE_ROWS = 50
SERVE_INPUT_SETS = 2
#: A closed-loop window in ``serve``: clients run, then pause for a
#: calibration mark.
SERVE_WINDOW_S = 0.25


#: Payload fields that name the engine and its configuration.
ENGINE_LABELS = {"engine", "exact_backend", "workers"}


class Mismatch(Exception):
    """An output differed from its independent reference."""


@dataclass
class Context:
    tmp: str
    env: Dict[str, str]
    cpus: int
    #: host ``repro serve`` in this process (traced runs) instead of a
    #: child process
    hosted: bool = False


def _passes(n: int, rng: random.Random) -> Iterator[List[int]]:
    """Endless passes over ``range(n)``, each in a fresh seeded order."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield order


class Workload:
    name = ""
    unit = ""
    tail_pct = 90.0
    min_ops = 100
    setup_repeats = 3

    def __init__(self, ctx: Context, seed: int) -> None:
        self.ctx = ctx
        self.rng = random.Random(seed)

    # Subclasses implement these.
    def setup_once(self) -> Callable[[], None]:
        """Start the program; return how to stop it."""
        raise NotImplementedError

    def ops(self) -> Sequence[Callable[[], Tuple[Optional[float], int]]]:
        raise NotImplementedError

    def verify(self, rec: Recorder) -> None:
        """Oracles that need the measured phase to have finished."""

    def pass_size(self) -> int:
        """Operations in one pass over every distinct input."""
        return len(self.ops())

    def run(self, rec: Recorder, seconds: float, min_ops: int) -> None:
        ops = self.ops()
        run_serial(rec, ops, _passes(len(ops), self.rng), seconds, min_ops)

    def setup(self, rec: Recorder, repeats: int) -> Callable[[], None]:
        """Time ``repeats`` start-ups; keep the last one running."""
        stop: Optional[Callable[[], None]] = None
        for _ in range(repeats):
            if stop is not None:
                stop()
            stop = rec.timed_setup(self.setup_once)
        assert stop is not None
        return stop


# -- infer ---------------------------------------------------------------


class Infer(Workload):
    name = "infer"
    unit = "programs/s"
    tail_pct = 90.0
    min_ops = 100
    setup_repeats = 7

    #: the corpus program a cold ``repro check`` process analyses
    COLD_PROGRAM = ("DotProd", 100)

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        from repro.api import Session

        self.corpus = infer_corpus()
        self.session = Session()
        cold = next(
            s for s in self.corpus if (s.family, s.size) == self.COLD_PROGRAM
        )
        self.cold = cold
        self.cold_path = os.path.join(ctx.tmp, "cold_check.bean")
        with open(self.cold_path, "w", encoding="utf-8") as handle:
            handle.write(cold.source)

    def cold_check(self) -> float:
        """One cold ``repro check --json`` process; its own start-up time."""
        script = os.path.join(os.path.dirname(__file__), "coldcheck.py")
        done = subprocess.run(
            [sys.executable, script, self.cold_path],
            capture_output=True,
            env=self.ctx.env,
            timeout=120,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(
                f"repro check failed: {done.stderr.decode()[-500:]}"
            )
        report = json.loads(done.stdout.decode().splitlines()[-1])
        bound = report["output"]["definitions"][0]["bounds"]["x"]
        if tuple(bound["coefficient"]) != self.cold.expected:
            raise Mismatch(f"repro check inferred {bound['grade']}")
        return float(report["seconds"])

    def setup_once(self) -> Callable[[], None]:
        return lambda: None  # in-process; nothing to start

    def setup(self, rec: Recorder, repeats: int) -> Callable[[], None]:
        self.cold_check()  # compiles bytecode once; not timed
        for _ in range(repeats):
            rec.clock.mark(SETUP_LOOPS)
            start = time.perf_counter()
            seconds = self.cold_check()
            rec.add_setup(start, start + seconds)
        return lambda: None

    def ops(self):
        session = self.session

        def make(item):
            def op():
                program = session.parse(item.source)
                judgment = session.check(program)[program.main.name]
                coeff = judgment.max_linear_grade().coeff
                if (coeff.numerator, coeff.denominator) != item.expected:
                    raise Mismatch(
                        f"{item.family}{item.size}: inferred {coeff}ε, "
                        f"Higham's bound is {item.expected}"
                    )
                return None, 1

            return op

        return [make(item) for item in self.corpus]


# -- bulk ----------------------------------------------------------------


class Bulk(Workload):
    name = "bulk"
    unit = "rows/s"
    tail_pct = 75.0
    min_ops = 40
    setup_repeats = 5

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        np_rng = np.random.default_rng(seed)
        self.kernels = []
        for family, size in KERNELS:
            source = kernel_source(family, size)
            n_rows = BULK_ROWS[family]
            inputs = kernel_rows(source, n_rows, np_rng)
            lo = int(np_rng.integers(0, n_rows - BULK_SLICE_ROWS))
            self.kernels.append((source, inputs, n_rows, lo))
        self.session = None
        self.programs: List[Any] = []
        self.last: Dict[int, Dict[str, Any]] = {}

    def _audit(self, k: int):
        _, inputs, n_rows, _ = self.kernels[k]
        result = self.session.audit(
            self.programs[k], inputs=inputs, engine="sharded",
            workers=self.ctx.cpus,
        )
        payload = result.payload
        if not result.sound or payload["sound_rows"] != n_rows:
            raise Mismatch(
                f"{payload['definition']}: {payload['sound_rows']} of "
                f"{n_rows} rows sound"
            )
        self.last[k] = payload
        return result

    def setup_once(self) -> Callable[[], None]:
        from repro.api import Session

        session = Session(
            pool=True, pool_workers=self.ctx.cpus, workers=self.ctx.cpus
        )
        self.session = session
        try:
            self.programs = [session.parse(k[0]) for k in self.kernels]
            for k in range(len(self.kernels)):
                self._audit(k)
        except BaseException:
            session.close()
            raise
        return session.close

    def ops(self):
        def make(k):
            def op():
                self._audit(k)
                return None, self.kernels[k][2]

            return op

        return [make(k) for k in range(len(self.kernels))]

    def verify(self, rec: Recorder) -> None:
        """Seeded slices: pool-sharded bytes == the ``decimal`` engine's."""
        from repro.api import Session, render_payload

        reference = Session()
        for k, (source, inputs, n_rows, lo) in enumerate(self.kernels):
            rec.attempted += 1
            hi = lo + BULK_SLICE_ROWS
            piece = {name: rows[lo:hi] for name, rows in inputs.items()}
            sharded = self.session.audit(
                self.programs[k], inputs=piece, engine="sharded",
                workers=self.ctx.cpus,
            )
            decimal = reference.audit(
                reference.parse(source), inputs=piece, engine="decimal"
            ).payload
            # Engine labels differ by design; every other field must
            # match byte for byte, in the sharded payload's key order.
            mine = sharded.payload
            if set(decimal) - ENGINE_LABELS != set(mine) - ENGINE_LABELS:
                rec.fail(f"kernel {k}: payload fields differ from decimal")
                continue
            decimal = {
                key: mine[key] if key in ENGINE_LABELS else decimal[key]
                for key in mine
            }
            full = self.last.get(k)
            if sharded.to_json() != render_payload(decimal):
                rec.fail(f"kernel {k}: sharded slice differs from decimal")
            elif full is None or (
                full["sound"][lo:hi] != decimal["sound"]
                or full["exact"][lo:hi] != decimal["exact"]
            ):
                rec.fail(f"kernel {k}: full-run verdicts differ from decimal")


# -- rows and serve: the HTTP workloads ----------------------------------


class _Served(Workload):
    """A workload against one ``repro serve`` instance."""

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        self.server: Any = None
        self.warm_bodies: List[bytes] = []

    def setup_once(self) -> Callable[[], None]:
        if self.ctx.hosted:
            server = endpoints.HostedServer()
        else:
            server = endpoints.ChildServer(
                self.ctx.env, os.path.join(self.ctx.tmp, "serve.log")
            )
        try:
            for body in self.warm_bodies:
                status, reply = endpoints.post(server.host, server.port, body)
                if status != 200:
                    raise RuntimeError(
                        f"warm-up audit answered {status}: {reply[:200]!r}"
                    )
        except BaseException:
            server.close()
            raise
        self.server = server
        return server.close

    def stats(self) -> Dict[str, Any]:
        return endpoints.get_json(self.server.host, self.server.port, "/stats")


class Rows(_Served):
    name = "rows"
    unit = "rows/s"
    tail_pct = 75.0
    min_ops = 40
    setup_repeats = 5

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        np_rng = np.random.default_rng(seed)
        self.kernels = []
        for family, size in KERNELS:
            source = kernel_source(family, size)
            inputs = kernel_rows(source, STREAM_ROWS, np_rng)
            body = request_body(
                source, inputs, engine="batch", stream=True
            )
            one_row = {name: rows[:1] for name, rows in inputs.items()}
            self.warm_bodies.append(
                request_body(source, one_row, engine="batch")
            )
            self.kernels.append((source, inputs, body))
        #: distinct raw streams seen per kernel
        self.seen: List[Dict[bytes, bytes]] = [{} for _ in self.kernels]

    def ops(self):
        def make(k):
            body = self.kernels[k][2]

            def op():
                status, first, lines = endpoints.post_stream(
                    self.server.host, self.server.port, body
                )
                if status != 200 or first is None:
                    raise Mismatch(f"stream answered {status}: {lines[:1]!r}")
                raw = b"".join(lines)
                digest = hashlib.sha256(raw).digest()
                self.seen[k].setdefault(digest, raw)
                return first, STREAM_ROWS

            return op

        return [make(k) for k in range(len(self.kernels))]

    def verify(self, rec: Recorder) -> None:
        """Every distinct stream reassembles to the buffered payload."""
        from repro.api import Session, assemble_stream_payload, render_payload

        reference = Session()
        for k, (source, inputs, _) in enumerate(self.kernels):
            golden = reference.audit(
                reference.parse(source), inputs=inputs, engine="batch",
                rows=True,
            ).to_json()
            for raw in self.seen[k].values():
                objs = [json.loads(line) for line in raw.splitlines()]
                header, trailer = objs[0], objs[-1]
                text = render_payload(
                    assemble_stream_payload(header, objs[1:-1], trailer)
                )
                if text != golden:
                    rec.fail(f"kernel {k}: reassembled stream != buffered")


class Serve(_Served):
    name = "serve"
    unit = "requests/s"
    tail_pct = 95.0
    min_ops = 200
    setup_repeats = 5

    def __init__(self, ctx: Context, seed: int) -> None:
        super().__init__(ctx, seed)
        from repro.api import Session

        np_rng = np.random.default_rng(seed)
        reference = Session()
        self.requests: List[Tuple[bytes, bytes]] = []
        for family, size in SERVE_PROGRAMS:
            source = kernel_source(family, size)
            program = reference.parse(source)
            for i in range(SERVE_INPUT_SETS):
                inputs = kernel_rows(source, SERVE_ROWS, np_rng)
                body = request_body(source, inputs, engine="batch")
                golden = reference.audit(
                    program, inputs=inputs, engine="batch"
                ).to_json()
                self.requests.append((body, (golden + "\n").encode()))
                if i == 0:
                    self.warm_bodies.append(body)
        self.clients = max(1, min(2, ctx.cpus))

    def pass_size(self) -> int:
        return len(self.requests)

    def run(self, rec: Recorder, seconds: float, min_ops: int) -> None:
        """Closed-loop clients in windows, a calibration mark between.

        Each client sends its next request when the previous one has
        answered.  A window ends when the clock says so and every
        client's in-flight request has answered.
        """
        order = itertools.chain.from_iterable(
            _passes(len(self.requests), self.rng)
        )
        take = threading.Lock()
        gate = threading.Barrier(self.clients + 1)
        state = {"open": False}
        per_client: List[List[Op]] = [[] for _ in range(self.clients)]
        failures: List[str] = []
        host, port = self.server.host, self.server.port

        def client(slot: int) -> None:
            while True:
                try:
                    gate.wait()
                except threading.BrokenBarrierError:
                    return  # the run is over
                while state["open"]:
                    with take:
                        index = next(order)
                        rec.attempted += 1
                    body, golden = self.requests[index]
                    start = time.perf_counter()
                    try:
                        status, reply = endpoints.post(host, port, body)
                    except OSError as exc:
                        with take:
                            failures.append(f"{type(exc).__name__}: {exc}")
                        continue
                    end = time.perf_counter()
                    if status != 200 or reply != golden:
                        with take:
                            failures.append(
                                f"request {index}: status {status}, body "
                                f"{'differs' if status == 200 else reply[:200]!r}"
                            )
                        continue
                    per_client[slot].append(Op(start, end, 1))
                try:
                    gate.wait()
                except threading.BrokenBarrierError:
                    return

        threads = [
            threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
            for i in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        try:
            rec.clock.mark()
            deadline = time.perf_counter() + seconds
            give_up = deadline + 2 * seconds
            while True:
                state["open"] = True
                gate.wait()
                start = time.perf_counter()
                time.sleep(SERVE_WINDOW_S)
                state["open"] = False
                gate.wait()
                end = time.perf_counter()
                ops = sorted(
                    (op for ops in per_client for op in ops),
                    key=lambda op: op.start,
                )
                for ops_of_client in per_client:
                    ops_of_client.clear()
                rec.windows.append(Window(start, end, end - start, ops))
                rec.clock.mark()
                now = time.perf_counter()
                if (now >= deadline and rec.n_ops() >= min_ops) or (
                    now >= give_up
                ):
                    break
        finally:
            state["open"] = False
            gate.abort()
            for thread in threads:
                thread.join(endpoints.REQUEST_TIMEOUT_S)
        for message in failures:
            rec.fail(message)


WORKLOADS = {w.name: w for w in (Infer, Bulk, Rows, Serve)}
