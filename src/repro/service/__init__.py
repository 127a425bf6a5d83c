"""The serving layer: persistent artifacts and the concurrent audit service.

Every other package in this repository does *per-program* work — parse,
typecheck, lower to the flat IR, inline calls, infer grades — from
scratch on every process start.  This package amortizes that work across
processes and across requests:

* :mod:`repro.service.fingerprint` — a canonical, alpha-invariant
  content hash for Bean programs, stable across parses and processes
  (the parser's fresh-name counter makes raw AST hashing unstable);
* :mod:`repro.service.cache` — an on-disk content-addressed artifact
  cache (lowered IR, inlined IR, inferred judgments) with atomic
  write-then-rename, digest verification on read, and LRU eviction.
  :func:`~repro.service.cache.activate` plugs it in as the outer layer
  behind the identity-keyed in-memory caches of :mod:`repro.ir.cache`,
  and warm-starts the per-worker re-lowering of
  :mod:`repro.semantics.pool`;
* :mod:`repro.service.protocol` — a minimal HTTP/1.1 reader/writer
  over asyncio streams (stdlib only); the JSON payload schema lives in
  :mod:`repro.api.result`;
* :mod:`repro.service.server` — ``repro serve``: an asyncio audit
  server that coalesces concurrent requests for the same program hash
  and dispatches every audit through :class:`repro.api.Session` — the
  CLI's own path, so served responses are bitwise identical to one-shot
  CLI runs by construction;
* :mod:`repro.service.client` — ``repro client``: a blocking HTTP
  client for the audit protocol.
"""

from .cache import ArtifactCache, activate, active_cache, deactivate
from .fingerprint import fingerprint_definition, fingerprint_program
from .server import AuditServer

__all__ = [
    "ArtifactCache",
    "AuditServer",
    "activate",
    "active_cache",
    "deactivate",
    "fingerprint_definition",
    "fingerprint_program",
]
