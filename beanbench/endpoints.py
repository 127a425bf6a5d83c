"""How the benchmark reaches ``repro serve``, and what it checks after.

Untraced runs talk to a ``repro serve`` child process, the way callers
do.  Traced runs host an :class:`AuditServer` in this process instead,
so that the tracer's wrappers see its internals; the benchmark owns
that event loop and awaits the server's ``stop()`` on it.  Requests go
through plain :mod:`http.client`, sharing no code with the program's
own client.  :class:`Hygiene` checks that a workload left no child
process, shared-memory segment or thread behind.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import selectors
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Set, Tuple

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0
REQUEST_TIMEOUT_S = 60.0


class ChildServer:
    """``python -m repro.cli serve --port 0`` until :meth:`close`."""

    def __init__(self, env: Dict[str, str], log_path: str) -> None:
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
        )
        self.host = "127.0.0.1"
        try:
            self.port = self._await_ready()
        except BaseException:
            self.close()
            raise

    def _await_ready(self) -> int:
        assert self.proc.stdout is not None
        line = b""
        deadline = time.monotonic() + READY_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while not line.endswith(b"\n"):
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError("repro serve did not start in time")
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"repro serve exited with {self.proc.wait()}"
                    )
                line += chunk
        text = line.decode("utf-8", "replace")
        marker = "listening on "
        if marker not in text:
            raise RuntimeError(f"unexpected repro serve banner: {text!r}")
        address = text.split(marker, 1)[1].split()[0]
        return int(address.rsplit(":", 1)[1])

    def close(self) -> None:
        """Interrupt the server, wait for it, kill it if it hangs."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(STOP_TIMEOUT_S)
        finally:
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._log.close()


class HostedServer:
    """An :class:`AuditServer` on an event loop this object owns."""

    def __init__(self) -> None:
        from repro.service.server import AuditServer

        self.server = AuditServer(port=0)
        self.host = "127.0.0.1"
        self.loop = asyncio.new_event_loop()
        self._error: Optional[BaseException] = None
        ready = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            try:
                self.loop.run_until_complete(self.server.start())
            except BaseException as exc:  # handed to the caller below
                self._error = exc
                ready.set()
                return
            ready.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, name="bench-server")
        self.thread.start()
        if not ready.wait(READY_TIMEOUT_S) or self._error is not None:
            self.close()
            raise RuntimeError(f"hosted server failed: {self._error!r}")
        self.port = self.server.port

    def close(self) -> None:
        if self.thread.is_alive() and self._error is None:
            stopping = asyncio.run_coroutine_threadsafe(
                self.server.stop(), self.loop
            )
            try:
                stopping.result(STOP_TIMEOUT_S)
            finally:
                self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(STOP_TIMEOUT_S)
        if not self.thread.is_alive():
            self.loop.close()


def post(host: str, port: int, body: bytes) -> Tuple[int, bytes]:
    """One buffered ``POST /audit``; returns ``(status, body)``."""
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(
            "POST", "/audit", body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def post_stream(
    host: str, port: int, body: bytes
) -> Tuple[int, Optional[float], List[bytes]]:
    """A streamed ``POST /audit``: ``(status, first_row_at, lines)``.

    ``first_row_at`` is the ``perf_counter`` time at which the first
    per-row verdict line had arrived.
    """
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request(
            "POST", "/audit", body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        if response.status != 200:
            return response.status, None, [response.read()]
        lines: List[bytes] = []
        first_row: Optional[float] = None
        while True:
            line = response.readline()
            if not line:
                break
            if first_row is None and line.startswith(b'{"row"'):
                first_row = time.perf_counter()
            lines.append(line)
        return response.status, first_row, lines
    finally:
        conn.close()


def get_json(host: str, port: int, path: str) -> Dict[str, Any]:
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return json.loads(response.read())
    finally:
        conn.close()


def _tracker_pid() -> Optional[int]:
    """The stdlib shared-memory resource tracker's pid, if running.

    It is a child of every process that touched shared memory and
    lives until :func:`stop_resource_tracker` (or interpreter exit), so
    it is exempt from the per-workload leak check.
    """
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def stop_resource_tracker() -> None:
    """Stop and reap the resource tracker this process started."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def child_pids() -> Set[int]:
    """Live or unreaped children of this process, from ``/proc``."""
    me = os.getpid()
    children = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[1]) == me:
            children.add(int(entry))
    return children


def _shm_segments() -> Set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


class Hygiene:
    """Snapshot before a workload; :meth:`leaks` lists what it left."""

    def __init__(self) -> None:
        self.children = child_pids()
        self.shm = _shm_segments()
        self.threads = {t.ident for t in threading.enumerate()}

    def leaks(self, grace_s: float = 5.0) -> List[str]:
        deadline = time.monotonic() + grace_s
        while True:
            children = child_pids() - self.children - {_tracker_pid()}
            shm = _shm_segments() - self.shm
            threads = [
                t.name
                for t in threading.enumerate()
                if t.ident not in self.threads
            ]
            clean = not (children or shm or threads)
            if clean or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        found = []
        if children:
            found.append(f"leftover child processes: {sorted(children)}")
        if shm:
            found.append(f"leftover /dev/shm segments: {sorted(shm)}")
        if threads:
            found.append(f"leftover threads: {sorted(threads)}")
        return found
