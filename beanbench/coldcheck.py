"""Time one cold ``repro check --json FILE`` inside a fresh interpreter.

Usage (with the repository's ``src`` directory on ``PYTHONPATH``)::

    python3 beanbench/coldcheck.py FILE.bean

Prints one JSON line, ``{"seconds": S, "output": <check JSON>}``.  The
clock starts after interpreter start-up, so ``S`` is the program's own
start-up and work: importing ``repro``, parsing, checking, rendering.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main() -> int:
    start = time.perf_counter()
    from repro.cli import main as cli

    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli(["check", sys.argv[1], "--json"])
    seconds = time.perf_counter() - start
    if code != 0:
        sys.stderr.write(captured.getvalue())
        return code
    print(json.dumps({"seconds": seconds, "output": json.loads(captured.getvalue())}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
