"""Run one ``groupdet`` CLI call in a forked child, as a cold process would.

The parent imports ``groupdet.cli`` once and never calls into the package,
so every child starts with the package's in-process caches empty: the
Cayley tables behind ``poly_from_json`` and ``build_group`` are rebuilt on
every call, exactly as each command-line invocation rebuilds them.  Only
the interpreter start-up and the import are shared; the benchmark reports
those separately as ``setup_s``.

Calls run one at a time.  Each child's peak resident set comes from
``os.wait4``; it includes the pages inherited from the parent, as a fresh
``groupdet`` process would hold the same imported modules.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Optional

# Exit status of a child whose call raised instead of returning a code.
CHILD_CRASHED = 70


@dataclass
class CallResult:
    argv: list
    code: Optional[int]  # None when the child crashed
    stdout: str
    stderr: str
    start: float  # perf_counter in the parent, just before fork
    end: float  # perf_counter in the parent, after the child was reaped
    peak_rss_mb: float
    trace: Optional[dict]

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _child(argv, trace: bool) -> dict:
    import groupdet.cli

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer.install()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = groupdet.cli.main(list(argv))
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "trace": tracer.snapshot() if tracer else None}


def run_call(argv, trace: bool = False) -> CallResult:
    """Fork, run ``groupdet.cli.main(argv)`` in the child, reap it."""
    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller
        status = CHILD_CRASHED
        try:
            os.close(rfd)
            data = json.dumps(_child(argv, trace)).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    payload = None
    if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0:
        payload = json.loads(data)
    return CallResult(
        argv=list(argv),
        code=None if payload is None else payload["code"],
        stdout="" if payload is None else payload["stdout"],
        stderr="" if payload is None else payload["stderr"],
        start=start,
        end=end,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        trace=None if payload is None else payload["trace"],
    )
