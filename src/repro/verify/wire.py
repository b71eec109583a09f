"""A stdlib client for the sweep front-end's HTTP/JSON wire protocol.

The ``http`` differential check and ``scripts/loadgen.py --http`` drive
a live :class:`~repro.service.SweepHTTPServer` the same way — submit a
batch, stream ndjson rows, read store stats, probe admission — so both
use these helpers instead of carrying their own ``urllib`` loops.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from collections.abc import Iterator
from contextlib import contextmanager

from ..service.http import SweepFrontend, serve_in_thread


@contextmanager
def serving(frontend: SweepFrontend) -> Iterator[str]:
    """Serve ``frontend`` on an ephemeral localhost port; yields the base URL.

    On exit the server shuts down and the frontend (with its backend)
    closes.
    """
    server = serve_in_thread(frontend)
    try:
        yield f"http://127.0.0.1:{server.port}"
    finally:
        server.shutdown()
        server.server_close()
        frontend.close()


def submit(base: str, payload: object, timeout: float) -> list[str]:
    """POST one sweep batch; the accepted request ids (HTTPError on refusal)."""
    body = json.dumps(payload).encode("utf-8")
    with urllib.request.urlopen(
        urllib.request.Request(f"{base}/v1/sweeps", data=body), timeout=timeout
    ) as resp:
        return json.load(resp)["request_ids"]


def stream(base: str, request_id: str, timeout: float) -> tuple[list[dict], dict]:
    """Stream one request's results: (rows, closing summary record).

    Rows arrive in completion order, which is nondeterministic under
    concurrency; they come back sorted by cell so runs compare as
    ordered sets of cells.
    """
    rows: list[dict] = []
    summary: dict = {}
    with urllib.request.urlopen(
        f"{base}/v1/sweeps/{request_id}/results", timeout=timeout
    ) as resp:
        for line in resp:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("done"):
                summary = record
            else:
                rows.append(record)
    rows.sort(key=lambda r: (r["policy_spec"], r["scenario"]))
    return rows, summary


def get_json(base: str, path: str, timeout: float) -> dict:
    """GET one JSON document (``/v1/stores/stats`` and friends)."""
    with urllib.request.urlopen(f"{base}{path}", timeout=timeout) as resp:
        return json.load(resp)


def admission_problem(base: str, payload: object) -> str | None:
    """Submit to a server whose admission table is full; what went wrong, or None.

    The submit must be refused with 429 plus a ``Retry-After`` header
    within 10 s.  The 30 s socket timeout makes a hang a failure, not a
    wait.
    """
    t0 = time.perf_counter()
    try:
        submit(base, payload, timeout=30)
    except urllib.error.HTTPError as exc:
        elapsed = time.perf_counter() - t0
        if exc.code != 429:
            return f"expected 429 from a full server, got {exc.code}"
        if exc.headers.get("Retry-After") is None:
            return "429 rejection carried no Retry-After header"
        if elapsed >= 10.0:
            return f"429 took {elapsed:.1f}s (must not hang)"
        return None
    return "full admission table accepted a submit"
