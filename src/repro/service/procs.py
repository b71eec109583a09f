"""Worker-process supervision: spawn, respawn, and orphan-proof teardown.

One :class:`WorkerSupervisor` owns a fleet of ``python -m repro work``
subprocesses on behalf of a foreground command (``repro serve --procs``)
or a long-lived server (``repro serve --http --procs``).  It does three
things, all of them boring on the happy path and load-bearing on the sad
one:

* **respawn** — a worker that exits while jobs remain is replaced, up to
  a budget (a crash loop must terminate, not spin forever);
* **reap** — teardown delivers SIGTERM to *every* worker, waits out one
  shared deadline, and SIGKILLs whatever ignored it.  The two-pass shape
  matters: the old inline loop called ``proc.wait(timeout=10)`` per
  process, and the first hung worker raised ``TimeoutExpired`` out of the
  ``finally`` block — skipping the wait (and any kill) for every worker
  after it, leaving orphans holding live leases;
* **account** — ``spawned``/``worker_deaths`` counters for the caller's
  summary line.

:class:`WorkerSpawner` is the one ``repro work`` process factory and
:meth:`WorkerSupervisor.drain` the one supervision loop over a
:class:`~repro.service.JobQueue`, shared by ``repro serve --procs`` and
the chaos load generator.

Workers handle SIGTERM by releasing their current lease back to the
queue (see :func:`repro.service.worker.run`), so a reaped fleet leaves
zero held leases; the SIGKILL fallback leans on lease expiry like any
other crash.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
import time
from collections.abc import Callable, Sequence
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .queue import JobQueue


class WorkerSpawner:
    """A ``python -m repro work`` process factory for :class:`WorkerSupervisor`.

    Worker ``n`` (from 1) runs ``repro work QUEUE_DIR *options --worker-id
    {prefix}-w{n} *per_worker(n)`` with this package's root leading
    ``PYTHONPATH``, so children import the same code as the parent.
    ``procs`` keeps every process started, in spawn order.
    """

    def __init__(
        self,
        queue_dir: str | Path,
        options: Sequence[str],
        *,
        prefix: str,
        per_worker: Callable[[int], Sequence[str]] = lambda index: (),
    ) -> None:
        self.command = [sys.executable, "-m", "repro", "work", str(queue_dir), *options]
        self.prefix = prefix
        self.per_worker = per_worker
        inherited = [os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []
        package_root = str(Path(__file__).resolve().parents[2])
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join([package_root, *inherited])}
        self.procs: list[subprocess.Popen] = []

    def __call__(self) -> subprocess.Popen:
        index = len(self.procs) + 1
        self.procs.append(subprocess.Popen(
            [*self.command, "--worker-id", f"{self.prefix}-w{index}", *self.per_worker(index)],
            env=self.env,
        ))
        return self.procs[-1]


class WorkerSupervisor:
    """Keep ``count`` worker subprocesses alive; tear them all down on exit.

    ``spawn`` builds and starts one worker (a ``subprocess.Popen``
    factory — the supervisor is agnostic to the command line).
    ``respawn_budget`` bounds total replacements across the supervisor's
    lifetime; when it runs out, dead workers stay dead and ``alive``
    eventually reaches zero, which callers treat as "give up loudly".
    """

    def __init__(
        self,
        spawn: Callable[[], subprocess.Popen],
        count: int,
        *,
        respawn_budget: int | None = None,
    ) -> None:
        if count < 1:
            raise ValueError("need at least one worker process")
        self._spawn = spawn
        self.count = count
        self.respawn_budget = respawn_budget if respawn_budget is not None else count * 8
        self.spawned = 0
        self.worker_deaths = 0
        self._procs: list[subprocess.Popen] = []

    # ---------------------------------------------------------------- fleet

    def start(self) -> None:
        """Launch the initial fleet (idempotent: only from a cold state)."""
        if self._procs:
            raise RuntimeError("supervisor already started")
        self._procs = [self._spawn_one() for _ in range(self.count)]

    def tick(self) -> None:
        """One supervision pass: collect exits, respawn within budget."""
        alive = []
        for proc in self._procs:
            code = proc.poll()
            if code is None:
                alive.append(proc)
                continue
            if code != 0:
                self.worker_deaths += 1
            if self.respawn_budget > 0:
                self.respawn_budget -= 1
                alive.append(self._spawn_one())
        self._procs = alive

    @property
    def alive(self) -> int:
        """Workers currently running (after the last tick/reap)."""
        return sum(1 for proc in self._procs if proc.poll() is None)

    def drain(
        self,
        queue: JobQueue,
        deadline: float,
        *,
        poll: float = 0.1,
        on_tick: Callable[[dict[str, int]], None] | None = None,
    ) -> bool:
        """Start the fleet and supervise it until ``queue`` has nothing in flight.

        Each pass expires overdue leases (a dead worker's job migrates on
        the supervisor's schedule, not at the next claim), hands the state
        counts to ``on_tick``, and respawns within budget.  Returns True
        when ``deadline`` (a ``time.monotonic()`` value) passed first;
        False once the queue drained or every worker is gone with the
        budget spent.  Never reaps: callers do that in a ``finally``.
        """
        self.start()
        while True:
            queue.expire_overdue()
            counts = queue.counts()
            if counts["pending"] + counts["leased"] == 0:
                return False
            if time.monotonic() > deadline:
                return True
            if on_tick is not None:
                on_tick(counts)
            self.tick()
            if not self.alive:
                return False
            time.sleep(poll)

    def _spawn_one(self) -> subprocess.Popen:
        self.spawned += 1
        return self._spawn()

    # ------------------------------------------------------------- teardown

    def reap(self, timeout: float = 10.0) -> int:
        """Terminate every worker; SIGKILL stragglers.  Returns kill count.

        Termination is all-or-nothing by construction: signals first
        (nothing here can raise past a dead process — ``suppress`` covers
        the already-exited race), then one *shared* deadline across the
        fleet, then ``kill()`` for whatever is still up.  A worker that
        ignores SIGTERM can therefore never shield its siblings from
        teardown, which is exactly the bug this replaces.
        """
        for proc in self._procs:
            with contextlib.suppress(OSError):
                proc.terminate()
        deadline = time.monotonic() + timeout
        stubborn: list[subprocess.Popen] = []
        for proc in self._procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                stubborn.append(proc)
        for proc in stubborn:
            with contextlib.suppress(OSError):
                proc.kill()
        for proc in stubborn:
            # Unbounded on purpose: after SIGKILL the only wait is for the
            # kernel to collect the zombie, which cannot block meaningfully.
            proc.wait()
        self._procs = []
        return len(stubborn)
