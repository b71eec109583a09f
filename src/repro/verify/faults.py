"""Deterministic fault injection for the crash-safe queue tier.

This module *proves* the queue's robustness story instead of asserting
it: a seeded :class:`FaultPlan` schedules worker kills, heartbeat
stalls, torn run-store writes, and slow I/O at precise execution
boundaries (the :class:`~repro.service.worker.WorkerHooks` sites), and
:func:`run_fault_sweep` drains a real on-disk queue through a
supervisor that keeps replacing dead workers — then audits the wreckage
against the contract:

* **zero lost jobs** — every enqueued job ends ``done``;
* **zero duplicate effects** — exactly one run-store entry per unique
  job; re-executions after a crash commit idempotently into the same
  content address;
* **corrupt entries quarantined** — the torn write is detected by the
  store probe, counted, removed, and never served;
* **bit equality** — every committed run is field-for-field identical
  to a serial :func:`~repro.runtime.runner.run_policy` of the same job.

Faults fire deterministically by ``(worker id, nth successful claim)``,
so a failing replay reproduces with the same plan.  Two hook flavours
exist: :class:`FaultHooks` raises
:class:`~repro.service.worker.WorkerKilled` through an in-process worker
thread (cheap enough for the per-scenario ``faults`` differential
check), and :class:`ProcessFaultHooks` delivers a real ``SIGKILL`` to
its own process (the integration test and chaos loadgen path).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Sequence

from ..data.scenario import Scenario
from ..models.zoo import ModelZoo, default_zoo
from ..runtime.trace import ScenarioTrace
from ..service.worker import QueueWorker, WorkerHooks, WorkerKilled
from .drain import DrainOutcome, QueueRig

FAULT_PLAN_SCHEMA_VERSION = 1

#: Every fault kind a plan may schedule.
FAULT_KINDS = ("kill", "kill_late", "torn", "stall", "slow")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: fires on ``worker``'s ``claim_index``-th claim.

    ``param`` is kind-specific: sleep seconds for ``stall``/``slow``
    (0 = a kind-appropriate default derived from the lease duration);
    unused otherwise.
    """

    worker: str
    claim_index: int
    kind: str
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.claim_index < 0:
            raise ValueError("claim_index must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A full injection schedule plus the kinds it guarantees will fire.

    ``required`` names the kinds the outcome must observe at least once —
    the plan's *coverage contract*.  Kinds scheduled on workers that may
    never claim (late replacements on a small queue) are listed in
    ``events`` but not in ``required``.
    """

    events: tuple[FaultEvent, ...]
    required: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        scheduled = {event.kind for event in self.events}
        missing = [kind for kind in self.required if kind not in scheduled]
        if missing:
            raise ValueError(f"required kinds {missing} have no scheduled events")

    def events_for(self, worker: str, claim_index: int) -> tuple[FaultEvent, ...]:
        """The events armed for one (worker, claim) coordinate."""
        return tuple(
            event for event in self.events
            if event.worker == worker and event.claim_index == claim_index
        )

    def to_dict(self) -> dict:
        return {
            "schema_version": FAULT_PLAN_SCHEMA_VERSION,
            "required": list(self.required),
            "events": [
                {
                    "worker": event.worker,
                    "claim_index": event.claim_index,
                    "kind": event.kind,
                    "param": event.param,
                }
                for event in self.events
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        if payload.get("schema_version") != FAULT_PLAN_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fault plan schema {payload.get('schema_version')!r}"
            )
        return cls(
            events=tuple(
                FaultEvent(
                    worker=str(entry["worker"]),
                    claim_index=int(entry["claim_index"]),
                    kind=str(entry["kind"]),
                    param=float(entry.get("param", 0.0)),
                )
                for entry in payload["events"]
            ),
            required=tuple(str(kind) for kind in payload.get("required", [])),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), sort_keys=True, allow_nan=False),
            encoding="utf-8",
        )
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def fault_plan_for_check() -> FaultPlan:
    """The full-coverage plan the ``faults`` differential check replays.

    The two initial workers die on their first claims (one plain kill,
    one torn write) — with at least two jobs queued, both are guaranteed
    to claim, so both kinds fire.  Every replacement's *first* claim
    stalls past its lease (the requeued jobs must be claimed by a
    replacement, so at least one stall fires), and one replacement's
    second claim is merely slow.  ``kill``/``torn``/``stall`` are the
    coverage contract; ``slow`` is best-effort.
    """
    return FaultPlan(
        events=(
            FaultEvent(worker="w0", claim_index=0, kind="kill"),
            FaultEvent(worker="w1", claim_index=0, kind="torn"),
            FaultEvent(worker="w2", claim_index=0, kind="stall"),
            FaultEvent(worker="w3", claim_index=0, kind="stall"),
            FaultEvent(worker="w2", claim_index=1, kind="slow", param=0.05),
            FaultEvent(worker="w4", claim_index=0, kind="kill_late"),
        ),
        required=("kill", "torn", "stall"),
    )


# ----------------------------------------------------------------- hooks


class FaultHooks(WorkerHooks):
    """Replays a :class:`FaultPlan` against in-process worker threads.

    Shared by every worker in a sweep: claims are counted per worker id,
    so one hooks instance arms each worker's events independently.
    ``fired`` tallies what actually happened for the outcome assertions.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()  # repro: guards[_claims, _active, fired]
        self._claims: dict[str, int] = {}
        self._active: dict[str, tuple[FaultEvent, ...]] = {}
        self.fired: dict[str, int] = dict.fromkeys(FAULT_KINDS, 0)

    def claimed(self, worker: QueueWorker, lease) -> None:
        with self._lock:
            index = self._claims.get(worker.worker_id, 0)
            self._claims[worker.worker_id] = index + 1
            self._active[worker.worker_id] = self.plan.events_for(worker.worker_id, index)

    def heartbeat_ok(self, worker: QueueWorker, lease) -> bool:
        return self._event(worker, "stall") is None

    def before_commit(self, worker: QueueWorker, lease, run_path: Path | None) -> None:
        slow = self._event(worker, "slow")
        if slow is not None:
            self._fire("slow")
            time.sleep(slow.param if slow.param > 0 else 0.05)
        stall = self._event(worker, "stall")
        if stall is not None:
            # Heartbeats are already suppressed (heartbeat_ok); sleeping
            # past the deadline makes the lease expire under a live,
            # still-working owner — the nonce fence is what's under test.
            self._fire("stall")
            time.sleep(stall.param if stall.param > 0 else worker.queue.lease_duration * 1.6)
        torn = self._event(worker, "torn")
        if torn is not None:
            self._fire("torn")
            if run_path is not None:
                # A crash mid-write outside the atomic helpers: garbage at
                # the final path.  The store must quarantine, never serve.
                run_path.parent.mkdir(parents=True, exist_ok=True)
                run_path.write_text('{"torn', encoding="utf-8")
            self._kill(worker)
        if self._event(worker, "kill") is not None:
            self._fire("kill")
            self._kill(worker)

    def before_complete(self, worker: QueueWorker, lease) -> None:
        if self._event(worker, "kill_late") is not None:
            self._fire("kill_late")
            self._kill(worker)

    def _event(self, worker: QueueWorker, kind: str) -> FaultEvent | None:
        with self._lock:
            for event in self._active.get(worker.worker_id, ()):
                if event.kind == kind:
                    return event
        return None

    def _fire(self, kind: str) -> None:
        with self._lock:
            self.fired[kind] += 1

    def _kill(self, worker: QueueWorker) -> None:
        raise WorkerKilled(f"fault plan killed {worker.worker_id}")


class ProcessFaultHooks(FaultHooks):
    """The process flavour: kills are real, uncatchable ``SIGKILL``.

    Used by ``python -m repro work --fault-plan``; the supervisor sees
    the worker exit with ``-SIGKILL`` and must respawn, exactly as with
    an OOM kill in production.
    """

    def _kill(self, worker: QueueWorker) -> None:  # pragma: no cover - kills the test process
        os.kill(os.getpid(), signal.SIGKILL)


# ---------------------------------------------------------------- outcome


@dataclass
class FaultOutcome(DrainOutcome):
    """Everything :func:`run_fault_sweep` can assert about a drained queue.

    The shared drain audit (:class:`~repro.verify.drain.DrainOutcome`)
    plus the plan's coverage: which kinds fired, and how many workers
    were spawned and killed.
    """

    fired: dict[str, int] = field(default_factory=dict)
    required_kinds: tuple[str, ...] = ()
    workers_spawned: int = 0
    workers_killed: int = 0

    def failures(self) -> list[str]:
        """Every violated contract clause, human-readable; empty = pass."""
        problems = super().failures()
        for kind in self.required_kinds:
            if not self.fired.get(kind):
                problems.append(f"planned fault kind {kind!r} never fired")
        if self.fired.get("torn") and not self.corrupt_quarantined:
            problems.append("torn writes were injected but no corrupt entry was quarantined")
        return problems


# ------------------------------------------------------------------ sweep


def run_fault_sweep(
    scenarios: Sequence[Scenario],
    specs: Sequence[str],
    root: str | Path,
    *,
    plan: FaultPlan | None = None,
    workers: int = 2,
    worker_cap: int = 16,
    lease_duration: float = 0.3,
    backoff_base: float = 0.02,
    backoff_cap: float = 0.1,
    max_attempts: int = 10,
    engine_seed: int = 1234,
    poll_interval: float = 0.01,
    timeout: float = 120.0,
    zoo: ModelZoo | None = None,
    prebuilt: Sequence[ScenarioTrace] = (),
) -> FaultOutcome:
    """Drain ``specs`` x ``scenarios`` through a fault-injected worker fleet.

    Thread-mode (:meth:`~repro.verify.drain.QueueRig.drain_threads`):
    ``workers`` threads stay alive, the killed replaced up to
    ``worker_cap`` spawns, until the queue drains or ``timeout`` passes.
    Callers assert :attr:`FaultOutcome.passed`.

    Short leases and backoffs are the default because the harness's
    wall-clock cost is dominated by waiting out lease expiry; correctness
    must not depend on the values (only liveness does).
    """
    if plan is None:
        plan = fault_plan_for_check()
    rig = QueueRig(
        root, zoo if zoo is not None else default_zoo(), poll_interval=poll_interval,
        lease_duration=lease_duration, max_attempts=max_attempts,
        backoff_base=backoff_base, backoff_cap=backoff_cap,
    )
    jobs = rig.enqueue(scenarios, specs, prebuilt, engine_seed)

    hooks = FaultHooks(plan)
    fleet, deaths, timed_out = rig.drain_threads(
        workers, time.monotonic() + timeout, "w", hooks=hooks, cap=worker_cap
    )

    # ------------------------------------------------------------- audit
    outcome = FaultOutcome(
        **vars(rig.audit(jobs, engine_seed)),
        fired=dict(hooks.fired),
        required_kinds=plan.required,
        workers_spawned=len(fleet),
        workers_killed=len(deaths),
    )
    outcome.timed_out = timed_out
    outcome.corrupt_quarantined += sum(w.run_store.corrupt_entries for w in fleet)
    return outcome
