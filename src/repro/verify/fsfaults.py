"""Deterministic *filesystem* fault injection for the persistence tier.

The sibling of :mod:`repro.verify.faults`: that module kills workers,
this one breaks their disk.  An :class:`~repro.runtime.iolayer.FsFaultPlan`
— ENOSPC bursts, EIO, lost renames, partial writes, slow I/O, scheduled
by ``(operation, per-op index)`` with optional file-name targeting — is
armed process-wide while a worker fleet drains a real on-disk queue, and
:func:`run_fsfault_sweep` then audits the aftermath against the
degraded-mode contract:

* **zero lost jobs** — every enqueued job ends ``done`` once capacity
  returns;
* **zero dead-letters from disk pressure** — capacity failures release
  leases (attempt refunded) instead of burning the retry budget;
* **torn writes quarantined, never served** — a partial write or lost
  rename that slipped through as a "successful" commit is detected by
  scrub/load, moved to ``_quarantine``, and healed by re-execution;
* **bit equality once space returns** — after the recovery pass, every
  committed run is field-for-field identical to a serial
  :func:`~repro.runtime.runner.run_policy` of the same job;
* **full recovery** — no root is still degraded when the sweep ends.

Between the faulted drain and the audit runs the documented operational
playbook, :func:`repro.verify.drain.recover`; then a healthy fleet
drains again.

The ``fsfaults`` differential check replays a fixed plan over a tiny
matrix; ``loadgen --fs-chaos`` runs the same idea against a live
multi-process fleet.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar
from collections.abc import Sequence

from ..data.scenario import Scenario
from ..models.zoo import ModelZoo, default_zoo
from ..runtime import iolayer
from ..runtime.iolayer import FsFaultEvent, FsFaultPlan
from ..runtime.trace import ScenarioTrace
from .drain import DrainOutcome, QueueRig, recover


def fs_fault_plan_for_check() -> FsFaultPlan:
    """The fixed plan the ``fsfaults`` differential check replays.

    Coverage by construction: the ENOSPC burst is wide enough to exhaust
    one write's whole retry budget (degrading a root) and spill into the
    single-attempt probe-on-write regime; the EIO event exercises the
    transient-retry path without degrading; the partial write and lost
    rename target run entries by name, so exactly the commit path is
    torn regardless of how many queue-record writes interleave; slow I/O
    stretches one early write.  Job records are never targeted by the
    destructive kinds — losing *pending* state is the submitter's
    re-offer to heal, and the check wants the harder case: a job marked
    ``done`` whose effect is torn or missing.
    """
    return FsFaultPlan(
        label="fsfaults-check",
        events=(
            FsFaultEvent(op="write", index=1, kind="slow_io", param=0.01),
            FsFaultEvent(op="write", index=3, kind="enospc", count=8),
            FsFaultEvent(op="write", index=14, kind="eio"),
            FsFaultEvent(op="write", index=0, kind="partial_write",
                         param=0.4, match="run-*"),
            FsFaultEvent(op="replace", index=1, kind="lost_rename", match="run-*"),
        ),
    )


@dataclass
class FsFaultOutcome(DrainOutcome):
    """Everything :func:`run_fsfault_sweep` can assert about the aftermath.

    The shared drain audit (:class:`~repro.verify.drain.DrainOutcome`)
    plus the disk-fault contract: the plan fired, torn writes were
    quarantined, and no root is still degraded after recovery.
    """

    faults_fired: int = 0
    expect_torn: bool = False
    healed_jobs: int = 0
    degraded_refusals: int = 0
    io_errors: int = 0
    still_degraded: list[str] = field(default_factory=list)

    dead_letter_cause: ClassVar[str] = " by pure disk pressure"

    def failures(self) -> list[str]:
        """Every violated contract clause, human-readable; empty = pass."""
        problems = super().failures()
        if not self.faults_fired:
            problems.append("the fault plan never fired (harness misses the seam)")
        if self.expect_torn and not self.corrupt_quarantined:
            problems.append(
                "torn/partial writes were injected but nothing was quarantined"
            )
        if self.still_degraded:
            problems.append(
                f"roots still degraded after recovery: {self.still_degraded}"
            )
        return problems


def run_fsfault_sweep(
    scenarios: Sequence[Scenario],
    specs: Sequence[str],
    root: str | Path,
    *,
    plan: FsFaultPlan | None = None,
    workers: int = 2,
    lease_duration: float = 0.3,
    backoff_base: float = 0.02,
    backoff_cap: float = 0.1,
    max_attempts: int = 10,
    engine_seed: int = 1234,
    poll_interval: float = 0.01,
    timeout: float = 120.0,
    zoo: ModelZoo | None = None,
    prebuilt: Sequence[ScenarioTrace] = (),
) -> FsFaultOutcome:
    """Drain ``specs`` x ``scenarios`` through a fleet on an injected-fault disk.

    Phase 1 (faulted): traces are pre-seeded, the plan is armed, and the
    fleet drains the queue while writes fail, tear, and vanish on
    schedule.  Phase 2: the plan is disarmed ("space returned"), the
    recovery playbook runs, and a fresh fleet drains the remainder on a
    healthy disk.  Callers assert :attr:`FsFaultOutcome.passed`.
    """
    if plan is None:
        plan = fs_fault_plan_for_check()
    rig = QueueRig(
        root, zoo if zoo is not None else default_zoo(), poll_interval=poll_interval,
        lease_duration=lease_duration, max_attempts=max_attempts,
        backoff_base=backoff_base, backoff_cap=backoff_cap,
    )
    # Seed traces before arming: the plan aims at the run/queue write
    # paths, and a warm trace store keeps the check's wall-clock low.
    jobs = rig.enqueue(scenarios, specs, prebuilt, engine_seed)
    for store_root in rig.roots:
        iolayer.reset_state(store_root)
    deadline = time.monotonic() + timeout

    # ------------------------------------------------------ phase 1: faulted
    iolayer.arm_fault_plan(plan)
    try:
        # Leave headroom for recovery even if phase 1 wedges.
        faulted_fleet, _, _ = rig.drain_threads(
            workers, time.monotonic() + timeout * 0.6, "fs"
        )
    finally:
        faults_fired = iolayer.disarm_fault_plan()
    io_errors = sum(iolayer.io_error_count(r) for r in rig.roots)

    # ----------------------------------------------------- phase 2: recovery
    recovery = recover(
        rig.master, jobs, rig.run_root, rig.trace_store, rig.zoo, engine_seed=engine_seed
    )
    healthy_fleet, _, timed_out = rig.drain_threads(workers, deadline, "heal")

    # -------------------------------------------------------------- audit
    outcome = FsFaultOutcome(
        **vars(rig.audit(jobs, engine_seed)),
        faults_fired=faults_fired,
        expect_torn=any(
            event.kind in ("partial_write", "lost_rename") for event in plan.events
        ),
        healed_jobs=recovery.repended,
        degraded_refusals=sum(w.queue.degraded_refusals for w in faulted_fleet),
        io_errors=io_errors,
        still_degraded=[str(r) for r in rig.roots if iolayer.is_degraded(r)],
    )
    outcome.timed_out = timed_out
    outcome.corrupt_quarantined += recovery.quarantined
    for worker in (*faulted_fleet, *healthy_fleet):
        outcome.corrupt_quarantined += worker.run_store.corrupt_entries
        if worker.trace_store is not None:
            outcome.corrupt_quarantined += worker.trace_store.corrupt_entries
    return outcome
