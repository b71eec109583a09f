"""The gates every queue-drain proof shares, each in one place.

The ``faults`` and ``fsfaults`` differential checks and the process-fleet
modes of ``scripts/loadgen.py`` all drain an on-disk
:class:`~repro.service.JobQueue` and then prove the same things about
the aftermath, so they share trace seeding (:func:`seed_traces`), the
recovery playbook (:func:`recover`), the post-drain audit
(:func:`audit_drain`) and the warm re-serve gate
(:func:`warm_reserve_failures`).  :class:`QueueRig` is the in-process
fleet set-up of the two fault sweeps.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, NamedTuple

from ..data.scenario import Scenario
from ..models.zoo import ModelZoo
from ..runtime import iolayer
from ..runtime.metrics import aggregate
from ..runtime.runner import run_policy
from ..runtime.runstore import RunKey, RunStore, fingerprint_soc, make_run_key
from ..runtime.store import TraceStore
from ..runtime.trace import ScenarioTrace
from ..service.jobs import SweepRequest, UnitJob, policy_resolver
from ..service.queue import JobQueue, job_digest
from ..service.service import SweepService
from ..service.worker import QueueWorker, WorkerHooks, WorkerKilled


def seed_traces(
    trace_store: TraceStore,
    scenarios: Iterable[Scenario],
    zoo: ModelZoo,
    prebuilt: Sequence[ScenarioTrace] = (),
) -> int:
    """Make every scenario's trace a store hit; count the traces built.

    A trace already in the store is kept; a missing one is taken from
    ``prebuilt`` (matched by scenario fingerprint) or built, then saved.
    """
    ready = {trace.scenario.fingerprint(): trace for trace in prebuilt}
    built = 0
    for scenario in scenarios:
        if trace_store.load(scenario, zoo) is not None:
            continue
        trace = ready.get(scenario.fingerprint())
        if trace is None:
            trace = ScenarioTrace.build(scenario, zoo)
            built += 1
        trace_store.save(trace, zoo)
    return built


class QueueRig:
    """A queue and both stores under ``root``, drained by in-process workers.

    Every :meth:`queue` and :meth:`worker` opens its own handles, so a
    thread fleet shares nothing in memory: the coordination surface is
    the filesystem, as it is between worker processes.
    """

    def __init__(
        self, root: str | Path, zoo: ModelZoo, *, poll_interval: float, **queue_args
    ) -> None:
        root = Path(root)
        self.queue_root, self.trace_root, self.run_root = (
            root / "queue", root / "traces", root / "runs"
        )
        self.roots = (self.queue_root, self.trace_root, self.run_root)
        self.zoo = zoo
        self.poll_interval = poll_interval
        self._queue_args = queue_args
        self.trace_store = TraceStore(self.trace_root)
        self.master = self.queue()

    def queue(self) -> JobQueue:
        return JobQueue(self.queue_root, **self._queue_args)

    def worker(self, worker_id: str, hooks: WorkerHooks | None = None) -> QueueWorker:
        return QueueWorker(
            self.queue(),
            run_store=RunStore(self.run_root),
            trace_store=TraceStore(self.trace_root),
            zoo=self.zoo,
            worker_id=worker_id,
            hooks=hooks,
            poll_interval=self.poll_interval,
        )

    def enqueue(
        self,
        scenarios: Sequence[Scenario],
        specs: Sequence[str],
        prebuilt: Sequence[ScenarioTrace],
        engine_seed: int,
    ) -> list[UnitJob]:
        """Seed the traces and enqueue ``specs`` x ``scenarios``; the jobs."""
        seed_traces(self.trace_store, scenarios, self.zoo, prebuilt)
        jobs = [UnitJob(policy_spec=spec, scenario=s) for spec in specs for s in scenarios]
        self.master.enqueue_all(jobs, engine_seed=engine_seed)
        return jobs

    def drain_threads(
        self,
        workers: int,
        deadline: float,
        tag: str,
        *,
        hooks: WorkerHooks | None = None,
        cap: int | None = None,
    ) -> tuple[list[QueueWorker], list[str], bool]:
        """Keep ``workers`` drain threads alive until the queue drains.

        A thread that dies of :class:`~repro.service.worker.WorkerKilled`
        is replaced while fewer than ``cap`` workers (default ``workers``:
        no replacements) were started; worker ``n`` is ``{tag}{n}``.
        Returns every worker started, the ids killed, and True when
        ``deadline`` (a ``time.monotonic()`` value) passed first.
        """
        cap = workers if cap is None else cap
        fleet: list[QueueWorker] = []
        deaths: list[str] = []  # list.append is atomic: no lock needed
        live: dict[str, threading.Thread] = {}

        def run(worker: QueueWorker) -> None:
            try:
                worker.drain()
            except WorkerKilled:
                deaths.append(worker.worker_id)

        timed_out = False
        while True:
            live = {wid: thread for wid, thread in live.items() if thread.is_alive()}
            if self.master.drained():
                break
            if time.monotonic() >= deadline:
                timed_out = True
                break
            while len(live) < workers and len(fleet) < cap:
                worker = self.worker(f"{tag}{len(fleet)}", hooks)
                fleet.append(worker)
                live[worker.worker_id] = threading.Thread(
                    target=run, args=(worker,), name=worker.worker_id, daemon=True
                )
                live[worker.worker_id].start()
            if not live and len(fleet) >= cap:
                break  # the whole fleet died and the cap forbids replacements
            time.sleep(0.01)
        if timed_out:
            for worker in fleet:
                worker.stop()
        for thread in live.values():
            thread.join(timeout=max(5.0, self._queue_args["lease_duration"] * 4))
        return fleet, deaths, timed_out

    def audit(self, jobs: Iterable[UnitJob], engine_seed: int) -> DrainOutcome:
        return audit_drain(
            self.master, jobs, self.run_root, self.trace_store, self.zoo,
            engine_seed=engine_seed,
        )


def jobs_by_digest(jobs: Iterable[UnitJob]) -> dict[str, UnitJob]:
    """The deduplicated job set, keyed by queue job digest."""
    return {job_digest(job.policy_spec, job.key[1]): job for job in jobs}


def run_keys(jobs: dict[str, UnitJob], zoo: ModelZoo, engine_seed: int) -> dict[str, RunKey]:
    """The run-store key of every committable job, by job digest.

    A policy without a fingerprint is not committable (the queue
    dead-letters it loudly), so it has no key and no expected entry.
    """
    resolve = policy_resolver()
    soc_fp = fingerprint_soc()
    keys = {}
    for digest, job in jobs.items():
        key = make_run_key(resolve(job.policy_spec), job.key[1], zoo, soc_fp, engine_seed)
        if key is not None:
            keys[digest] = key
    return keys


def audit_problems(**audited) -> list[str]:
    """Shard-index audit findings of each named store or queue, labelled."""
    return [
        f"{label}: {problem}"
        for label, target in audited.items()
        for problem in target.audit()[1]
    ]


@dataclass
class DrainOutcome:
    """What :func:`audit_drain` found about a drained queue.

    ``corrupt_quarantined`` counts unreadable run entries the audit's own
    loads met; callers that expect torn writes add the quarantines they
    saw earlier.  ``timed_out`` is the caller's drain verdict.
    """

    job_count: int
    lost_jobs: list[str] = field(default_factory=list)
    dead_jobs: list[str] = field(default_factory=list)
    foreign_jobs: list[str] = field(default_factory=list)
    run_entries: int = 0
    expected_entries: int = 0
    corrupt_quarantined: int = 0
    serial_mismatches: list[str] = field(default_factory=list)
    audit_problems: list[str] = field(default_factory=list)
    queue_stats: dict[str, int] = field(default_factory=dict)
    timed_out: bool = False

    #: Appended to the dead-letter failure: why a dead job is a defect here.
    dead_letter_cause: ClassVar[str] = ""

    def failures(self) -> list[str]:
        """Every violated contract clause, human-readable; empty = pass."""
        problems: list[str] = []
        if self.timed_out:
            problems.append("sweep timed out before the queue drained")
        if self.lost_jobs:
            problems.append(f"{len(self.lost_jobs)} jobs lost (not done): {self.lost_jobs}")
        if self.dead_jobs:
            problems.append(
                f"{len(self.dead_jobs)} jobs dead-lettered{self.dead_letter_cause}: "
                f"{self.dead_jobs}"
            )
        if self.foreign_jobs:
            problems.append(
                f"{len(self.foreign_jobs)} queue records for no enqueued job: "
                f"{self.foreign_jobs}"
            )
        if self.run_entries != self.expected_entries:
            problems.append(
                f"{self.run_entries} run-store entries for {self.expected_entries} "
                f"unique jobs (duplicate or missing committed effects)"
            )
        if self.serial_mismatches:
            problems.append(
                f"{len(self.serial_mismatches)} runs diverge from serial: "
                f"{self.serial_mismatches}"
            )
        if self.audit_problems:
            problems.append(f"store audits found: {self.audit_problems}")
        return problems

    @property
    def passed(self) -> bool:
        return not self.failures()


def audit_drain(
    queue: JobQueue,
    jobs: Iterable[UnitJob],
    run_root: str | Path,
    trace_store: TraceStore,
    zoo: ModelZoo,
    *,
    engine_seed: int,
) -> DrainOutcome:
    """Audit a drained queue's job states and committed runs.

    Every job must end ``done`` and the queue must hold no other record;
    the run store (opened fresh at ``run_root``) must hold exactly one
    entry per committable job; each entry's frame records and stored
    metrics must equal a serial :func:`~repro.runtime.runner.run_policy`
    of the same job on the trace in ``trace_store``; and the run store,
    trace store and queue must pass their shard-index audits.
    """
    unique = jobs_by_digest(jobs)
    outcome = DrainOutcome(job_count=len(unique), queue_stats=queue.stats())
    states = {record["job_id"]: record["state"] for record in queue.records()}
    for digest in unique:
        state = states.get(digest)
        if state == "dead":
            outcome.dead_jobs.append(digest[:12])
        elif state != "done":
            outcome.lost_jobs.append(f"{digest[:12]}={state}")
    outcome.foreign_jobs = [job_id[:12] for job_id in sorted(states.keys() - unique.keys())]

    run_store = RunStore(run_root)
    outcome.run_entries = len(run_store)
    keys = run_keys(unique, zoo, engine_seed)
    outcome.expected_entries = len(keys)
    resolve = policy_resolver()
    for digest, key in keys.items():
        job = unique[digest]
        label = f"{job.policy_spec}/{job.scenario.name}"
        stored = run_store.load(key)
        if stored is None:
            outcome.serial_mismatches.append(f"{label}: no committed run")
            continue
        serial = run_policy(
            resolve(job.policy_spec), trace_store.load(job.scenario, zoo),
            engine_seed=engine_seed, fast=True,
        )
        if stored.records != serial.records:
            outcome.serial_mismatches.append(f"{label}: frame records diverge from serial")
        elif run_store.load_metrics(key) != aggregate(serial):
            outcome.serial_mismatches.append(f"{label}: metrics diverge from serial")
    outcome.corrupt_quarantined = run_store.corrupt_entries
    outcome.audit_problems = audit_problems(runs=run_store, traces=trace_store, queue=queue)
    return outcome


class Recovery(NamedTuple):
    """What :func:`recover` did: entries quarantined, jobs re-pended."""

    quarantined: int
    repended: int


def recover(
    queue: JobQueue,
    jobs: Sequence[UnitJob],
    run_root: str | Path,
    trace_store: TraceStore,
    zoo: ModelZoo,
    *,
    engine_seed: int,
) -> Recovery:
    """Run the recovery playbook over a tree a faulted drain left behind.

    Probe each root (space returned: clear any degraded flag), scrub
    both stores and the queue (torn entries go to quarantine), repair
    the shard indexes, re-offer the whole job set (enqueue is a no-op for
    a live record and restores one a fault destroyed outright), and
    re-pend every ``done`` job whose committed run is torn or missing
    (:meth:`~repro.service.JobQueue.repend_done`) — the one case lease
    expiry cannot heal.  A torn entry those loads trip over is
    quarantined and counted.
    """
    run_store = RunStore(run_root)
    maintained = (run_store, trace_store, queue)
    for target in maintained:
        iolayer.probe(target.root)
    quarantined = sum(target.scrub().quarantined for target in maintained)
    for target in maintained:
        target.repair()
    queue.enqueue_all(list(jobs), engine_seed=engine_seed)
    missing = [
        digest
        for digest, key in run_keys(jobs_by_digest(jobs), zoo, engine_seed).items()
        if run_store.load_metrics(key) is None
    ]
    repended = queue.repend_done(missing)
    return Recovery(quarantined + run_store.corrupt_entries, repended)


def warm_failures(label: str, runs: int, builds: int, corrupt: int = 0) -> list[str]:
    """The warm-serve gate on raw counters: nothing executed, built or corrupt."""
    problems = []
    if runs:
        problems.append(f"{label} executed {runs} runs")
    if builds:
        problems.append(f"{label} built {builds} traces")
    if corrupt:
        problems.append(f"{label} hit {corrupt} corrupt entries")
    return problems


def warm_reserve_failures(
    trace_root: str | Path,
    run_root: str | Path,
    requests: Sequence[SweepRequest],
    *,
    workers: int,
    expected: list | None = None,
) -> list[str]:
    """Re-serve ``requests`` through a fresh service over the same stores.

    The stores are already complete, so the serve must execute zero runs,
    build zero traces, meet zero corrupt entries and end undegraded; when
    ``expected`` (an earlier serve's rows) is given, the rows must equal it.
    """
    with SweepService(
        trace_store=TraceStore(trace_root), run_store=RunStore(run_root), workers=workers
    ) as warm:
        rows = [handle.result() for handle in warm.serve(requests)]
        problems = warm_failures(
            "warm re-serve", warm.runs_executed, warm.trace_builds, warm.corrupt_entries
        )
        if warm.degraded:
            problems.append("warm re-serve ran on a degraded store")
    if expected is not None and rows != expected:
        problems.append("warm re-serve metrics diverged from cold serve")
    return problems
