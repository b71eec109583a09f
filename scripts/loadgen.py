#!/usr/bin/env python
"""Synthetic load generator: replay an overlapping request mix at the service.

Generates a seeded batch of overlapping sweep requests (random non-empty
policy x scenario subsets of a shared pool), serves them through a
multi-worker :class:`~repro.service.SweepService` against real on-disk
stores, and then *proves* the serve was sound:

* **zero duplicate executions** — runs executed + store hits exactly
  equals the number of deduplicated unit jobs;
* **bit-equality with the serial path** — every returned metrics row is
  field-for-field identical to a foreground
  :class:`~repro.runtime.experiment.ExperimentRunner` run of the same
  (policy, scenario) pair;
* **zero corrupt entries** — neither store saw an unreadable entry, and
  both shard-index audits come back clean;
* **free warm re-serve** — a second service over the same stores answers
  the same mix with zero runs and zero trace builds, identically.

``--chaos`` replays the same seeded mix through the crash-safe process
path instead: the deduplicated unit jobs go into an on-disk
:class:`~repro.service.JobQueue`, a :class:`~repro.service.WorkerSupervisor`
keeps ``--procs`` real ``python -m repro work`` processes draining it, and
a seeded kill schedule SIGKILLs ``--kills`` of them mid-drain.  The
``faults`` check's drain audit (:func:`repro.verify.drain.audit_drain`)
then proves **zero lost jobs** (every job ends ``done``, none
dead-lettered), one committed entry per job, zero corrupt entries, clean
audits and serial bit-equality of records and metrics; a warm in-process
re-serve (:func:`repro.verify.drain.warm_reserve_failures`) proves the
two execution tiers commit byte-identical, fingerprint-compatible entries.

``--http`` replays the mix through the network tier: a real
:class:`~repro.service.SweepHTTPServer` on an ephemeral localhost port,
``--clients`` concurrent stdlib HTTP clients submitting and streaming
over actual sockets.  The same four gates run on the reconstructed wire
rows — zero duplicates, zero corrupt entries, serial bit-equality,
free warm re-serve across a *server restart* — plus a deterministic
admission probe (a full server answers 429 + Retry-After, never hangs).

``--fs-chaos`` breaks the *disk* instead of the workers: each spawned
``python -m repro work`` process is armed with its own seeded
:class:`~repro.runtime.iolayer.FsFaultPlan` (ENOSPC bursts, EIO, torn
partial writes and lost renames aimed at run commits) via
``--fs-fault-plan``.  After the faulted drain, the parent runs the
``fsfaults`` check's recovery playbook (:func:`repro.verify.drain.recover`:
scrub, repair, idempotent re-offer, and
:meth:`~repro.service.JobQueue.repend_done` for every job whose committed
effect is torn or missing), and a healthy fleet drains the remainder.
Gates: the same drain audit (zero lost jobs, zero dead-letters from pure
disk pressure, one committed entry per job, serial bit-equality), zero
corrupt servable entries, and a free warm re-serve (clean recovery).

Exit code 0 when every property holds, 1 otherwise (CI's
``service-smoke``, ``chaos-smoke``, ``http-smoke``, and
``fs-chaos-smoke`` jobs run this at small scale on every PR)::

    PYTHONPATH=src python scripts/loadgen.py --requests 8 --workers 4
    PYTHONPATH=src python scripts/loadgen.py --requests 32 --scenario-count 12 \
        --budget 96 --trace-store /tmp/traces --run-store /tmp/runs
    PYTHONPATH=src python scripts/loadgen.py --chaos --procs 2 --kills 3
    PYTHONPATH=src python scripts/loadgen.py --http --clients 4
    PYTHONPATH=src python scripts/loadgen.py --fs-chaos --procs 2
"""

from __future__ import annotations

import argparse
import random
import signal
import sys
import tempfile
import time
from pathlib import Path

from repro.data.grammar import ScenarioMatrix
from repro.models.zoo import default_zoo
from repro.runtime.experiment import ExperimentRunner
from repro.runtime.metrics import aggregate
from repro.runtime.runstore import RunStore
from repro.runtime.store import TraceStore
from repro.runtime.trace import TraceCache
from repro.service import (
    JobQueue,
    ServiceBackend,
    SweepService,
    WorkerSpawner,
    WorkerSupervisor,
    decompose,
    overlapping_requests,
    policy_resolver,
)
from repro.verify.drain import (
    audit_drain,
    audit_problems,
    recover,
    seed_traces,
    warm_failures,
    warm_reserve_failures,
)

DEFAULT_POLICIES = "single:yolov7-tiny@gpu,marlin-tiny,marlin"
ENGINE_SEED = 1234  # the SweepService / JobQueue default; both tiers must agree


def _pool_matrix(budget: int) -> ScenarioMatrix:
    """The generated-scenario pool the mix draws from (deterministic)."""
    return ScenarioMatrix(
        name="lg",
        compositions=(("loiter",), ("crossing",), ("popup", "pan_burst"),
                      ("occlusion_dip", "loiter")),
        regimes=("day", "night", "indoor"),
        seeds=(5,),
        frame_budgets=(budget,),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=8,
                        help="overlapping sweep requests to generate (default 8)")
    parser.add_argument("--workers", type=int, default=4,
                        help="service worker threads (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="request-mix seed (default 0)")
    parser.add_argument("--scenario-count", type=int, default=6,
                        help="scenarios in the pool (default 6)")
    parser.add_argument("--budget", type=int, default=48,
                        help="frame budget per generated scenario (default 48)")
    parser.add_argument("--policies", default=DEFAULT_POLICIES,
                        help=f"comma-separated policy pool (default {DEFAULT_POLICIES})")
    parser.add_argument("--trace-store", default=None, metavar="DIR",
                        help="trace store directory (default: a fresh temp dir)")
    parser.add_argument("--run-store", default=None, metavar="DIR",
                        help="run store directory (default: a fresh temp dir)")
    parser.add_argument("--skip-serial-check", action="store_true",
                        help="skip the (slow) serial bit-equality pass")
    parser.add_argument("--expect-warm", action="store_true",
                        help="assert the stores are already fully populated: the first "
                             "serve must execute zero runs and build zero traces (the "
                             "cross-process warm-restart gate in CI)")
    parser.add_argument("--chaos", action="store_true",
                        help="drain the mix through the on-disk job queue with real "
                             "worker processes and a seeded kill schedule")
    parser.add_argument("--procs", type=int, default=2,
                        help="--chaos: worker processes to keep alive (default 2)")
    parser.add_argument("--kills", type=int, default=3,
                        help="--chaos: workers to SIGKILL mid-drain (default 3)")
    parser.add_argument("--chaos-seed", type=int, default=0,
                        help="--chaos: kill-schedule seed (default 0)")
    parser.add_argument("--lease", type=float, default=3.0,
                        help="--chaos: queue lease duration in seconds (default 3)")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="--chaos/--http: overall deadline in seconds (default 300)")
    parser.add_argument("--fs-chaos", action="store_true",
                        help="drain the mix through worker processes whose store writes "
                             "fail, tear, and vanish on a seeded per-worker schedule, "
                             "then prove the recovery playbook heals everything")
    parser.add_argument("--fs-chaos-seed", type=int, default=0,
                        help="--fs-chaos: per-worker fault-plan seed (default 0)")
    parser.add_argument("--http", action="store_true",
                        help="drive the mix through a real HTTP server on an ephemeral "
                             "localhost port with concurrent socket clients")
    parser.add_argument("--clients", type=int, default=4,
                        help="--http: concurrent client threads (default 4)")
    parser.add_argument("--max-pending", type=int, default=64,
                        help="--http: server admission bound for the main mix (default 64)")
    return parser


def _mix(args: argparse.Namespace):
    """(policies, scenarios, requests) of the seeded mix; None when a pool is empty."""
    policies = tuple(p.strip() for p in args.policies.split(",") if p.strip())
    scenarios = _pool_matrix(args.budget).scenarios()[: args.scenario_count]
    if not policies or not scenarios:
        print("empty policy or scenario pool", file=sys.stderr)
        return None
    return policies, scenarios, overlapping_requests(
        policies, scenarios, count=args.requests, seed=args.seed
    )


def _service(args: argparse.Namespace, trace_root: Path, run_root: Path) -> SweepService:
    return SweepService(
        trace_store=TraceStore(trace_root), run_store=RunStore(run_root), workers=args.workers
    )


def _serve_failures(label: str, counters: dict[str, int], corrupt: int,
                    expect_warm: bool) -> list[str]:
    """One serve's gates: zero duplicate executions, zero corrupt entries, and
    under ``--expect-warm`` nothing run or built (another process populated
    these stores; fingerprint stability must make every job a hit)."""
    failures = []
    runs, hits, jobs = (counters[k] for k in ("runs_executed", "run_store_hits",
                                               "jobs_scheduled"))
    if runs + hits != jobs:
        failures.append(f"{label} duplicate executions: {runs} runs + {hits} hits != "
                        f"{jobs} jobs")
    if corrupt:
        failures.append(f"{label}: {corrupt} corrupt store entries")
    if expect_warm:
        failures += warm_failures("expected a warm serve but the first serve", runs,
                                  counters["trace_builds"])
    return failures


def _serial_metrics():
    """A memoized ``(spec, scenario) -> RunMetrics`` of the foreground serial path."""
    resolve = policy_resolver()
    runner = ExperimentRunner(cache=TraceCache(default_zoo()))
    memo: dict[tuple[str, str], object] = {}

    def serial(spec: str, scenario):
        pair = (spec, scenario.name)
        if pair not in memo:
            # Fresh policy per run: policies are stateful.
            memo[pair] = aggregate(runner.run(resolve(spec), scenario))
        return memo[pair]

    return serial, memo


def _verdict(mode: str, failures: list[str], summary: str) -> int:
    """Print the failures and return 1, or the all-passed line and return 0."""
    name = f"{mode} loadgen".lstrip()
    if failures:
        print(f"\n{name.upper()} FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"{name}: all checks passed ({summary})")
    return 0


def run_load(args: argparse.Namespace, mix, trace_root: Path, run_root: Path) -> int:
    requests = mix[2]
    total_cells = sum(len(r.policies) * len(r.scenarios) for r in requests)

    t0 = time.perf_counter()
    with _service(args, trace_root, run_root) as service:
        results = [handle.result() for handle in service.serve(requests)]
        cold_s = time.perf_counter() - t0
        failures = _serve_failures("cold serve", ServiceBackend(service).counters(),
                                   service.corrupt_entries, args.expect_warm)
        stats = (
            f"{len(requests)} requests ({total_cells} cells) -> {service.jobs_scheduled} "
            f"jobs, {service.jobs_coalesced} coalesced, {service.runs_executed} runs, "
            f"{service.run_store_hits} run-store hits, {service.trace_builds} trace builds"
        )
    failures += audit_problems(traces=TraceStore(trace_root), runs=RunStore(run_root))
    print(f"cold serve: {stats} in {cold_s:.2f}s")

    # Warm re-serve: the whole mix again, over fresh service + same stores.
    t0 = time.perf_counter()
    failures += warm_reserve_failures(trace_root, run_root, requests,
                                      workers=args.workers, expected=results)
    print(f"warm re-serve: 0 runs, 0 trace builds in {time.perf_counter() - t0:.2f}s")

    if not args.skip_serial_check:
        t0 = time.perf_counter()
        resolve = policy_resolver()
        serial, verified = _serial_metrics()
        for request, result in zip(requests, results):
            rows = {
                (name, m.scenario_name): m
                for name, metrics_rows in result.items()
                for m in metrics_rows
            }
            for spec in request.policies:
                display_name = resolve(spec).name
                for scenario in request.resolve_scenarios():
                    pair = (display_name, scenario.name)
                    if rows.get(pair) != serial(spec, scenario):
                        failures.append(f"request {request.request_id}: {pair} "
                                        f"diverges from serial run")
        print(f"serial bit-equality: {len(verified)} pairs verified in "
              f"{time.perf_counter() - t0:.2f}s")

    return _verdict("", failures, "0 corrupt entries, 0 duplicate executions, "
                    "serial bit-equality, free warm re-serve")


class _QueueFlight:
    """The mix's unique jobs on an on-disk queue, and the process fleets
    that drain it (``--chaos`` and ``--fs-chaos``).

    Traces are built serially up front so worker wall-clock is spent on
    the thing under test, not on duplicate trace builds.
    """

    def __init__(self, args: argparse.Namespace, trace_root: Path, run_root: Path,
                 requests, max_attempts: int) -> None:
        self.args, self.trace_root, self.run_root = args, trace_root, run_root
        self.requests = requests
        self.jobs = list({job.key: job for r in requests for job in decompose(r)}.values())
        self.trace_store = TraceStore(trace_root)
        t0 = time.perf_counter()
        scenarios = {job.scenario.name: job.scenario for job in self.jobs}.values()
        built = seed_traces(self.trace_store, scenarios, default_zoo())
        print(f"traces: {built} built in {time.perf_counter() - t0:.2f}s")
        self.queue = JobQueue(run_root / "_queue", lease_duration=args.lease,
                              max_attempts=max_attempts)
        enqueued = self.queue.enqueue_all(self.jobs, engine_seed=ENGINE_SEED)
        print(f"queue: {len(requests)} requests -> {len(self.jobs)} unique jobs, "
              f"{enqueued} enqueued")

    def spawner(self, tag: str, per_worker=lambda index: ()) -> WorkerSpawner:
        """``repro work`` processes over this flight's queue and stores."""
        return WorkerSpawner(self.queue.root, [
            "--run-store", str(self.run_root), "--trace-store", str(self.trace_root),
            "--lease", str(self.args.lease), "--poll", "0.05",
        ], prefix=tag, per_worker=per_worker)

    def drain(self, label: str, spawn: WorkerSpawner, *, respawn_budget: int,
              deadline: float, on_tick=None) -> bool:
        """Drain the queue with ``--procs`` supervised workers; True on timeout."""
        t0 = time.perf_counter()
        supervisor = WorkerSupervisor(spawn, self.args.procs, respawn_budget=respawn_budget)
        try:
            timed_out = supervisor.drain(self.queue, deadline, poll=0.05, on_tick=on_tick)
        finally:
            supervisor.reap()
        print(f"{label}: {supervisor.spawned} workers spawned, "
              f"{time.perf_counter() - t0:.2f}s" + (" (TIMED OUT)" if timed_out else ""))
        return timed_out

    def gates(self, timed_out: bool) -> list[str]:
        """The shared drain audit plus a warm in-process re-serve; failures."""
        t0 = time.perf_counter()
        outcome = audit_drain(self.queue, self.jobs, self.run_root, self.trace_store,
                              default_zoo(), engine_seed=ENGINE_SEED)
        outcome.timed_out = timed_out
        failures = outcome.failures()
        if outcome.corrupt_quarantined:
            failures.append(f"{outcome.corrupt_quarantined} corrupt run entries")
        print(f"serial bit-equality: {outcome.expected_entries} runs verified in "
              f"{time.perf_counter() - t0:.2f}s")

        # Warm in-process re-serve: the thread service over the queue-written
        # stores must answer the whole mix without executing anything.
        t0 = time.perf_counter()
        failures += warm_reserve_failures(self.trace_root, self.run_root, self.requests,
                                          workers=self.args.workers)
        print(f"warm re-serve: 0 runs, 0 trace builds in {time.perf_counter() - t0:.2f}s")
        return failures


def run_chaos(args: argparse.Namespace, mix, trace_root: Path, run_root: Path) -> int:
    """``--chaos``: SIGKILL workers mid-drain on a seeded schedule; every
    death is respawned and lease expiry migrates the victim's job."""
    flight = _QueueFlight(args, trace_root, run_root, mix[2], max_attempts=5)
    rng = random.Random(args.chaos_seed)
    kills_left = max(0, args.kills)
    # Armed from the start: the first kill fires as soon as any lease is
    # observed (a worker is mid-job), later ones on a seeded cadence.
    # Killing on lease activity rather than wall clock keeps the
    # schedule effective however fast the jobs drain.
    next_kill = 0.0
    spawn = flight.spawner("chaos")

    def kill_on_schedule(counts: dict[str, int]) -> None:
        """Victims come from the processes the spawn factory started."""
        nonlocal kills_left, next_kill
        now = time.monotonic()
        live = [proc for proc in spawn.procs if proc.poll() is None]
        if kills_left and counts["leased"] and now >= next_kill and live:
            victim = rng.choice(live)
            victim.send_signal(signal.SIGKILL)
            victim.wait()
            kills_left -= 1
            next_kill = now + rng.uniform(0.1, 0.5)

    timed_out = flight.drain("chaos drain", spawn,
                             respawn_budget=args.procs * 4 + args.kills,
                             deadline=time.monotonic() + args.timeout,
                             on_tick=kill_on_schedule)
    killed = max(0, args.kills) - kills_left
    failures = [] if killed == args.kills else [
        f"kill schedule fired {killed}/{args.kills} kills"]
    failures += flight.gates(timed_out)
    return _verdict("chaos", failures, f"{killed} workers killed, 0 lost jobs, "
                    "0 duplicate effects, 0 corrupt entries, serial bit-equality, "
                    "free warm re-serve")


def run_fs_chaos(args: argparse.Namespace, mix, trace_root: Path, run_root: Path) -> int:
    """``--fs-chaos``: a faulted drain on per-worker disk-fault plans, the
    shared recovery playbook, then a healthy drain of the remainder."""
    from repro.runtime.iolayer import FsFaultEvent, FsFaultPlan

    flight = _QueueFlight(args, trace_root, run_root, mix[2], max_attempts=8)
    rng = random.Random(args.fs_chaos_seed)
    plan_dir = run_root / "_fsplans"
    plan_dir.mkdir(parents=True, exist_ok=True)

    def worker_plan(index: int) -> list[str]:
        """A seeded per-worker plan; destructive kinds target run commits."""
        plan = FsFaultPlan(
            label=f"fs-chaos-w{index}",
            events=(
                FsFaultEvent(op="write", index=rng.randrange(2, 6),
                             kind="enospc", count=rng.randrange(4, 9)),
                FsFaultEvent(op="write", index=rng.randrange(8, 14), kind="eio"),
                FsFaultEvent(op="write", index=rng.randrange(0, 2),
                             kind="partial_write",
                             param=round(0.3 + 0.4 * rng.random(), 3),
                             match="run-*"),
                FsFaultEvent(op="replace", index=rng.randrange(0, 3),
                             kind="lost_rename", match="run-*"),
            ),
        )
        return ["--fs-fault-plan", str(plan.save(plan_dir / f"plan-w{index}.json"))]

    overall_deadline = time.monotonic() + args.timeout
    # Phase 1 — faulted.  A torn commit can mark its job done, so the
    # queue may "drain" with missing effects; a phase-1 timeout is not
    # itself a failure as long as recovery heals everything in time.
    flight.drain("faulted drain", flight.spawner("fschaos", worker_plan),
                 respawn_budget=args.procs * 4,
                 deadline=time.monotonic() + args.timeout * 0.6)

    # Phase 2 — the recovery playbook, exactly as an operator would run
    # it (`repro store scrub|repair` over every root, then re-offer).
    recovery = recover(flight.queue, flight.jobs, run_root, flight.trace_store,
                       default_zoo(), engine_seed=ENGINE_SEED)
    print(f"recovery: {recovery.quarantined} torn entries quarantined, "
          f"{recovery.repended} jobs re-pended")
    timed_out = flight.drain("healthy drain", flight.spawner("fsheal"),
                             respawn_budget=args.procs * 4, deadline=overall_deadline)

    final_scrub = RunStore(run_root).scrub()
    failures = [] if not (final_scrub.quarantined or final_scrub.problems) else [
        f"torn entries still servable after recovery: {final_scrub.problems}"]
    failures += flight.gates(timed_out)
    return _verdict("fs-chaos", failures, f"{recovery.quarantined} torn entries "
                    f"quarantined, {recovery.repended} jobs re-pended, 0 lost jobs, "
                    "0 dead-letters, 0 duplicate effects, serial bit-equality, "
                    "clean recovery")


def run_http(args: argparse.Namespace, mix, trace_root: Path, run_root: Path) -> int:
    """``--http``: the mix over real sockets through the :mod:`repro.verify.wire`
    client the ``http`` check uses, a warm re-serve across a server
    restart, and the admission probe."""
    import urllib.error
    from concurrent.futures import ThreadPoolExecutor

    from repro.data.scenario import register_scenario, scenario_by_name
    from repro.runtime.export import metrics_to_dict
    from repro.service import SweepFrontend
    from repro.verify.wire import admission_problem, get_json, serving, stream, submit

    policies, scenarios, requests = mix
    # Over the wire a request carries scenario *names*; make the generated
    # pool resolvable inside the (in-process) server's registry.
    for scenario in scenarios:
        try:
            scenario_by_name(scenario.name)
        except KeyError:
            register_scenario(scenario)
    failures: list[str] = []

    def frontend(max_pending: int) -> SweepFrontend:
        return SweepFrontend(ServiceBackend(_service(args, trace_root, run_root)),
                             max_pending=max_pending, default_deadline_s=args.timeout)

    def drive(base: str, request) -> tuple[str, list[dict], dict]:
        """One client: POST the request, stream its rows, return them."""
        [request_id] = submit(base, [{
            "policies": list(request.policies),
            "scenarios": [s.name for s in request.resolve_scenarios()],
            "id": request.request_id,
        }], args.timeout)
        return (request.request_id, *stream(base, request_id, args.timeout))

    def serve_round(label: str, expect_warm: bool) -> tuple[dict[str, list[dict]], dict]:
        """One server lifetime: serve the whole mix over real sockets."""
        t0 = time.perf_counter()
        with serving(frontend(args.max_pending)) as base:
            with ThreadPoolExecutor(max_workers=max(1, args.clients)) as clients:
                outputs = list(clients.map(lambda r: drive(base, r), requests))
            stats = get_json(base, "/v1/stores/stats", args.timeout)
        rows_by_request: dict[str, list[dict]] = {}
        for request, (request_id, rows, summary) in zip(requests, outputs):
            cells = len(request.policies) * len(request.scenarios)
            if len(rows) != cells:
                failures.append(f"{label} {request_id}: {len(rows)} rows for {cells} cells")
            if summary.get("state") != "done" or summary.get("error"):
                failures.append(f"{label} {request_id}: stream ended {summary}")
            rows_by_request[request_id] = rows
        backend = stats["backend"]
        failures.extend(_serve_failures(label, backend, stats["corrupt_entries"], expect_warm))
        print(f"{label}: {len(requests)} requests over {args.clients} socket clients -> "
              f"{backend['jobs_scheduled']} jobs, {backend['runs_executed']} runs, "
              f"{backend['run_store_hits']} run-store hits, "
              f"{backend['trace_builds']} trace builds in {time.perf_counter() - t0:.2f}s")
        return rows_by_request, backend

    cold_rows, _ = serve_round("http cold serve", args.expect_warm)
    # Warm re-serve across a full server restart: fresh service, fresh
    # socket, same on-disk stores — every wire row must come back
    # identical with zero executions and zero trace builds.
    warm_rows, warm = serve_round("http warm re-serve", False)
    failures += warm_failures("warm re-serve", warm["runs_executed"], warm["trace_builds"])
    if warm_rows != cold_rows:
        failures.append("warm re-serve wire rows diverged from cold serve")

    if not args.skip_serial_check:
        t0 = time.perf_counter()
        serial, pairs = _serial_metrics()
        scenario_by = {s.name: s for s in scenarios}
        checked = 0
        for request_id, rows in cold_rows.items():
            for row in rows:
                pair = (row["policy_spec"], row["scenario"])
                if row["metrics"] != metrics_to_dict(serial(pair[0], scenario_by[pair[1]])):
                    failures.append(f"{request_id}: {pair} wire metrics diverge from serial run")
                checked += 1
        print(f"serial bit-equality: {checked} wire rows against {len(pairs)} "
              f"serial pairs in {time.perf_counter() - t0:.2f}s")

    failures += audit_problems(traces=TraceStore(trace_root), runs=RunStore(run_root))

    # Deterministic admission probe: with max_pending=1 and one
    # un-streamed request holding the slot, the next submit must fail
    # fast with 429 + Retry-After; streaming the first frees the slot.
    probe = [{"policies": [policies[0]], "scenarios": [scenarios[0].name]}]
    with serving(frontend(1)) as base:
        [first_id] = submit(base, probe, args.timeout)
        problem = admission_problem(base, probe)
        if problem:
            failures.append(f"admission probe: {problem}")
        stream(base, first_id, args.timeout)
        try:
            submit(base, probe, args.timeout)
        except urllib.error.HTTPError as exc:
            failures.append(f"admission probe: freed slot refused a submit ({exc.code})")
    print("admission probe: full server -> immediate 429 + Retry-After, "
          "freed slot -> 202")

    return _verdict("http", failures, "0 corrupt entries, 0 duplicate executions, "
                    "serial bit-equality of wire rows, free warm re-serve across a "
                    "server restart, deterministic 429 backpressure")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.fs_chaos:
        runner = run_fs_chaos
    elif args.chaos:
        runner = run_chaos
    elif args.http:
        runner = run_http
    else:
        runner = run_load
    mix = _mix(args)
    if mix is None:
        return 1

    if args.trace_store is not None and args.run_store is not None:
        return runner(args, mix, Path(args.trace_store), Path(args.run_store))
    with tempfile.TemporaryDirectory(prefix="repro-loadgen-") as tmp:
        trace_root = Path(args.trace_store) if args.trace_store else Path(tmp) / "traces"
        run_root = Path(args.run_store) if args.run_store else Path(tmp) / "runs"
        return runner(args, mix, trace_root, run_root)


if __name__ == "__main__":
    sys.exit(main())
