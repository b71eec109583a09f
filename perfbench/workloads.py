"""The four workloads: set-up, timed phase, and output check.

Every workload reports all eleven end-to-end metrics.  They are taken at
three levels that every workload has:

* **request** — one call a user makes and waits for: a cold regeneration
  (paper-sweep), one ``figure5`` call (fig5-grid), one POST + streamed
  results (http-serve), one ``QueueWorker(max_jobs=1).drain()``
  (queue-drain).  ``sustained_rps`` is the completion rate of requests:
  for the closed-loop workloads the rate one client achieves, for
  http-serve the highest of three doubling offered rates that meets the
  tail limit without a growing backlog.
* **job** — one (policy, scenario) cell the system resolves: an
  ``ExperimentRunner`` execution (run + store write), one grid
  configuration, one ``SweepService`` unit job, one drained queue job.
* **run** — one ``run_policy`` call, timed by a timer around the call.

Set-up (stores, traces, characterization, server start) is repeated
``SETUP_REPEATS`` times per run and reported as its median.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import math
import random
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import harness
from harness import Outcome, Samples, median, patched, tail

# ---------------------------------------------------------------- helpers


def compare_metrics(label: str, got, want) -> list[str]:
    """Field-by-field differences between two RunMetrics (NaN == NaN)."""
    problems = []
    for item in dataclasses.fields(want):
        a, b = getattr(got, item.name), getattr(want, item.name)
        both_nan = isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b)
        if a != b and not both_nan:
            problems.append(f"{label}: {item.name} {a!r} != reference {b!r}")
    return problems


def reference_metrics(policy, trace, engine_seed: int):
    """The scalar reference loop's aggregate for one cell."""
    from repro.runtime import aggregate, run_policy

    return aggregate(run_policy(policy, trace, engine_seed=engine_seed, fast=False))


def _sample(rng: random.Random, items: list, count: int) -> list:
    """A seeded sample of up to ``count`` items (all of them if fewer)."""
    return rng.sample(items, min(count, len(items)))


def _rounds(seconds: float, nominal_round_s: float) -> int:
    """A fixed number of whole rounds filling about ``seconds``.

    Derived from a constant, never from a measurement, so the same
    ``--seconds`` always does the same work.
    """
    return max(1, int(seconds / nominal_round_s + 0.5))


def _dm_pool(budget: int = 96) -> list:
    """The generated g_dm_* flights of one frame budget, in library order."""
    from repro.data.grammar import DEFAULT_MATRIX

    return [recipe.build() for recipe in DEFAULT_MATRIX.recipes()
            if recipe.frame_budget == budget]


def _cell_specs() -> list[str]:
    """One single-model policy spec per runnable (model, accelerator) pair."""
    from repro.models import default_zoo
    from repro.sim import xavier_nx_with_oakd

    soc = xavier_nx_with_oakd()
    return [f"single:{model}@{accel.name}"
            for model in default_zoo().names()
            for accel in soc.accelerators if accel.supports(model)]


# -------------------------------------------------------------- workloads


class Workload:
    """Set-up, timed phase and output check of one workload."""

    name = ""
    params: dict = {}
    tiny_params: dict = {}  # overrides for the self-test's tiny sizes
    # False when the measured program runs in a process of its own, which
    # then traces itself.
    in_process = True

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.p = dict(self.params)
        if tiny:
            self.p.update(self.tiny_params)

    def setup(self, wd: Path):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def measure(self, state, seconds: float, samples: Samples) -> dict:
        raise NotImplementedError

    def check(self, state, result: dict, outcome: Outcome) -> None:
        raise NotImplementedError

    def metrics(self, state, result: dict, samples: Samples) -> dict[str, float]:
        raise NotImplementedError

    def phase_cost(self, result: dict, wall: float) -> float:
        """What tracing overhead is measured on: the timed phase's wall time."""
        return wall


def _closed_loop_metrics(result: dict, samples: Samples) -> dict[str, float]:
    requests = samples.get("request")
    jobs = samples.get("job")
    runs = samples.get("run")
    busy = sum(requests)
    return {
        "frames_per_s": median(result["frames_per_s"]),
        "run_p50_s": median(runs),
        "run_tail_s": tail(runs),
        "request_p50_s": median(requests),
        "request_tail_s": tail(requests),
        "sustained_rps": len(requests) / busy,
        "jobs_per_s": len(jobs) / busy,
        "job_p50_s": median(jobs),
        "job_tail_s": tail(jobs),
    }


class PaperSweep(Workload):
    """Cold regeneration of Table III and the headline claims."""

    name = "paper-sweep"
    params = {"scale": 0.25, "round_s": 2.5}
    tiny_params = {"scale": 0.05, "round_s": 1.0}

    def setup(self, wd: Path):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(scale=self.p["scale"], engine_seed=self.seed)
        ctx.bundle, ctx.graph  # noqa: B018 - characterization is the set-up
        return {"ctx": ctx, "wd": wd}

    def measure(self, state, seconds, samples):
        import repro.runtime.experiment as experiment
        from repro.experiments import ExperimentContext, headline_claims, table3

        base = state["ctx"]
        rates, last = [], None
        with patched(experiment, "run_policy", samples.timer("run", experiment.run_policy)), \
                patched(experiment.ExperimentRunner, "_execute",
                        samples.timer("job", experiment.ExperimentRunner._execute)):
            for index in range(_rounds(seconds, self.p["round_s"])):
                root = state["wd"] / f"round{index}"
                ctx = ExperimentContext(
                    scale=self.p["scale"], engine_seed=self.seed,
                    trace_store=root / "traces", run_store=root / "runs",
                    _bundle=base.bundle, _graph=base.graph,
                )
                with harness.gc_paused():
                    start = time.perf_counter()
                    t3 = table3(ctx)
                    claims = headline_claims(ctx)
                    wall = time.perf_counter() - start
                samples.add("request", wall)
                frames = sum(m.frames for runs in t3.per_scenario.values() for m in runs)
                frames += 2 * sum(s.total_frames for s in ctx.scenarios())
                rates.append(frames / wall)
                last = (ctx, t3, claims)
        return {"frames_per_s": rates, "last": last}

    def metrics(self, state, result, samples):
        return _closed_loop_metrics(result, samples)

    def check(self, state, result, outcome):
        from repro.baselines import MarlinPolicy, oracle_accuracy, oracle_energy, oracle_latency
        from repro.core import ShiftConfig, ShiftPipeline
        from repro.runtime.export import metrics_to_dict

        ctx, t3, claims = result["last"]
        policies = {
            "Marlin": lambda: MarlinPolicy("yolov7"),
            "Marlin Tiny": lambda: MarlinPolicy("yolov7-tiny"),
            "SHIFT": lambda: ShiftPipeline(ctx.bundle, config=ShiftConfig(), graph=ctx.graph),
            "Oracle E": oracle_energy,
            "Oracle A": oracle_accuracy,
            "Oracle L": oracle_latency,
        }
        scenarios = ctx.scenarios()
        cells = [(label, i) for label in policies for i in range(len(scenarios))]
        rng = random.Random(self.seed)
        for label, i in _sample(rng, cells, self.p.get("check_cells", 4)):
            want = reference_metrics(policies[label](), ctx.runner.trace(scenarios[i]),
                                     ctx.engine_seed)
            outcome.mismatches += compare_metrics(
                f"{label}/{scenarios[i].name}", t3.per_scenario[label][i], want)
        rows = [metrics_to_dict(m) for runs in t3.per_scenario.values() for m in runs]
        rows.append({"energy_improvement": claims.energy_improvement,
                     "latency_improvement": claims.latency_improvement,
                     "iou_ratio": claims.iou_ratio, "success_ratio": claims.success_ratio})
        outcome.digest = harness.digest_rows(rows)


class Fig5Grid(Workload):
    """The public ``figure5`` entry over the quick 324-configuration grid."""

    name = "fig5-grid"
    params = {"scale": 0.5, "scenario_scale": 0.15, "round_s": 10.0}
    tiny_params = {"scale": 0.05, "scenario_scale": 0.5, "round_s": 1.0}

    def setup(self, wd: Path):
        from repro.experiments import ExperimentContext

        ctx = ExperimentContext(scale=self.p["scale"], engine_seed=self.seed)
        ctx.bundle, ctx.graph  # noqa: B018 - characterization is the set-up
        scenario = ctx.scenario("s1_multi_background_varying_distance").scaled(
            self.p["scenario_scale"])
        trace = ctx.runner.trace(scenario)
        trace.frames  # noqa: B018 - render in set-up, not in the timed phase
        return {"ctx": ctx, "trace": trace}

    def measure(self, state, seconds, samples):
        import repro.experiments.sensitivity as sensitivity
        from repro.experiments import figure5

        ctx = state["ctx"]
        starts: list[float] = []
        original_pipeline = sensitivity.ShiftPipeline

        def pipeline(*args, **kwargs):
            # A configuration's job starts when its pipeline is built and
            # ends when the next one's is (or when figure5 returns).
            starts.append(time.perf_counter())
            return original_pipeline(*args, **kwargs)

        rates, last = [], None
        frames = state["trace"].frame_count
        with patched(sensitivity, "run_policy", samples.timer("run", sensitivity.run_policy)), \
                patched(sensitivity, "ShiftPipeline", pipeline):
            for _ in range(_rounds(seconds, self.p["round_s"])):
                starts.clear()
                with harness.gc_paused():
                    start = time.perf_counter()
                    last = figure5(ctx, scenario_scale=self.p["scenario_scale"])
                    end = time.perf_counter()
                samples.add("request", end - start)
                for begin, finish in zip(starts, starts[1:] + [end], strict=True):
                    samples.add("job", finish - begin)
                rates.append(len(last.points) * frames / (end - start))
        return {"frames_per_s": rates, "last": last}

    def metrics(self, state, result, samples):
        return _closed_loop_metrics(result, samples)

    def check(self, state, result, outcome):
        from repro.core import ShiftPipeline

        ctx, trace, points = state["ctx"], state["trace"], result["last"].points
        rng = random.Random(self.seed)
        for index in sorted(_sample(rng, list(range(len(points))), self.p.get("check_cells", 4))):
            point = points[index]
            graph = ctx.graph.with_distance_threshold(point.config.distance_threshold)
            want = reference_metrics(ShiftPipeline(ctx.bundle, config=point.config, graph=graph),
                                     trace, ctx.engine_seed)
            got = (point.mean_iou, point.mean_energy_j, point.mean_latency_s)
            ref = (want.mean_iou, want.mean_energy_j, want.mean_latency_s)
            if got != ref:
                outcome.mismatches.append(f"config {index}: {got} != reference {ref}")
        outcome.digest = harness.digest_rows(
            [dataclasses.asdict(p.config) | {"iou": p.mean_iou, "energy": p.mean_energy_j,
                                             "latency": p.mean_latency_s} for p in points])


class QueueDrain(Workload):
    """A closed loop of single-job drains over a seeded on-disk queue."""

    name = "queue-drain"
    params = {"depth": 300, "scenarios": 14, "warm_share": 0.5}
    tiny_params = {"depth": 24, "scenarios": 3}

    def _cells(self) -> list[tuple[str, object]]:
        specs = _cell_specs() + ["oracle-e", "oracle-a", "oracle-l"]
        pool = _dm_pool()
        rng = random.Random(self.seed)
        scenarios = rng.sample(pool, self.p["scenarios"])
        cells = [(spec, s) for spec in specs for s in scenarios]
        return rng.sample(cells, self.p["depth"])

    def setup(self, wd: Path):
        from repro.models import default_zoo
        from repro.runtime import RunStore, ScenarioTrace, TraceStore, run_policy
        from repro.service import JobQueue, UnitJob

        zoo = default_zoo()
        cells = self._cells()
        traces = TraceStore(wd / "traces")
        built = {}
        for _, scenario in cells:
            if scenario.name not in built:
                built[scenario.name] = ScenarioTrace.build(scenario, zoo)
                traces.save(built[scenario.name], zoo)
        # The warm half is committed exactly as a worker would have.
        runs = RunStore(wd / "runs")
        for spec, scenario in cells[: int(len(cells) * self.p["warm_share"])]:
            policy, key = self.run_key(spec, scenario, zoo)
            runs.save(run_policy(policy, built[scenario.name], engine_seed=self.seed,
                                 fast=True), key)
        queue = JobQueue(wd / "queue")
        queue.enqueue_all([UnitJob(policy_spec=spec, scenario=scenario)
                           for spec, scenario in cells], engine_seed=self.seed)
        return {"cells": cells, "traces": traces, "runs": runs,
                "queue": queue, "zoo": zoo}

    def measure(self, state, seconds, samples):
        import repro.service.worker as worker_module
        from repro.service import QueueWorker

        worker = QueueWorker(state["queue"], run_store=state["runs"],
                             trace_store=state["traces"], zoo=state["zoo"],
                             max_jobs=1, worker_id="bench-worker")
        start = time.perf_counter()
        with harness.gc_paused(), patched(worker_module, "run_policy",
                                          samples.timer("run", worker_module.run_policy)):
            while True:
                began = time.perf_counter()
                if worker.drain() == 0:
                    break
                samples.add("job", time.perf_counter() - began)
        wall = time.perf_counter() - start
        frames = sum(scenario.total_frames for _, scenario in state["cells"])
        return {"wall": wall, "frames": frames, "worker": worker}

    def metrics(self, state, result, samples):
        jobs = samples.get("job")
        runs = samples.get("run")
        busy = sum(jobs)
        return {
            "frames_per_s": result["frames"] / result["wall"],
            "run_p50_s": median(runs),
            "run_tail_s": tail(runs),
            "request_p50_s": median(jobs),
            "request_tail_s": tail(jobs),
            "sustained_rps": len(jobs) / busy,
            "jobs_per_s": len(jobs) / busy,
            "job_p50_s": median(jobs),
            "job_tail_s": tail(jobs),
        }

    def run_key(self, spec: str, scenario, zoo):
        """The policy and the RunKey a queue worker commits this cell under."""
        from repro.runtime import RunKey
        from repro.service import policy_resolver
        from repro.sim import xavier_nx_with_oakd

        policy = policy_resolver()(spec)
        return policy, RunKey(policy_name=policy.name, policy_fingerprint=policy.fingerprint(),
                              scenario_fingerprint=scenario.fingerprint(),
                              zoo_fingerprint=zoo.fingerprint(),
                              soc_fingerprint=xavier_nx_with_oakd().fingerprint(),
                              engine_seed=self.seed)

    def check(self, state, result, outcome):
        from repro.runtime import aggregate, run_policy
        from repro.runtime.export import metrics_to_dict

        queue, runs, zoo = state["queue"], state["runs"], state["zoo"]
        counts = queue.counts()
        outcome.attempted = len(state["cells"])
        outcome.failed = counts.get("dead", 0) + counts.get("pending", 0) \
            + counts.get("leased", 0) + queue.jobs_failed
        rows = []
        for spec, scenario in state["cells"]:
            _, key = self.run_key(spec, scenario, zoo)
            metrics = runs.load_metrics(key)
            if metrics is None:
                outcome.mismatches.append(f"{spec}/{scenario.name}: no committed run")
                continue
            rows.append(metrics_to_dict(metrics))
        rng = random.Random(self.seed)
        for spec, scenario in _sample(rng, state["cells"], self.p.get("check_cells", 6)):
            policy, key = self.run_key(spec, scenario, zoo)
            committed = runs.load(key)
            trace = state["traces"].load(scenario, zoo)
            reference = run_policy(policy, trace, engine_seed=self.seed, fast=False)
            if committed is None or committed.records != reference.records:
                outcome.mismatches.append(f"{spec}/{scenario.name}: committed records differ "
                                          f"from the reference loop")
            else:
                outcome.mismatches += compare_metrics(
                    f"{spec}/{scenario.name}", aggregate(committed), aggregate(reference))
        outcome.digest = harness.digest_rows(rows)
        worker = result["worker"]
        outcome.notes.update(warm_completes=worker.warm_completes,
                             runs_executed=worker.runs_executed, depth=len(state["cells"]))


# ------------------------------------------------------------ http-serve


class HttpServe(Workload):
    """A real ``repro serve --http`` process under an open-loop client."""

    name = "http-serve"
    params = {
        "rates": (8.0, 16.0, 32.0),  # offered req/s; each doubles the last
        "rounds": (5, 1, 1),  # rounds of requests per rate; a round uses every spec once
        "exec_budget": 300,  # frames per executed flight (probed ones have 96)
        "connections": 2,
        "service_workers": 1,
        "tail_limit_s": 0.5,
        "timeout_s": 60.0,
    }
    tiny_params = {"rounds": (1, 1, 1), "rates": (20.0, 40.0, 80.0)}
    warm_spec = "oracle-l"

    def _universe(self):
        """Seeded flights and requests; each request is one single-model spec
        over [executed, probed, probed, coalesced] flights.

        Every cell of a request is of a fixed kind: the executed flight's
        trace is warm in the server but the cell is in neither store nor
        job table; the probed cells are in the run store only; the
        coalesced cell was served during warm-up.  Specs are single-model
        policies of near-equal cost, so a percentile never falls between
        cheap and expensive policies.
        """
        rng = random.Random(self.seed)
        rounds = sum(self.p["rounds"])
        # Executed flights are the library's longest, so an executed cell's
        # host time is mostly its run rather than its run-store write.
        exec_s = rng.sample(_dm_pool(self.p["exec_budget"]), rounds)
        chosen = rng.sample(_dm_pool(), 2 * rounds + 1)
        probe_s, coal_s = chosen[:2 * rounds], chosen[-1:]
        specs = _cell_specs()
        requests = []
        for r in range(rounds):
            order = list(specs)
            rng.shuffle(order)
            for spec in order:
                # Spec j probes flights 2r+j and 2r+j+1 (mod 2 * rounds) in
                # round r, so no (spec, flight) cell is probed twice.
                j = specs.index(spec)
                q1 = probe_s[(2 * r + j) % len(probe_s)]
                q2 = probe_s[(2 * r + j + 1) % len(probe_s)]
                requests.append((spec, exec_s[r], q1, q2))
        return specs, exec_s, probe_s, coal_s, requests

    def setup(self, wd: Path):
        from repro.models import default_zoo
        from repro.runtime import ScenarioTrace, TraceStore
        from repro.service import SweepRequest, SweepService, policy_resolver

        specs, exec_s, probe_s, coal_s, requests = self._universe()
        zoo = default_zoo()
        traces = TraceStore(wd / "traces")
        for scenario in exec_s + probe_s + coal_s:
            traces.save(ScenarioTrace.build(scenario, zoo), zoo)
        stored: dict[str, list] = {spec: list(coal_s) for spec in specs}
        for spec, _, q1, q2 in requests:
            stored[spec] += [q for q in (q1, q2) if q not in stored[spec]]
        with SweepService(trace_store=traces, run_store=wd / "runs", workers=1) as service:
            service.run([SweepRequest(policies=(spec,), scenarios=tuple(scenarios))
                         for spec, scenarios in stored.items()])
        server = _Server(wd, self.p, trace=self.trace_server)
        server.start()
        warmup = [
            {"policies": [self.warm_spec], "scenarios": [s.name for s in exec_s]},
            {"policies": specs, "scenarios": [s.name for s in coal_s]},
        ]
        client = _Client(server.port, self.p["timeout_s"])
        try:
            for body in warmup:
                status, rows, summary = client.sweep(body)
                if status != 202 or summary.get("state") != "done":
                    raise harness.BenchmarkError(f"warm-up failed: {status} {summary}")
        except BaseException:
            server.stop()
            raise
        finally:
            client.close()
        return {"server": server, "requests": requests, "round_size": len(specs),
                "coal": coal_s, "traces": traces, "resolver": policy_resolver(), "zoo": zoo}

    in_process = False
    trace_server = False

    def teardown(self, state) -> None:
        state["server"].stop()

    def phase_cost(self, result: dict, wall: float) -> float:
        """Summed request latency: an open loop's wall time is fixed by its
        schedule, so tracing overhead shows in latency instead."""
        return sum(r["latency"] for r in result["main"]["records"])

    def server_trace(self, state) -> tuple[dict, float]:
        """The traced server's spans and counters, and its lifetime."""
        final = state["server"].stop()
        return final["tracer"], final["wall_s"]

    def measure(self, state, seconds, samples):
        p = self.p
        server = state["server"]
        stats_before = server.stats()
        queue = list(state["requests"])
        phases = []
        for rate, rounds in zip(p["rates"], p["rounds"], strict=True):
            count = rounds * state["round_size"]
            batch, queue = queue[:count], queue[count:]
            phases.append(self._phase(server.port, rate, batch, state["coal"]))
        main = phases[0]
        stats_after = server.stats()
        result = {"phases": phases, "main": main, "stats": (stats_before, stats_after),
                  "rss": harness.peak_rss_mb(server.pid)}
        for record in main["records"]:
            samples.add("request", record["latency"])
        return result

    def _phase(self, port: int, rate: float, batch, coal_s) -> dict:
        """One open-loop phase at ``rate`` req/s over ``connections`` clients."""
        p = self.p
        schedule = [(i / rate, spec, flights) for i, (spec, *flights) in enumerate(batch)]
        records: list[dict] = [None] * len(schedule)  # type: ignore[list-item]
        cursor = iter(range(len(schedule)))
        lock = threading.Lock()
        wall_start = time.time()
        start = time.perf_counter() + 0.05

        def client_loop() -> None:
            client = _Client(port, p["timeout_s"])
            try:
                while True:
                    with lock:
                        index = next(cursor, None)
                    if index is None:
                        return
                    due, spec, flights = schedule[index]
                    delay = start + due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    # Executed flight first: with one service worker its run
                    # starts while the handler thread waits for its row, so
                    # no other thread competes with it for the GIL.
                    body = {"policies": [spec],
                            "scenarios": [f.name for f in flights] + [c.name for c in coal_s]}
                    try:
                        status, rows, summary = client.sweep(body)
                        ok = (status == 202 and summary.get("state") == "done"
                              and not summary.get("error") and len(rows) == len(body["scenarios"]))
                    except (OSError, http.client.HTTPException, ValueError):
                        client.close()
                        client = _Client(port, p["timeout_s"])
                        status, rows, summary, ok = 0, [], {}, False
                    done = time.perf_counter()
                    records[index] = {
                        "due": start + due, "late": sent - (start + due),
                        # A failed request misses any latency limit.
                        "latency": (done - (start + due)) if ok else p["timeout_s"],
                        "done": done, "ok": ok, "status": status, "rows": rows,
                    }
            finally:
                client.close()

        threads = [threading.Thread(target=client_loop, name=f"client-{i}")
                   for i in range(p["connections"])]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        latencies = [r["latency"] for r in records]
        third = max(1, len(records) // 3)
        first = median(latencies[:third])
        last = median(latencies[-third:])
        span = max(r["done"] for r in records) - records[0]["due"]
        return {
            "rate": rate,
            "records": records,
            "wall_start": wall_start,
            "wall_end": time.time(),
            "span": span,
            "achieved_rps": len(records) / span,
            "failed": sum(not r["ok"] for r in records),
            "meets_limit": (tail(latencies) <= p["tail_limit_s"]
                            and all(r["ok"] for r in records)),
            "backlog_growing": last > 2.0 * first + 0.05,
            "late_p50_s": median([r["late"] for r in records]),
            "late_max_s": max(r["late"] for r in records),
        }

    def metrics(self, state, result, samples):
        main = result["main"]
        server_samples = state["server"].samples()
        window = (main["wall_start"], main["wall_end"])
        runs = [d for t, d in server_samples["run"] if window[0] <= t <= window[1]]
        jobs = [d for t, d in server_samples["job"] if window[0] <= t <= window[1]]
        sustained = main["achieved_rps"]
        for phase in result["phases"]:
            if phase["meets_limit"] and not phase["backlog_growing"]:
                sustained = phase["achieved_rps"]
            else:
                break
        frames = sum(row["metrics"]["frames"] for r in main["records"] for row in r["rows"])
        latencies = [r["latency"] for r in main["records"]]
        return {
            "frames_per_s": frames / main["span"],
            "run_p50_s": median(runs),
            "run_tail_s": tail(runs),
            "request_p50_s": median(latencies),
            "request_tail_s": tail(latencies),
            "sustained_rps": sustained,
            "jobs_per_s": len(jobs) / main["span"],
            "job_p50_s": median(jobs),
            "job_tail_s": tail(jobs),
            "peak_rss_mb": result["rss"],
        }

    def check(self, state, result, outcome):
        from repro.service import metrics_from_wire

        records = [r for phase in result["phases"] for r in phase["records"]]
        outcome.attempted = len(records)
        outcome.failed = sum(not r["ok"] for r in records)
        before, after = result["stats"]
        delta = {k: after["backend"][k] - before["backend"][k]
                 for k in ("jobs_scheduled", "runs_executed", "run_store_hits", "trace_builds")}
        if delta["trace_builds"]:
            outcome.mismatches.append(f"{delta['trace_builds']} trace builds in the timed phase")
        rows = [row for r in records for row in r["rows"]]
        rng = random.Random(self.seed)
        by_name = {c.name: c for c in state["coal"]}
        for _spec, *flights in state["requests"]:
            by_name.update((f.name, f) for f in flights)
        for row in _sample(rng, rows, self.p.get("check_cells", 6)):
            scenario = by_name[row["scenario"]]
            trace = state["traces"].load(scenario, state["zoo"])
            want = reference_metrics(state["resolver"](row["policy_spec"]), trace, 1234)
            outcome.mismatches += compare_metrics(
                f"{row['policy_spec']}/{row['scenario']}", metrics_from_wire(row["metrics"]), want)
        outcome.digest = harness.digest_rows(
            [{"policy_spec": row["policy_spec"], **row["metrics"]} for row in rows])
        main = result["main"]
        outcome.notes.update(
            cells=delta, generator_late_p50_s=main["late_p50_s"],
            generator_late_max_s=main["late_max_s"],
            phases=[{"rate": ph["rate"], "requests": len(ph["records"]),
                     "achieved_rps": round(ph["achieved_rps"], 3),
                     "tail_s": round(tail([r["latency"] for r in ph["records"]]), 4),
                     "meets_limit": ph["meets_limit"], "backlog_growing": ph["backlog_growing"]}
                    for ph in result["phases"]])


class _Client:
    """One keep-alive HTTP/1.1 connection to the sweep server."""

    def __init__(self, port: int, timeout: float) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def sweep(self, body: dict) -> tuple[int, list[dict], dict]:
        """POST one request, then stream its rows to the summary line."""
        payload = json.dumps([body]).encode("utf-8")
        self.conn.request("POST", "/v1/sweeps", body=payload,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        answer = json.loads(response.read())
        if response.status != 202:
            return response.status, [], {}
        request_id = answer["request_ids"][0]
        self.conn.request("GET", f"/v1/sweeps/{request_id}/results")
        response = self.conn.getresponse()
        rows, summary = [], {}
        for line in response:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("done"):
                summary = record
            else:
                rows.append(record)
        return 202, rows, summary

    def get(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


class _Server:
    """``python3 perfbench/server.py`` wrapping ``repro serve --http``."""

    def __init__(self, wd: Path, params: dict, trace: bool) -> None:
        self.wd = wd
        self.params = params
        self.trace = trace
        self.stats_path = wd / "server-stats.json"
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self._final: dict | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def start(self) -> None:
        cmd = [sys.executable, "-u", str(harness.HERE / "server.py"),
               "--stats", str(self.stats_path)]
        if self.trace:
            cmd.append("--trace")
        cmd += ["--", "--trace-store", str(self.wd / "traces"),
                "--run-store", str(self.wd / "runs"),
                "serve", "--http", "0",
                "--service-workers", str(self.params["service_workers"]),
                "--max-pending", "256",
                "--request-timeout", str(self.params["timeout_s"])]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                     cwd=str(harness.ROOT))
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("serving on http://"):
                self.port = int(line.split(":")[2].split(" ")[0])
                return
        self.stop()
        raise harness.BenchmarkError("the sweep server did not start")

    def stats(self) -> dict:
        client = _Client(self.port, 30.0)
        try:
            return client.get("/v1/stores/stats")
        finally:
            client.close()

    def stop(self) -> dict:
        """SIGINT the server (its graceful path), wait, read its stats file."""
        if self._final is not None:
            return self._final
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        try:
            self._final = json.loads(self.stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self._final = {"run": [], "job": []}
        return self._final

    def samples(self) -> dict:
        return self.stop()


WORKLOADS = {cls.name: cls for cls in (PaperSweep, Fig5Grid, HttpServe, QueueDrain)}
