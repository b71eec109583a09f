"""Persistent, parallel experiment runner.

Everything that reruns policies over scenarios — the paper tables and
figures, the CLI, the benchmark harness — funnels through
:class:`ExperimentRunner`.  It owns the trace tier (a fingerprint-keyed
:class:`~repro.runtime.trace.TraceCache`, optionally backed by an on-disk
:class:`~repro.runtime.store.TraceStore`) and the process pool, so callers
get three things for free:

* **reuse** — a second invocation with the same store rebuilds nothing,
  and with a :class:`~repro.runtime.runstore.RunStore` attached a repeat
  sweep doesn't even *run*: persisted metrics come back keyed by (policy,
  trace, SoC, seed) fingerprints;
* **parallelism** — trace builds fan out per (scenario, model-chunk), and
  sweeps can run whole (policy, scenario) pairs in worker processes;
* **determinism** — results are bit-identical to the serial path and to
  the scalar reference run loop (every stochastic draw is seeded by
  content, never by scheduling; the fast run tier replays the reference
  engine's draw order exactly).

A sweep's platform comes from ``soc``: a zero-argument factory (fresh SoC
per run — required for parallel runs, which execute in other processes) or
a single :class:`~repro.sim.soc.SoC` instance reset before each run.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from collections.abc import Callable, Sequence

from ..data.generator import render_scenario, scenario_scenes
from ..data.scenario import Scenario
from ..models.zoo import ModelZoo, default_zoo
from ..sim.soc import SoC
from .metrics import RunMetrics, aggregate
from ..core.policy import Policy
from ..core.records import RunResult
from .runner import run_policy
from .runstore import RunKey, RunStore, fingerprint_soc, make_run_key
from .store import TraceStore
from .trace import (
    ScenarioTrace,
    TraceCache,
    _effective_workers,
    _outcomes_for_specs,
    _spec_chunks,
)

SocLike = SoC | Callable[[], SoC] | None


# Per-worker-process trace memo: a worker that runs several (policy,
# scenario) pairs for the same scenario loads/renders the trace once, not
# once per pair.  Keyed by (store root, scenario, zoo) fingerprints.
_WORKER_TRACES: dict[tuple[str, str, str], ScenarioTrace] = {}


def _run_pair_in_worker(
    policy: Policy,
    scenario: Scenario,
    zoo: ModelZoo,
    store_root: str,
    engine_seed: int,
    soc_factory: Callable[[], SoC] | None,
    fast: bool = False,
    run_store_root: str | None = None,
    soc_fingerprint: str | None = None,
) -> RunMetrics:
    """Run one (policy, scenario) pair in a worker process.

    The trace comes from the shared store (guaranteed warm — the parent
    builds all traces before dispatching pairs), so workers never repeat
    the zoo sweep; module-level for picklability.  The parent resolves
    run-store *hits* before dispatching, so workers only see misses; with
    ``run_store_root`` each worker persists its finished run (atomic
    writes make concurrent workers safe).
    """
    key = (store_root, scenario.fingerprint(), zoo.fingerprint())
    trace = _WORKER_TRACES.get(key)
    if trace is None:
        trace = TraceStore(store_root).get(scenario, zoo)
        _WORKER_TRACES[key] = trace
    soc = soc_factory() if soc_factory is not None else None
    result = run_policy(policy, trace, soc=soc, engine_seed=engine_seed, fast=fast)
    if run_store_root is not None and soc_fingerprint is not None:
        run_key = make_run_key(
            policy, scenario.fingerprint(), zoo, soc_fingerprint, engine_seed
        )
        if run_key is not None:
            RunStore(run_store_root).save(result, run_key)
    return aggregate(result)


class ExperimentRunner:
    """Builds traces (in parallel, persistently) and sweeps policies over them.

    Parameters mirror the trace tier: ``store`` persists traces across
    processes, ``max_workers`` bounds the process pool (None or 1 = serial),
    ``engine_seed`` seeds every run's execution engine, and ``soc`` supplies
    the platform (factory or instance; default is a fresh Xavier-NX+OAK-D
    per run).  An existing :class:`TraceCache` can be passed instead of a
    zoo to share warm traces with other components.
    """

    def __init__(
        self,
        zoo: ModelZoo | None = None,
        *,
        cache: TraceCache | None = None,
        store: TraceStore | None = None,
        max_workers: int | None = None,
        engine_seed: int = 1234,
        soc: SocLike = None,
        run_store: RunStore | None = None,
        fast: bool = True,
    ) -> None:
        if cache is None:
            cache = TraceCache(zoo if zoo is not None else default_zoo(), store=store,
                               max_workers=max_workers)
        else:
            if zoo is not None and zoo is not cache.zoo:
                raise ValueError("pass either a zoo or a cache built from it, not both")
            if store is not None and store is not cache.store:
                raise ValueError(
                    "pass either a store or a cache built on it, not both "
                    "(the cache's store is the one that would be used)"
                )
        self.cache = cache
        self.max_workers = max_workers if max_workers is not None else cache.max_workers
        self.engine_seed = engine_seed
        self.soc = soc
        # Run tier: ``fast`` selects the bit-identical fast-run engine
        # (planned jitter, cached context signals, vectorized scheduling);
        # ``run_store`` persists finished runs so repeat sweeps are
        # near-free.  ``run_store_hits``/``runs_executed`` let callers
        # verify reuse, mirroring ``cache.builds`` on the trace tier.
        self.run_store = run_store
        self.fast = fast
        self.run_store_hits = 0
        self.runs_executed = 0

    @property
    def zoo(self) -> ModelZoo:
        """The model zoo traces are built against."""
        return self.cache.zoo

    @property
    def store(self) -> TraceStore | None:
        """The on-disk trace tier, if any."""
        return self.cache.store

    def _fresh_soc(self) -> SoC | None:
        if callable(self.soc):
            return self.soc()
        return self.soc  # an instance (reset by run_policy) or None

    # ------------------------------------------------------------ traces

    def trace(self, scenario: Scenario) -> ScenarioTrace:
        """The trace for one scenario (memory → store → build)."""
        return self.cache.get(scenario)

    def build_traces(self, scenarios: Sequence[Scenario]) -> list[ScenarioTrace]:
        """Warm the cache for every scenario, fanning builds across workers.

        Tasks are (scenario, model-chunk) detection sweeps — fine-grained
        enough to balance scenarios of very different lengths — while the
        parent renders frames.  Scenarios already in memory or on disk are
        skipped entirely.
        """
        missing = []
        seen: set[str] = set()
        for scenario in scenarios:
            if scenario.fingerprint() in seen or scenario in self.cache:
                continue
            if self.store is not None:
                loaded = self.store.load(scenario, self.zoo)
                if loaded is not None:
                    self.cache.put(loaded, persist=False)
                    continue
            seen.add(scenario.fingerprint())
            missing.append(scenario)

        specs = self.zoo.specs()
        # The same guards as ScenarioTrace.build; tasks can span
        # scenarios, so the granularity cap is models x missing scenarios.
        pending_model_frames = len(specs) * sum(s.total_frames for s in missing)
        workers = _effective_workers(
            self.max_workers, len(specs) * len(missing), pending_model_frames
        )
        if missing and workers > 1:
            # Aim for at least one task per worker overall: with S missing
            # scenarios, split the zoo into ceil(W / S) chunks each — but
            # never chunk a scenario finer than its volume can amortize
            # (fragmenting the batched sweep was a net slowdown).
            base_chunks = -(-workers // len(missing))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {}
                for scenario in missing:
                    chunk_count = min(
                        base_chunks,
                        _effective_workers(
                            workers, len(specs), len(specs) * scenario.total_frames
                        ),
                    )
                    chunks = _spec_chunks(specs, chunk_count)
                    scenes = scenario_scenes(scenario)
                    futures[scenario.fingerprint()] = [
                        pool.submit(_outcomes_for_specs, scenario.seed, scenes, chunk)
                        for chunk in chunks
                    ]
                for scenario in missing:
                    frames = render_scenario(scenario)
                    merged: dict = {}
                    for future in futures[scenario.fingerprint()]:
                        merged.update(future.result())
                    outcomes = {spec.name: merged[spec.name] for spec in specs}
                    self.cache.put(
                        ScenarioTrace(scenario=scenario, frames=frames, outcomes=outcomes)
                    )
                    self.cache.builds += 1
        else:
            for scenario in missing:
                self.cache.get(scenario)
        return [self.cache.get(scenario) for scenario in scenarios]

    # ---------------------------------------------------------- run store

    def _execute(self, policy: Policy, scenario: Scenario, key: RunKey | None) -> RunResult:
        """Run a (guaranteed) store miss and persist the result."""
        result = run_policy(
            policy,
            self.trace(scenario),
            soc=self._fresh_soc(),
            engine_seed=self.engine_seed,
            fast=self.fast,
        )
        self.runs_executed += 1
        if key is not None and self.run_store is not None:
            self.run_store.save(result, key)
        return result

    # ------------------------------------------------------------- sweeps

    def run(self, policy: Policy, scenario: Scenario) -> RunResult:
        """Run one policy over one scenario on a fresh/reset platform.

        With a run store attached, a previously persisted run for the
        same (policy, trace, SoC, seed) key is returned without executing
        anything.
        """
        key = None
        if self.run_store is not None:
            key = make_run_key(
                policy, scenario.fingerprint(), self.zoo, fingerprint_soc(self.soc),
                self.engine_seed,
            )
            cached = self.run_store.load(key) if key is not None else None
            if cached is not None:
                self.run_store_hits += 1
                return cached
        return self._execute(policy, scenario, key)

    def run_policy_on_scenarios(
        self, policy: Policy, scenarios: Sequence[Scenario]
    ) -> list[RunMetrics]:
        """One metrics row per scenario, traces built concurrently."""
        return self.sweep([policy], scenarios)[policy.name]

    def sweep(
        self,
        policies: Sequence[Policy],
        scenarios: Sequence[Scenario],
        parallel_runs: bool = False,
    ) -> dict[str, list[RunMetrics]]:
        """Every policy over every scenario: ``{policy_name: [metrics...]}``.

        Run-store hits are resolved first: a fully warm sweep returns
        persisted metrics without building, loading, or rendering a
        single trace.  Remaining misses build their traces concurrently
        (given ``max_workers``) and run on the fast tier.  With
        ``parallel_runs=True`` the missing (policy, scenario) runs also
        fan out — this requires an on-disk trace store (workers reload
        traces from it) and picklable policies, and produces metrics
        identical to the serial path.  Note: run workers re-render frames
        from the scenario script, so scenarios whose backgrounds were
        registered at runtime need a fork start method (the default on
        Linux) for the registration to be visible in workers.
        """
        workers = self.max_workers or 1
        if parallel_runs and workers > 1:
            # Validate before building: trace construction is the expensive
            # part, and a usage error after it would throw that work away.
            if self.store is None:
                raise ValueError("parallel_runs requires a TraceStore-backed runner")
            if self.soc is not None and not callable(self.soc):
                raise ValueError("parallel_runs requires a SoC factory, not an instance")

        pairs = [(policy, scenario) for policy in policies for scenario in scenarios]
        resolved: dict[int, RunMetrics] = {}
        misses: list[tuple[int, RunKey | None]] = []
        soc_fp = fingerprint_soc(self.soc) if self.run_store is not None else None
        for index, (policy, scenario) in enumerate(pairs):
            key = None
            if soc_fp is not None:
                key = make_run_key(
                    policy, scenario.fingerprint(), self.zoo, soc_fp, self.engine_seed
                )
            cached = (
                self.run_store.load_metrics(key)
                if key is not None and self.run_store is not None
                else None
            )
            if cached is not None:
                self.run_store_hits += 1
                resolved[index] = cached
            else:
                misses.append((index, key))

        if misses:
            # Only scenarios that actually miss need a trace.
            missing_scenarios: list[Scenario] = []
            seen: set[str] = set()
            for index, _ in misses:
                scenario = pairs[index][1]
                if scenario.fingerprint() not in seen:
                    seen.add(scenario.fingerprint())
                    missing_scenarios.append(scenario)
            self.build_traces(missing_scenarios)

            if parallel_runs and workers > 1:
                run_store_root = (
                    str(self.run_store.root) if self.run_store is not None else None
                )
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = {
                        index: pool.submit(
                            _run_pair_in_worker,
                            pairs[index][0],
                            pairs[index][1],
                            self.zoo,
                            str(self.store.root),
                            self.engine_seed,
                            self.soc,
                            self.fast,
                            run_store_root,
                            soc_fp,
                        )
                        for index, _ in misses
                    }
                    for index, future in futures.items():
                        resolved[index] = future.result()
                        self.runs_executed += 1
            else:
                # The pre-resolution loop proved these are misses; reuse
                # its keys instead of re-deriving and re-querying.
                for index, key in misses:
                    policy, scenario = pairs[index]
                    resolved[index] = aggregate(self._execute(policy, scenario, key))

        count = len(scenarios)
        sweep_result: dict[str, list[RunMetrics]] = {}
        for p, policy in enumerate(policies):
            # Policies sharing a name concatenate their rows in policy
            # order (scenario-major within each policy) — every executed
            # run is returned, never silently dropped.
            sweep_result.setdefault(policy.name, []).extend(
                resolved[p * count + s] for s in range(count)
            )
        return sweep_result
