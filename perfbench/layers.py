"""Traced runs: spans around calls into each layer, and the per-layer split.

The benchmark measures layers from the outside.  In a traced process
:func:`instrument` replaces the module and class attributes that callers
look up (``repro.runtime.trace.detect_batch``,
``ShiftScheduler.select_fast``, ``JobQueue.claim``, ...) with wrappers
that record a span per call; nothing under ``src/`` changes, and an
untraced process never installs them.

A span is ``(id, parent, group, op, thread, start, end)``: its parent is
the innermost open span on the same thread, and ``op`` is the id of the
run, request or job it served.  Spans stay in memory and are written out
when the run ends.  Each group gets ``calls`` / ``busy_s`` (outermost
calls of the group) and ``self_s`` (time not covered by child spans);
whatever the groups' self time leaves of the traced wall time is the
unattributed remainder, so split + remainder = wall by construction.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

# Span groups, in report order.  Every group yields <group>.calls,
# <group>.busy_s and <group>.self_s.
GROUPS = (
    "characterization",
    "data.render",
    "models.detect",
    "vision.ncc.frame",
    "vision.ncc.box",
    "runtime.trace.box_memo",
    "baselines.marlin",
    "core.context",
    "core.scheduler",
    "core.loader",
    "sim.engine",
    "core.pipeline.begin",
    "core.pipeline.step",
    "core.confidence_graph.rethreshold",
    "runtime.runner",
    "runtime.store.load",
    "runtime.store.decode",
    "runtime.store.save",
    "runtime.runstore.load",
    "runtime.runstore.decode",
    "runtime.runstore.save",
    "runtime.iolayer",
    "service.service.execute",
    "service.http.admission",
    "service.http.stream",
    "service.http.serialize",
    "service.queue.enqueue",
    "service.queue.claim",
    "service.queue.heartbeat",
    "service.queue.complete",
    "service.worker.execute",
)

# Counters and ratios beyond calls/busy/self: (name, unit, better).
EXTRA = (
    ("data.render.frames", "count", "higher"),
    ("models.detect.frames", "count", "higher"),
    ("models.detect.model_frames", "count", "higher"),
    ("runtime.trace.box_memo_hit_share", "share", "higher"),
    ("baselines.marlin.runs", "count", "higher"),
    ("core.scheduler.reschedule_share", "share", "lower"),
    ("core.loader.swaps", "count", "lower"),
    ("runtime.store.hits", "count", "higher"),
    ("runtime.store.misses", "count", "lower"),
    ("runtime.store.bytes", "bytes", "lower"),
    ("runtime.runstore.hits", "count", "higher"),
    ("runtime.runstore.misses", "count", "lower"),
    ("runtime.runstore.bytes", "bytes", "lower"),
    ("runtime.iolayer.reads", "count", "lower"),
    ("runtime.iolayer.writes", "count", "lower"),
    ("runtime.iolayer.replaces", "count", "lower"),
    ("runtime.iolayer.fsyncs", "count", "lower"),
    ("runtime.iolayer.retries", "count", "lower"),
    ("runtime.iolayer.io_errors", "count", "lower"),
    ("service.service.jobs_scheduled", "count", "higher"),
    ("service.service.coalesced_share", "share", "higher"),
    ("service.service.run_store_hits", "count", "higher"),
    ("service.service.runs_executed", "count", "higher"),
    ("service.http.first_row_s", "s", "lower"),
    ("service.http.rejected", "count", "lower"),
    ("service.queue.records_read_per_claim", "share", "higher"),
    ("service.worker.warm_completes", "count", "higher"),
    ("service.worker.runs_executed", "count", "higher"),
    ("service.worker.heartbeats_sent", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.attributed_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    metrics = []
    for group in GROUPS:
        metrics.append((f"{group}.calls", "count", "higher"))
        metrics.append((f"{group}.busy_s", "s", "lower"))
        metrics.append((f"{group}.self_s", "s", "lower"))
    metrics.extend(EXTRA)
    return metrics


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.first_rows: list[float] = []
        self.instances: dict[str, list] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    # ------------------------------------------------------------- spans

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, group: str, op: str | None = None) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else (0, None, None)
        frame = (next(self._ids), op if op is not None else parent[1], group)
        stack.append(frame)
        return frame, parent[0], time.perf_counter()

    def innermost(self) -> str | None:
        """The group of this thread's innermost open span."""
        stack = self._stack()
        return stack[-1][2] if stack else None

    def close(self, token: tuple, group: str) -> None:
        end = time.perf_counter()
        (span_id, op, _group), parent, start = token
        self._stack().pop()
        self.spans.append((span_id, parent, group, op, threading.get_ident(), start, end))

    # ----------------------------------------------------- instrumenting

    def wrap(self, target: str, group: str, *, after=None, op=None) -> None:
        """Record a ``group`` span around every call of ``target``.

        ``target`` is ``module:attr`` or ``module:Class.attr``.  ``after``
        sees ``(tracer, result, args)`` to bump counters; ``op`` maps the
        call's args to the id of the run/request/job it serves.
        """
        owner, attr, func = _resolve(target)
        raw = inspect.getattr_static(owner, attr)
        static = isinstance(raw, staticmethod)
        tracer = self

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def traced(*args, **kwargs):
                token = tracer.open(group, op(args) if op else None)
                started = token[2]
                first = True
                try:
                    for item in func(*args, **kwargs):
                        if first:
                            tracer.first_rows.append(time.perf_counter() - started)
                            first = False
                        yield item
                finally:
                    tracer.close(token, group)
        else:
            @functools.wraps(func)
            def traced(*args, **kwargs):
                token = tracer.open(group, op(args) if op else None)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer.close(token, group)
                if after is not None:
                    after(tracer, result, args)
                return result

        setattr(owner, attr, staticmethod(traced) if static else traced)
        self._undo.append((owner, attr, raw))

    def count(self, target: str, counter: str, amount=None, within: str | None = None) -> None:
        """Bump ``counter`` on every call of ``target`` (no span).

        With ``within``, only calls made directly inside a span of that
        group count.
        """
        owner, attr, original = _resolve(target)
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            inside = within is None or tracer.innermost() == within
            result = original(*args, **kwargs)
            if inside:
                tracer.counts[counter] += amount(result, args) if amount else 1
            return result

        setattr(owner, attr, counted)
        self._undo.append((owner, attr, original))

    def keep_instances(self, target: str, key: str) -> None:
        """Remember every instance ``target`` (a class) constructs."""
        _owner, _attr, cls = _resolve(target)
        original_init = cls.__init__
        kept = self.instances.setdefault(key, [])

        @functools.wraps(original_init)
        def init(obj, *args, **kwargs):
            original_init(obj, *args, **kwargs)
            kept.append(obj)

        cls.__init__ = init
        self._undo.append((cls, "__init__", original_init))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ report

    def state(self) -> dict:
        """Spans and counters as plain data (crosses a process boundary)."""
        return {
            "spans": [list(span) for span in self.spans],
            "counts": dict(self.counts),
            "first_rows": list(self.first_rows),
        }


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


# ------------------------------------------------------------ layer map


def _scene_count(_result, args) -> int:
    return len(args[0])


def _rescheduled(tracer, decision, _args) -> None:
    tracer.counts["core.scheduler.rescheduled"] += bool(decision.rescheduled)


def _loaded(tracer, outcome, _args) -> None:
    cold = outcome[2] if isinstance(outcome, tuple) else outcome.cold_load
    tracer.counts["core.loader.swaps"] += bool(cold)


def _hit(prefix):
    def after(tracer, result, _args) -> None:
        tracer.counts[f"{prefix}.{'hits' if result is not None else 'misses'}"] += 1
    return after


def _saved_bytes(prefix):
    def after(tracer, result, _args) -> None:
        path = result[0] if isinstance(result, tuple) else result
        try:
            tracer.counts[f"{prefix}.bytes"] += Path(path).stat().st_size
        except (OSError, TypeError):
            pass  # a lost rename under fault injection leaves nothing to size
    return after


def _job_op(args) -> str:
    job = args[1]
    return f"job:{job.policy_spec}|{job.scenario.name}"


def instrument(tracer: Tracer) -> Tracer:
    """Install every layer wrapper in this process; returns ``tracer``."""
    w = tracer.wrap
    w("repro.experiments.context:characterize", "characterization")
    w("repro.characterization:characterize", "characterization")
    for module in ("repro.runtime.trace", "repro.runtime.experiment"):
        w(f"{module}:render_scenario", "data.render",
          after=lambda t, r, a: t.counts.update({"data.render.frames": len(r)}))
    tracer.count("repro.runtime.trace:SceneBatch", "models.detect.frames", _scene_count)
    w("repro.runtime.trace:detect_batch", "models.detect",
      after=lambda t, r, a: t.counts.update({"models.detect.model_frames": len(r)}))
    w("repro.runtime.trace:stacked_ncc", "vision.ncc.frame")
    w("repro.core.context:frame_similarity", "vision.ncc.frame")
    w("repro.runtime.trace:box_ncc", "vision.ncc.box")
    w("repro.vision.ncc:box_ncc", "vision.ncc.box")
    w("repro.runtime.trace:ScenarioTrace.box_context_ncc", "runtime.trace.box_memo")
    w("repro.baselines.marlin:MarlinPolicy.begin", "baselines.marlin",
      after=lambda t, r, a: t.counts.update({"baselines.marlin.runs": 1}))
    w("repro.baselines.marlin:MarlinPolicy.step", "baselines.marlin")
    w("repro.core.context:ContextDetector.similarity", "core.context")
    w("repro.core.scheduler:ShiftScheduler.select", "core.scheduler", after=_rescheduled)
    w("repro.core.scheduler:ShiftScheduler.select_fast", "core.scheduler", after=_rescheduled)
    w("repro.core.loader:DynamicModelLoader.ensure_loaded", "core.loader", after=_loaded)
    w("repro.core.loader:DynamicModelLoader.ensure_loaded_cost", "core.loader", after=_loaded)
    w("repro.core.loader:DynamicModelLoader.prefetch", "core.loader")
    for method in ("run_inference", "inference_cost", "run_load", "charge_overhead"):
        w(f"repro.sim.engine:ExecutionEngine.{method}", "sim.engine")
    w("repro.core.pipeline:ShiftPipeline.begin", "core.pipeline.begin")
    w("repro.core.pipeline:ShiftPipeline.step", "core.pipeline.step")
    w("repro.core.confidence_graph:ConfidenceGraph.with_distance_threshold",
      "core.confidence_graph.rethreshold")
    run_op = (lambda a: f"run:{a[0].name}|{a[1].scenario.name}")
    for module in ("repro.runtime.experiment", "repro.experiments.sensitivity",
                   "repro.service.service", "repro.service.worker"):
        w(f"{module}:run_policy", "runtime.runner", op=run_op)
    w("repro.runtime.store:TraceStore.load", "runtime.store.load",
      after=_hit("runtime.store"))
    w("repro.runtime.store:_outcomes_from_rows", "runtime.store.decode")
    w("repro.runtime.colfmt:decode_trace_outcomes", "runtime.store.decode")
    w("repro.runtime.store:TraceStore.save", "runtime.store.save",
      after=_saved_bytes("runtime.store"))
    for method in ("load", "load_metrics"):
        w(f"repro.runtime.runstore:RunStore.{method}", "runtime.runstore.load",
          after=_hit("runtime.runstore"))
    for func in ("run_from_dict", "metrics_from_dict"):
        w(f"repro.runtime.runstore:{func}", "runtime.runstore.decode")
    w("repro.runtime.colfmt:decode_run", "runtime.runstore.decode")
    for method in ("save", "commit"):
        w(f"repro.runtime.runstore:RunStore.{method}", "runtime.runstore.save",
          after=_saved_bytes("runtime.runstore"))
    io = "repro.runtime.iolayer"
    for func, counter in (("read_text", "reads"), ("read_bytes", "reads"),
                          ("write_text", "writes"), ("write_bytes", "writes"),
                          ("write_json", "writes"), ("replace", "replaces")):
        w(f"{io}:{func}", "runtime.iolayer",
          after=(lambda c: lambda t, r, a: t.counts.update({f"runtime.iolayer.{c}": 1}))(counter))
    tracer.count(f"{io}:os.fsync", "runtime.iolayer.fsyncs")
    tracer.count(f"{io}:_write_once", "runtime.iolayer.write_attempts")
    tracer.count(f"{io}:_read_once", "runtime.iolayer.read_attempts")
    tracer.count(f"{io}:record_io_error", "runtime.iolayer.io_errors",
                 lambda _r, a: a[1] if len(a) > 1 else 1)
    w("repro.service.service:SweepService._execute", "service.service.execute", op=_job_op)
    tracer.keep_instances("repro.service.service:SweepService", "service")
    tracer.keep_instances("repro.service.http:SweepFrontend", "frontend")
    w("repro.service.http:SweepFrontend.submit_payload", "service.http.admission",
      op=lambda a: "admission")
    w("repro.service.http:SweepFrontend.stream_results", "service.http.stream",
      op=lambda a: a[1].request_id)
    http = importlib.import_module("repro.service.http")
    serializer = SimpleNamespace(**{k: v for k, v in vars(http.jsonsafe).items()
                                    if not k.startswith("__")})
    tracer._undo.append((http, "jsonsafe", http.jsonsafe))
    http.jsonsafe = serializer
    w("repro.service.http:jsonsafe.dumps", "service.http.serialize")
    w("repro.service.http:result_row_to_dict", "service.http.serialize")
    for method in ("enqueue", "enqueue_all"):
        w(f"repro.service.queue:JobQueue.{method}", "service.queue.enqueue")
    w("repro.service.queue:JobQueue.claim", "service.queue.claim",
      after=lambda t, r, a: t.counts.update({"service.queue.granted": r is not None}))
    tracer.count("repro.service.queue:JobQueue._read_record_locked",
                 "service.queue.claim_reads", within="service.queue.claim")
    w("repro.service.queue:JobQueue.heartbeat", "service.queue.heartbeat")
    w("repro.service.queue:JobQueue.complete", "service.queue.complete")
    w("repro.service.worker:QueueWorker._execute", "service.worker.execute",
      op=lambda a: f"job:{a[1].job_id}")
    tracer.keep_instances("repro.service.worker:QueueWorker", "worker")
    return tracer


# -------------------------------------------------------------- summary


def service_counters(tracer: Tracer) -> dict:
    """Counters read off the service/frontend/worker objects the run built."""
    out = Counter()
    for service in tracer.instances.get("service", []):
        out["service.service.jobs_scheduled"] += service.jobs_scheduled
        out["service.service.jobs_coalesced"] += service.jobs_coalesced
        out["service.service.run_store_hits"] += service.run_store_hits
        out["service.service.runs_executed"] += service.runs_executed
    for frontend in tracer.instances.get("frontend", []):
        out["service.http.rejected"] += frontend.requests_rejected
    for worker in tracer.instances.get("worker", []):
        out["service.worker.warm_completes"] += worker.warm_completes
        out["service.worker.runs_executed"] += worker.runs_executed
        out["service.worker.heartbeats_sent"] += worker.heartbeats_sent
    return dict(out)


def summarize(state: dict, wall_s: float, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced phase.

    ``state`` is :meth:`Tracer.state` plus service counters (possibly
    merged from another process); ``wall_s`` is the traced phase's wall
    time on its driving thread.
    """
    spans = state["spans"]
    counts = Counter(state["counts"])
    by_id = {span[0]: span for span in spans}
    child_time: Counter = Counter()
    for span_id, parent, _group, _op, _thread, start, end in spans:
        if parent:
            child_time[parent] += end - start
    calls: Counter = Counter()
    busy: Counter = Counter()
    self_s: Counter = Counter()
    attributed = 0.0
    memo_misses = 0
    for span_id, parent, group, _op, _thread, start, end in spans:
        duration = end - start
        own = duration - child_time[span_id]
        if group == "vision.ncc.box" and parent in by_id \
                and by_id[parent][2] == "runtime.trace.box_memo":
            memo_misses += 1
        self_s[group] += own
        attributed += own
        # Calls and busy time count the outermost call of a group only,
        # so a group calling itself (write_json -> write_text) is not
        # counted twice.
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != group:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            calls[group] += 1
            busy[group] += duration
    metrics: dict[str, float] = {}
    for group in GROUPS:
        metrics[f"{group}.calls"] = float(calls[group])
        metrics[f"{group}.busy_s"] = busy[group]
        metrics[f"{group}.self_s"] = self_s[group]
    for name in ("data.render.frames", "models.detect.frames", "models.detect.model_frames",
                 "baselines.marlin.runs", "core.loader.swaps", "runtime.store.hits",
                 "runtime.store.misses", "runtime.store.bytes", "runtime.runstore.hits",
                 "runtime.runstore.misses", "runtime.runstore.bytes",
                 "runtime.iolayer.reads", "runtime.iolayer.writes", "runtime.iolayer.replaces",
                 "runtime.iolayer.fsyncs", "runtime.iolayer.io_errors",
                 "service.service.jobs_scheduled", "service.service.run_store_hits",
                 "service.service.runs_executed", "service.http.rejected",
                 "service.worker.warm_completes", "service.worker.runs_executed",
                 "service.worker.heartbeats_sent"):
        metrics[name] = float(counts[name])
    memo = calls["runtime.trace.box_memo"]
    metrics["runtime.trace.box_memo_hit_share"] = (
        (memo - memo_misses) / memo if memo else 0.0)
    selects = calls["core.scheduler"]
    metrics["core.scheduler.reschedule_share"] = (
        counts["core.scheduler.rescheduled"] / selects if selects else 0.0)
    attempts = counts["runtime.iolayer.write_attempts"] + counts["runtime.iolayer.read_attempts"]
    done = counts["runtime.iolayer.writes"] + counts["runtime.iolayer.reads"]
    metrics["runtime.iolayer.retries"] = float(max(0, attempts - done))
    scheduled = counts["service.service.jobs_scheduled"]
    coalesced = counts["service.service.jobs_coalesced"]
    metrics["service.service.coalesced_share"] = (
        coalesced / (coalesced + scheduled) if coalesced + scheduled else 0.0)
    first_rows = sorted(state.get("first_rows", []))
    metrics["service.http.first_row_s"] = (
        first_rows[len(first_rows) // 2] if first_rows else 0.0)
    reads = counts["service.queue.claim_reads"]
    metrics["service.queue.records_read_per_claim"] = (
        counts["service.queue.granted"] / reads if reads else 0.0)
    metrics["trace.wall_s"] = wall_s
    metrics["trace.attributed_s"] = attributed
    metrics["trace.unattributed_s"] = wall_s - attributed
    metrics["trace.overhead_s"] = overhead_s
    metrics["trace.spans"] = float(len(spans))
    return metrics


def dump_spans(spans, path: Path) -> None:
    """Write every span as one JSON line."""
    with path.open("w", encoding="utf-8") as out:
        for span_id, parent, group, op, thread, start, end in spans:
            out.write(json.dumps({"id": span_id, "parent": parent, "name": group, "op": op,
                                  "thread": thread, "start": start, "end": end}) + "\n")


def report(metrics: dict[str, float], out) -> None:
    """Print the per-layer split, one metric per line with its unit."""
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    print("per-layer split (traced run):", file=out)
    for name, _unit, _better in per_layer_metrics():
        if name.startswith("trace."):
            continue
        print(f"  {name:<44} {metrics[name]:>14.6g} {units[name]}", file=out)
    print(f"  {'unattributed remainder':<44} {metrics['trace.unattributed_s']:>14.6g} s",
          file=out)
    print(f"  {'traced wall':<44} {metrics['trace.wall_s']:>14.6g} s", file=out)
    print(f"  {'tracing overhead (traced - untraced)':<44} "
          f"{metrics['trace.overhead_s']:>14.6g} s", file=out)
