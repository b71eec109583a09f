"""The repository's benchmark: one workload per run, one JSON result line.

Usage::

    python3 perfbench/run.py --workload fig5-grid --seed 3 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the timed
phase once untraced and once with every layer wrapper installed, and
prints the per-layer split, the unattributed remainder and the tracing
overhead.  The last line of standard output is always the JSON result
(``correct``, ``attempted``, ``failed``, ``metrics``); the exit code is 1
when an output check fails and 2 when the benchmark cannot run (for
example outside a full checkout).  Workloads, traffic dimensions and the
layer-to-metric map are in ``perfbench/spec.json``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from harness import Outcome, Samples  # noqa: E402

WORKLOAD_NAMES = ("paper-sweep", "fig5-grid", "http-serve", "queue-drain")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every traffic dimension (the self-test uses it)")
    return parser


def _setups(workload, wd: Path, repeats: int):
    """Set up ``repeats`` times, keep the last; their durations."""
    durations, state = [], None
    for index in range(repeats):
        if state is not None:
            workload.teardown(state)
            shutil.rmtree(wd / f"setup{index - 1}", ignore_errors=True)
        target = wd / f"setup{index}"
        target.mkdir()
        start = time.perf_counter()
        state = workload.setup(target)
        durations.append(time.perf_counter() - start)
    return state, durations


def run_untraced(workload, wd: Path, seconds: float, import_s: float) -> Outcome:
    state, setups = _setups(workload, wd, harness.SETUP_REPEATS)
    try:
        # Flush what set-up wrote, so write-back does not land in the
        # timed phase.
        os.sync()
        samples = Samples()
        result = workload.measure(state, seconds, samples)
        metrics = workload.metrics(state, result, samples)
        metrics.setdefault("peak_rss_mb", harness.peak_rss_mb())
        metrics["setup_s"] = import_s + harness.median(setups)
        outcome = Outcome(attempted=len(samples.get("job")), metrics=metrics)
        outcome.notes["setup_runs_s"] = [round(s, 4) for s in setups]
        workload.check(state, result, outcome)
    finally:
        workload.teardown(state)
    return outcome


def run_traced(workload, wd: Path, seconds: float) -> Outcome:
    import layers

    (wd / "base").mkdir()
    state = workload.setup(wd / "base")
    try:
        os.sync()
        start = time.perf_counter()
        result = workload.measure(state, seconds, Samples())
        untraced = workload.phase_cost(result, time.perf_counter() - start)
    finally:
        workload.teardown(state)

    tracer = layers.Tracer()
    if workload.in_process:
        layers.instrument(tracer)
    else:
        workload.trace_server = True
    (wd / "traced").mkdir()
    traced_start = time.perf_counter()
    state = None
    try:
        state = workload.setup(wd / "traced")
        os.sync()
        samples = Samples()
        start = time.perf_counter()
        result = workload.measure(state, seconds, samples)
        phase_wall = time.perf_counter() - start
        traced = workload.phase_cost(result, phase_wall)
        outcome = Outcome(attempted=len(samples.get("job")))
        workload.check(state, result, outcome)
    finally:
        wall = time.perf_counter() - traced_start
        if workload.in_process:
            tracer.uninstall()
        if state is not None:
            workload.teardown(state)
    if workload.in_process:
        tracer.counts.update(layers.service_counters(tracer))
        span_state, wall_s = tracer.state(), wall
    else:
        span_state, wall_s = workload.server_trace(state)
    outcome.metrics = layers.summarize(span_state, wall_s, traced - untraced)
    out_dir = harness.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    layers.dump_spans(span_state["spans"], out_dir / f"{workload.name}-spans.jsonl")
    layers.report(outcome.metrics, sys.stdout)
    return outcome


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        harness.bootstrap()
        import repro  # noqa: F401 - import time is part of set-up
    except (harness.BenchmarkError, ImportError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - PROCESS_START
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    with harness.workdir(args.workload) as wd:
        print("host " + json.dumps(harness.host_block(wd), sort_keys=True))
        if args.trace:
            import layers

            outcome = run_traced(workload, wd, args.seconds)
            declared = [(name, unit) for name, unit, _ in layers.per_layer_metrics()]
        else:
            outcome = run_untraced(workload, wd, args.seconds, import_s)
            declared = list(harness.END_TO_END)
            for name, unit in declared:
                print(f"{args.workload:<12} {name:<16} {outcome.metrics[name]:>14.6g} {unit}")
    outcome.failed += len(outcome.mismatches)
    print(f"digest {args.workload} seed={args.seed} {outcome.digest}")
    print("notes " + json.dumps(outcome.notes, sort_keys=True, default=str))
    for problem in outcome.mismatches:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(harness.result_line(outcome, declared))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
