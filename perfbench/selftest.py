"""Self-test of the benchmark at tiny sizes.

Usage: ``python3 perfbench/selftest.py`` (about two minutes on 2 CPUs).

Checks, for every workload:

1. an untraced run emits exactly the end-to-end metrics ``BENCHMARK.json``
   declares, each with its declared unit, all finite and non-zero;
2. a traced run emits exactly the declared per-layer metrics, and the
   groups' self times plus the unattributed remainder equal the traced
   wall time;
3. a deliberately corrupted result row is caught by the output check;

and that the benchmark exits non-zero without a result line in a
directory holding only ``BENCHMARK.json`` and the benchmark's files.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def fail(message: str) -> None:
    print(f"SELFTEST FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def run(workload: str, trace: int, cwd: Path = harness.ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def check_metrics(workload: str, trace: int) -> dict:
    code, stdout = run(workload, trace)
    if code != 0:
        fail(f"{workload} --trace {trace} exited {code}")
    result = json.loads(stdout.strip().splitlines()[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} --trace {trace}: metrics/units {sorted(set(got) ^ set(want))} differ "
             f"from BENCHMARK.json")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{workload} --trace {trace}: {result['correct']=} {result['failed']=}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if not all(math.isfinite(v) for v in values.values()):
        fail(f"{workload} --trace {trace}: non-finite metric")
    if not trace and not all(v > 0 for v in values.values()):
        fail(f"{workload}: an end-to-end metric is zero: {values}")
    return values


def check_split(workload: str, values: dict) -> None:
    import layers

    split = sum(values[f"{group}.self_s"] for group in layers.GROUPS)
    total = split + values["trace.unattributed_s"]
    if not math.isclose(total, values["trace.wall_s"], rel_tol=1e-9, abs_tol=1e-9):
        fail(f"{workload}: split {split} + remainder {values['trace.unattributed_s']} "
             f"!= traced wall {values['trace.wall_s']}")


def check_corruption(name: str) -> None:
    """Run a workload in-process, corrupt one result row, and require the
    output check (told to check every row) to report it."""
    harness.bootstrap()
    import workloads

    workload = workloads.WORKLOADS[name](7, tiny=True)
    workload.p["check_cells"] = 10**9
    with harness.workdir(f"selftest-{name}") as wd:
        state = workload.setup(wd)
        try:
            result = workload.measure(state, 1.0, harness.Samples())
            if name == "paper-sweep":
                rows = next(iter(result["last"][1].per_scenario.values()))
                rows[0] = dataclasses.replace(rows[0], mean_iou=rows[0].mean_iou + 1e-9)
            elif name == "fig5-grid":
                points = result["last"].points
                points[0] = dataclasses.replace(points[0], mean_iou=points[0].mean_iou + 1e-9)
            elif name == "http-serve":
                row = result["main"]["records"][0]["rows"][0]
                row["metrics"]["mean_iou"] += 1e-9
            elif name == "queue-drain":
                spec, scenario = state["cells"][0]
                _, key = workload.run_key(spec, scenario, state["zoo"])
                committed = state["runs"].load(key)
                record = committed.records[0]
                committed.records[0] = dataclasses.replace(record, iou=record.iou + 1e-9)
                state["runs"].save(committed, key)
            outcome = harness.Outcome()
            workload.check(state, result, outcome)
        finally:
            workload.teardown(state)
    if outcome.correct:
        fail(f"{name}: a corrupted result row passed the output check")


def check_bare_directory() -> None:
    bare = harness.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(harness.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = run("fig5-grid", 0, cwd=bare)
        if code == 0 or any(line.startswith("{") for line in stdout.splitlines()):
            fail(f"bare directory: exit {code}, stdout {stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    check_bare_directory()
    print("ok: exits non-zero without sources")
    for name in ("paper-sweep", "fig5-grid", "http-serve", "queue-drain"):
        check_metrics(name, 0)
        values = check_metrics(name, 1)
        check_split(name, values)
        check_corruption(name)
        print(f"ok: {name}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
