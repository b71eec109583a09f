"""Shared plumbing for the benchmark: statistics, timers, host block, result line.

Nothing here imports ``repro``; :func:`bootstrap` puts the checkout's
``src`` directory on ``sys.path`` (and refuses to run without it), so the
benchmark always measures the source tree it sits in, never an installed
copy.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Tails are reported at this percentile wherever a run yields at least
# TAIL_MIN_SAMPLES samples, so ten or more samples always lie beyond it.
# A fixed percentile keeps the metric's meaning identical across run
# lengths; with fewer samples the tail is the maximum.
TAIL_PERCENTILE = 90
TAIL_MIN_SAMPLES = 100

# Set-ups per run; ``setup_s`` is their median (plus the import time).
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("frames_per_s", "1/s"),
    ("run_p50_s", "s"),
    ("run_tail_s", "s"),
    ("request_p50_s", "s"),
    ("request_tail_s", "s"),
    ("sustained_rps", "1/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def bootstrap() -> None:
    """Make the checkout's ``src`` importable, or fail loudly."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {src}: run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# ------------------------------------------------------------ statistics


def median(values: list[float]) -> float:
    if not values:
        raise BenchmarkError("median of no samples")
    return statistics.median(values)


def tail(values: list[float]) -> float:
    """The fixed tail percentile (linear interpolation), or the max."""
    if not values:
        raise BenchmarkError("tail of no samples")
    if len(values) < TAIL_MIN_SAMPLES:
        return max(values)
    ordered = sorted(values)
    rank = (len(ordered) - 1) * TAIL_PERCENTILE / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Samples:
    """Named lists of host-time samples, filled by timers around calls."""

    def __init__(self) -> None:
        self.values: dict[str, list[float]] = {}

    def add(self, name: str, value: float) -> None:
        self.values.setdefault(name, []).append(value)

    def get(self, name: str) -> list[float]:
        return self.values.get(name, [])

    def timer(self, name: str, func):
        """``func`` wrapped so each call's host time lands in ``name``."""
        clock = time.perf_counter
        add = self.values.setdefault(name, []).append

        def timed(*args, **kwargs):
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                add(clock() - start)

        timed.__wrapped__ = func
        return timed


@contextmanager
def patched(owner, attr: str, replacement):
    """Swap ``owner.attr`` for the duration of a block."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


@contextmanager
def gc_paused():
    """Collect, then pause the collector for a timed block.

    The repository's own benchmarks time this way: collection cycles
    landing in one round but not another would skew comparisons between
    identical work.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# ------------------------------------------------------------ host facts


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set of this process (or ``pid``), in MiB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    status = Path(f"/proc/{pid}/status").read_text(encoding="ascii")
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for pid {pid}")


def filesystem_of(path: Path) -> str:
    """The mount type holding ``path`` (longest matching mount point)."""
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/mounts").read_text(encoding="utf-8").splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        parts = line.split()
        if len(parts) < 3:
            continue
        point = parts[1]
        inside = target == point or target.startswith(point.rstrip("/") + "/")
        if inside and len(point) > len(best):
            best, kind = point, parts[2]
    return kind


def host_block(workdir: Path) -> dict:
    """Facts about the machine a run measured, printed with every run."""
    import numpy

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return {
        "cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "workdir_fs": filesystem_of(workdir),
        "loadavg_1m": os.getloadavg()[0],
    }


# --------------------------------------------------------------- workdir


@contextmanager
def workdir(name: str):
    """A scratch directory inside the checkout, removed afterwards.

    The benchmark may write only inside its checkout, so working stores
    live under ``.bench_work/`` there whatever filesystem that is; the
    host block records which one it was.
    """
    base = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    try:
        yield base
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there


# ------------------------------------------------------- output digests


def digest_rows(rows) -> str:
    """A stable digest of simulated statistics (JSON rows, sorted)."""
    encoded = sorted(json.dumps(row, sort_keys=True) for row in rows)
    return hashlib.sha256("\n".join(encoded).encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------- result


@dataclass
class Outcome:
    """What one workload run hands back to the entry point."""

    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.mismatches


def result_line(outcome: Outcome, declared: list[tuple[str, str]]) -> str:
    """The final JSON line: every declared metric, with its unit."""
    missing = [name for name, _ in declared if name not in outcome.metrics]
    if missing:
        raise BenchmarkError(f"workload did not produce metrics {missing}")
    return json.dumps({
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in declared
        },
    })
