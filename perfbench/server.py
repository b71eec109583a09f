"""Run ``repro serve --http`` in this process, timing its runs and jobs.

Usage: ``python3 perfbench/server.py --stats OUT.json [--trace] -- <repro CLI args>``

Starts the repository's own CLI (``repro.cli.main``) unchanged.  Before
it does, timers go around the ``run_policy`` and ``SweepService._execute``
attributes the service looks up, so the benchmark can read per-run and
per-job host times of a real server; with ``--trace`` every layer wrapper
of :mod:`layers` is installed too.  Stop it with SIGINT (the CLI's
graceful path); it then writes the samples, and with ``--trace`` the
spans and counters, to ``--stats``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402 - needs the path above


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", required=True, help="where to write samples on exit")
    parser.add_argument("--trace", action="store_true", help="install the layer wrappers")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then repro CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    harness.bootstrap()
    started = time.perf_counter()
    tracer = None
    if args.trace:
        import layers

        tracer = layers.instrument(layers.Tracer())

    import repro.service.service as service_module
    from repro import cli

    samples: dict[str, list[tuple[float, float]]] = {"run": [], "job": []}

    def stamped(name, func):
        # Each sample is the calling thread's CPU time: in a server whose
        # handler and worker threads share one GIL, wall time around a
        # few-millisecond call mostly measures which other thread held the
        # GIL.  It carries its wall-clock end so the client can keep only
        # samples inside its timed window.
        add = samples[name].append

        def timed(*a, **k):
            start = time.thread_time()
            try:
                return func(*a, **k)
            finally:
                add((time.time(), time.thread_time() - start))

        return timed

    service_module.run_policy = stamped("run", service_module.run_policy)
    execute = service_module.SweepService._execute
    service_module.SweepService._execute = stamped("job", execute)

    code = cli.main(cli_args)
    out = {"run": samples["run"], "job": samples["job"], "exit_code": code}
    if tracer is not None:
        import layers

        out["tracer"] = tracer.state()
        out["tracer"]["counts"].update(layers.service_counters(tracer))
        out["wall_s"] = time.perf_counter() - started
    Path(args.stats).write_text(json.dumps(out), encoding="utf-8")
    return 0 if code in (0, 130) else code


if __name__ == "__main__":
    sys.exit(main())
