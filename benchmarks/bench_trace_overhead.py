"""Wall-clock overhead of the tracing layer.

Times fixed bench-scale SOR and TSP runs in three configurations:

* ``off``      — no tracer (the NULL_TRACER fast path),
* ``metrics``  — breakdown accounting only (``keep_spans=False``),
* ``full``     — spans + instants retained for Chrome export.

Writes ``BENCH_trace_overhead.json`` at the repo root: the overhead of
``metrics`` and ``full`` over ``off``.  The cost of the disabled path
itself (its ``tracer.enabled`` tests) is not measured — that would
need a build without the hooks.  The script also verifies that
tracing never changes simulated cycles.

Run with::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py
"""

from __future__ import annotations

import os
import time

from _common import write_bench_json
from repro.harness.workloads import Scale, make_app
from repro.machines.dec_treadmarks import DecTreadMarksMachine
from repro.machines.sgi import SgiMachine
from repro.trace.tracer import Tracer

REPEATS = 9
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_trace_overhead.json")

WORKLOADS = [
    ("treadmarks", DecTreadMarksMachine, "sor_small", 4),
    ("treadmarks", DecTreadMarksMachine, "tsp18", 4),
    ("sgi", SgiMachine, "sor_small", 4),
]


def _time_run(machine_cls, app_name, nprocs, tracer_factory):
    """Best wall-clock seconds over REPEATS runs; also the cycles.

    The minimum is the standard estimator for microbenchmarks: every
    sample above it is the same work plus scheduler noise.
    """
    samples = []
    cycles = None
    # One untimed warmup so the first timed sample is not paying for
    # allocator/cache warmup.
    machine_cls().run(make_app(app_name, Scale.BENCH), nprocs,
                      tracer=tracer_factory())
    for _ in range(REPEATS):
        machine = machine_cls()
        app = make_app(app_name, Scale.BENCH)
        tracer = tracer_factory()
        start = time.perf_counter()
        result = machine.run(app, nprocs, tracer=tracer)
        samples.append(time.perf_counter() - start)
        if cycles is None:
            cycles = result.cycles
        elif result.cycles != cycles:
            raise AssertionError(
                f"non-deterministic cycles for {app_name}: "
                f"{result.cycles} != {cycles}")
    return min(samples), cycles


def main() -> int:
    configs = {
        "off": lambda: None,
        "metrics": lambda: Tracer(keep_spans=False),
        "full": lambda: Tracer(keep_spans=True),
    }
    report = {"repeats": REPEATS, "scale": "bench", "runs": []}
    for label, machine_cls, app_name, nprocs in WORKLOADS:
        entry = {"machine": label, "app": app_name, "nprocs": nprocs}
        cycles_seen = {}
        for config, factory in configs.items():
            seconds, cycles = _time_run(machine_cls, app_name, nprocs,
                                        factory)
            entry[f"seconds_{config}"] = round(seconds, 6)
            cycles_seen[config] = cycles
        if len(set(cycles_seen.values())) != 1:
            raise AssertionError(
                f"tracing changed simulated cycles: {cycles_seen}")
        entry["cycles"] = cycles_seen["off"]
        entry["overhead_metrics"] = round(
            entry["seconds_metrics"] / entry["seconds_off"] - 1, 4)
        entry["overhead_full"] = round(
            entry["seconds_full"] / entry["seconds_off"] - 1, 4)
        report["runs"].append(entry)
        print(f"{label:12s} {app_name:10s} off={entry['seconds_off']:.4f}s "
              f"metrics=+{entry['overhead_metrics']:.1%} "
              f"full=+{entry['overhead_full']:.1%}")

    write_bench_json(OUT_PATH, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
