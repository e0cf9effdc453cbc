"""Wall-clock benefit of the parallel runner and the result cache.

Executes the Figure-3-style grid (TreadMarks vs SGI, SOR, 1-8
processors) in four configurations:

* ``serial``   — ``jobs=1``, no cache (the pre-parallel baseline),
* ``pool``     — ``jobs=4`` process-pool fan-out, no cache,
* ``cold``     — ``jobs=4`` writing a fresh content-addressed cache,
* ``warm``     — same grid again, served entirely from that cache.

Every configuration must produce identical summaries — the runner's
determinism contract — and the script asserts it before reporting.

Pool speedup scales with *available cores*, so ``cpu_count`` is
recorded in the report.  One bar is enforced: the pool must not lose
to serial by more than shared-runner noise (``MIN_POOL_SPEEDUP``).
``effective_workers`` clamps the pool to the cores present, so with a
single effective worker the "pool" runs in-process and the bar would
hold by construction; it then reports ``skipped`` instead.  The warm
cache is the configuration whose speedup is hardware-independent.

Writes ``BENCH_parallel_runner.json`` at the repo root and exits 1 if
the pool bar is missed.  Run with::

    PYTHONPATH=src python benchmarks/bench_parallel_runner.py
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Tuple

from _common import write_bench_json
from repro.harness.cache import ResultCache
from repro.harness.parallel import RunPlan, effective_workers, execute_plan
from repro.harness.workloads import Scale, make_app
from repro.machines.dec_treadmarks import DecTreadMarksMachine
from repro.machines.sgi import SgiMachine

POOL_JOBS = 4
PROCS = (1, 2, 4, 8)
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_parallel_runner.json")

#: The pool may lose to serial by at most this ratio (room for
#: shared-runner noise); on a multi-core box it wins outright.
MIN_POOL_SPEEDUP = 0.85


def build_plan() -> RunPlan:
    plan = RunPlan()
    for machine_cls in (DecTreadMarksMachine, SgiMachine):
        for p in PROCS:
            plan.add(machine_cls(), make_app("sor_small", Scale.BENCH), p)
    return plan


def timed(jobs: int, cache) -> tuple:
    start = time.perf_counter()
    results = execute_plan(build_plan(), jobs=jobs, cache=cache)
    return time.perf_counter() - start, [r.summary() for r in results]


def pool_bar(pool_vs_serial: float, workers: int) -> Tuple[str, str]:
    """Verdict of the pool bar (held/missed/skipped) and its line."""
    if workers == 1:
        return "skipped", ("pool bar skipped: 1 effective worker, the "
                           "pool leg ran in-process")
    if pool_vs_serial < MIN_POOL_SPEEDUP:
        return "missed", (f"POOL BAR MISSED: pool x{pool_vs_serial:.2f} "
                          f"vs serial < x{MIN_POOL_SPEEDUP} with "
                          f"{workers} workers")
    return "held", (f"pool bar: x{pool_vs_serial:.2f} vs serial with "
                    f"{workers} workers (bar x{MIN_POOL_SPEEDUP})")


def main() -> int:
    cache_dir = tempfile.mkdtemp(prefix="bench-cache-")
    try:
        seconds = {}
        summaries = {}
        seconds["serial"], summaries["serial"] = timed(1, None)
        seconds["pool"], summaries["pool"] = timed(POOL_JOBS, None)
        cache = ResultCache(cache_dir)
        seconds["cold"], summaries["cold"] = timed(POOL_JOBS, cache)
        cold_stats = dict(cache.stats())
        seconds["warm"], summaries["warm"] = timed(POOL_JOBS, cache)
        warm_stats = {k: v - cold_stats[k]
                      for k, v in cache.stats().items()}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    if any(s != summaries["serial"] for s in summaries.values()):
        raise AssertionError("configurations disagree on summaries")
    if warm_stats["misses"] or warm_stats["stores"]:
        raise AssertionError(f"warm pass was not all-hits: {warm_stats}")

    runs = len(build_plan())
    workers = effective_workers(POOL_JOBS, runs)
    pool_vs_serial = seconds["serial"] / seconds["pool"]
    verdict, bar_line = pool_bar(pool_vs_serial, workers)

    report = {
        "grid": "fig3-style: (treadmarks, sgi) x sor_small x "
                f"procs {list(PROCS)}, scale bench",
        "runs": runs,
        "pool_jobs": POOL_JOBS,
        "workers_effective": workers,
        "cpu_count": os.cpu_count(),
        "seconds": {k: round(v, 4) for k, v in seconds.items()},
        "speedup_vs_serial": {
            k: round(seconds["serial"] / v, 2)
            for k, v in seconds.items() if k != "serial"},
        "cold_cache_stats": cold_stats,
        "warm_cache_stats": warm_stats,
        "pool_bar": {
            "what": "pool vs serial wall-clock on the grid",
            "pool_vs_serial": round(pool_vs_serial, 2),
            "bar": MIN_POOL_SPEEDUP,
            "verdict": verdict,
        },
        "determinism": "all configurations produced identical summaries",
    }
    for key, secs in seconds.items():
        print(f"{key:8s} {secs:8.3f}s  "
              f"(x{seconds['serial'] / secs:.2f} vs serial)")
    print(f"cold cache: {cold_stats}; warm cache: {warm_stats}")
    print(bar_line)

    write_bench_json(OUT_PATH, report)
    return 1 if verdict == "missed" else 0


if __name__ == "__main__":
    raise SystemExit(main())
