"""One measuring process: set up a workload, then run passes over it.

``perfbench/run.py`` starts this as ``python3 -m perfbench.child`` in a
fresh interpreter, with ``src`` and the repository root on
``PYTHONPATH``.  On standard output it prints the line ``ready`` as
soon as set-up is done (the parent times set-up up to that line), then
one JSON object with what the passes measured.

Set-up covers importing ``repro``, building the workload's machines
and apps, and filling the TSP memo tables the passes reuse.  The host's
speed is sampled throughout it, and the report carries what the parent
needs to normalize the set-up time.

* ``--mode setup`` stops after set-up.
* ``--mode time`` runs untraced passes until ``--budget`` seconds
  have passed (at least one), then reports each pass's cell outcomes
  and the process's peak resident memory at the end of its first
  pass.  (Later passes run while each machine still holds its previous
  run, so the peak after them depends on how many passes fit.)
* ``--mode trace`` alternates untraced and traced passes the same way
  (at least one of each) and adds the span aggregates of every cell of
  every traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--work", required=True,
                        help="empty directory for this process's caches")
    parser.add_argument("--mode", choices=("setup", "time", "trace"),
                        default="time")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    from perfbench.calibration import sampling

    with sampling() as speed:
        from repro.check.checker import checking

        from perfbench.cells import run_pass, warm_memo_tables
        from perfbench.workloads import WORKLOADS, build_cells

        workload = WORKLOADS[args.workload]
        cells = build_cells(workload)
        warm_memo_tables(cells)
        if args.mode == "trace":
            from perfbench.layers import traced_pass
    print("ready", flush=True)

    report = {"untraced": [], "traced": [], "traced_stats": [],
              "setup_spent": speed.spent, "setup_factor": speed.factor()}
    count = 0

    def cache_dir() -> str:
        nonlocal count
        count += 1
        return os.path.join(args.work, f"pass{count}")

    start = time.perf_counter()
    with checking() if workload.checked else nullcontext():
        while args.mode != "setup":
            outcomes = run_pass(cells, args.seed, cache_dir())
            report["untraced"].append([o.to_json() for o in outcomes])
            if args.mode == "trace":
                outcomes, stats = traced_pass(cells, args.seed, cache_dir())
                report["traced"].append([o.to_json() for o in outcomes])
                report["traced_stats"].append(
                    [{"|".join(key): value for key, value in cell.items()}
                     for cell in stats])
            if "peak_rss_mb" not in report:
                # ru_maxrss is in KiB on Linux.
                report["peak_rss_mb"] = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if time.perf_counter() - start >= args.budget:
                break
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
