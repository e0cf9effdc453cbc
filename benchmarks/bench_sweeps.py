"""The design-space sweeps, checked against their CI bars.

Runs each named sweep through the experiment registry, archives its
report under ``benchmarks/results/<id>.txt``, writes its BENCH report
at the repo root, and checks the sweep's bars.  Exits 1 if any bar is
missed.  Run with::

    PYTHONPATH=src python benchmarks/bench_sweeps.py \
        sync-sweep failure-sweep ablation-sweep [--scale test|bench] \
        [--jobs N]

``sync-sweep`` (``BENCH_sync_crossover.json``): TSP-18 and M-Water
across every lock x barrier algorithm on AS, AH and HS.  Some
non-default policy on a software machine must beat the token+central
baseline by :data:`MIN_CROSSOVER_GAIN` (expected: a tree barrier on AS
M-Water, which removes the central manager's O(n) handler
serialization, the cost that separates AS from AH in the paper's
Figure 11).  AH must stay within :data:`MAX_AH_SPREAD` across
policies: hardware synchronization was never the bottleneck.

``failure-sweep`` (``BENCH_recovery.json``): SOR and TSP on AS and HS,
the last DSM node crash-stopped at fractions of the clean run.  Every
crashed cell must complete degraded (``failed_nodes`` non-empty); a
cell that never declared its crash is a detection failure, not a fast
run.  Detection lands strictly after the crash and no later than the
keepalive backstop plus :data:`DETECT_SLACK` cycles, so survivors
never hang on a dead node.  The degraded speedup retains at least
:data:`MIN_RETAINED` of the clean speedup: losing one node costs its
share of the work plus the detection stall, not the run.

``ablation-sweep`` (``BENCH_ablation.json``): every TreadMarks
mechanism left out in turn on AS and HS over SOR, TSP and M-Water.
With diffs off, M-Water must move at least :data:`MIN_DIFF_BYTES_RATIO`
times the bytes on some software machine (the paper's bandwidth
argument, §2.4.2).  Every swept mechanism must score nonzero on some
cell: one whose removal changes no metric anywhere is untested
freight.  The one-only grid runs through ``repro-harness ablate
--ablate-grid only``.
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from _common import archive_report, write_bench_json
from repro.harness.experiments import options_for, run_experiment
from repro.harness.parallel import run_context, shutdown_pool
from repro.harness.workloads import Scale

REPO_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

#: Some software-machine policy must beat its token+central baseline
#: by this factor.
MIN_CROSSOVER_GAIN = 1.02

#: AH's best/worst policy speedup ratio may not exceed this.
MAX_AH_SPREAD = 1.05

#: Degraded speedup must retain at least this fraction of the clean
#: speedup.  Deliberately loose: a mid-run crash on a
#: barrier-structured program stalls every survivor for the full
#: detection window, so the floor only guards against collapse.
MIN_RETAINED = 0.10

#: Detection may land this many cycles past the keepalive backstop
#: (event-queue granularity; the backstop event itself is exact).
DETECT_SLACK = 1_000

#: Ablating diffs must multiply M-Water's bytes by this factor on
#: some software machine.
MIN_DIFF_BYTES_RATIO = 1.3

#: A bar check: whether it held, and the line that says so.
Check = Tuple[bool, str]


def sync_bars(data: Dict[str, Any], opts: Any,
              scale: Scale) -> Tuple[Dict[str, Any], List[Check]]:
    """BENCH fields and bar checks of a ``sync-sweep`` report."""
    top = data["top_procs"]
    software = {key: s for key, s in data["summary"].items()
                if not key.endswith("/ah")}
    best_key, best = max(software.items(), key=lambda kv: kv[1]["gain"],
                         default=(None, None))
    ah_spread = 0.0
    for machines in data["cells"].values():
        speedups = [c["speedups"][str(top)]
                    for c in machines.get("ah", {}).values()]
        if speedups and min(speedups) > 0:
            ah_spread = max(ah_spread, max(speedups) / min(speedups))

    fields = {
        "grid": f"{list(opts.machines)} x {list(opts.workloads)} x "
                f"{len(opts.locks)} locks x {len(opts.barriers)} "
                f"barriers, scale {scale.value}, up to {top} procs",
        "top_procs": top,
        "cells": data["cells"],
        "summary": data["summary"],
        "crossover": {
            "what": "best software-machine policy vs its token+central "
                    "baseline",
            "best_cell": best_key,
            "best_policy": best["best_policy"] if best else None,
            "gain": round(best["gain"], 4) if best else None,
            "bar": MIN_CROSSOVER_GAIN,
        },
        "ah_flatness": {
            "what": "max best/worst policy speedup ratio on AH",
            "spread": round(ah_spread, 4),
            "bar": MAX_AH_SPREAD,
        },
    }
    checks = []
    if best is None or best["gain"] < MIN_CROSSOVER_GAIN:
        gain = best["gain"] if best else float("nan")
        checks.append((False, f"CROSSOVER BAR MISSED: best software gain "
                              f"x{gain:.3f} < x{MIN_CROSSOVER_GAIN}"))
    else:
        checks.append((True, f"crossover: {best_key} via "
                             f"{best['best_policy']} x{best['gain']:.3f} "
                             f"(bar x{MIN_CROSSOVER_GAIN})"))
    if ah_spread > MAX_AH_SPREAD:
        checks.append((False, f"AH FLATNESS BAR MISSED: policy spread "
                              f"x{ah_spread:.3f} > x{MAX_AH_SPREAD}"))
    else:
        checks.append((True, f"ah flatness: policy spread "
                             f"x{ah_spread:.3f} (bar x{MAX_AH_SPREAD})"))
    return fields, checks


def recovery_bars(data: Dict[str, Any], opts: Any,
                  scale: Scale) -> Tuple[Dict[str, Any], List[Check]]:
    """BENCH fields and bar checks of a ``failure-sweep`` report."""
    worst_latency = 0
    worst_retained: Optional[Tuple[str, float]] = None
    incomplete = []
    cells = {}
    for workload, machines in data.items():
        for mname, tags in machines.items():
            for tag, cell in tags.items():
                key = f"{mname}/{workload}/crash@{tag}"
                degraded = cell["degraded"]
                if not degraded.get("failed_nodes"):
                    incomplete.append(key)
                    continue
                latencies = [det - cra for det, cra in
                             zip(degraded["detected_at"],
                                 degraded["crashed_at"])]
                worst_latency = max(worst_latency, max(latencies))
                retained = (cell["speedup"] / cell["clean_speedup"]
                            if cell["clean_speedup"] > 0 else 0.0)
                if worst_retained is None or retained < worst_retained[1]:
                    worst_retained = (key, retained)
                cells[key] = {
                    "speedup": round(cell["speedup"], 4),
                    "clean_speedup": round(cell["clean_speedup"], 4),
                    "retained": round(retained, 4),
                    "detection_latencies": latencies,
                    "detected_via": degraded["detected_via"],
                    "pages_rehomed": cell["pages_rehomed"],
                    "pages_lost": cell["pages_lost"],
                    "locks_regenerated": cell["locks_regenerated"],
                    "barrier_reconfigs": cell["barrier_reconfigs"],
                }

    latency_bar = opts.detect_cycles + DETECT_SLACK
    fields = {
        "grid": f"{list(opts.machines)} x {list(opts.workloads)} x "
                f"crash fracs {list(opts.fracs)}, scale {scale.value}",
        "detect_cycles": opts.detect_cycles,
        "cells": cells,
        "detection_latency": {
            "what": "worst crash-to-declaration latency (sim cycles)",
            "worst": worst_latency,
            "bar": latency_bar,
        },
        "degraded_overhead": {
            "what": "worst degraded/clean speedup ratio",
            "worst_cell": worst_retained[0] if worst_retained else None,
            "retained": round(worst_retained[1], 4) if worst_retained
            else None,
            "bar": MIN_RETAINED,
        },
        "incomplete_cells": incomplete,
    }
    checks = []
    if incomplete:
        checks.append((False, f"COMPLETION BAR MISSED: {len(incomplete)} "
                              f"crashed cell(s) never declared the "
                              f"failure: {incomplete}"))
    else:
        checks.append((True, f"completion: all {len(cells)} crashed cells "
                             f"finished degraded and verified"))
    if worst_latency <= 0 or worst_latency > latency_bar:
        checks.append((False, f"DETECTION BAR MISSED: worst latency "
                              f"{worst_latency} cycles outside "
                              f"(0, {latency_bar}]"))
    else:
        checks.append((True, f"detection: worst latency {worst_latency} "
                             f"cycles (bar {latency_bar})"))
    if worst_retained is None or worst_retained[1] < MIN_RETAINED:
        retained = worst_retained[1] if worst_retained else float("nan")
        checks.append((False, f"OVERHEAD BAR MISSED: worst retained "
                              f"speedup {retained:.3f} < {MIN_RETAINED}"))
    else:
        checks.append((True, f"overhead: worst retained speedup "
                             f"{worst_retained[1]:.3f} at "
                             f"{worst_retained[0]} (bar {MIN_RETAINED})"))
    return fields, checks


def ablation_bars(data: Dict[str, Any], opts: Any,
                  scale: Scale) -> Tuple[Dict[str, Any], List[Check]]:
    """BENCH fields and bar checks of an ``ablation-sweep`` report."""
    top = data["top_procs"]
    cells = data["cells"]
    ranking = data["ranking"]

    # Peak ablated/full bytes ratio over the swept machines' M-Water
    # cells with diffs left out.
    diff_ratio = 0.0
    diff_cell = None
    for key, grids_cell in cells.items():
        if not key.endswith("/mwater"):
            continue
        cell = grids_cell.get("loo", {}).get("diffs")
        if cell and cell["full"]["bytes"] > 0:
            ratio = cell["ablated"]["bytes"] / cell["full"]["bytes"]
            if ratio > diff_ratio:
                diff_ratio, diff_cell = ratio, key

    dead = [e["mechanism"] for e in ranking if e["score"] <= 0.0]
    swept = {e["mechanism"] for e in ranking}
    dead += [m for m in data["mechanisms"] if m not in swept]

    fields = {
        "grid": f"{list(opts.machines)} x {list(opts.workloads)} x "
                f"{len(opts.mechanisms)} mechanisms x {list(opts.grids)}, "
                f"scale {scale.value}, {top} procs",
        "top_procs": top,
        "cells": cells,
        "ranking": ranking,
        "diff_bytes": {
            "what": "peak ablated/full total-bytes ratio with diffs "
                    "off, M-Water cells",
            "cell": diff_cell,
            "ratio": round(diff_ratio, 4),
            "bar": MIN_DIFF_BYTES_RATIO,
        },
        "dead_mechanisms": {
            "what": "mechanisms with zero leave-one-out importance "
                    "on every swept cell",
            "dead": dead,
            "bar": "must be empty",
        },
    }
    checks = []
    if diff_ratio < MIN_DIFF_BYTES_RATIO:
        checks.append((False, f"DIFF BYTES BAR MISSED: ablated/full "
                              f"x{diff_ratio:.3f} < "
                              f"x{MIN_DIFF_BYTES_RATIO}"))
    else:
        checks.append((True, f"diff bytes: {diff_cell} ships "
                             f"x{diff_ratio:.3f} the bytes without diffs "
                             f"(bar x{MIN_DIFF_BYTES_RATIO})"))
    if dead:
        checks.append((False, f"DEAD MECHANISM BAR MISSED: zero importance "
                              f"everywhere for {', '.join(sorted(dead))}"))
    else:
        checks.append((True, f"mechanisms: all {len(ranking)} swept "
                             f"mechanisms score nonzero on some cell"))
    return fields, checks


#: sweep id -> (BENCH report at the repo root, bar function).
SWEEPS = {
    "sync-sweep": ("BENCH_sync_crossover.json", sync_bars),
    "failure-sweep": ("BENCH_recovery.json", recovery_bars),
    "ablation-sweep": ("BENCH_ablation.json", ablation_bars),
}


def bench_sweep(exp_id: str, scale: Scale, jobs: int) -> bool:
    """Run, archive and report one sweep; True when every bar holds."""
    bench_name, bars = SWEEPS[exp_id]
    start = time.perf_counter()
    with run_context(jobs=jobs):
        report = run_experiment(exp_id, scale)
    shutdown_pool()
    elapsed = time.perf_counter() - start
    archive_report(report)

    fields, checks = bars(report.data, options_for(exp_id), scale)
    write_bench_json(os.path.join(REPO_ROOT, bench_name), {
        **fields,
        "elapsed_s": round(elapsed, 2),
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
    })
    for _held, line in checks:
        print(line)
    return all(held for held, _line in checks)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sweeps", nargs="+", choices=list(SWEEPS),
                        metavar="SWEEP",
                        help=f"sweeps to run: {', '.join(SWEEPS)}")
    parser.add_argument("--scale", choices=[s.value for s in Scale],
                        default=Scale.TEST.value,
                        help="problem-size scale (default: test; bench "
                             "sweeps to 64 processors and takes "
                             "proportionally longer)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="parallel simulation workers (0 = all "
                             "cores; default: 1)")
    args = parser.parse_args(argv)
    scale = Scale(args.scale)
    held = [bench_sweep(exp_id, scale, args.jobs) for exp_id in args.sweeps]
    return 0 if all(held) else 1


if __name__ == "__main__":
    raise SystemExit(main())
