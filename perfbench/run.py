"""The repository benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload water_locks --seed 1 \\
        --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer ones.  Every metric is printed by name with
its unit; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every cell run passed, 1 when one failed, and 2 when
the benchmark could not run at all (no ``src/repro`` beside it, an
unknown workload), in which case no result is printed.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: Environment variables that would change what a pass does (arm the
#: checkers, print progress, point at a shared cache or ledger); the
#: benchmark clears them for itself and its children.
CLEARED_ENV = ("REPRO_CHECK", "REPRO_PROGRESS", "REPRO_CACHE_DIR",
               "REPRO_LEDGER")

#: Fresh interpreters per timed run whose set-up time is sampled; the
#: last of them also runs the timed passes.
SETUP_SAMPLES = 3

#: A run gives up (and fails) after this many seconds.
DEADLINE_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

PER_LAYER = {
    "sim.loop_self_s": "s",
    "sim.step_self_s": "s",
    "sim.events": "count",
    "apps.compute_s": "s",
    "apps.setup_s": "s",
    "machines.self_s": "s",
    "machines.ops": "count",
    "machines.run_self_s": "s",
    "dsm.interval_s": "s",
    "dsm.interval_calls": "count",
    "dsm.pages_s": "s",
    "dsm.pages_calls": "count",
    "dsm.protocol_self_s": "s",
    "dsm.sync_s": "s",
    "dsm.messages": "count",
    "dsm.bytes": "bytes",
    "dsm.page_faults": "count",
    "dsm.diff_bytes": "bytes",
    "dsm.write_notices": "count",
    "sync.lock_wait_cycles": "cycles",
    "net.self_s": "s",
    "net.calls": "count",
    "net.bus_transactions": "count",
    "net.network_hops": "count",
    "hw.self_s": "s",
    "hw.calls": "count",
    "hw.cache_misses_remote": "count",
    "hw.invalidations": "count",
    "mem.cache_s": "s",
    "mem.cache_calls": "count",
    "mem.lines_per_call": "lines/call",
    "mem.store_s": "s",
    "mem.hit_ratio": "frac",
    "check.self_s": "s",
    "check.calls": "count",
    "harness.plan_self_s": "s",
    "harness.cache_put_s": "s",
    "trace.other_s": "s",
    "trace.attributed_frac": "frac",
    "trace.overhead_frac": "frac",
}

DIGESTS = Path(__file__).resolve().parent / "digests.json"


# ======================================================================
# Statistics
# ======================================================================
def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(percentile, value)``: the highest percentile with ten samples
    beyond it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def describe(samples: Sequence[float], unit: str) -> str:
    """Median, tail percentile and sample count, for the report lines."""
    text = f"median {statistics.median(samples):.4f} {unit}, n={len(samples)}"
    found = tail(samples)
    if found is None:
        return text + ", no percentile has ten samples beyond it"
    return text + f", p{found[0]:.0f} {found[1]:.4f} {unit}"


# ======================================================================
# Correctness
# ======================================================================
def load_pins() -> Dict[str, Any]:
    """The pinned digests (see ``perfbench/pin.py``)."""
    with open(DIGESTS) as fh:
        return json.load(fh)


def check(outcomes: List[Dict[str, Any]], pinned: Optional[Dict[str, str]]
          ) -> List[str]:
    """Why each failing cell run failed; empty when all passed.

    A cell run fails if it raised (``app.verify`` included), was
    served from the cache, or, where ``pinned`` is given, produced a
    digest other than the pinned one.
    """
    problems = []
    for out in outcomes:
        label = out["label"]
        if out["error"] is not None:
            problems.append(f"{label}: {out['error']}")
        elif pinned is not None and out["digest"] != pinned.get(label):
            problems.append(f"{label}: digest {out['digest']} differs from "
                            f"pinned {pinned.get(label)}")
    return problems


# ======================================================================
# Measuring processes
# ======================================================================
def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(workload: str, seed: int, budget: float, work: Path,
              mode: str, deadline: float) -> Tuple[float, Dict[str, Any]]:
    """Start one measuring process; returns ``(setup seconds, report)``.

    Set-up is the host time from starting the interpreter to its
    ``ready`` line, normalized by the calibration samples the process
    took meanwhile.  The process is killed at ``deadline``.
    """
    work.mkdir(parents=True)
    cmd = [sys.executable, "-m", "perfbench.child", "--workload", workload,
           "--seed", str(seed), "--budget", str(budget),
           "--work", str(work), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.perf_counter(), 1.0),
                            proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"measuring process failed "
                           f"(exit {proc.returncode}): {first.strip()!r}")
    report = json.loads(rest.strip().splitlines()[-1])
    return (setup - report["setup_spent"]) * report["setup_factor"], report


def held_out_leg(workload: Any, seed: int, work: Path,
                 pins: Dict[str, Any]) -> Tuple[list, List[str]]:
    """Simulate and verify the TSP cells on the seed's own city set."""
    from perfbench.cells import run_pass, warm_memo_tables
    from perfbench.workloads import DEFAULT_SEED, held_out_cells

    cells = held_out_cells(workload, seed)
    if not cells:
        return [], []
    warm_memo_tables(cells)
    outcomes = [o.to_json() for o in run_pass(cells, seed, str(work))]
    pinned = pins["held_out"] if seed == DEFAULT_SEED else None
    return outcomes, check(outcomes, pinned)


# ======================================================================
# The two kinds of run
# ======================================================================
def timed_run(workload: Any, seed: int, seconds: float, work: Path,
              deadline: float, pins: Dict[str, Any], lines: List[str]
              ) -> Tuple[Dict[str, float], int, List[str]]:
    """End-to-end metrics: set-up sampled in ``SETUP_SAMPLES`` fresh
    processes, the last of which runs the timed passes."""
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        setups.append(run_child(workload.name, seed, 0.0, work / f"setup{i}",
                                "setup", deadline)[0])
    setup, report = run_child(workload.name, seed, seconds, work / "time",
                              "time", deadline)
    setups.append(setup)
    passes = report["untraced"]
    problems = [p for outcomes in passes
                for p in check(outcomes, pins["cells"])]
    attempted = sum(len(outcomes) for outcomes in passes)

    labels = [out["label"] for out in passes[0]]
    cell_walls = {label: [outcomes[i]["norm_s"] for outcomes in passes]
                  for i, label in enumerate(labels)}
    wall = sum(statistics.median(v) for v in cell_walls.values())
    events = sum(out["events"] for out in passes[0])
    for label, walls in cell_walls.items():
        lines.append(f"cell {label}: {describe(walls, 's')}")
    lines.append("pass wall: " + describe(
        [sum(out["norm_s"] for out in outcomes) for outcomes in passes], "s"))
    lines.append("pass wall, not normalized: " + describe(
        [sum(out["wall_s"] for out in outcomes) for outcomes in passes], "s"))
    lines.append("setup: " + describe(setups, "s"))
    metrics = {
        "wall_s": wall,
        "events_per_s": events / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    return metrics, attempted, problems


def trace_run(workload: Any, seed: int, seconds: float, work: Path,
              deadline: float, pins: Dict[str, Any], lines: List[str]
              ) -> Tuple[Dict[str, float], int, List[str]]:
    """Per-layer metrics from one process alternating untraced and
    traced passes."""
    from perfbench.layers import (attributed_seconds, counter_metrics,
                                  layer_metrics, merge_stats)

    _setup, report = run_child(workload.name, seed, seconds, work / "proc0",
                               "trace", deadline)
    passes = report["untraced"] + report["traced"]
    problems = [p for outcomes in passes
                for p in check(outcomes, pins["cells"])]
    attempted = sum(len(outcomes) for outcomes in passes)

    def pass_wall(outcomes: list) -> float:
        return sum(out["wall_s"] for out in outcomes)

    untraced = statistics.median(sum(out["norm_s"] for out in o)
                                 for o in report["untraced"])
    traced = statistics.median(sum(out["norm_s"] for out in o)
                               for o in report["traced"])
    samples: Dict[str, List[float]] = {}
    for outcomes, cells in zip(report["traced"], report["traced_stats"]):
        stats = merge_stats([{tuple(k.split("|", 1)): tuple(v)
                              for k, v in cell.items()} for cell in cells])
        found = layer_metrics(stats)
        found["trace.attributed_frac"] = (attributed_seconds(stats)
                                          / pass_wall(outcomes))
        for name, value in found.items():
            samples.setdefault(name, []).append(value)
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    first = report["traced"][0]
    metrics.update(counter_metrics([out["counters"] or {} for out in first],
                                   sum(out["events"] for out in first)))
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    lines.append("untraced pass wall: " + describe(
        [pass_wall(o) for o in report["untraced"]], "s"))
    lines.append("traced pass wall: " + describe(
        [pass_wall(o) for o in report["traced"]], "s"))
    return metrics, attempted, problems


# ======================================================================
# Entry point
# ======================================================================
def _parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def provenance() -> str:
    """Code version and host, through the ledger's own helpers."""
    from repro.ledger import git_revision, host_meta

    # Outside a git checkout, keep git from searching the directories
    # above this one: the benchmark reads only inside its checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    rev = git_revision(str(ROOT))
    host = host_meta()
    return (f"provenance: sha={rev['sha']} dirty={rev['dirty']} "
            f"nproc={host['cpu_count']} host={host['hostname']} "
            f"python={host['python']} platform={host['platform']}")


def _terminate(signum: int, _frame: Any) -> None:
    # Unwind through the ``finally`` blocks that stop the measuring
    # process and remove the work directory.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None or args.seed < 0 or args.seconds <= 0:
        print(f"perfbench: need a workload from {sorted(WORKLOADS)}, a "
              f"seed >= 0 and seconds > 0", file=sys.stderr)
        return 2

    pins = load_pins()
    lines = [f"perfbench {workload.name} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}", provenance()]
    work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    deadline = started + DEADLINE_S
    try:
        measure = trace_run if args.trace else timed_run
        metrics, attempted, problems = measure(
            workload, args.seed, args.seconds, work, deadline, pins, lines)
        held, held_problems = held_out_leg(workload, args.seed,
                                           work / "held_out", pins)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass   # another run's directory is still there
    for out in held:
        lines.append(f"held-out cell {out['label']} (coord_seed "
                     f"{args.seed}): {out['wall_s']:.4f} s, "
                     f"{out['events']} events")
    attempted += len(held)
    problems += held_problems
    failed = len(problems)

    units = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        metrics["pass_frac"] = (attempted - failed) / attempted
    for problem in problems:
        lines.append(f"FAILED {problem}")
    for name, unit in units.items():
        lines.append(f"metric {name} = {metrics[name]:.6g} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
