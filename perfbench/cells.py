"""Running cells through the public sweep path, and checking what they return.

A pass runs every cell of a workload serially in this process, each as
its own ``RunPlan`` through ``execute_plan(jobs=1)`` with an explicit,
fresh and empty ``ResultCache``: the path ``repro-harness run`` takes.
Each cell is timed around its ``execute_plan`` call, with the host's
speed sampled throughout (:mod:`perfbench.calibration`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.apps import TspApp
from repro.apps import tsp as tsp_module
from repro.harness import parallel
from repro.harness.cache import ResultCache
from repro.stats.result import RunResult

from perfbench.calibration import sampling
from perfbench.workloads import Cell


def digest(result: RunResult) -> str:
    """A short hash of a result's simulated outputs.

    Covers ``summary()`` plus the exact event count, cycle count and
    every counter, so any change in simulated behaviour shows.
    """
    payload = {
        "summary": result.summary(),
        "events": result.events,
        "cycles": result.cycles,
        "counters": result.counters.to_jsonable(),
    }
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class CellOutcome:
    """One cell execution: its host time and what it produced."""

    label: str
    #: Host seconds, calibration samples taken out.
    wall_s: float
    #: ``wall_s`` rescaled to the reference host.
    norm_s: float
    events: int = 0
    digest: Optional[str] = None
    counters: Optional[Dict[str, Any]] = None
    error: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        return dict(vars(self))


def warm_memo_tables(cells: Sequence[Cell]) -> None:
    """Fill the process-level TSP tables the timed passes reuse.

    ``TspApp`` memoizes its distance tables and, in ``verify``, the
    sequential optimum per ``(cities, coord_seed)``.  A sweep fills them
    on its first run of an instance; the benchmark fills them during
    set-up so that every timed pass does the same work.
    """
    for cell in cells:
        app = cell.app
        if not isinstance(app, TspApp):
            continue
        dist, min_edge = app._tables()
        key = (app.cities, app.coord_seed)
        if key not in tsp_module._SEQ_SOLVE_CACHE:
            tsp_module._SEQ_SOLVE_CACHE[key] = app._solve_local(
                dist, min_edge, (0,), 0.0, math.inf)


def run_pass(cells: Sequence[Cell], seed: int, cache_dir: str,
             on_cell: Any = None, on_sample: Any = None
             ) -> List[CellOutcome]:
    """Simulate every cell once; returns one outcome per cell, in order.

    ``cache_dir`` must not exist yet: the pass gets a fresh, empty
    cache there, and every cell must be a miss that the pass simulates
    and stores.  A cell that raises (including a failed
    ``app.verify``) is recorded with its error and the pass goes on.
    ``on_cell(label, outcome)``, if given, is called after each cell;
    ``on_sample`` is handed to :func:`sampling`.
    """
    os.makedirs(cache_dir)
    cache = ResultCache(cache_dir)
    outcomes = []
    for cell in cells:
        plan = parallel.RunPlan()
        plan.add(cell.machine, cell.app, cell.spec.procs, seed=seed)
        hits, misses = cache.hits, cache.misses
        result, error = None, None
        with sampling(on_sample) as speed:
            start = time.perf_counter()
            try:
                (result,) = parallel.execute_plan(plan, jobs=1, cache=cache,
                                                  ledger=None, quiet=True)
            except Exception as exc:  # a failing cell is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        outcome = CellOutcome(cell.spec.label, elapsed - speed.spent,
                              speed.normalize(elapsed), error=error)
        if result is not None:
            outcome.events = result.events
            outcome.digest = digest(result)
            outcome.counters = result.counters.as_dict()
            if (cache.hits, cache.misses) != (hits, misses + 1):
                outcome.error = "served from the result cache, not simulated"
        outcomes.append(outcome)
        if on_cell is not None:
            on_cell(cell.spec.label, outcome)
    return outcomes
