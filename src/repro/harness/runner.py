"""Shared run helpers: speedup curves and statistics collection.

Built on :mod:`repro.harness.parallel`: each helper *declares* its run
grid as one :class:`~repro.harness.parallel.RunPlan` and lets
``execute_plan`` fan the independent simulations out over worker
processes, deduplicate identical points, and serve repeats from the
result cache — all without changing a single number (see that
module's determinism contract).  Under an active
:func:`~repro.ledger.ledger_session`, every point additionally
appends a provenance record and every returned
:class:`~repro.stats.result.RunResult` carries its ledger ``run_id``.
"""

from __future__ import annotations

from typing import (Dict, Hashable, Iterable, Mapping, Optional, Sequence,
                    Tuple, TypeVar)

from repro.apps.base import Application
from repro.harness.cache import ResultCache
from repro.harness.parallel import RunPlan, execute_plan
from repro.machines.base import Machine
from repro.stats.result import SpeedupSeries

K = TypeVar("K", bound=Hashable)


def series_grid(cells: Mapping[K, Tuple[Machine, Application,
                                        Sequence[int]]], *,
                jobs: Optional[int] = None,
                cache: Optional[ResultCache] = None
                ) -> Dict[K, SpeedupSeries]:
    """One speedup series per keyed ``(machine, app, procs)`` cell.

    The whole grid is one plan (:meth:`RunPlan.add_series` per cell),
    so every point fans out together and cells sharing 1-processor
    semantics share one baseline run.

    Baseline methodology (the paper's, §2.3): every speedup is
    relative to the *single-processor execution on the same machine
    family*.  For TreadMarks that baseline is indistinguishable from a
    plain workstation — at one node the protocol engages no remote
    machinery, sends no messages, and the lock token never moves —
    which is why Table 1's "DEC" and "DEC+TreadMarks" columns
    coincide.  Because of that, *every* software-DSM variant with the
    same local machine (user vs kernel level, lazy vs eager release,
    diffs vs whole pages, any overhead preset) shares one 1-processor
    baseline: the machines fingerprint identically at ``nprocs == 1``,
    so the plan executes the baseline once and the result cache
    reuses it across machines and invocations.
    """
    plan = RunPlan()
    slots = {key: plan.add_series(*cell) for key, cell in cells.items()}
    results = execute_plan(plan, jobs=jobs, cache=cache)
    return {key: s.build(results) for key, s in slots.items()}


def speedup_series(machine: Machine, app: Application,
                   procs: Iterable[int], *,
                   jobs: Optional[int] = None,
                   cache: Optional[ResultCache] = None
                   ) -> SpeedupSeries:
    """Run ``app`` at each processor count; speedups vs the 1-proc run."""
    return series_grid({0: (machine, app, tuple(procs))},
                       jobs=jobs, cache=cache)[0]


def compare_machines(machines: Iterable[Machine], app: Application,
                     procs: Iterable[int], *,
                     jobs: Optional[int] = None,
                     cache: Optional[ResultCache] = None
                     ) -> Dict[str, SpeedupSeries]:
    """One speedup series per machine (keyed by name), same workload."""
    procs = tuple(procs)
    return series_grid({m.name: (m, app, procs) for m in machines},
                       jobs=jobs, cache=cache)
