"""The benchmark's workloads: fixed (machine, app, procs) cells at bench scale.

The workloads follow the paper's sharing-pattern axis.  Each one is a
fixed list of cells, and every cell is one simulation that the timed
passes run through the public sweep path.

The seed reaches two places.  Every cell passes it to
``Machine.run(seed=)``.  The TSP cells are also rebuilt with
``TspApp(coord_seed=seed)`` as a *held-out* instance: a different city
set, simulated and verified once per run but not timed (see
``README.md`` for why).  Water and SOR take no seeded input in their
public constructors, so a held-out seed varies only ``tsp_search``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import make_machine
from repro.apps import TspApp
from repro.apps.base import Application
from repro.harness.workloads import Scale, make_app
from repro.machines.base import Machine

#: The seed whose held-out TSP instance has pinned digests.
DEFAULT_SEED = 1


@dataclass(frozen=True)
class CellSpec:
    """One simulation of a workload: an app on a machine at a size."""

    machine: str
    app: str
    procs: int

    @property
    def label(self) -> str:
        """``machine/app/pN``: the key of digests and per-cell reports."""
        return f"{self.machine}/{self.app}/p{self.procs}"


@dataclass(frozen=True)
class Workload:
    """A named list of cells; ``checked`` arms the online checkers."""

    name: str
    why: str
    cells: Tuple[CellSpec, ...]
    checked: bool = False


def _cells(*triples: Tuple[str, str, int]) -> Tuple[CellSpec, ...]:
    return tuple(CellSpec(m, a, p) for m, a, p in triples)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "water_locks",
        "highest lock rate in the paper: lock-carried write notices drive "
        "the DSM interval log and ATM model, per-line calls drive the "
        "hardware caches and directory",
        _cells(("treadmarks", "water", 8), ("sgi", "water", 8),
               ("as", "mwater", 16), ("hs", "mwater", 16),
               ("ah", "mwater", 16))),
    Workload(
        "sor_barriers",
        "barrier-only bulk writes: the DSM works through faults, twins and "
        "diffs instead of notices, the hardware through range calls",
        _cells(("as", "sor_sim", 32), ("hs", "sor_sim", 32),
               ("ah", "sor_sim", 32), ("treadmarks", "sor_large", 8),
               ("sgi", "sor_large", 8))),
    Workload(
        "tsp_search",
        "app-bound branch and bound with a locked queue: bypasses the DSM "
        "and coherence layers, exercises program compute",
        _cells(("treadmarks", "tsp18", 4), ("sgi", "tsp18", 4),
               ("as", "tsp19", 16), ("ah", "tsp19", 16))),
    Workload(
        "water_checked",
        "M-Water and Water with the online coherence checkers armed, so "
        "the check layer is measured",
        _cells(("as", "mwater", 16), ("ah", "mwater", 16),
               ("sgi", "water", 8)),
        checked=True),
)}


@dataclass
class Cell:
    """A cell spec with its machine and application built."""

    spec: CellSpec
    machine: Machine
    app: Application


def build_cells(workload: Workload) -> List[Cell]:
    """Build the machines and apps of every timed cell."""
    return [Cell(spec, make_machine(spec.machine),
                 make_app(spec.app, Scale.BENCH))
            for spec in workload.cells]


def held_out_cells(workload: Workload, seed: int) -> List[Cell]:
    """The TSP cells rebuilt on the city set of ``seed``.

    Empty for workloads without TSP cells: their apps take no seeded
    input.
    """
    out = []
    for cell in build_cells(workload):
        app = cell.app
        if isinstance(app, TspApp):
            held_out = TspApp(app.cities, leaf_cutoff=app.leaf_cutoff,
                              queue_capacity=app.queue_capacity,
                              coord_seed=seed)
            out.append(Cell(cell.spec, cell.machine, held_out))
    return out
