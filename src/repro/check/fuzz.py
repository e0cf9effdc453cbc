"""Cross-machine differential fuzzing of small data-race-free programs.

The simulator executes application values for real in one shared
store, so for a data-race-free program every machine model must
produce byte-identical final memory — the protocols only decide *when*
data moves and what it costs.  The fuzzer exploits that: a seeded
generator emits small random programs (a few pages, barrier phases
with per-phase slot ownership, commutative lock-protected counters,
read/write mixes whose written values depend on values read at
simulated time), runs each on all five machine models with the online
checkers armed, and diffs the final memory images and checker
verdicts.  Any divergence — differing digests, a wrong lock total, a
:class:`~repro.errors.ConsistencyViolation`, a deadlock — is a bug in
some protocol implementation.

Failing programs are shrunk greedily (drop phases, then per-processor
phase programs, then individual operations) to a minimal reproducer
and persisted as JSON regression seeds under ``tests/fuzz_seeds/``;
the test suite and CI replay those seeds forever after.

Program schema (JSON-able)::

    {"seed": ..., "nprocs": N, "slots": S, "locks": L,
     "phases": [{"ops": {"0": [op, ...], ...}}, ...]}

where each op is ``{"kind": "compute", "cycles": c}``,
``{"kind": "read"|"write", "slot": s, "off": o, "n": n}``, or
``{"kind": "lock", "lock": k, "delta": d}``.  Within a phase each slot
is either written by exactly one processor (which may also read it) or
read-only — data-race freedom by construction; phases are separated
by global barriers, and lock cells are only touched inside their own
lock's critical section.

A program may also carry ``"ablate": [mechanism, ...]`` — a list of
DSM mechanisms to switch off (see :mod:`repro.ablate`).  The
differential then additionally runs the software machines with that
spec: ablations change traffic and timing, never values, so the
ablated legs must produce the same digests and lock totals as the
stock machines.  Shrinking tries dropping toggles before anything
else, so a persisted reproducer carries the minimal toggle set.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.ablate import MECHANISMS, AblationSpec
from repro.apps import ops
from repro.apps.base import AppContext, Application
from repro.check.checker import checking
from repro.errors import ReproError

#: One slot is one DSM page (all five machines use 4096-byte pages).
SLOT_BYTES = 4096

#: Default location of persisted regression seeds, relative to the
#: repository root.
SEEDS_DIRNAME = os.path.join("tests", "fuzz_seeds")


# ----------------------------------------------------------------------
# program generation
# ----------------------------------------------------------------------
def generate_program(seed: Any) -> Dict[str, Any]:
    """One random DRF program; deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    nprocs = int(rng.choice([2, 2, 3, 4, 4, 6, 8]))
    slots = int(rng.integers(2, 7))
    locks = int(rng.integers(1, 4))
    n_phases = int(rng.integers(2, 5))
    phases: List[Dict[str, Any]] = []
    for _phase in range(n_phases):
        # Per-phase slot ownership: a slot is writable by exactly one
        # processor or by nobody (read-only this phase).
        writer = {s: int(rng.integers(0, nprocs))
                  for s in range(slots) if rng.random() < 0.6}
        per_proc: Dict[str, List[Dict[str, Any]]] = {}
        for proc in range(nprocs):
            plist: List[Dict[str, Any]] = []
            mine = [s for s, w in writer.items() if w == proc]
            readable = [s for s in range(slots)
                        if s not in writer or writer[s] == proc]
            for slot in mine:
                for _ in range(int(rng.integers(1, 3))):
                    off = int(rng.integers(0, SLOT_BYTES - 64))
                    n = int(rng.integers(1, min(256, SLOT_BYTES - off)))
                    plist.append({"kind": "write", "slot": slot,
                                  "off": off, "n": n})
            for _ in range(int(rng.integers(0, 4))):
                if not readable:
                    break
                slot = int(rng.choice(readable))
                off = int(rng.integers(0, SLOT_BYTES - 64))
                n = int(rng.integers(1, min(256, SLOT_BYTES - off)))
                plist.append({"kind": "read", "slot": slot,
                              "off": off, "n": n})
            for _ in range(int(rng.integers(0, 3))):
                plist.append({"kind": "lock",
                              "lock": int(rng.integers(0, locks)),
                              "delta": int(rng.integers(1, 100))})
            if rng.random() < 0.5:
                plist.append({"kind": "compute",
                              "cycles": int(rng.integers(0, 200))})
            rng.shuffle(plist)
            if plist:
                per_proc[str(proc)] = plist
        phases.append({"ops": per_proc})
    return {"seed": _seed_repr(seed), "nprocs": nprocs, "slots": slots,
            "locks": locks, "phases": phases}


def _seed_repr(seed: Any) -> Any:
    return list(seed) if isinstance(seed, tuple) else seed


def generate_ablation_program(seed: Any) -> Dict[str, Any]:
    """A random DRF program with a seeded random mechanism subset off."""
    program = generate_program(seed)
    entropy = (tuple(seed) if isinstance(seed, tuple) else (seed,))
    rng = np.random.default_rng(entropy + (0xAB,))
    k = int(rng.integers(1, 4))
    off = sorted(rng.choice(MECHANISMS, size=k, replace=False).tolist())
    program["ablate"] = off
    return program


def expected_lock_totals(program: Dict[str, Any]) -> List[int]:
    """Final value of each lock counter: the sum of all deltas."""
    totals = [0] * program["locks"]
    for phase in program["phases"]:
        for plist in phase["ops"].values():
            for op in plist:
                if op["kind"] == "lock":
                    totals[op["lock"]] += op["delta"]
    return totals


def program_digest(program: Dict[str, Any]) -> str:
    canonical = json.dumps(program, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the program as an Application
# ----------------------------------------------------------------------
class FuzzApp(Application):
    """Executes one generated program on the simulator."""

    def __init__(self, program: Dict[str, Any]) -> None:
        self.program = program
        self.name = f"fuzz-{program_digest(program)[:12]}"

    def regions(self, nprocs: int) -> Dict[str, int]:
        return {"fz": self.program["slots"] * SLOT_BYTES,
                "lk": SLOT_BYTES}

    def init_data(self, ctx: AppContext) -> None:
        ctx.store.view("fz", np.uint8)[:] = 0
        ctx.store.view("lk", np.uint8)[:] = 0

    def programs(self, ctx: AppContext):
        return [self._proc_program(ctx, proc)
                for proc in range(ctx.nprocs)]

    def _proc_program(self, ctx: AppContext, proc: int):
        data = ctx.store.view("fz", np.uint8)
        lock_cells = ctx.store.view("lk", np.int64)
        # The accumulator folds in every value read *at simulated
        # completion time*, and written values derive from it — so a
        # protocol that mis-orders a write against a barrier changes
        # the bytes later phases write, and the final images diverge.
        acc = proc + 1
        for phase_no, phase in enumerate(self.program["phases"]):
            for op_no, op in enumerate(phase["ops"].get(str(proc), ())):
                kind = op["kind"]
                if kind == "compute":
                    yield ops.Compute(op["cycles"])
                elif kind == "read":
                    addr = op["slot"] * SLOT_BYTES + op["off"]
                    yield ops.Read("fz", addr, op["n"])
                    acc = (acc + int(data[addr:addr + op["n"]]
                                     .sum(dtype=np.int64))) & 0xFFFFFFFF
                elif kind == "write":
                    addr = op["slot"] * SLOT_BYTES + op["off"]
                    base = (acc * 2654435761 + phase_no * 97 +
                            proc * 31 + op_no) & 0xFFFFFFFF
                    values = ((base + np.arange(op["n"])) % 251
                              ).astype(np.uint8)
                    changed = ctx.store.write("fz", addr, values)
                    yield ops.Write("fz", addr, op["n"], changed)
                elif kind == "lock":
                    cell = op["lock"]
                    yield ops.Acquire(cell)
                    yield ops.Read("lk", 8 * cell, 8)
                    lock_cells[cell] += op["delta"]
                    yield ops.Write("lk", 8 * cell, 8)
                    yield ops.Release(cell)
                else:  # pragma: no cover - generator never emits this
                    raise ReproError(f"unknown fuzz op kind {kind!r}")
            yield ops.Barrier()

    def verify(self, ctx: AppContext) -> Dict[str, Any]:
        image = ctx.store.view("fz", np.uint8)
        locks = ctx.store.view("lk", np.int64)[:self.program["locks"]]
        return {
            "digest": hashlib.sha256(image.tobytes()).hexdigest(),
            "locks": [int(v) for v in locks],
        }


# ----------------------------------------------------------------------
# differential execution
# ----------------------------------------------------------------------
def default_machines() -> List[Any]:
    """The five paper machine models, fuzz-sized (max 8 processors).

    The HS machine runs with 2-processor nodes: the paper's hs8 would
    fit any fuzz program on one node and never cross the software DSM
    layer, while hs2 exercises intra-node snooping *and* inter-node
    LRC with as few as 4 processors.
    """
    from repro.machines import (AllHardwareMachine, AllSoftwareMachine,
                                DecTreadMarksMachine, HybridMachine,
                                SgiMachine)
    from repro.machines.params import HsParams
    return [DecTreadMarksMachine(), SgiMachine(), AllSoftwareMachine(),
            AllHardwareMachine(),
            HybridMachine(HsParams(procs_per_node=2))]


def ablated_machines(off: Sequence[str]) -> List[Any]:
    """The three software DSM machines with ``off`` mechanisms ablated.

    Hardware machines have no ablatable mechanisms, so the ablation
    differential only adds software legs; the stock hardware legs in
    the same run supply the ground-truth digests.
    """
    from repro.machines import (AllSoftwareMachine, DecTreadMarksMachine,
                                HybridMachine)
    from repro.machines.params import HsParams
    spec = AblationSpec.without(*off)
    return [DecTreadMarksMachine(ablate=spec),
            AllSoftwareMachine(ablate=spec),
            HybridMachine(HsParams(procs_per_node=2), ablate=spec)]


@dataclass
class MachineVerdict:
    machine: str
    ok: bool
    digest: Optional[str] = None
    locks: Optional[List[int]] = None
    error: Optional[str] = None


@dataclass
class FuzzOutcome:
    program: Dict[str, Any]
    verdicts: List[MachineVerdict] = field(default_factory=list)
    ok: bool = True
    reason: str = ""

    def failing_machines(self) -> List[str]:
        return [v.machine for v in self.verdicts if not v.ok]


def run_program(program: Dict[str, Any],
                machines: Optional[Sequence[Any]] = None, *,
                jobs: Optional[int] = None,
                history: bool = True) -> FuzzOutcome:
    """Run one program on every machine; diff images and verdicts.

    The fast path executes all legs through one
    :class:`~repro.harness.parallel.RunPlan`; if anything raises, each
    leg is re-run serially so the failure is attributed to the
    machine(s) that actually diverge.
    """
    from repro.harness.parallel import RunPlan, execute_plan

    machines = list(machines) if machines is not None \
        else default_machines()
    off = program.get("ablate") or ()
    if off:
        machines = machines + ablated_machines(off)
    app = FuzzApp(program)
    nprocs = program["nprocs"]
    legs = [(machine, machine.name, app) for machine in machines]
    outcome = FuzzOutcome(program=program)

    with checking(history=history):
        plan = RunPlan()
        for machine, _label, leg_app in legs:
            plan.add(machine, leg_app, nprocs)
        try:
            results = execute_plan(plan, jobs=jobs, cache=None)
            for (_machine, label, _leg_app), result in zip(legs, results):
                outcome.verdicts.append(MachineVerdict(
                    machine=label, ok=True,
                    digest=result.app_output["digest"],
                    locks=result.app_output["locks"]))
        except ReproError:
            # Re-run serially to attribute the failure.
            outcome.verdicts = []
            for machine, label, leg_app in legs:
                try:
                    result = machine.run(leg_app, nprocs=nprocs)
                    outcome.verdicts.append(MachineVerdict(
                        machine=label, ok=True,
                        digest=result.app_output["digest"],
                        locks=result.app_output["locks"]))
                except ReproError as exc:
                    outcome.verdicts.append(MachineVerdict(
                        machine=label, ok=False,
                        error=f"{type(exc).__name__}: {exc}"))

    failed = outcome.failing_machines()
    if failed:
        outcome.ok = False
        outcome.reason = "checker/simulation failure on: " + \
            ", ".join(failed)
        return outcome

    expected = expected_lock_totals(program)
    digests = {v.digest for v in outcome.verdicts}
    if len(digests) > 1:
        outcome.ok = False
        outcome.reason = "final memory images diverge: " + ", ".join(
            f"{v.machine}={v.digest[:12]}" for v in outcome.verdicts)
    for verdict in outcome.verdicts:
        if verdict.locks != expected:
            outcome.ok = False
            outcome.reason = (
                f"lock totals wrong on {verdict.machine}: "
                f"{verdict.locks} != {expected} (lost update)")
    return outcome


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------
def _variants(program: Dict[str, Any]):
    """Candidate simplifications, largest cuts first.

    Ablation toggles are tried before structural cuts: a reproducer
    should carry the minimal mechanism set that still triggers the
    divergence (ideally none — i.e. the bug is not ablation-specific).
    """
    off = program.get("ablate") or []
    for i in range(len(off)):
        smaller = off[:i] + off[i + 1:]
        variant = {k: v for k, v in program.items() if k != "ablate"}
        if smaller:
            variant["ablate"] = smaller
        yield variant
    phases = program["phases"]
    for i in range(len(phases)):
        if len(phases) > 1:
            yield {**program,
                   "phases": phases[:i] + phases[i + 1:]}
    for i, phase in enumerate(phases):
        for proc in list(phase["ops"]):
            smaller = {p: v for p, v in phase["ops"].items()
                       if p != proc}
            yield {**program,
                   "phases": phases[:i] + [{"ops": smaller}] +
                   phases[i + 1:]}
    for i, phase in enumerate(phases):
        for proc, plist in phase["ops"].items():
            if len(plist) <= 1:
                continue
            for j in range(len(plist)):
                smaller = dict(phase["ops"])
                smaller[proc] = plist[:j] + plist[j + 1:]
                yield {**program,
                       "phases": phases[:i] + [{"ops": smaller}] +
                       phases[i + 1:]}


def shrink_program(program: Dict[str, Any],
                   still_fails: Callable[[Dict[str, Any]], bool],
                   max_attempts: int = 200) -> Dict[str, Any]:
    """Greedy shrink: keep any simplification that still fails."""
    attempts = 0
    current = program
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _variants(current):
            attempts += 1
            if attempts > max_attempts:
                break
            if still_fails(candidate):
                current = candidate
                progress = True
                break
    return current


# ----------------------------------------------------------------------
# regression seeds
# ----------------------------------------------------------------------
def save_seed(program: Dict[str, Any], reason: str,
              seeds_dir: str) -> str:
    os.makedirs(seeds_dir, exist_ok=True)
    path = os.path.join(
        seeds_dir, f"seed-{program_digest(program)[:16]}.json")
    with open(path, "w") as fh:
        json.dump({"reason": reason, "program": program}, fh,
                  indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_seeds(seeds_dir: str) -> List[Dict[str, Any]]:
    """Persisted regression programs, oldest bug first (by filename)."""
    if not os.path.isdir(seeds_dir):
        return []
    programs = []
    for name in sorted(os.listdir(seeds_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(seeds_dir, name)) as fh:
            programs.append(json.load(fh)["program"])
    return programs


# ----------------------------------------------------------------------
# the campaign
# ----------------------------------------------------------------------
@dataclass
class FuzzReport:
    iterations: int
    programs_run: int
    failures: List[FuzzOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_run(seed: int, iters: int, *,
             machines: Optional[Sequence[Any]] = None,
             shrink: bool = True,
             seeds_dir: Optional[str] = None,
             jobs: Optional[int] = None,
             history: bool = True,
             regression_programs: Sequence[Dict[str, Any]] = (),
             ablation_iters: int = 0,
             log: Callable[[str], None] = lambda _msg: None
             ) -> FuzzReport:
    """Replay regression programs, then ``iters`` fresh ones.

    ``ablation_iters`` adds a random-ablation campaign after the
    regular iterations: each extra program carries a seeded random
    subset of DSM mechanisms switched off (``program["ablate"]``), so
    the differential also pits ablated software machines against the
    stock machines.  Shrinking minimizes the toggle set along with
    the program (see :func:`_variants`).
    """
    report = FuzzReport(iterations=iters + ablation_iters,
                        programs_run=0)

    def run_one(program: Dict[str, Any], label: str) -> None:
        report.programs_run += 1
        outcome = run_program(program, machines, jobs=jobs,
                              history=history)
        if outcome.ok:
            return
        log(f"FAIL {label}: {outcome.reason}")
        if shrink:
            minimal = shrink_program(
                outcome.program,
                lambda p: not run_program(
                    p, machines, jobs=jobs, history=history).ok)
            outcome = run_program(minimal, machines, jobs=jobs,
                                  history=history)
            if outcome.ok:  # shrink landed on a flaky boundary
                outcome = run_program(program, machines, jobs=jobs,
                                      history=history)
        if seeds_dir:
            path = save_seed(outcome.program, outcome.reason, seeds_dir)
            log(f"  minimal repro saved to {path}")
        report.failures.append(outcome)

    for i, program in enumerate(regression_programs):
        run_one(program, f"regression#{i}")
    for i in range(iters):
        program = generate_program((seed, i))
        run_one(program, f"iter#{i} (seed={seed})")
        if (i + 1) % 10 == 0:
            log(f"  ... {i + 1}/{iters} programs, "
                f"{len(report.failures)} failures")
    for i in range(ablation_iters):
        program = generate_ablation_program((seed, iters + i))
        run_one(program,
                f"ablate#{i} (seed={seed}, off={program['ablate']})")
        if (i + 1) % 10 == 0:
            log(f"  ... {i + 1}/{ablation_iters} ablation programs, "
                f"{len(report.failures)} failures")
    return report
