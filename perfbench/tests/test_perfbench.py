"""Self-tests of the benchmark.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The layer-split tests trace every workload once, which takes about a
minute.
"""

from __future__ import annotations

import contextlib
import io
import json
from contextlib import nullcontext

import pytest

from repro import make_machine
from repro.check.checker import checking
from repro.harness.cache import ResultCache
from repro.harness.workloads import Scale, make_app

from perfbench import layers, run
from perfbench.cells import run_pass, warm_memo_tables
from perfbench.layers import (counter_metrics, layer_metrics, merge_stats,
                              profiling, traced_pass)
from perfbench.workloads import DEFAULT_SEED, WORKLOADS, build_cells

SOFTWARE_MACHINES = ("treadmarks", "as")


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _owners():
    plan = layers._patch_plan(layers.Profile())
    return {owner for owner, _attr, _wrapper in plan}


def test_wrappers_install_and_restore_byte_for_byte():
    owners = _owners()
    before = {owner: dict(vars(owner)) for owner in owners}
    with profiling():
        for owner in owners:
            now = vars(owner)
            assert any(now[k] is not v for k, v in before[owner].items()), \
                f"nothing wrapped on {owner}"
    for owner in owners:
        after = dict(vars(owner))
        assert after.keys() == before[owner].keys()
        assert all(after[k] is before[owner][k] for k in after), owner


def test_wrappers_are_removed_when_the_block_raises():
    owners = _owners()
    before = {owner: dict(vars(owner)) for owner in owners}
    with pytest.raises(RuntimeError):
        with profiling():
            raise RuntimeError("boom")
    for owner in owners:
        assert all(vars(owner)[k] is v for k, v in before[owner].items())


@pytest.mark.parametrize("machine,app,procs", [
    ("treadmarks", "water", 4), ("sgi", "water", 4), ("as", "mwater", 8),
    ("hs", "sor_sim", 8), ("ah", "tsp18", 4)])
def test_traced_and_untraced_summaries_are_equal(machine, app, procs):
    m = make_machine(machine)
    a = make_app(app, Scale.TEST)
    plain = m.run(a, procs)
    with profiling() as profile:
        traced = m.run(a, procs)
    assert traced.summary() == plain.summary()
    assert traced.events == plain.events
    assert traced.counters.as_dict() == plain.counters.as_dict()
    assert layers.attributed_seconds(profile.stats) > 0


# ----------------------------------------------------------------------
# Names and statistics
# ----------------------------------------------------------------------
def test_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    emitted = (set(layer_metrics({})) | set(counter_metrics([], 0))
               | {"trace.attributed_frac", "trace.overhead_frac"})
    assert emitted == set(run.PER_LAYER)


@pytest.mark.parametrize("trace,names", [(0, run.END_TO_END),
                                         (1, run.PER_LAYER)])
def test_command_prints_every_metric(trace, names):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "sor_barriers", "--seed", "2",
                         "--seconds", "0.1", "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS["sor_barriers"].cells)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    for name, unit in names.items():
        assert any(line.startswith(f"metric {name} = ") and
                   line.endswith(f" {unit}") for line in lines)


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (100.0 / 11, 0)
    assert run.tail(list(range(20))) == (50.0, 9)


def test_check_counts_errors_and_digest_mismatches():
    good = {"label": "a", "error": None, "digest": "x"}
    assert run.check([good], {"a": "x"}) == []
    assert run.check([good], None) == []
    assert len(run.check([good], {"a": "y"})) == 1
    assert len(run.check([dict(good, error="AssertionError: no")],
                         None)) == 1


def test_a_cell_served_from_the_cache_fails(tmp_path, monkeypatch):
    cells = build_cells(WORKLOADS["sor_barriers"])[-1:]
    cell = cells[0]
    stored = cell.machine.run(cell.app, cell.spec.procs, seed=DEFAULT_SEED)

    def stray_hit(self, key):
        self.hits += 1
        return stored

    monkeypatch.setattr(ResultCache, "get", stray_hit)
    (outcome,) = run_pass(cells, DEFAULT_SEED, str(tmp_path / "cache"))
    assert outcome.error == "served from the result cache, not simulated"
    assert len(run.check([outcome.to_json()], None)) == 1


# ----------------------------------------------------------------------
# The layer split follows the workload rationale
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every workload traced once at the default seed."""
    out = {}
    for name, workload in WORKLOADS.items():
        cells = build_cells(workload)
        warm_memo_tables(cells)
        cache = tmp_path_factory.mktemp(name) / "cache"
        with checking() if workload.checked else nullcontext():
            outcomes, per_cell = traced_pass(cells, DEFAULT_SEED, str(cache))
        out[name] = (cells, outcomes, per_cell)
    return out


def _share(per_cell, metric):
    stats = merge_stats(per_cell)
    return layer_metrics(stats)[metric] / layers.attributed_seconds(stats)


def test_traced_passes_reproduce_pinned_digests(traced):
    pins = run.load_pins()["cells"]
    for name, (_cells, outcomes, _stats) in traced.items():
        assert run.check([o.to_json() for o in outcomes], pins) == [], name


def test_interval_log_share_is_largest_on_water_locks(traced):
    water = _share(traced["water_locks"][2], "dsm.interval_s")
    for other in ("sor_barriers", "tsp_search"):
        assert water > _share(traced[other][2], "dsm.interval_s"), other


def test_compute_share_is_largest_on_tsp_search(traced):
    tsp = _share(traced["tsp_search"][2], "apps.compute_s")
    for name in WORKLOADS:
        if name != "tsp_search":
            assert tsp > _share(traced[name][2], "apps.compute_s"), name


def test_hardware_layer_is_idle_on_software_cells(traced):
    seen = 0
    for cells, _outcomes, per_cell in traced.values():
        for cell, stats in zip(cells, per_cell):
            found = layer_metrics(stats)
            if cell.spec.machine in SOFTWARE_MACHINES:
                seen += 1
                assert found["hw.self_s"] == 0, cell.spec.label
                assert found["hw.calls"] == 0, cell.spec.label
            else:
                assert found["hw.calls"] > 0, cell.spec.label
    assert seen


def test_check_layer_runs_only_on_the_checked_workload(traced):
    for name, (_cells, _outcomes, per_cell) in traced.items():
        found = layer_metrics(merge_stats(per_cell))
        if WORKLOADS[name].checked:
            assert found["check.calls"] > 0 and found["check.self_s"] > 0
        else:
            assert found["check.calls"] == 0 and found["check.self_s"] == 0
