"""Every sweep bar can miss.

Drives the bar functions of ``benchmarks/bench_sweeps.py`` with
synthetic report data (no simulation): a well-behaved report holds
every bar, and each defect the bars guard against turns exactly that
bar into a miss and the runner's exit status into 1.
"""

import copy
import json
import os
import sys

import pytest

from repro.ablate import MECHANISMS
from repro.harness.experiments import Report

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "benchmarks"))
import _common  # noqa: E402
import bench_sweeps  # noqa: E402

CRASH_AT = 40_000


def _sync_data():
    return {
        "top_procs": 16,
        "cells": {"mwater": {"ah": {
            "token+central": {"speedups": {"16": 10.0}},
            "mcs+tree": {"speedups": {"16": 10.2}}}}},
        "summary": {"mwater/as": {
            "default": 4.0, "best": 4.4, "best_policy": "token+tree",
            "gain": 1.1, "ah_default": 10.0}},
    }


def _crash_cell(failed_nodes=(15,), latency=500_000, speedup=5.0):
    return {
        "speedup": speedup,
        "clean_speedup": 10.0,
        "degraded": {"failed_nodes": list(failed_nodes),
                     "crashed_at": [CRASH_AT],
                     "detected_at": [CRASH_AT + latency],
                     "detected_via": ["keepalive"]},
        "pages_rehomed": 3, "pages_lost": 0, "locks_regenerated": 1,
        "barrier_reconfigs": 1,
    }


def _failure_data():
    return {"sor_sim": {"as": {"0.25": _crash_cell()}}}


def _ablation_data():
    return {
        "top_procs": 16,
        "cells": {"as/mwater": {"loo": {"diffs": {
            "full": {"bytes": 1000}, "ablated": {"bytes": 2000}}}}},
        "ranking": [{"mechanism": m, "score": 0.5} for m in MECHANISMS],
        "mechanisms": list(MECHANISMS),
    }


HEALTHY = {"sync-sweep": _sync_data, "failure-sweep": _failure_data,
           "ablation-sweep": _ablation_data}


def _ah_spread(data):
    data["cells"]["mwater"]["ah"]["mcs+tree"]["speedups"]["16"] = 10.6


def _small_gain(data):
    data["summary"]["mwater/as"]["gain"] = 1.01


def _crash_undeclared(data):
    data["sor_sim"]["as"]["0.5"] = _crash_cell(failed_nodes=())


def _late_detection(data):
    data["sor_sim"]["as"]["0.5"] = _crash_cell(latency=1_000_000 + 1_001)


def _low_retained(data):
    data["sor_sim"]["as"]["0.5"] = _crash_cell(speedup=0.9)


def _diff_ratio(data):
    data["cells"]["as/mwater"]["loo"]["diffs"]["ablated"]["bytes"] = 1200


def _dead_mechanism(data):
    data["ranking"][-1]["score"] = 0.0


MISSES = [
    ("sync-sweep", _ah_spread, "AH FLATNESS BAR MISSED"),
    ("sync-sweep", _small_gain, "CROSSOVER BAR MISSED"),
    ("failure-sweep", _crash_undeclared, "COMPLETION BAR MISSED"),
    ("failure-sweep", _late_detection, "DETECTION BAR MISSED"),
    ("failure-sweep", _low_retained, "OVERHEAD BAR MISSED"),
    ("ablation-sweep", _diff_ratio, "DIFF BYTES BAR MISSED"),
    ("ablation-sweep", _dead_mechanism, "DEAD MECHANISM BAR MISSED"),
]


def _bars(exp_id, data):
    _bench_name, bars = bench_sweeps.SWEEPS[exp_id]
    return bars(data, bench_sweeps.options_for(exp_id),
                bench_sweeps.Scale.TEST)


@pytest.fixture
def offline_runner(monkeypatch, tmp_path):
    """The runner over canned report data, writing under ``tmp_path``."""
    canned = {}

    def fake_run(exp_id, scale):
        return Report(exp_id, "synthetic", ["synthetic"], canned[exp_id])

    monkeypatch.setattr(bench_sweeps, "run_experiment", fake_run)
    monkeypatch.setattr(bench_sweeps, "REPO_ROOT", str(tmp_path))
    monkeypatch.setattr(_common, "RESULTS_DIR", str(tmp_path / "results"))
    return canned


@pytest.mark.parametrize("exp_id", sorted(HEALTHY))
def test_healthy_report_holds_every_bar(offline_runner, tmp_path, exp_id):
    _fields, checks = _bars(exp_id, HEALTHY[exp_id]())
    assert all(held for held, _line in checks), checks
    offline_runner[exp_id] = HEALTHY[exp_id]()
    assert bench_sweeps.main([exp_id]) == 0
    bench_name, _bars_fn = bench_sweeps.SWEEPS[exp_id]
    with open(tmp_path / bench_name) as fh:
        assert {"meta", "elapsed_s", "jobs", "grid"} <= set(json.load(fh))
    assert (tmp_path / "results" / f"{exp_id}.txt").exists()


@pytest.mark.parametrize("exp_id,defect,miss", MISSES,
                         ids=[m[1].__name__.lstrip("_") for m in MISSES])
def test_each_defect_misses_its_bar(offline_runner, exp_id, defect, miss):
    data = copy.deepcopy(HEALTHY[exp_id]())
    defect(data)
    _fields, checks = _bars(exp_id, data)
    missed = [line for held, line in checks if not held]
    assert [line for line in missed if line.startswith(miss)], checks
    offline_runner[exp_id] = data
    assert bench_sweeps.main([exp_id]) == 1
