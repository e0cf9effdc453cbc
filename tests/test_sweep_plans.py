"""Experiments declare their whole run grid as one plan.

Pins the harness rule that every sweep experiment executes one
:class:`~repro.harness.parallel.RunPlan` (so its runs fan out, dedup
and hit the cache together), that every experiment goes through the
plan layer rather than a private memo (so the ledger sees each run),
and that pooled execution of a multi-series experiment leaves its
report data unchanged.
"""

import pytest

import repro.harness.experiments as experiments
import repro.harness.parallel as parallel
import repro.harness.runner as runner
from repro.harness.experiments import run_experiment
from repro.harness.parallel import run_context, shutdown_pool
from repro.harness.workloads import Scale
from repro.ledger import Ledger, ledger_session


@pytest.fixture
def plan_counter(monkeypatch):
    """Counts ``execute_plan`` calls from every harness module."""
    calls = []
    real = parallel.execute_plan

    def counting(plan, **kwargs):
        calls.append(len(plan))
        return real(plan, **kwargs)

    for module in (parallel, runner, experiments):
        monkeypatch.setattr(module, "execute_plan", counting)
    return calls


@pytest.mark.parametrize("exp_id", ["fig12", "fig13", "fig14", "x1", "x2",
                                    "x3", "a1", "a2", "a3"])
def test_experiment_executes_one_plan(plan_counter, exp_id):
    run_experiment(exp_id, Scale.TEST)
    assert len(plan_counter) == 1


def test_fig13_after_fig12_records_its_own_runs(tmp_path):
    """fig13 shares fig12's grid but runs it through its own plan, so
    the ledger gets one record per run of each figure."""
    ledger = Ledger(str(tmp_path / "ledger.jsonl"))
    with ledger_session(ledger):
        run_experiment("fig12", Scale.TEST)
        after_fig12 = len(list(ledger.records()))
        run_experiment("fig13", Scale.TEST)
    records = list(ledger.records())
    fig12, fig13 = records[:after_fig12], records[after_fig12:]
    assert len(fig12) == len(fig13) == 6     # 3 workloads x AS/HS
    assert [r["key"] for r in fig13] == [r["key"] for r in fig12]


def test_x2_pooled_report_matches_serial(monkeypatch):
    """One plan for x2's (workload x variant) series grid: a forced
    pool returns exactly the serial report data."""
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 4)
    try:
        with run_context(jobs=1):
            serial = run_experiment("x2", Scale.TEST).data
        with run_context(jobs=4):
            pooled = run_experiment("x2", Scale.TEST).data
    finally:
        shutdown_pool()
    assert pooled == serial
