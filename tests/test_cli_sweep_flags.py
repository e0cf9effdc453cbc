"""The sweep flags of ``repro-harness run``/``ablate`` reach their sweeps.

Each of the fourteen sweep flags is passed with its experiment, and a
stubbed ``run_experiment`` records the options that experiment would
read; no simulation runs.  A flag given without its experiment is a
usage error (exit 2).
"""

from __future__ import annotations

import pytest

from repro.harness import cli
from repro.harness.experiments import Report, options_for
from repro.net.faults import parse_crashes, parse_schedule

SCHEDULE = "drop:diff_request:src=2:nth=3; dup:lock_grant"
CRASH = "crash@node3:t=500000"

#: (flag arguments, experiment id, options field, expected value).
FLAGS = [
    (["--loss-rate", "0.1", "--loss-rate", "0.2"], "fault-sweep",
     "loss_rates", (0.1, 0.2)),
    (["--fault-seed", "7"], "fault-sweep", "seed", 7),
    (["--fault-schedule", SCHEDULE], "fault-sweep", "schedule",
     parse_schedule(SCHEDULE)),
    (["--crash", CRASH], "failure-sweep", "crashes", parse_crashes(CRASH)),
    (["--crash-frac", "0.3"], "failure-sweep", "fracs", (0.3,)),
    (["--detect-cycles", "1234"], "failure-sweep", "detect_cycles", 1234),
    (["--sync-lock", "mcs", "--sync-lock", "ticket"], "sync-sweep",
     "locks", ("mcs", "ticket")),
    (["--sync-barrier", "tree"], "sync-sweep", "barriers", ("tree",)),
    (["--sync-workload", "tsp18"], "sync-sweep", "workloads", ("tsp18",)),
    (["--sync-machine", "ah"], "sync-sweep", "machines", ("ah",)),
    (["--ablate-mechanism", "diffs"], "ablation-sweep", "mechanisms",
     ("diffs",)),
    (["--ablate-workload", "mwater"], "ablation-sweep", "workloads",
     ("mwater",)),
    (["--ablate-machine", "hs"], "ablation-sweep", "machines", ("hs",)),
    (["--ablate-grid", "only"], "ablation-sweep", "grids", ("only",)),
]

IDS = [args[0] for args, *_ in FLAGS]
QUIET = ["--scale", "test", "--no-cache", "--no-ledger", "--quiet"]


@pytest.fixture
def captured(monkeypatch):
    """Stub out ``run_experiment``; collect (exp_id, options) pairs."""
    seen = []

    def fake_run(exp_id, scale):
        seen.append((exp_id, options_for(exp_id)))
        return Report(exp_id, "stub")

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    return seen


@pytest.mark.parametrize("args,exp_id,field,expected", FLAGS, ids=IDS)
def test_run_flag_reaches_its_experiment(captured, args, exp_id, field,
                                         expected):
    assert cli.main(["run", exp_id, *args, *QUIET]) == 0
    [(ran, options)] = captured
    assert ran == exp_id
    assert getattr(options, field) == expected


@pytest.mark.parametrize("args,exp_id,field,expected",
                         [f for f in FLAGS if f[1] == "ablation-sweep"],
                         ids=[i for i, f in zip(IDS, FLAGS)
                              if f[1] == "ablation-sweep"])
def test_ablate_flag_reaches_the_ablation_sweep(captured, args, exp_id,
                                                field, expected):
    assert cli.main(["ablate", *args, *QUIET]) == 0
    [(ran, options)] = captured
    assert ran == exp_id
    assert getattr(options, field) == expected


@pytest.mark.parametrize("args,exp_id,field,expected", FLAGS, ids=IDS)
def test_run_flag_without_its_experiment_exits_2(captured, capsys, args,
                                                 exp_id, field, expected):
    assert cli.main(["run", "t1", *args, *QUIET]) == 2
    assert captured == []
    assert exp_id in capsys.readouterr().err


def test_options_are_defaults_outside_the_flags(captured):
    assert cli.main(["run", "fault-sweep", "sync-sweep", *QUIET]) == 0
    for exp_id, options in captured:
        assert options == type(options)(), exp_id
