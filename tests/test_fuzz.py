"""The differential fuzzer: generator, runner, shrinker, seeds."""

from __future__ import annotations

import json

import pytest

from repro.check.fuzz import (FuzzApp, default_machines,
                              expected_lock_totals, fuzz_run,
                              generate_program, load_seeds,
                              program_digest, run_program, save_seed,
                              shrink_program)


# ----------------------------------------------------------------------
# program generation
# ----------------------------------------------------------------------

def test_generator_is_deterministic():
    assert generate_program(7) == generate_program(7)
    assert generate_program((0, 3)) == generate_program((0, 3))


def test_generator_seeds_differ():
    digests = {program_digest(generate_program(s)) for s in range(10)}
    assert len(digests) == 10


def test_generated_programs_are_json_roundtrippable():
    program = generate_program(5)
    assert json.loads(json.dumps(program)) == program


def test_generated_programs_are_drf_by_construction():
    """Within each phase, every written slot has exactly one writer
    and is read only by that writer."""
    for seed in range(20):
        program = generate_program(seed)
        for phase in program["phases"]:
            writers = {}
            readers = {}
            for proc, plist in phase["ops"].items():
                for op in plist:
                    if op["kind"] == "write":
                        writers.setdefault(op["slot"], set()).add(proc)
                    elif op["kind"] == "read":
                        readers.setdefault(op["slot"], set()).add(proc)
            for slot, who in writers.items():
                assert len(who) == 1
                assert readers.get(slot, set()) <= who


def test_expected_lock_totals_sums_deltas():
    program = {
        "locks": 2,
        "phases": [
            {"ops": {"0": [{"kind": "lock", "lock": 0, "delta": 5}],
                     "1": [{"kind": "lock", "lock": 1, "delta": 7},
                           {"kind": "lock", "lock": 0, "delta": 1}]}},
        ],
    }
    assert expected_lock_totals(program) == [6, 7]


# ----------------------------------------------------------------------
# differential execution
# ----------------------------------------------------------------------

def test_differential_run_agrees_across_all_machines():
    outcome = run_program(generate_program(12345))
    assert outcome.ok, outcome.reason
    assert len(outcome.verdicts) == 5
    digests = {v.digest for v in outcome.verdicts}
    assert len(digests) == 1
    expected = expected_lock_totals(outcome.program)
    assert all(v.locks == expected for v in outcome.verdicts)


def test_fuzz_app_digest_depends_on_program():
    a = FuzzApp(generate_program(1))
    b = FuzzApp(generate_program(2))
    assert a.name != b.name


def test_hs_machine_in_battery_spans_nodes():
    """The battery's HS model uses 2-processor nodes, so 4-processor
    programs cross the software DSM layer."""
    hs = [m for m in default_machines() if m.name.startswith("hs")]
    assert len(hs) == 1
    assert hs[0].params.procs_per_node == 2


def test_run_program_without_history_still_checks_online():
    outcome = run_program(generate_program(99), history=False)
    assert outcome.ok, outcome.reason
    assert len({v.digest for v in outcome.verdicts}) == 1


# ----------------------------------------------------------------------
# shrinking
# ----------------------------------------------------------------------

def test_shrink_reaches_minimal_failing_program():
    """Shrink against a synthetic predicate: 'fails' iff processor 0
    still has a write op anywhere.  The minimum is one phase with one
    op for one processor."""
    program = generate_program(4242)

    def has_p0_write(p):
        return any(op["kind"] == "write"
                   for phase in p["phases"]
                   for op in phase["ops"].get("0", ()))

    if not has_p0_write(program):  # make the predicate satisfiable
        program["phases"][0]["ops"]["0"] = [
            {"kind": "write", "slot": 0, "off": 0, "n": 8}]
    minimal = shrink_program(program, has_p0_write)
    assert has_p0_write(minimal)
    assert len(minimal["phases"]) == 1
    ops = [op for plist in minimal["phases"][0]["ops"].values()
           for op in plist]
    assert len(ops) == 1
    assert ops[0]["kind"] == "write"


def test_shrink_keeps_program_when_nothing_smaller_fails():
    program = generate_program(777)
    minimal = shrink_program(program, lambda p: p == program)
    assert minimal == program


# ----------------------------------------------------------------------
# regression seeds
# ----------------------------------------------------------------------

def test_seed_save_load_roundtrip(tmp_path):
    program = generate_program(31337)
    path = save_seed(program, "unit-test", str(tmp_path))
    assert path.endswith(f"seed-{program_digest(program)[:16]}.json")
    with open(path) as fh:
        on_disk = json.load(fh)
    assert on_disk["reason"] == "unit-test"
    assert load_seeds(str(tmp_path)) == [program]


def test_load_seeds_of_missing_dir_is_empty(tmp_path):
    assert load_seeds(str(tmp_path / "nonexistent")) == []


def test_persisted_regression_seeds_still_pass():
    """Every seed in tests/fuzz_seeds/ is a shrunk reproducer of a
    once-real bug; they must pass forever after."""
    seeds = load_seeds("tests/fuzz_seeds")
    for program in seeds:
        outcome = run_program(program)
        assert outcome.ok, (
            f"regression seed {program_digest(program)[:16]} "
            f"failed again: {outcome.reason}")


# ----------------------------------------------------------------------
# the campaign driver
# ----------------------------------------------------------------------

def test_fuzz_run_small_campaign_passes(tmp_path):
    report = fuzz_run(0, 2, seeds_dir=str(tmp_path))
    assert report.ok
    assert report.programs_run == 2
    assert list(tmp_path.iterdir()) == []   # no failures persisted


def test_fuzz_run_replays_regressions_first(tmp_path):
    program = generate_program(55)
    save_seed(program, "synthetic", str(tmp_path))
    messages = []
    report = fuzz_run(0, 1, seeds_dir=str(tmp_path),
                      regression_programs=load_seeds(str(tmp_path)),
                      log=messages.append)
    assert report.programs_run == 2         # 1 regression + 1 random
    assert report.ok

