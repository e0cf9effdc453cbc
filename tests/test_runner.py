"""Speedup-curve helpers."""

import pytest

from repro.harness.runner import compare_machines, speedup_series
from repro.machines import DecTreadMarksMachine, SgiMachine


def test_speedup_series_baseline_is_one(pingpong):
    series = speedup_series(DecTreadMarksMachine(), pingpong, (1, 2, 4))
    sp = series.speedups()
    assert sp[1] == pytest.approx(1.0)
    assert set(sp) == {1, 2, 4}


def test_compare_machines_keys(pingpong):
    out = compare_machines([DecTreadMarksMachine(), SgiMachine()],
                           pingpong, (1, 2))
    assert set(out) == {"treadmarks", "sgi"}
    for series in out.values():
        assert series.at(2) is not None
