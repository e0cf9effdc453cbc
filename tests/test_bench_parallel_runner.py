"""The pool bar of ``benchmarks/bench_parallel_runner.py`` can miss.

Drives the bar with synthetic timings (no simulation): a pool that
loses to serial beyond the bar misses and makes the script exit 1, a
single effective worker reports ``skipped`` rather than a pass, and a
healthy ratio holds.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "benchmarks"))
import bench_parallel_runner  # noqa: E402

SERIAL_S = 1.0


@pytest.fixture
def offline_runner(monkeypatch, tmp_path):
    """The script over synthetic timings, writing under ``tmp_path``.

    Returns a setter for the pool leg's seconds and the effective
    worker count; the serial leg always takes ``SERIAL_S``.
    """
    state = {}

    def fake_timed(jobs, cache):
        return (SERIAL_S if jobs == 1 else state["pool_s"]), []

    monkeypatch.setattr(bench_parallel_runner, "timed", fake_timed)
    monkeypatch.setattr(bench_parallel_runner, "build_plan",
                        lambda: [None] * 8)
    monkeypatch.setattr(bench_parallel_runner, "effective_workers",
                        lambda jobs, nwork: state["workers"])
    monkeypatch.setattr(bench_parallel_runner, "OUT_PATH",
                        str(tmp_path / "BENCH_parallel_runner.json"))

    def configure(pool_s, workers):
        state.update(pool_s=pool_s, workers=workers)

    return configure


def _written_bar(tmp_path):
    with open(tmp_path / "BENCH_parallel_runner.json") as fh:
        return json.load(fh)["pool_bar"]


def test_slow_pool_misses_and_exits_1(offline_runner, tmp_path):
    ratio = bench_parallel_runner.MIN_POOL_SPEEDUP - 0.05
    verdict, line = bench_parallel_runner.pool_bar(ratio, 2)
    assert verdict == "missed" and line.startswith("POOL BAR MISSED")
    offline_runner(pool_s=SERIAL_S / ratio, workers=2)
    assert bench_parallel_runner.main() == 1
    assert _written_bar(tmp_path)["verdict"] == "missed"


def test_one_effective_worker_is_skipped_not_held(offline_runner,
                                                  tmp_path):
    verdict, _line = bench_parallel_runner.pool_bar(1.0, 1)
    assert verdict == "skipped"
    # Even a ratio that would miss is not judged without a real pool.
    assert bench_parallel_runner.pool_bar(0.1, 1)[0] == "skipped"
    offline_runner(pool_s=SERIAL_S, workers=1)
    assert bench_parallel_runner.main() == 0
    assert _written_bar(tmp_path)["verdict"] == "skipped"


def test_healthy_ratio_holds(offline_runner, tmp_path):
    assert bench_parallel_runner.pool_bar(1.5, 2)[0] == "held"
    assert bench_parallel_runner.pool_bar(
        bench_parallel_runner.MIN_POOL_SPEEDUP, 2)[0] == "held"
    offline_runner(pool_s=SERIAL_S / 1.5, workers=2)
    assert bench_parallel_runner.main() == 0
    bar = _written_bar(tmp_path)
    assert bar["verdict"] == "held"
    assert bar["bar"] == bench_parallel_runner.MIN_POOL_SPEEDUP == 0.85
