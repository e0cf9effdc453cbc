"""Every table, figure, in-text experiment and ablation, regenerated.

One pytest-benchmark test per experiment id: each runs the experiment
through the registry at bench scale, times it, prints the regenerated
rows/series and archives them under ``benchmarks/results/<id>.txt``.
Three design-space sweeps are benched against their CI bars by
``bench_sweeps.py``; ``fault-sweep`` is benched here.

    PYTHONPATH=src python -m pytest benchmarks/bench_experiments.py -k fig3
"""

import pytest

from _common import bench_experiment

BENCH_IDS = (["t1", "t2"] + [f"fig{i}" for i in range(1, 17)] +
             ["x1", "x2", "x3", "x4", "a1", "a2", "a3", "fault-sweep"])


@pytest.mark.parametrize("exp_id", BENCH_IDS)
def test_experiment(benchmark, exp_id):
    bench_experiment(benchmark, exp_id)
