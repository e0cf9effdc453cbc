"""Shared benchmark plumbing.

:func:`bench_experiment` is the body of ``bench_experiments.py``'s
one test, parametrised over the experiment ids: it regenerates one
artifact of the paper (a table, a figure, an in-text experiment or
an ablation) through the experiment registry, times it with
pytest-benchmark, prints the regenerated rows/series, and archives
them under ``benchmarks/results/<exp_id>.txt`` so the output survives
pytest's capture.

``bench_sweeps.py`` archives the design-space sweeps the same way
(:func:`archive_report`).  It and the standalone wall-clock scripts
(``bench_parallel_runner.py``, ``bench_trace_overhead.py``,
``bench_check_overhead.py``) write their
``BENCH_*.json`` reports through :func:`write_bench_json`, which
stamps every file with :func:`bench_meta` — host, code revision,
package/cache versions, generation time.  Wall-clock numbers are
meaningless without knowing what hardware and which commit produced
them; ``repro-harness report`` refuses to treat un-stamped BENCH
files as comparable.
"""

from __future__ import annotations

import datetime
import json
import os
from typing import Any, Dict

import repro
from repro.harness.experiments import REGISTRY, Report, Scale, run_experiment
from repro.ledger import git_revision, host_meta

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def bench_meta() -> Dict[str, Any]:
    """The provenance stamp every BENCH_*.json carries under ``meta``.

    Mirrors the fields a ledger record carries (``code``, ``host``,
    ``repro_version``) so a BENCH report can be correlated with the
    ledger records of the runs it timed.
    """
    from repro.harness.cache import CACHE_VERSION
    return {
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "code": git_revision(),
        "host": host_meta(),
        "repro_version": getattr(repro, "__version__", "0"),
        "cache_version": CACHE_VERSION,
    }


def write_bench_json(path: str, payload: Dict[str, Any]) -> None:
    """Write one BENCH report, stamped with :func:`bench_meta`."""
    payload = dict(payload)
    payload["meta"] = bench_meta()
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(path)}")


def archive_report(report: Report) -> None:
    """Print ``report`` and archive it as ``results/<exp_id>.txt``.

    The archive carries the experiment's expected-shape note, so the
    regenerated rows can be read against the paper's claim.
    """
    note = REGISTRY[report.exp_id].shape_note
    body = f"{report.text()}\n[expected shape: {note}]\n"
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{report.exp_id}.txt"),
              "w") as fh:
        fh.write(body)
    print()
    print(body)


def bench_experiment(benchmark, exp_id: str,
                     scale: Scale = Scale.BENCH) -> Report:
    """Run one registry experiment under pytest-benchmark."""
    holder = {}

    def run() -> None:
        holder["report"] = run_experiment(exp_id, scale)

    benchmark.pedantic(run, rounds=1, iterations=1)
    report = holder["report"]
    archive_report(report)
    return report
