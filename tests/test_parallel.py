"""Parallel/cached plan execution: the determinism contract.

Pins the layer's hard requirement: serial, ``--jobs N``, and
warm-cache executions produce identical ``summary()`` dictionaries and
identical speedups.
"""

import pytest

import repro.harness.parallel as parallel
from repro.harness.cache import ResultCache
from repro.harness.parallel import (RunPlan, current_context,
                                    effective_workers, execute_plan,
                                    resolve_jobs, run_context, run_grid,
                                    shutdown_pool)
from repro.harness.runner import compare_machines
from repro.harness.workloads import Scale, make_app
from repro.machines import DecTreadMarksMachine, SgiMachine
from repro.net.faults import FaultPlan
from repro.trace import trace_session


@pytest.fixture
def app():
    return make_app("sor_small", Scale.TEST)


def _grid_summaries(jobs, cache):
    """The pinned grid: two machine families x (1, 2) processors."""
    app = make_app("sor_small", Scale.TEST)
    series = compare_machines(
        [DecTreadMarksMachine(), SgiMachine()], app, (1, 2),
        jobs=jobs, cache=cache)
    summaries = {name: [r.summary() for r in s.points]
                 for name, s in series.items()}
    speedups = {name: s.speedups() for name, s in series.items()}
    return summaries, speedups


def test_serial_pool_and_cache_identical(tmp_path):
    """THE determinism pin: jobs=1 == jobs=2 == cold cache == warm cache."""
    serial = _grid_summaries(jobs=1, cache=None)
    pooled = _grid_summaries(jobs=2, cache=None)
    cache = ResultCache(str(tmp_path))
    cold = _grid_summaries(jobs=2, cache=cache)
    assert cache.stats()["misses"] > 0 and cache.stats()["hits"] == 0
    warm = _grid_summaries(jobs=2, cache=cache)
    assert cache.stats()["misses"] == cache.stats()["stores"]  # no re-store
    assert serial == pooled == cold == warm


def _fault_grid_summaries(jobs, cache, seed):
    """Faulty grid: clean vs. lossy TreadMarks at (1, 2) processors."""
    app = make_app("sor_small", Scale.TEST)
    series = compare_machines(
        [DecTreadMarksMachine(),
         DecTreadMarksMachine(faults=FaultPlan(loss_rate=0.15,
                                               seed=seed))],
        app, (1, 2), jobs=jobs, cache=cache)
    summaries = {name: [r.summary() for r in s.points]
                 for name, s in series.items()}
    retrans = {name: [r.counters.retransmissions for r in s.points]
               for name, s in series.items()}
    return summaries, retrans


@pytest.mark.parametrize("seed", [7, 42])
def test_faulty_grid_serial_pool_and_cache_identical(tmp_path, seed):
    """The determinism pin extends to fault-injected machines: the
    seeded fault sequence is bit-identical across serial, --jobs N,
    cold-cache, and warm-cache execution."""
    serial = _fault_grid_summaries(jobs=1, cache=None, seed=seed)
    pooled = _fault_grid_summaries(jobs=2, cache=None, seed=seed)
    cache = ResultCache(str(tmp_path))
    cold = _fault_grid_summaries(jobs=2, cache=cache, seed=seed)
    warm = _fault_grid_summaries(jobs=2, cache=cache, seed=seed)
    assert serial == pooled == cold == warm
    _summaries, retrans = serial
    assert retrans["treadmarks-loss0.15"][1] > 0   # faults fired at p=2
    assert retrans["treadmarks"] == [0, 0]


def test_faulty_and_clean_runs_share_only_the_baseline(app, tmp_path):
    """Fault params fork the cache key for networked runs, while the
    1-proc uniprocessor baseline (no network -> no faults) is shared:
    a (1, 2)-proc sweep over both stores 3 results, not 4."""
    cache = ResultCache(str(tmp_path))
    plan = RunPlan()
    for machine in (DecTreadMarksMachine(),
                    DecTreadMarksMachine(faults=FaultPlan(loss_rate=0.05))):
        plan.add_series(machine, app, (1, 2))
    results = execute_plan(plan, cache=cache)
    assert cache.stats()["stores"] == 3
    assert results[1].summary() != results[3].summary()   # 2-proc forked
    assert results[0].cycles == results[2].cycles         # baseline shared


def test_plan_dedup_executes_once(app):
    plan = RunPlan()
    a = plan.add(DecTreadMarksMachine(), app, 2)
    b = plan.add(DecTreadMarksMachine(), app, 2)
    results = execute_plan(plan)
    assert a != b and len(plan) == 2
    assert results[a].summary() == results[b].summary()


def test_shared_baseline_one_store_for_two_variants(app, tmp_path):
    """TreadMarks user- and kernel-level share the 1-proc baseline run:
    a (1, 2)-proc sweep over both variants stores 3 results, not 4."""
    cache = ResultCache(str(tmp_path))
    plan = RunPlan()
    for machine in (DecTreadMarksMachine(),
                    DecTreadMarksMachine(kernel_level=True)):
        plan.add_series(machine, app, (1, 2))
    results = execute_plan(plan, cache=cache)
    assert cache.stats()["stores"] == 3
    # The shared baseline is re-labelled for the requesting variant.
    assert results[0].machine == "treadmarks"
    assert results[2].machine == "treadmarks-kernel"
    assert results[0].cycles == results[2].cycles


def test_run_grid_tags(app):
    grid = run_grid([("tm", DecTreadMarksMachine(), app, 2),
                     ("sgi", SgiMachine(), app, 2)])
    assert set(grid) == {"tm", "sgi"}
    assert grid["tm"].machine == "treadmarks"
    with pytest.raises(ValueError):
        run_grid([("x", SgiMachine(), app, 1),
                  ("x", SgiMachine(), app, 2)])


def test_effective_workers_clamps_to_cores_and_work(monkeypatch):
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 4)
    assert effective_workers(8, 100) == 4     # cores bound
    assert effective_workers(4, 2) == 2       # work bound
    assert effective_workers(1, 100) == 1     # serial request
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 1)
    assert effective_workers(8, 100) == 1     # small box -> in-process


def test_forced_pool_matches_serial_and_stays_warm(monkeypatch):
    """Exercise the real pool machinery (shared-memory plan blob,
    batched dispatch, warm reuse, env re-ship) even on 1-CPU CI by
    pretending the box has cores, and pin result identity."""
    monkeypatch.setattr(parallel, "_cpu_count", lambda: 4)
    app = make_app("sor_small", Scale.TEST)
    plan = RunPlan()
    for machine in (DecTreadMarksMachine(), SgiMachine()):
        plan.add_series(machine, app, (1, 2))
    try:
        serial = [r.summary() for r in execute_plan(plan, jobs=1)]
        pooled = [r.summary() for r in execute_plan(plan, jobs=4)]
        assert pooled == serial
        pool = parallel._POOL
        assert pool is not None
        again = [r.summary() for r in execute_plan(plan, jobs=4)]
        assert again == serial
        assert parallel._POOL is pool        # reused warm, not respawned
    finally:
        shutdown_pool()
    assert parallel._POOL is None


def test_dispatch_batches_cover_work_exactly_once():
    batches = parallel._dispatch_batches(11, 2)
    assert len(batches) <= 8
    flat = sorted(i for batch in batches for i in batch)
    assert flat == list(range(11))


def test_run_context_ambient():
    assert current_context().jobs == 1
    with run_context(jobs=3) as ctx:
        assert current_context() is ctx
        assert resolve_jobs(None) == 3
        with run_context(jobs=1):
            assert resolve_jobs(None) == 1
        assert resolve_jobs(None) == 3
    assert current_context().jobs == 1
    assert resolve_jobs(0) >= 1          # 0 = all cores


def test_metrics_session_records_unique_runs_in_plan_order(app, tmp_path):
    """Cold and warm cached executions feed the metrics session the
    same records: one per unique run, in plan order."""
    cache = ResultCache(str(tmp_path))

    def observed():
        with trace_session(trace=False) as session:
            plan = RunPlan()
            plan.add_series(DecTreadMarksMachine(), app, (1, 2))
            plan.add(DecTreadMarksMachine(), app, 2)   # dup: not re-recorded
            execute_plan(plan, cache=cache)
        return [(r.machine, r.nprocs) for r in session.results]

    cold = observed()
    warm = observed()
    assert cold == warm == [("treadmarks", 1), ("treadmarks", 2)]
    assert cache.stats()["hits"] == 2


def test_traced_session_serial_and_fresh(app, tmp_path):
    """trace=True forces live serial execution: one tracer per unique
    spec, cache untouched, numbers unchanged."""
    cache = ResultCache(str(tmp_path))
    plan = RunPlan()
    plan.add_series(DecTreadMarksMachine(), app, (1, 2))
    plan.add(DecTreadMarksMachine(), app, 2)
    untraced = execute_plan(plan)
    with trace_session(trace=True) as session:
        traced = execute_plan(plan, cache=cache)
    assert len(session.tracers) == 2     # unique specs only
    assert cache.stats() == {"hits": 0, "misses": 0, "stores": 0}
    # Tracing adds frac.* breakdown keys; every other number is pinned.
    for t, u in zip(traced, untraced):
        assert t.cycles == u.cycles and t.events == u.events
        assert {k: v for k, v in t.summary().items()
                if not k.startswith("frac.")
                and k != "software_overhead_fraction"} == u.summary()
