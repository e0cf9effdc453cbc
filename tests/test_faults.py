"""Fault plane + reliable delivery: determinism, recovery, loud failure.

Unit-level coverage of ``repro.net.faults`` / ``repro.net.reliable``
and their integration points: machine wiring, fingerprints, the cache,
and the engine's progress watchdog.
"""

import pickle

import pytest

from repro.apps import SorApp
from repro.errors import (ConfigurationError, DeadlockError,
                          NetworkPartitionError)
from repro.machines import (AllHardwareMachine, DecTreadMarksMachine,
                            SgiMachine, make_machine)
from repro.net.faults import (FaultInjector, FaultPlan, FaultRule,
                              StallWindow, parse_schedule)
from repro.net.reliable import ReliableNetwork
from repro.sim.engine import Engine
from repro.stats.counters import MsgKind


# ----------------------------------------------------------------------
# FaultPlan / FaultRule / parse_schedule
# ----------------------------------------------------------------------

def test_default_plan_is_disabled_and_labelled_off():
    plan = FaultPlan()
    assert not plan.enabled
    assert plan.label() == "off"


def test_plan_enabled_by_any_mechanism():
    assert FaultPlan(loss_rate=0.01).enabled
    assert FaultPlan(dup_rate=0.01).enabled
    assert FaultPlan(jitter_cycles=5).enabled
    assert FaultPlan(schedule=(FaultRule("drop"),)).enabled
    assert FaultPlan(stalls=(StallWindow(0, 10, 20),)).enabled


def test_plan_label_composes():
    plan = FaultPlan(loss_rate=0.02, dup_rate=0.01, jitter_cycles=7,
                     schedule=(FaultRule("drop"),))
    assert plan.label() == "loss0.02+dup0.01+jit7+sched"


@pytest.mark.parametrize("kwargs", [
    {"loss_rate": -0.1}, {"loss_rate": 1.0}, {"dup_rate": 1.5},
    {"jitter_cycles": -1}, {"max_retries": -1}, {"rto_multiplier": 0},
    {"watchdog_cycles": 0},
])
def test_plan_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigurationError):
        FaultPlan(**kwargs)


def test_fault_rule_validation():
    with pytest.raises(ConfigurationError):
        FaultRule("reorder")                       # unknown action
    with pytest.raises(ConfigurationError):
        FaultRule("drop", kind="carrier_pigeon")   # unknown kind
    with pytest.raises(ConfigurationError):
        FaultRule("drop", nth=0)                   # nth is 1-based


def test_stall_window_validation():
    with pytest.raises(ConfigurationError):
        StallWindow(0, 10, 10)
    with pytest.raises(ConfigurationError):
        StallWindow(0, -1, 10)


def test_plan_is_picklable_and_value_equal():
    """Plans cross process boundaries under ``--jobs N``."""
    plan = FaultPlan(loss_rate=0.05, seed=7,
                     schedule=parse_schedule("drop:diff_request:nth=3"),
                     stalls=(StallWindow(1, 100, 200),))
    assert pickle.loads(pickle.dumps(plan)) == plan


def test_parse_schedule_full_spec():
    rules = parse_schedule(
        "drop:diff_request:src=2:nth=3; dup:lock_grant")
    assert rules == (
        FaultRule("drop", kind="diff_request", src=2, nth=3),
        FaultRule("dup", kind="lock_grant"),
    )


def test_parse_schedule_action_only():
    assert parse_schedule("drop") == (FaultRule("drop"),)


@pytest.mark.parametrize("spec", [
    "",                                   # empty
    "explode:diff_request",               # unknown action
    "drop:warp_request",                  # unknown kind
    "drop:diff_request:when=3",           # unknown filter
    "drop:diff_request:nth=soon",         # non-integer filter
    "drop:diff_request:page_request",     # two kinds
])
def test_parse_schedule_rejects_bad_specs(spec):
    with pytest.raises(ConfigurationError):
        parse_schedule(spec)


# ----------------------------------------------------------------------
# FaultInjector: determinism and monotone nesting
# ----------------------------------------------------------------------

def _decisions(plan, n=300):
    injector = FaultInjector(plan, 4)
    return [injector.decide(0, 1, MsgKind.DIFF_REQUEST)
            for _ in range(n)]


def test_injector_same_seed_same_decisions():
    plan = FaultPlan(loss_rate=0.1, dup_rate=0.05, jitter_cycles=50,
                     seed=3)
    assert _decisions(plan) == _decisions(plan)


def test_injector_seed_changes_decisions():
    a = _decisions(FaultPlan(loss_rate=0.2, seed=1))
    b = _decisions(FaultPlan(loss_rate=0.2, seed=2))
    assert [d.drop for d in a] != [d.drop for d in b]


def test_drop_sets_nest_across_loss_rates():
    """Raising loss_rate only adds drops (same seed): the property
    that makes the fault-sweep degradation curves monotone."""
    low = _decisions(FaultPlan(loss_rate=0.02, seed=9))
    high = _decisions(FaultPlan(loss_rate=0.15, seed=9))
    assert sum(d.drop for d in low) < sum(d.drop for d in high)
    for lo, hi in zip(low, high):
        assert not lo.drop or hi.drop


def test_injector_rejects_out_of_range_nodes():
    with pytest.raises(ConfigurationError):
        FaultInjector(FaultPlan(
            schedule=(FaultRule("drop", src=7),)), 4)
    with pytest.raises(ConfigurationError):
        FaultInjector(FaultPlan(stalls=(StallWindow(4, 0, 10),)), 4)


def test_nth_rule_fires_once():
    plan = FaultPlan(schedule=(
        FaultRule("drop", kind="diff_request", nth=2),))
    drops = [d.drop for d in _decisions(plan, n=5)]
    assert drops == [False, True, False, False, False]


def test_stall_windows_chain_to_fixpoint():
    injector = FaultInjector(FaultPlan(stalls=(
        StallWindow(1, 0, 100), StallWindow(1, 100, 250),
        StallWindow(2, 0, 50))), 4)
    assert injector.stall_until(1, 10) == 250
    assert injector.stall_until(2, 10) == 50
    assert injector.stall_until(2, 60) == 60
    assert injector.stall_until(0, 10) == 10


# ----------------------------------------------------------------------
# ReliableNetwork over a bare AtmNetwork
# ----------------------------------------------------------------------

def _deliveries(net, engine, sends):
    """Fire ``sends`` (src, dst) pairs; return delivery times per pair."""
    arrived = {}
    for i, (src, dst) in enumerate(sends):
        net.send(src, dst, 128, kind=MsgKind.DIFF_REQUEST,
                 on_delivered=lambda t, i=i: arrived.setdefault(i, []
                                                                ).append(t))
    engine.run()
    return arrived


def test_reliable_passthrough_without_faults(atm, engine, counters):
    net = ReliableNetwork(atm, FaultPlan())
    arrived = _deliveries(net, engine, [(0, 1), (2, 3)])
    assert sorted(arrived) == [0, 1]
    assert all(len(times) == 1 for times in arrived.values())
    assert counters.retransmissions == 0
    assert counters.messages_dropped == 0


def test_dropped_message_is_retransmitted_exactly_once_delivered(
        atm, engine, counters):
    net = ReliableNetwork(atm, FaultPlan(
        schedule=parse_schedule("drop:diff_request:nth=1")))
    clean_rtt = atm.roundtrip_estimate(128)
    arrived = _deliveries(net, engine, [(0, 1)])
    assert len(arrived[0]) == 1          # delivered exactly once
    assert arrived[0][0] > clean_rtt     # ...but later than a clean send
    assert counters.messages_dropped == 1
    assert counters.retransmissions == 1
    assert counters.timeouts == 1
    assert counters.timeout_cycles > 0


def test_duplicate_suppressed_at_receiver(atm, engine, counters):
    net = ReliableNetwork(atm, FaultPlan(
        schedule=parse_schedule("dup:diff_request")))
    arrived = _deliveries(net, engine, [(0, 1)])
    assert len(arrived[0]) == 1          # one delivery despite two copies
    assert counters.duplicates_dropped == 1


def _fresh_net(plan=None):
    """A fresh 4-node ATM network (optionally fault-wrapped)."""
    from repro.net.atm import AtmNetwork
    from repro.net.overhead import OverheadPreset
    from repro.stats.counters import Counters
    engine = Engine()
    atm = AtmNetwork(engine, 4,
                     bandwidth_bytes_per_sec=30e6 / 8,
                     switch_latency_cycles=400, clock_hz=40e6,
                     overhead=OverheadPreset.USER_LEVEL.build(),
                     counters=Counters())
    net = atm if plan is None else ReliableNetwork(atm, plan)
    return net, engine


def test_jitter_delays_delivery_deterministically():
    base_net, base_engine = _fresh_net()
    base = _deliveries(base_net, base_engine, [(0, 1)])
    plan = FaultPlan(jitter_cycles=500, seed=1)
    net, engine = _fresh_net(plan)
    jittered = _deliveries(net, engine, [(0, 1)])
    again, again_engine = _fresh_net(plan)
    repeat = _deliveries(again, again_engine, [(0, 1)])
    assert jittered[0][0] >= base[0][0]
    assert jittered[0] == repeat[0]      # same seed, same jitter


def test_stall_window_defers_transmission(atm, engine, counters):
    net = ReliableNetwork(atm, FaultPlan(
        stalls=(StallWindow(1, 0, 50_000),)))
    arrived = _deliveries(net, engine, [(0, 1)])
    assert arrived[0][0] >= 50_000
    assert counters.stall_deferrals == 1


def test_loopback_bypasses_fault_plane(atm, engine, counters):
    net = ReliableNetwork(atm, FaultPlan(
        schedule=parse_schedule("drop")))   # drop everything on the wire
    arrived = _deliveries(net, engine, [(2, 2)])
    assert len(arrived[0]) == 1
    assert counters.messages_dropped == 0


def test_exhausted_retries_raise_partition_error(atm, engine, counters):
    net = ReliableNetwork(atm, FaultPlan(
        schedule=parse_schedule("drop:diff_request"), max_retries=2))
    net.send(0, 3, 128, kind=MsgKind.DIFF_REQUEST)
    with pytest.raises(NetworkPartitionError) as err:
        engine.run()
    assert (err.value.src, err.value.dst) == (0, 3)
    assert err.value.kind == "diff_request"
    assert err.value.attempts == 3       # original + 2 retries
    assert err.value.now == engine.now
    assert counters.timeouts == 3
    # Exponential backoff: total timeout wait is rto * (1 + 2 + 4).
    base_rto = max(1, int(net.plan.rto_multiplier *
                          atm.roundtrip_estimate(128)))
    assert counters.timeout_cycles == 7 * base_rto


# ----------------------------------------------------------------------
# Machine wiring: hardware rejection, zero overhead when disabled
# ----------------------------------------------------------------------

def test_hardware_machines_reject_enabled_fault_plans():
    plan = FaultPlan(loss_rate=0.05)
    for factory in (SgiMachine, AllHardwareMachine):
        with pytest.raises(ConfigurationError):
            factory(faults=plan)
        factory(faults=FaultPlan())      # disabled plan is harmless
        factory(faults=None)


def test_disabled_plan_machine_is_byte_identical_to_clean():
    app = SorApp(rows=32, cols=32, iterations=2)
    clean = DecTreadMarksMachine().run(app, 4)
    disabled = DecTreadMarksMachine(faults=FaultPlan()).run(app, 4)
    assert disabled.summary() == clean.summary()
    assert disabled.machine == clean.machine == "treadmarks"


def test_disabled_plan_shares_cache_fingerprint():
    clean = DecTreadMarksMachine()
    disabled = DecTreadMarksMachine(faults=FaultPlan())
    enabled = DecTreadMarksMachine(faults=FaultPlan(loss_rate=0.02))
    assert disabled.fingerprint_data(4) == clean.fingerprint_data(4)
    assert enabled.fingerprint_data(4) != clean.fingerprint_data(4)
    # The 1-proc run is the uniprocessor baseline: no network, no
    # faults — an enabled plan must not fork its cache entry.
    assert enabled.fingerprint_data(1) == clean.fingerprint_data(1)
    # The same holds on every software-DSM machine: one HS node sends
    # no messages either.
    lossy_hs = make_machine("hs", faults=FaultPlan(loss_rate=0.02))
    assert lossy_hs.fingerprint(1) == make_machine("hs").fingerprint(1)


def test_enabled_plan_suffixes_machine_name():
    machine = DecTreadMarksMachine(faults=FaultPlan(loss_rate=0.05))
    assert machine.name.endswith("-loss0.05")


def test_lossy_run_costs_cycles_and_counts_recovery():
    app = SorApp(rows=32, cols=32, iterations=2)
    clean = DecTreadMarksMachine().run(app, 4)
    lossy = DecTreadMarksMachine(
        faults=FaultPlan(loss_rate=0.05, seed=42)).run(app, 4)
    assert lossy.cycles > clean.cycles
    assert lossy.counters.messages_dropped > 0
    assert lossy.counters.retransmissions > 0
    assert lossy.counters.timeout_cycles > 0
    # Recovery never corrupts the computation itself.
    assert lossy.app_output["checksum"] == clean.app_output["checksum"]


# ----------------------------------------------------------------------
# Engine progress watchdog
# ----------------------------------------------------------------------

class _StuckTask:
    """Registered but never progresses: ops_issued frozen at 0."""

    ops_issued = 0
    finished = False

    def __repr__(self):
        return "stuck-task"


def test_watchdog_converts_silent_no_progress_into_deadlock():
    engine = Engine()
    engine.watchdog_cycles = 10_000
    task = _StuckTask()
    engine.register_task(task)

    def heartbeat():
        engine.schedule(1_000, heartbeat)   # events forever, no progress

    engine.schedule(0, heartbeat)
    with pytest.raises(DeadlockError) as err:
        engine.run()
    assert task in err.value.blocked
    assert "no task progress" in err.value.reason
    assert err.value.now >= 10_000


def test_watchdog_event_backstop_catches_same_cycle_churn():
    engine = Engine()
    engine.watchdog_cycles = 10**12
    engine.WATCHDOG_MAX_EVENTS = 1_000
    engine.register_task(_StuckTask())

    def churn():
        engine.schedule(0, churn)           # time never advances

    engine.schedule(0, churn)
    with pytest.raises(DeadlockError) as err:
        engine.run()
    assert "events" in err.value.reason


def test_watchdog_quiet_when_tasks_progress():
    engine = Engine()
    engine.watchdog_cycles = 100

    class Worker:
        ops_issued = 0
        finished = False

    worker = Worker()
    engine.register_task(worker)

    def step(remaining):
        worker.ops_issued += 1
        if remaining:
            engine.schedule(1_000, step, remaining - 1)
        else:
            worker.finished = True

    engine.schedule(0, step, 20)
    engine.run()                             # progresses: no DeadlockError
    assert worker.ops_issued == 21


def test_enabled_plan_arms_machine_watchdog():
    machine = DecTreadMarksMachine(
        faults=FaultPlan(loss_rate=0.01, watchdog_cycles=123_456))
    assert machine.watchdog_cycles == 123_456
    assert DecTreadMarksMachine().watchdog_cycles is None


# ----------------------------------------------------------------------
# Backoff edges: budget boundaries, late duplicates, stalled retries
# ----------------------------------------------------------------------

def _drop_first_n(n):
    """A schedule dropping exactly the first ``n`` diff_request frames."""
    return tuple(FaultRule("drop", kind="diff_request", nth=k)
                 for k in range(1, n + 1))


def test_retry_budget_exactly_not_exhausted(atm, engine, counters):
    """max_retries retries dropped, final attempt delivered: the last
    grain of budget is enough."""
    retries = 3
    net = ReliableNetwork(atm, FaultPlan(
        schedule=_drop_first_n(retries), max_retries=retries))
    arrived = _deliveries(net, engine, [(0, 1)])
    assert len(arrived[0]) == 1
    assert counters.retransmissions == retries
    assert counters.timeouts == retries


def test_retry_budget_exactly_exhausted(atm, engine, counters):
    """One more drop than the budget: the attempt count hits
    1 + max_retries and the timeout raises instead of rearming."""
    retries = 3
    net = ReliableNetwork(atm, FaultPlan(
        schedule=_drop_first_n(retries + 1), max_retries=retries))
    net.send(0, 1, 128, kind=MsgKind.DIFF_REQUEST)
    with pytest.raises(NetworkPartitionError) as err:
        engine.run()
    assert err.value.attempts == retries + 1
    assert counters.timeouts == retries + 1
    # Backoff doubled every round: rto * (2^(retries+1) - 1) total.
    base_rto = max(1, int(net.plan.rto_multiplier *
                          atm.roundtrip_estimate(128)))
    assert counters.timeout_cycles == (2 ** (retries + 1) - 1) * base_rto


def test_duplicate_after_timeout_is_suppressed(atm, engine, counters):
    """Attempt 1 dropped, the retransmission duplicated: both copies
    of attempt 2 arrive after a real timeout, and delivery is still
    exactly-once with the extra copy counted as a dropped duplicate."""
    net = ReliableNetwork(atm, FaultPlan(schedule=(
        FaultRule("drop", kind="diff_request", nth=1),
        FaultRule("dup", kind="diff_request", nth=2))))
    base_rto = max(1, int(net.plan.rto_multiplier *
                          atm.roundtrip_estimate(128)))
    arrived = _deliveries(net, engine, [(0, 1)])
    assert len(arrived[0]) == 1                  # exactly once
    assert arrived[0][0] >= base_rto             # after the timeout wait
    assert counters.timeouts == 1                # the timer really fired
    assert counters.retransmissions == 1
    assert counters.duplicates_dropped == 1      # second copy suppressed


def test_retransmission_defers_under_stall_window(atm, engine, counters):
    """First frame dropped; the receiver stalls over the timeout: the
    retransmission waits for the window to close instead of sending
    into the stall."""
    base_rto = max(1, int(4.0 * atm.roundtrip_estimate(128)))
    window_end = 3 * base_rto
    net = ReliableNetwork(atm, FaultPlan(
        schedule=_drop_first_n(1),
        stalls=(StallWindow(1, 1, window_end),)))
    arrived = _deliveries(net, engine, [(0, 1)])
    assert len(arrived[0]) == 1
    assert counters.stall_deferrals == 1
    assert counters.retransmissions == 1
    assert arrived[0][0] >= window_end           # held until the close
