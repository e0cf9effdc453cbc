"""Illinois snooping coherence."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.hw.snoop import SnoopingSystem
from repro.mem import directcache
from repro.mem.directcache import (DirectMappedCache, EXCLUSIVE, INVALID,
                                   MODIFIED, SHARED, SHORT_ACCESS_LINES)
from repro.net.bus import BusModel, BusTiming
from repro.stats.counters import Counters

LINE = 64


#: Access lengths on both sides of the short-path cut-off and above
#: the 16-line test caches.
MAX_LEN = 3 * SHORT_ACCESS_LINES


def make_system():
    counters = Counters()
    caches = [DirectMappedCache(16 * LINE, LINE, name=f"c{i}")
              for i in range(4)]
    bus = BusModel("bus", BusTiming(), counters)
    return SnoopingSystem(caches, bus, counters, line_bytes=LINE,
                          hit_cycles=1.0, memory_extra_cycles=10), counters


@pytest.fixture
def system():
    return make_system()


def test_cold_read_fills_exclusive(system):
    snoop, counters = system
    end = snoop.read(0, 0, 4, now=0)
    assert end > 0
    assert all(snoop.caches[0].state_of(l) == EXCLUSIVE for l in range(4))
    assert counters.bus_transactions == 4


def test_second_reader_shares(system):
    snoop, _counters = system
    snoop.read(0, 0, 4, now=0)
    snoop.read(1, 0, 4, now=0)
    # The second reader fills SHARED (someone else has copies).
    assert all(snoop.caches[1].state_of(l) == SHARED for l in range(4))
    # Illinois: the first reader's E copies survive a read (stay valid).
    assert all(snoop.caches[0].state_of(l) != INVALID for l in range(4))


def test_read_hits_cost_no_bus(system):
    snoop, counters = system
    snoop.read(0, 0, 4, now=0)
    before = counters.bus_transactions
    end = snoop.read(0, 0, 4, now=1000)
    assert counters.bus_transactions == before
    assert end == 1000 + 4  # 4 hits x 1 cycle


def test_write_invalidates_other_copies(system):
    snoop, counters = system
    snoop.read(0, 0, 4, now=0)
    snoop.read(1, 0, 4, now=0)
    snoop.write(1, 0, 4, now=100)
    assert all(snoop.caches[0].state_of(l) == INVALID for l in range(4))
    assert all(snoop.caches[1].state_of(l) == MODIFIED for l in range(4))
    assert counters.invalidations == 4


def test_dirty_supplier_downgraded_on_read(system):
    snoop, counters = system
    snoop.write(0, 0, 2, now=0)
    snoop.read(1, 0, 2, now=100)
    assert counters.cache_to_cache == 2
    assert all(snoop.caches[0].state_of(l) == SHARED for l in range(2))


def test_write_flushes_remote_dirty(system):
    snoop, counters = system
    snoop.write(0, 0, 2, now=0)
    snoop.write(1, 0, 2, now=100)
    assert all(snoop.caches[0].state_of(l) == INVALID for l in range(2))
    assert all(snoop.caches[1].state_of(l) == MODIFIED for l in range(2))


def test_bus_contention_serializes(system):
    snoop, _counters = system
    end0 = snoop.read(0, 0, 8, now=0)
    end1 = snoop.read(1, 8, 16, now=0)   # disjoint lines, same bus
    assert end1 > end0 or end0 > 8  # one of them waited for the bus


def test_single_writer_invariant(system):
    """At most one cache holds a line MODIFIED, ever."""
    snoop, _counters = system
    script = [(0, "w", 0, 4), (1, "r", 0, 4), (2, "w", 2, 6),
              (0, "r", 2, 4), (3, "w", 0, 8), (1, "w", 4, 6)]
    now = 0
    for proc, kind, first, last in script:
        if kind == "w":
            now = snoop.write(proc, first, last, now)
        else:
            now = snoop.read(proc, first, last, now)
        for line in range(0, 8):
            holders = [c for c in snoop.caches
                       if c.state_of(line) == MODIFIED]
            others = [c for c in snoop.caches
                      if c.state_of(line) in (SHARED, EXCLUSIVE)]
            assert len(holders) <= 1
            if holders:
                assert not others, f"M + valid copies for line {line}"


scripts = st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                             st.integers(0, 30), st.integers(1, MAX_LEN)),
                   min_size=1, max_size=40)


def _run_script(script):
    snoop, counters = make_system()
    now = 0
    ends = []
    for proc, write, first, length in script:
        op = snoop.write if write else snoop.read
        now = op(proc, first, first + length, now)
        ends.append(now)
    # Types too: a numpy scalar leaking into a counter would change
    # how results serialise.
    return ([(end, type(end)) for end in ends],
            {k: (v, type(v)) for k, v in counters.as_dict().items()},
            [(c.tags.tolist(), c.states.tolist()) for c in snoop.caches])


@settings(max_examples=50, deadline=None)
@given(scripts)
def test_random_script_keeps_swmr(script):
    """A line held EXCLUSIVE or MODIFIED is resident in one cache only."""
    _ends, _counters, caches = _run_script(script)
    holders = {}
    for tags, states in caches:
        for tag, state in zip(tags, states):
            if state != INVALID:
                holders.setdefault(tag, []).append(state)
    for line, states in holders.items():
        if len(states) > 1:
            assert all(s == SHARED for s in states), (line, states)


@settings(max_examples=50, deadline=None)
@given(scripts)
def test_short_path_matches_numpy_path(script):
    """Per-line and numpy paths: same times, counters and state."""
    short = _run_script(script)
    with mock.patch.object(directcache, "SHORT_ACCESS_LINES", 0):
        bulk = _run_script(script)
    assert short == bulk
