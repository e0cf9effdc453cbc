"""Directory-based coherence over the crossbar."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.check import CheckConfig, ConsistencyViolation, DirectoryChecker
from repro.hw.directory import DirectorySystem, popcount
from repro.mem import directcache
from repro.mem.directcache import (DirectMappedCache, MODIFIED,
                                   SHORT_ACCESS_LINES)
from repro.net.crossbar import CrossbarNetwork
from repro.sim.engine import Engine
from repro.stats.counters import Counters

LINE = 64
LINES_PER_PAGE = 64
TOTAL_LINES = 8 * LINES_PER_PAGE
#: Access lengths on both sides of the short-path cut-off and above
#: the default 16-line test cache.
MAX_LEN = 3 * SHORT_ACCESS_LINES


def make_system(nprocs=4, cache_lines=16):
    counters = Counters()
    engine = Engine()
    caches = [DirectMappedCache(cache_lines * LINE, LINE, name=f"c{i}")
              for i in range(nprocs)]
    xbar = CrossbarNetwork(engine, nprocs, bandwidth_bytes_per_sec=200e6,
                           latency_cycles=10, clock_hz=100e6,
                           counters=counters)
    system = DirectorySystem(
        caches, xbar, counters,
        total_lines=TOTAL_LINES, lines_per_page=LINES_PER_PAGE,
        line_bytes=LINE, local_miss_cycles=20,
        remote_clean_cycles=90, remote_dirty_cycles=130)
    return system, counters


def check_directory(system):
    """Full directory/cache agreement sweep; raises on a violation."""
    DirectoryChecker(system, CheckConfig()).finish()


def test_popcount():
    values = np.array([0, 1, 3, 0xFF, 2**63], dtype=np.uint64)
    assert list(popcount(values)) == [0, 1, 2, 8, 1]


def test_too_many_procs_rejected():
    counters = Counters()
    engine = Engine()
    caches = [DirectMappedCache(LINE, LINE) for _ in range(65)]
    xbar = CrossbarNetwork(engine, 65, bandwidth_bytes_per_sec=1e6,
                           latency_cycles=1, clock_hz=1e6,
                           counters=counters)
    with pytest.raises(Exception):
        DirectorySystem(caches, xbar, counters, total_lines=10,
                        lines_per_page=1, line_bytes=LINE)


def test_first_touch_homing():
    system, counters = make_system()
    system.read(2, 0, 4, now=0)
    assert list(system.home_of(np.arange(4))) == [2, 2, 2, 2]
    # Re-reads by others keep the established home.
    system.read(1, 0, 4, now=100)
    assert list(system.home_of(np.arange(4))) == [2, 2, 2, 2]


def test_local_vs_remote_latency():
    system, _ = make_system()
    t_first = system.read(0, 0, 4, now=0) - 0
    system.caches[0].flush()
    t_local = system.read(0, 0, 4, now=0) - 0
    system.caches[1].flush()
    t_remote_end = system.read(1, 0, 4, now=0)
    assert t_local <= t_first  # same class (local once homed)
    assert t_remote_end > t_local  # remote-clean costs 90 > 20


def test_dirty_remote_costs_most_and_flushes_owner():
    system, counters = make_system()
    system.write(0, 0, 1, now=0)
    assert system.owner[0] == 0
    end = system.read(1, 0, 1, now=1000)
    assert end - 1000 >= 130
    assert system.owner[0] == -1
    assert system.caches[0].state_of(0) != MODIFIED
    assert counters.cache_to_cache == 1


def test_write_invalidates_all_sharers():
    system, counters = make_system()
    for proc in (0, 1, 2):
        system.read(proc, 0, 4, now=0)
    system.write(3, 0, 4, now=100)
    for proc in (0, 1, 2):
        assert system.caches[proc].present_in_range(0, 4) == 0
    assert counters.invalidations >= 8  # two other sharers x 4 lines
    assert (system.sharers[np.arange(4)] ==
            np.uint64(1) << np.uint64(3)).all()
    assert (system.owner[np.arange(4)] == 3).all()


def test_eviction_deregisters():
    system, _ = make_system(cache_lines=4)
    system.write(0, 0, 4, now=0)
    # Reading 4 conflicting lines evicts the dirty ones.
    system.read(0, 4, 8, now=100)
    assert (system.owner[np.arange(4)] == -1).all()
    check_directory(system)


def test_bulk_refetch_in_one_access_keeps_registration():
    """A bulk access longer than the cache may evict a line in one
    chunk and refetch it in a later chunk of the same access (with 8
    sets, write(15, 34) evicts line 32 when line 24 fills set 0, then
    write(24, 33)'s second chunk refetches it).  The refetched copy
    ends the access resident, so it must stay directory-registered —
    a deregistered-but-resident copy would be invisible to later
    invalidations.
    """
    system, _ = make_system(cache_lines=8)
    system.write(1, 15, 34, now=0)
    system.write(1, 24, 33, now=10_000)
    assert system.caches[1].state_of(32) == MODIFIED
    assert system.owner[32] == 1
    assert system.sharers[32] == np.uint64(1) << np.uint64(1)
    check_directory(system)
    # The interim eviction's writeback must still invalidate cleanly:
    # another writer takes the line over in full.
    system.write(2, 32, 33, now=20_000)
    assert system.caches[1].state_of(32) != MODIFIED
    assert system.owner[32] == 2


def test_directory_invariants_after_random_script(rng):
    system, _ = make_system()
    now = 0
    for _ in range(100):
        proc = int(rng.integers(4))
        first = int(rng.integers(0, 30))
        length = int(rng.integers(1, MAX_LEN))
        if rng.random() < 0.5:
            now = system.read(proc, first, first + length, now)
        else:
            now = system.write(proc, first, first + length, now)
    check_directory(system)


def test_check_invariants_catches_unowned_modified_line():
    system, _ = make_system()
    system.write(0, 0, 1, now=0)
    check_directory(system)
    system.owner[0] = -1
    with pytest.raises(ConsistencyViolation, match="MODIFIED"):
        check_directory(system)


def _run_script(script):
    system, counters = make_system()
    now = 0
    ends = []
    for proc, write, first, length in script:
        op = system.write if write else system.read
        now = op(proc, first, first + length, now)
        ends.append(now)
    # Types too: a numpy scalar leaking into a counter would change
    # how results serialise.
    return ([(end, type(end)) for end in ends],
            {k: (v, type(v)) for k, v in counters.as_dict().items()},
            system.owner.tolist(),
            system.sharers.tolist(), system._page_home.tolist(),
            [(c.tags.tolist(), c.states.tolist()) for c in system.caches])


scripts = st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                             st.integers(0, 30), st.integers(1, MAX_LEN)),
                   min_size=1, max_size=40)


@settings(max_examples=50, deadline=None)
@given(scripts)
def test_short_path_matches_numpy_path(script):
    """Per-line and numpy paths: same times, counters and state."""
    short = _run_script(script)
    with mock.patch.object(directcache, "SHORT_ACCESS_LINES", 0):
        bulk = _run_script(script)
    assert short == bulk


@settings(max_examples=50, deadline=None)
@given(scripts)
def test_single_writer_property(script):
    """No line is ever MODIFIED in two caches at once."""
    system, _ = make_system()
    now = 0
    for proc, write, first, length in script:
        if write:
            now = system.write(proc, first, first + length, now)
        else:
            now = system.read(proc, first, first + length, now)
    states = np.stack([c.states for c in system.caches])
    tags = np.stack([c.tags for c in system.caches])
    for line in range(31 + MAX_LEN):
        holders = 0
        for p in range(4):
            s = line % system.caches[p].num_sets
            if tags[p, s] == line and states[p, s] == MODIFIED:
                holders += 1
        assert holders <= 1
