"""Property-based tests for the direct-mapped cache model.

A reference model — a dict from set to (tag, state) — is driven with
the same operations; the cache must agree with it on every returned
line array (in order), every count, and the full tag/state contents.
Lengths are drawn on both sides of ``SHORT_ACCESS_LINES`` and above
the number of sets, so the per-line path, the numpy path and the
numpy path's chunking of ranges longer than the cache are all driven.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.mem.directcache import (DirectMappedCache, EXCLUSIVE, INVALID,
                                   MODIFIED, SHARED, SHORT_ACCESS_LINES)

LINE = 64
NUM_SETS = 8
#: A cache smaller than the cut-off and one larger than every draw.
SET_COUNTS = (NUM_SETS, 4 * SHORT_ACCESS_LINES)
MAX_LEN = 3 * SHORT_ACCESS_LINES


class ReferenceCache:
    """Line-at-a-time direct-mapped cache (the obvious slow model)."""

    def __init__(self, num_sets=NUM_SETS):
        self.num_sets = num_sets
        self.sets = {}

    def _get(self, line):
        return self.sets.get(line % self.num_sets, (-1, INVALID))

    def access(self, first, last, write):
        hits = 0
        misses, upgrades, dirty_evict, clean_evict = [], [], [], []
        for line in range(first, last):
            s = line % self.num_sets
            tag, state = self._get(line)
            if tag == line and state != INVALID:
                hits += 1
                if write:
                    if state == SHARED:
                        upgrades.append(line)
                    self.sets[s] = (line, MODIFIED)
            else:
                misses.append(line)
                if state == MODIFIED:
                    dirty_evict.append(tag)
                elif state != INVALID:
                    clean_evict.append(tag)
                self.sets[s] = (line, MODIFIED if write else SHARED)
        return hits, misses, upgrades, dirty_evict, clean_evict

    def probe(self, lines):
        """(present, dirty) per line, all read before any change."""
        out = []
        for line in lines:
            tag, state = self._get(line)
            present = tag == line and state != INVALID
            out.append((present, present and state == MODIFIED))
        return out

    def invalidate_lines(self, lines):
        probes = self.probe(lines)
        for line, (present, _dirty) in zip(lines, probes):
            if present:
                self.sets[line % self.num_sets] = (-1, INVALID)
        return (sum(p for p, _ in probes), sum(d for _, d in probes))

    def downgrade_lines(self, lines):
        probes = self.probe(lines)
        for line, (present, _dirty) in zip(lines, probes):
            tag, state = self._get(line)
            if present and state >= EXCLUSIVE:
                self.sets[line % self.num_sets] = (line, SHARED)
        return (sum(p for p, _ in probes), sum(d for _, d in probes))

    def promote(self, lines, state):
        for line in lines:
            tag, _old = self._get(line)
            if tag == line:
                self.sets[line % self.num_sets] = (line, state)

    def contents(self):
        return [self.sets.get(s, (-1, INVALID))
                for s in range(self.num_sets)]

    def resident(self):
        return sorted(tag for tag, state in self.sets.values()
                      if state != INVALID)

    def dirty(self):
        return sorted(tag for tag, state in self.sets.values()
                      if state == MODIFIED)


def contents(cache):
    return list(zip(cache.tags.tolist(), cache.states.tolist()))


ops = st.lists(
    st.tuples(st.integers(0, 40),        # first line
              st.integers(0, MAX_LEN),   # length
              st.booleans()),            # write?
    min_size=1, max_size=12)

# Mostly a few low lines, so lists repeat resident lines often.
line_lists = st.lists(st.integers(0, 24) | st.integers(0, 40 + MAX_LEN),
                      max_size=MAX_LEN)

list_ops = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.integers(0, 40),
                  st.integers(0, MAX_LEN), st.booleans()),
        st.tuples(st.just("invalidate_lines"), line_lists),
        st.tuples(st.just("downgrade_lines"), line_lists),
        st.tuples(st.just("probe_lines"), line_lists),
        st.tuples(st.just("promote"), line_lists,
                  st.sampled_from((SHARED, EXCLUSIVE, MODIFIED))),
        st.tuples(st.sampled_from(("invalidate_range", "downgrade_range",
                                   "present_in_range")),
                  st.integers(0, 40), st.integers(0, MAX_LEN))),
    min_size=1, max_size=16)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SET_COUNTS), ops)
def test_matches_reference_model(num_sets, op_list):
    cache = DirectMappedCache(num_sets * LINE, LINE)
    ref = ReferenceCache(num_sets)
    for first, length, write in op_list:
        res = cache.access(first, first + length, write)
        hits, misses, upgrades, dirty_evict, clean_evict = ref.access(
            first, first + length, write)
        assert res.hits == hits
        assert res.miss_lines.tolist() == misses
        assert res.upgrade_lines.tolist() == upgrades
        assert res.evicted_dirty_lines.tolist() == dirty_evict
        assert res.evicted_clean_lines.tolist() == clean_evict
        assert contents(cache) == ref.contents()
        assert list(cache.resident_lines()) == ref.resident()

    dirty = ref.dirty()
    assert cache.dirty_count() == len(dirty)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SET_COUNTS), list_ops)
@example(NUM_SETS, [("access", 0, 4, True),
                    ("downgrade_lines", [1, 1, 2]),
                    ("access", 0, 4, True),
                    ("invalidate_lines", [1, 1, 2])])
def test_line_list_ops_match_reference_model(num_sets, op_list):
    """Line-list and range operations, duplicates included, on both
    paths."""
    cache = DirectMappedCache(num_sets * LINE, LINE)
    ref = ReferenceCache(num_sets)
    for op in op_list:
        kind = op[0]
        if kind == "access":
            _kind, first, length, write = op
            cache.access(first, first + length, write)
            ref.access(first, first + length, write)
        elif kind.endswith("_range"):
            _kind, first, length = op
            got = getattr(cache, kind)(first, first + length)
            lines = list(range(first, first + length))
            if kind == "present_in_range":
                assert got == sum(p for p, _ in ref.probe(lines))
            else:
                assert got == getattr(ref, kind[:-len("range")] + "lines")(
                    lines)
        else:
            lines = np.array(op[1], dtype=np.int64)
            if kind == "probe_lines":
                present, dirty = cache.probe_lines(lines)
                assert present.dtype == dirty.dtype == bool
                assert list(zip(present.tolist(), dirty.tolist())) == \
                    ref.probe(op[1])
            elif kind == "promote":
                cache.promote(lines, op[2])
                ref.promote(op[1], op[2])
            else:
                assert getattr(cache, kind)(lines) == \
                    getattr(ref, kind)(op[1])
        assert contents(cache) == ref.contents()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SET_COUNTS), ops, st.integers(0, 40),
       st.integers(0, MAX_LEN))
def test_invalidate_clears_exactly_range(num_sets, op_list, first, length):
    cache = DirectMappedCache(num_sets * LINE, LINE)
    for f, ln, w in op_list:
        cache.access(f, f + ln, w)
    before = set(cache.resident_lines())
    dirty_before = {int(l) for l in cache.tags[cache.states == MODIFIED]}
    present, dirty = cache.invalidate_range(first, first + length)
    after = set(cache.resident_lines())
    cleared = before - after
    assert cleared == {l for l in before if first <= l < first + length}
    assert present == len(cleared)
    assert dirty == len(cleared & dirty_before)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SET_COUNTS), ops)
def test_flush_returns_dirty_count(num_sets, op_list):
    cache = DirectMappedCache(num_sets * LINE, LINE)
    for f, ln, w in op_list:
        cache.access(f, f + ln, w)
    dirty = cache.dirty_count()
    assert cache.flush() == dirty
    assert cache.resident_count() == 0
