"""Intervals, write notices, and the interval log."""

import pytest

from repro.dsm.interval import (INTERVAL_HEADER_BYTES, NOTICE_RUN_BYTES,
                                Interval, IntervalLog)
from repro.dsm.vectorclock import VectorClock


def make_interval(node, index, pages, width=3):
    vc = [0] * width
    vc[node] = index
    return Interval(node, index, tuple(vc), dict.fromkeys(pages, 100))


def test_notice_runs_contiguous_pages_compress():
    iv = make_interval(0, 1, range(10, 260))
    assert iv.num_notices == 250
    assert iv.notice_runs() == 1
    assert iv.wire_bytes() == INTERVAL_HEADER_BYTES + NOTICE_RUN_BYTES


def test_notice_runs_scattered_pages_do_not_compress():
    iv = make_interval(0, 1, [1, 3, 5, 7])
    assert iv.notice_runs() == 4
    assert iv.wire_bytes() == \
        INTERVAL_HEADER_BYTES + 4 * NOTICE_RUN_BYTES


def test_empty_interval():
    iv = Interval(0, 1, (1, 0, 0))
    assert iv.notice_runs() == 0
    assert iv.wire_bytes() == INTERVAL_HEADER_BYTES


def test_diff_pending_tracking():
    iv = make_interval(0, 1, [5])
    assert iv.diff_pending(5)
    iv.diffs_made.add(5)
    assert not iv.diff_pending(5)
    assert not iv.diff_pending(99)  # never dirtied


def test_log_enforces_order():
    log = IntervalLog(2)
    log.append(make_interval(0, 1, [1], width=2))
    with pytest.raises(ValueError):
        log.append(make_interval(0, 3, [2], width=2))
    log.append(make_interval(0, 2, [2], width=2))
    assert log.node_count(0) == 2
    assert log.node_count(1) == 0
    assert log.get(0, 2).pages == {2: 100}


def test_newer_than_selects_unseen_intervals():
    log = IntervalLog(2)
    for i in (1, 2, 3):
        log.append(make_interval(0, i, [i], width=2))
    log.append(make_interval(1, 1, [9], width=2))

    seen = VectorClock(entries=[1, 0])
    upto = VectorClock(entries=[3, 1])
    got = [(iv.node, iv.index) for iv in log.newer_than(seen, upto)]
    assert got == [(0, 2), (0, 3), (1, 1)]


def test_newer_than_clamps_to_log_length():
    log = IntervalLog(2)
    log.append(make_interval(0, 1, [1], width=2))
    seen = VectorClock(entries=[0, 0])
    upto = VectorClock(entries=[5, 5])   # beyond what exists
    got = list(log.newer_than(seen, upto))
    assert len(got) == 1


def test_notices_between_and_consistency_bytes():
    log = IntervalLog(2)
    log.append(make_interval(0, 1, [1, 2, 3], width=2))
    seen = VectorClock(entries=[0, 0])
    upto = VectorClock(entries=[1, 0])
    expected = (upto.wire_bytes() + INTERVAL_HEADER_BYTES +
                NOTICE_RUN_BYTES)  # pages 1..3 are one run
    assert log.notices_and_bytes(seen, upto) == (3, expected)


def test_equal_clocks_nothing_new():
    log = IntervalLog(2)
    log.append(make_interval(0, 1, [1], width=2))
    vc = VectorClock(entries=[1, 0])
    assert log.notices_and_bytes(vc, vc) == (0, vc.wire_bytes())
