"""Operation dataclasses and their validation."""

import pytest

from repro.apps import ops


def test_compute_rejects_negative():
    with pytest.raises(ValueError):
        ops.Compute(-1)
    assert ops.Compute(0).cycles == 0


def test_write_changed_defaults_to_nbytes():
    w = ops.Write("r", 0, 100)
    assert w.changed_bytes == 100


def test_write_changed_explicit():
    w = ops.Write("r", 0, 100, changed_bytes=7)
    assert w.changed_bytes == 7
    z = ops.Write("r", 0, 100, changed_bytes=0)
    assert z.changed_bytes == 0


def test_write_changed_cannot_exceed_size():
    with pytest.raises(ValueError):
        ops.Write("r", 0, 100, changed_bytes=101)


def test_ops_hashable_and_frozen():
    a = ops.Read("r", 0, 8)
    b = ops.Read("r", 0, 8)
    assert a == b and hash(a) == hash(b)
    with pytest.raises(Exception):
        a.offset = 5


def test_barrier_default_id():
    assert ops.Barrier().barrier_id == 0
    assert ops.Barrier(3).barrier_id == 3


def test_bound_ops_defaults():
    assert ops.ReadBound().name == "bound"
    u = ops.UpdateBound(42.0)
    assert u.value == 42.0 and u.name == "bound"

