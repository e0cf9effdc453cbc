"""Mapping from application operations to trace categories.

Lives outside the tracer core so :mod:`repro.sim.engine` can import
the tracer without dragging in the application layer.
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.apps import ops
from repro.trace.tracer import Category

_OP_MAP: Dict[type, Tuple[Category, str]] = {
    ops.Compute: (Category.COMPUTE, "compute"),
    ops.Read: (Category.MISS, "read"),
    ops.Write: (Category.MISS, "write"),
    ops.Acquire: (Category.SYNC, "acquire"),
    ops.Release: (Category.SYNC, "release"),
    ops.Barrier: (Category.SYNC, "barrier"),
    ops.ReadBound: (Category.SYNC, "read_bound"),
    ops.UpdateBound: (Category.SYNC, "update_bound"),
}


def op_category(op: Any) -> Tuple[Category, str]:
    """Trace (category, name) of one yielded operation."""
    entry = _OP_MAP.get(type(op))
    if entry is None:
        return Category.COMPUTE, type(op).__name__.lower()
    return entry
