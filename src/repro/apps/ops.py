"""Operations applications yield to the simulated machine.

The vocabulary deliberately mirrors the ANL PARMACS macros the paper's
programs were written with (§1): shared reads/writes, lock
acquire/release, and barriers, plus explicit compute time and the
unsynchronized bound accesses TSP needs.

``Read``/``Write`` are *block* operations over a byte range of a named
region.  Machine models resolve them at their natural granularity —
cache lines for hardware, pages for the DSM — which is what makes the
paper's problem sizes tractable in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Compute:
    """Pure processor work, in cycles (no shared-memory traffic)."""

    cycles: int

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError(f"compute cycles must be >= 0: {self.cycles}")


@dataclass(frozen=True)
class Read:
    """Read ``nbytes`` of shared data at ``offset`` within ``region``."""

    region: str
    offset: int
    nbytes: int


@dataclass(frozen=True)
class Write:
    """Write ``nbytes`` at ``offset``; ``changed_bytes`` of them differ.

    ``changed_bytes`` defaults to ``nbytes`` (every byte assumed new);
    applications that overwrite data with mostly unchanged values (SOR
    early iterations) pass the true count so the DSM's diffs stay
    small while hardware still moves whole lines.
    """

    region: str
    offset: int
    nbytes: int
    changed_bytes: int = -1

    def __post_init__(self) -> None:
        if self.changed_bytes < 0:
            object.__setattr__(self, "changed_bytes", self.nbytes)
        if self.changed_bytes > self.nbytes:
            raise ValueError(
                f"changed_bytes ({self.changed_bytes}) exceeds nbytes "
                f"({self.nbytes})")


@dataclass(frozen=True)
class Acquire:
    """Acquire a lock (a release-consistency acquire access)."""

    lock: int


@dataclass(frozen=True)
class Release:
    """Release a lock (a release-consistency release access)."""

    lock: int


@dataclass(frozen=True)
class Barrier:
    """Global barrier across all processors."""

    barrier_id: int = 0


@dataclass(frozen=True)
class ReadBound:
    """Read the unsynchronized shared bound; yields back its value."""

    name: str = "bound"


@dataclass(frozen=True)
class UpdateBound:
    """Commit a new bound value (caller must hold the bound's lock).

    Yields back True when the value improved the committed best.
    """

    value: float
    name: str = "bound"

