"""Host-speed calibration: normalizing host times on a drifting host.

The host's speed drifts by tens of percent within seconds when other
machines share it.  While a block runs, :func:`sampling` times a short
pure-Python calibration loop every :data:`SAMPLE_INTERVAL_S` from a
timer signal; :meth:`HostSpeed.normalize` takes the samples' own time
back out and rescales what is left to a host on which the loop takes
:data:`REFERENCE_CAL_S`.

This module imports nothing from ``repro``, so a fresh interpreter can
start sampling before it imports the simulator.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, List, Optional

#: Iterations of the calibration loop.
CALIBRATION_LOOPS = 3_000

#: Seconds the calibration loop takes on the reference host.
REFERENCE_CAL_S = 0.0012

#: How a host time scales with the calibration loop's as the host's
#: speed drifts: the loop, tight and cache-resident, slows more than
#: the simulator does.  Over 13-25 passes of water_locks and
#: tsp_search on a 2-vCPU VM, 0.8 gave the least spread of normalized
#: cell times (0.5, 0.6, 0.7 and 1.0 were tried).
SENSITIVITY = 0.8

#: Seconds between calibration samples.
SAMPLE_INTERVAL_S = 0.05


class _Tally:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, x: int) -> int:
        self.value = (self.value + x) & 0xFFFF
        return self.value


# The loop's working data, built once so that a sample allocates no
# object the garbage collector tracks (a collection of the simulator's
# heap must never land inside a sample), and small enough to stay in
# the L1 cache (so the sample measures the host, not how much of the
# cache the simulator just evicted).
_CAL_LIST = list(range(256))
_CAL_TABLE = dict.fromkeys(range(64), 0)
_CAL_TALLY = _Tally()


def calibrate() -> float:
    """Seconds the fixed calibration loop takes on this host right now.

    The loop mixes integer arithmetic, list indexing, dict stores and
    method calls, the interpreter work the simulator spends its time
    on.
    """
    data, table, tally = _CAL_LIST, _CAL_TABLE, _CAL_TALLY
    start = time.perf_counter()
    j = 0
    for i in range(CALIBRATION_LOOPS):
        j = (j * 1103515245 + 12345) & 255
        table[j & 63] = data[j] + i
        tally.add(j & 7)
    return time.perf_counter() - start


@dataclass
class HostSpeed:
    """Calibration samples taken by :func:`sampling`."""

    samples: List[float]
    #: Seconds the samples taken inside the block cost it.
    spent: float = 0.0

    def factor(self) -> float:
        """Reference-host seconds per host second over the block.

        Samples are evenly spaced in time, so the mean of their speed
        factors weighs each stretch of the block by its length: a host
        that flips between a fast and a slow state is charged for the
        time it spent in each.
        """
        return statistics.fmean((REFERENCE_CAL_S / sample) ** SENSITIVITY
                                for sample in self.samples)

    def normalize(self, seconds: float) -> float:
        """``seconds`` of host time that the block took, samples
        included, as reference-host seconds with the samples taken
        out."""
        return (seconds - self.spent) * self.factor()


@contextmanager
def sampling(on_sample: Optional[Callable[[float], None]] = None
             ) -> Iterator[HostSpeed]:
    """Sample the calibration loop before and throughout the block.

    Must run in the main thread.  ``on_sample(seconds)``, if given, is
    called after each sample inside the block.
    """
    speed = HostSpeed([calibrate()])

    def on_timer(_signum: int, _frame: Any) -> None:
        took = calibrate()
        speed.samples.append(took)
        speed.spent += took
        if on_sample is not None:
            on_sample(took)

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                     SAMPLE_INTERVAL_S)
    try:
        yield speed
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
