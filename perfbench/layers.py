"""Per-layer host-time attribution, installed from outside ``src/``.

:func:`profiling` wraps, for the duration of a ``with`` block:

* the public methods of the classes that make up each layer (table
  :data:`CLASS_LAYERS`), generator methods included;
* the generators that ``Application.programs`` returns (program
  compute) and the apps' ``init_data`` / ``verify`` (app set-up);
* the callable handed to ``Engine.schedule_at``, so that every engine
  callback, private protocol handlers included, is a span of the layer
  whose module defines it (table :data:`MODULE_LAYERS`);
* ``Engine.run``, ``Machine.run``, ``execute_plan`` and
  ``ResultCache.put``.

Every span adds its duration minus its child spans (its *self* time)
to its layer, so the layer times partition the traced wall time.  A
span counts as a *call* of its layer only when it enters the layer
from another one.  Spans are aggregated in memory per
``(layer, name)`` and read out when the block ends.  Leaving the block
puts back every wrapped attribute, byte for byte.

Wrappers only observe: they return what the wrapped callable returns,
and the benchmark checks that traced passes reproduce the pinned
digests of untraced ones.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from numbers import Integral
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

import repro.apps        # noqa: F401  (loads every Application subclass)
import repro.machines    # noqa: F401  (loads every Runtime subclass)
from repro.apps.base import Application
from repro.check.checker import BaseChecker
from repro.dsm.barriers import DsmBarrierBase
from repro.dsm.interval import IntervalLog
from repro.dsm.locks import DsmLocks
from repro.dsm.pagetable import NodePages
from repro.dsm.protocol import TreadMarksDsm
from repro.harness import parallel
from repro.harness.cache import ResultCache
from repro.hw.directory import DirectorySystem
from repro.hw.snoop import SnoopingSystem
from repro.hw.sync import HwBarrier, HwLockTable
from repro.machines.base import Machine, Runtime
from repro.mem.directcache import DirectMappedCache
from repro.mem.store import SharedStore
from repro.net.atm import AtmNetwork
from repro.net.bus import BusModel
from repro.net.crossbar import CombiningStage, CrossbarNetwork
from repro.net.overhead import SoftwareOverhead
from repro.net.reliable import ReliableNetwork
from repro.sim.engine import Engine

from perfbench.cells import run_pass

#: Layer of each wrapped class; subclasses join their base's layer.
CLASS_LAYERS: Tuple[Tuple[type, str], ...] = (
    (Runtime, "machines"),
    (TreadMarksDsm, "dsm.protocol"),
    (IntervalLog, "dsm.interval"),
    (NodePages, "dsm.pages"),
    (DsmLocks, "dsm.sync"),
    (DsmBarrierBase, "dsm.sync"),
    (AtmNetwork, "net"),
    (CrossbarNetwork, "net"),
    (CombiningStage, "net"),
    (BusModel, "net"),
    (SoftwareOverhead, "net"),
    (ReliableNetwork, "net"),
    (SnoopingSystem, "hw"),
    (DirectorySystem, "hw"),
    (HwLockTable, "hw"),
    (HwBarrier, "hw"),
    (DirectMappedCache, "mem.cache"),
    (SharedStore, "mem.store"),
    (BaseChecker, "check"),
)

#: Layer of an engine callback, by the module that defines it; the
#: longest matching prefix wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.task", "sim.step"),
    ("repro.sim", "sim.step"),
    ("repro.machines", "machines"),
    ("repro.dsm.interval", "dsm.interval"),
    ("repro.dsm.pagetable", "dsm.pages"),
    ("repro.dsm.locks", "dsm.sync"),
    ("repro.dsm.barriers", "dsm.sync"),
    ("repro.sync", "dsm.sync"),
    ("repro.dsm", "dsm.protocol"),
    ("repro.recover", "dsm.protocol"),
    ("repro.net", "net"),
    ("repro.hw", "hw"),
    ("repro.mem.directcache", "mem.cache"),
    ("repro.mem", "mem.store"),
    ("repro.check", "check"),
    ("repro.apps", "apps.compute"),
)

#: Every layer a span can land in.
LAYERS = ("harness.plan", "harness.cache_put", "machines.run", "sim.loop",
          "sim.step", "apps.compute", "apps.setup", "machines",
          "dsm.protocol", "dsm.interval", "dsm.pages", "dsm.sync", "net",
          "hw", "mem.cache", "mem.store", "check", "other")

# Per-(layer, name) aggregate: [calls, self seconds, cache lines].
_CALLS, _SELF, _LINES = 0, 1, 2


def _all_subclasses(cls: type) -> List[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_all_subclasses(sub))
    return out


def _module_layer(module: str) -> str:
    best, layer = -1, "other"
    for prefix, name in MODULE_LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > best:
            best, layer = len(prefix), name
    return layer


def _lines_covered(args: tuple) -> int:
    """Cache lines a ``DirectMappedCache`` call covers.

    Range calls take ``(first_line, last_line)`` half-open; the others
    take an array of lines or a single line.
    """
    if len(args) > 1 and isinstance(args[1], np.ndarray):
        return int(args[1].size)
    if len(args) > 2 and isinstance(args[1], Integral) \
            and isinstance(args[2], Integral):
        return max(int(args[2]) - int(args[1]), 0)
    if len(args) > 1 and isinstance(args[1], Integral):
        return 1
    return 0


class Profile:
    """In-memory span aggregates, filled while :func:`profiling` is active."""

    def __init__(self) -> None:
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        # Open spans: [start, child seconds, layer].
        self._stack: List[list] = []
        self._callbacks: Dict[Any, Tuple[str, List[float]]] = {}

    # -- reading --------------------------------------------------------
    def snapshot(self) -> Dict[Tuple[str, str], Tuple[float, ...]]:
        """A copy of the aggregates, for :meth:`since`."""
        return {key: tuple(value) for key, value in self.stats.items()}

    def since(self, before: Dict[Tuple[str, str], Tuple[float, ...]]
              ) -> Dict[Tuple[str, str], Tuple[float, ...]]:
        """Aggregates accumulated after ``before`` was taken."""
        out = {}
        for key, value in self.stats.items():
            base = before.get(key, (0, 0.0, 0))
            delta = tuple(v - b for v, b in zip(value, base))
            if any(delta):
                out[key] = delta
        return out

    # -- recording ------------------------------------------------------
    def _entry(self, layer: str, name: str) -> List[float]:
        return self.stats.setdefault((layer, name), [0, 0.0, 0])

    def wrap(self, fn: Callable, layer: str, name: str,
             lines: bool = False) -> Callable:
        """``fn`` with a span of ``layer`` around every call.

        A generator function's spans are its resumptions; its call is
        counted when the generator is created.
        """
        entry = self._entry(layer, name)
        stack = self._stack
        if not inspect.isgeneratorfunction(fn):
            return functools.wraps(fn)(_timed(fn, entry, stack, layer, lines))

        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            if not stack or stack[-1][2] != layer:
                entry[_CALLS] += 1
            return TimedGenerator(fn(*args, **kwargs), entry, stack, layer)

        return generator_wrapper

    def wrap_callback(self, fn: Callable) -> Callable:
        """An engine callback as a span of its defining module's layer."""
        target = fn.func if isinstance(fn, functools.partial) else fn
        target = getattr(target, "__func__", target)   # bound method
        # Closures and lambdas are new objects per event; their code
        # object is shared, so it keys the aggregate.
        original = getattr(target, "__wrapped__", target)
        key = getattr(original, "__code__", type(original))
        known = self._callbacks.get(key)
        if known is None:
            module = getattr(target, "__module__", None) or ""
            name = getattr(target, "__qualname__", type(target).__name__)
            layer = _module_layer(module)
            known = self._callbacks[key] = (
                layer, self._entry(layer, f"{module}.{name}"))
        layer, entry = known
        return _timed(fn, entry, self._stack, layer)


def _timed(fn: Callable, entry: List[float], stack: List[list], layer: str,
           lines: bool = False) -> Callable:
    """``fn`` inside a span of ``layer`` that adds to ``entry``."""
    clock = time.perf_counter

    def timed(*args, **kwargs):
        if not stack or stack[-1][2] != layer:
            entry[_CALLS] += 1
            if lines:
                entry[_LINES] += _lines_covered(args)
        frame = [clock(), 0.0, layer]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            elapsed = clock() - frame[0]
            entry[_SELF] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

    return timed


class TimedGenerator:
    """A generator proxy whose every resumption is a span of one layer."""

    __slots__ = ("_gen", "_entry", "_stack", "_layer")

    def __init__(self, gen: Any, entry: List[float], stack: List[list],
                 layer: str) -> None:
        self._gen = gen
        self._entry = entry
        self._stack = stack
        self._layer = layer

    def __iter__(self) -> "TimedGenerator":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def send(self, value: Any) -> Any:
        stack = self._stack
        frame = [time.perf_counter(), 0.0, self._layer]
        stack.append(frame)
        try:
            return self._gen.send(value)
        finally:
            stack.pop()
            elapsed = time.perf_counter() - frame[0]
            self._entry[_SELF] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

    def throw(self, *args: Any) -> Any:
        return self._gen.throw(*args)

    def close(self) -> None:
        self._gen.close()


def _public_methods(cls: type) -> Iterator[Tuple[str, Callable]]:
    for name, value in list(vars(cls).items()):
        if not name.startswith("_") and inspect.isfunction(value):
            yield name, value


def _patch_plan(profile: Profile) -> List[Tuple[Any, str, Any]]:
    """``(owner, attribute, wrapper)`` for everything :func:`profiling` wraps."""
    patches: List[Tuple[Any, str, Any]] = []

    def add(owner: Any, attr: str, layer: str, lines: bool = False) -> None:
        fn = vars(owner)[attr]
        name = f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
        patches.append((owner, attr, profile.wrap(fn, layer, name, lines)))

    seen = set()
    for base, layer in CLASS_LAYERS:
        for cls in _all_subclasses(base):
            if cls in seen:
                continue
            seen.add(cls)
            for attr, _fn in _public_methods(cls):
                add(cls, attr, layer, lines=cls is DirectMappedCache)

    for cls in _all_subclasses(Application):
        own = vars(cls)
        for attr in ("init_data", "verify"):
            if attr in own:
                add(cls, attr, "apps.setup")
        if "programs" in own:
            patches.append((cls, "programs",
                            _timed_programs(profile, own["programs"])))

    add(Engine, "run", "sim.loop")
    add(Machine, "run", "machines.run")
    add(parallel, "execute_plan", "harness.plan")
    add(ResultCache, "put", "harness.cache_put")

    original = vars(Engine)["schedule_at"]

    @functools.wraps(original)
    def schedule_at(self, at, fn, *args):
        return original(self, at, profile.wrap_callback(fn), *args)

    patches.append((Engine, "schedule_at", schedule_at))
    return patches


def _timed_programs(profile: Profile, programs: Callable) -> Callable:
    entry = profile._entry("apps.compute", "programs")

    @functools.wraps(programs)
    def wrapper(self, ctx):
        gens = programs(self, ctx)
        entry[_CALLS] += len(gens)
        return [TimedGenerator(gen, entry, profile._stack, "apps.compute")
                for gen in gens]

    return wrapper


@contextmanager
def profiling() -> Iterator[Profile]:
    """Install every wrapper; restore every original attribute on exit."""
    profile = Profile()
    patches = _patch_plan(profile)
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _wrapper in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield profile
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


# ======================================================================
# Per-layer metrics
# ======================================================================
def layer_totals(stats: Dict[Tuple[str, str], Tuple[float, ...]]
                 ) -> Dict[str, List[float]]:
    """Sum ``(calls, self seconds, lines)`` over the names of each layer."""
    out = {layer: [0, 0.0, 0] for layer in LAYERS}
    for (layer, _name), value in stats.items():
        row = out.setdefault(layer, [0, 0.0, 0])
        for i, v in enumerate(value):
            row[i] += v
    return out


def _handle_calls(stats: Dict[Tuple[str, str], Tuple[float, ...]]) -> int:
    return int(sum(value[_CALLS] for (layer, name), value in stats.items()
                   if layer == "machines" and name.endswith(".handle")))


def layer_metrics(stats: Dict[Tuple[str, str], Tuple[float, ...]]
                  ) -> Dict[str, float]:
    """Host-time per-layer metrics from one traced pass's aggregates."""
    t = layer_totals(stats)
    cache_calls = t["mem.cache"][_CALLS]
    return {
        "sim.loop_self_s": t["sim.loop"][_SELF],
        "sim.step_self_s": t["sim.step"][_SELF],
        "apps.compute_s": t["apps.compute"][_SELF],
        "apps.setup_s": t["apps.setup"][_SELF],
        "machines.self_s": t["machines"][_SELF],
        "machines.ops": _handle_calls(stats),
        "machines.run_self_s": t["machines.run"][_SELF],
        "dsm.interval_s": t["dsm.interval"][_SELF],
        "dsm.interval_calls": t["dsm.interval"][_CALLS],
        "dsm.pages_s": t["dsm.pages"][_SELF],
        "dsm.pages_calls": t["dsm.pages"][_CALLS],
        "dsm.protocol_self_s": t["dsm.protocol"][_SELF],
        "dsm.sync_s": t["dsm.sync"][_SELF],
        "net.self_s": t["net"][_SELF],
        "net.calls": t["net"][_CALLS],
        "hw.self_s": t["hw"][_SELF],
        "hw.calls": t["hw"][_CALLS],
        "mem.cache_s": t["mem.cache"][_SELF],
        "mem.cache_calls": cache_calls,
        "mem.lines_per_call": (t["mem.cache"][_LINES] / cache_calls
                               if cache_calls else 0.0),
        "mem.store_s": t["mem.store"][_SELF],
        "check.self_s": t["check"][_SELF],
        "check.calls": t["check"][_CALLS],
        "harness.plan_self_s": t["harness.plan"][_SELF],
        "harness.cache_put_s": t["harness.cache_put"][_SELF],
        "trace.other_s": t["other"][_SELF],
    }


def attributed_seconds(stats: Dict[Tuple[str, str], Tuple[float, ...]]
                       ) -> float:
    """Self time summed over every layer: the span-covered wall time."""
    return sum(value[_SELF] for value in stats.values())


def counter_metrics(counters: List[Dict[str, Any]], events: int
                    ) -> Dict[str, float]:
    """Exact simulated counts summed over a pass's cells."""

    def total(name: str) -> int:
        return int(sum(c.get(name, 0) for c in counters))

    hits = total("cache_hits")
    misses = total("cache_misses_local") + total("cache_misses_remote")
    return {
        "sim.events": events,
        "dsm.messages": total("total_messages"),
        "dsm.bytes": total("total_bytes"),
        "dsm.page_faults": total("page_faults"),
        "dsm.diff_bytes": total("diff_bytes_created"),
        "dsm.write_notices": total("write_notices_sent"),
        "sync.lock_wait_cycles": total("lock_wait_cycles"),
        "net.bus_transactions": total("bus_transactions"),
        "net.network_hops": total("network_hops"),
        "hw.cache_misses_remote": total("cache_misses_remote"),
        "hw.invalidations": total("invalidations"),
        "mem.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def traced_pass(cells: Any, seed: int, cache_dir: str) -> Tuple[list, list]:
    """One :func:`~perfbench.cells.run_pass` with every wrapper installed.

    Returns the cell outcomes and, per cell, the span aggregates that
    cell accumulated.
    """
    per_cell: List[Dict[Tuple[str, str], Tuple[float, ...]]] = []
    with profiling() as profile:
        mark = profile.snapshot()

        def on_cell(_label: str, _outcome: Any) -> None:
            nonlocal mark
            per_cell.append(profile.since(mark))
            mark = profile.snapshot()

        def on_sample(seconds: float) -> None:
            # A calibration sample interrupted the innermost open span;
            # count it as that span's child so no layer is charged.
            if profile._stack:
                profile._stack[-1][1] += seconds

        outcomes = run_pass(cells, seed, cache_dir, on_cell=on_cell,
                            on_sample=on_sample)
    return outcomes, per_cell


def merge_stats(parts: List[Dict[Tuple[str, str], Tuple[float, ...]]]
                ) -> Dict[Tuple[str, str], Tuple[float, ...]]:
    """Sum span aggregates, e.g. the cells of one pass."""
    out: Dict[Tuple[str, str], List[float]] = {}
    for part in parts:
        for key, value in part.items():
            row = out.setdefault(key, [0, 0.0, 0])
            for i, v in enumerate(value):
                row[i] += v
    return {key: tuple(value) for key, value in out.items()}
