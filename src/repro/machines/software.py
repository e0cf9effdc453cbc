"""The paged software-DSM machine: one processor per node.

This is the shape shared by the experimental TreadMarks platform
(DECstations + ATM, §2.2) and the simulated all-software architecture
(§3.1) — only parameters differ.  Shared accesses go through the LRC
protocol at page granularity; a per-processor direct-mapped cache adds
the local memory-hierarchy cost of each access.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.ablate import AblationSpecLike
from repro.dsm.bound import BoundMode
from repro.dsm.protocol import DsmConfig, TreadMarksDsm
from repro.machines.base import Machine, Runtime, fingerprint_value
from repro.machines.params import LocalCacheParams
from repro.mem.directcache import DirectMappedCache
from repro.mem.layout import AddressSpace, Geometry
from repro.net.atm import AtmNetwork
from repro.net.faults import FaultPlan
from repro.net.overhead import SoftwareOverhead
from repro.net.reliable import ReliableNetwork
from repro.recover import RecoveryManager
from repro.sim.engine import Engine
from repro.sim.task import ProcTask
from repro.stats.counters import Counters
from repro.sync import SyncSpec
from repro.trace.tracer import Category


class DsmRuntime(Runtime):
    """Operation dispatch for uniprocessor-node DSM machines."""

    def __init__(self, engine: Engine, space: AddressSpace,
                 counters: Counters, nprocs: int, *,
                 net: AtmNetwork, dsm: TreadMarksDsm,
                 cache_params: LocalCacheParams,
                 bound_mode: BoundMode,
                 bound_push_latency: int) -> None:
        super().__init__(engine, space, counters, nprocs,
                         bound_mode=bound_mode,
                         bound_push_latency=bound_push_latency)
        self.net = net
        self.dsm = dsm
        self.cache_params = cache_params
        self.caches = [
            DirectMappedCache(cache_params.cache_bytes,
                              cache_params.line_bytes, name=f"p{p}")
            for p in range(nprocs)
        ]

    def finish_run(self) -> None:
        if self.dsm.checker is not None:
            self.dsm.checker.finish()

    # ------------------------------------------------------------------
    def _local_cost(self, proc: int, addr: int, nbytes: int,
                    write: bool) -> int:
        """Local memory-hierarchy cost of an access to valid pages."""
        first, last = self.space.geometry.line_span(addr, nbytes)
        res = self.caches[proc].access(first, last, write)
        self.counters.cache_hits += res.hits
        self.counters.cache_misses_local += res.misses
        return (int(res.hits * self.cache_params.hit_cycles) +
                res.misses * self.cache_params.miss_cycles)

    # ------------------------------------------------------------------
    def do_read(self, task: ProcTask, addr: int, nbytes: int) -> None:
        proc = task.proc_id

        def after(time: int) -> None:
            cost = self._local_cost(proc, addr, nbytes, write=False)
            tracer = self.engine.tracer
            if tracer.enabled and cost:
                tracer.complete(proc, Category.MISS, "local_mem",
                                time, time + cost, track=f"p{proc}.mem")
            task.resume(time + cost)

        self.dsm.read(proc, addr, nbytes, after)

    def do_write(self, task: ProcTask, addr: int, nbytes: int,
                 changed_bytes: int) -> None:
        proc = task.proc_id

        def after(time: int) -> None:
            cost = self._local_cost(proc, addr, nbytes, write=True)
            tracer = self.engine.tracer
            if tracer.enabled and cost:
                tracer.complete(proc, Category.MISS, "local_mem",
                                time, time + cost, track=f"p{proc}.mem")
            task.resume(time + cost)

        self.dsm.write(proc, addr, nbytes, changed_bytes, after)

    def do_acquire(self, task: ProcTask, lock: int) -> None:
        proc = task.proc_id

        def granted(time: int, _remote: bool) -> None:
            self.sync_point(proc, time)
            task.resume(time)

        self.dsm.acquire(lock, proc, proc, granted)

    def do_release(self, task: ProcTask, lock: int) -> None:
        self.dsm.release(lock, task.proc_id, task.proc_id, task.resume)

    def do_barrier(self, task: ProcTask, barrier_id: int) -> None:
        proc = task.proc_id

        def departed(time: int) -> None:
            self.sync_point(proc, time)
            task.resume(time)

        self.dsm.barrier_arrive(barrier_id, proc, departed)


class PagedDsmMachine(Machine):
    """Configurable uniprocessor-node software DSM machine."""

    software_dsm = True

    def __init__(self, name: str, *, clock_hz: float, page_bytes: int,
                 cache: LocalCacheParams,
                 bandwidth_bytes_per_sec: float,
                 switch_latency_cycles: int,
                 header_bytes: int,
                 overhead: SoftwareOverhead,
                 eager_locks=None,
                 use_diffs: bool = True,
                 max_procs: Optional[int] = None,
                 faults: Optional[FaultPlan] = None,
                 sync: SyncSpec = None,
                 ablate: AblationSpecLike = None) -> None:
        super().__init__(name if use_diffs else f"{name}-nodiff",
                         sync=sync, ablate=ablate, faults=faults)
        self._clock_hz = clock_hz
        self.page_bytes = page_bytes
        self.cache = cache
        self.bandwidth = bandwidth_bytes_per_sec
        self.switch_latency = switch_latency_cycles
        self.header_bytes = header_bytes
        self.overhead = overhead
        self.eager_locks = eager_locks
        self.use_diffs = use_diffs
        self._max_procs = max_procs

    @property
    def clock_hz(self) -> float:
        return self._clock_hz

    def identity_data(self, uniprocessor: bool) -> Dict[str, Any]:
        """Cache identity; declares the shared 1-processor baseline.

        At one node the DSM engages no remote machinery — no messages
        are sent, the lock token never moves, and the bound is local —
        so none of the protocol/network knobs (overhead preset,
        eager vs lazy release, diffs vs whole pages, bandwidth,
        latency, headers) can affect the run.  The paper leans on
        exactly this (Table 1's DEC and DEC+TreadMarks columns
        coincide), and ``tests/test_parallel.py`` pins it.  The
        1-processor identity therefore keeps only the local machine:
        clock, page size, and the processor cache.  Every
        software-DSM variant with the same local machine shares one
        cached baseline.
        """
        data: Dict[str, Any] = {
            "class": "PagedDsmMachine",
            "clock_hz": self._clock_hz,
            "page_bytes": self.page_bytes,
            "cache": fingerprint_value(self.cache),
        }
        if uniprocessor:
            data["uniprocessor_baseline"] = True
            return data
        data.update({
            "name": self.name,
            "bandwidth_bytes_per_sec": self.bandwidth,
            "switch_latency_cycles": self.switch_latency,
            "header_bytes": self.header_bytes,
            "overhead": fingerprint_value(self.overhead),
            "eager_locks": fingerprint_value(self.eager_locks),
            "use_diffs": self.use_diffs,
        })
        return data

    def geometry(self) -> Geometry:
        return Geometry(self.page_bytes, self.cache.line_bytes)

    def max_procs(self) -> int:
        return self._max_procs if self._max_procs else 1024

    def build_runtime(self, engine: Engine, space: AddressSpace,
                      counters: Counters, nprocs: int) -> DsmRuntime:
        net = AtmNetwork(
            engine, nprocs,
            bandwidth_bytes_per_sec=self.bandwidth,
            switch_latency_cycles=self.switch_latency,
            clock_hz=self.clock_hz,
            overhead=self.overhead,
            counters=counters,
            header_bytes=self.header_bytes,
        )
        if self.faults is not None and self.faults.enabled:
            net = ReliableNetwork(net, self.faults,
                                  flat_retry=not self.ablate.backoff)
        dsm = TreadMarksDsm(net, space, self.overhead, DsmConfig(
            num_nodes=nprocs,
            page_bytes=self.page_bytes,
            eager_locks=self.eager_locks,
            use_diffs=self.use_diffs,
            sync=self.sync,
            ablate=self.ablate,
        ))
        if self.eager_locks:
            bound_mode = BoundMode.EAGER
            push_latency = net.roundtrip_estimate(256) // 2
        else:
            bound_mode = BoundMode.LAZY
            push_latency = 0
        runtime = DsmRuntime(
            engine, space, counters, nprocs,
            net=net, dsm=dsm, cache_params=self.cache,
            bound_mode=bound_mode, bound_push_latency=push_latency,
        )
        if self.faults is not None and self.faults.crashes:
            # Crash-stop failures: the manager kills the node's (sole)
            # processor at crash time and repairs the DSM stack at
            # declaration time.
            manager = RecoveryManager(engine, net, dsm, self.faults,
                                      counters,
                                      procs_of=lambda node: [node])
            net.recovery = manager
            runtime.recovery = manager
            manager.arm()
        return runtime
