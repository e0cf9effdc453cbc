"""Branch-and-bound travelling salesman (§2.3, §2.4.3).

A shared queue of partial tours is guarded by a lock; each worker pops
a partial tour, extends it, and pushes the children back, solving
small-enough subproblems to completion locally.  The global
minimum-tour bound is updated under its own lock but *read without
synchronization*, so the value a worker prunes against is whatever its
machine's consistency model makes visible (``ops.ReadBound``).  Stale
bounds prune less and cause redundant expansions — the paper's
explanation for TSP's TreadMarks/SGI gap, and the effect its eager
release experiment removes.

Full 18/19-city instances are far too large for a pure-Python
simulation, so the presets scale the instance down (see DESIGN.md):
``tsp18``-equivalent uses 12 cities, ``tsp19``-equivalent 13.  The
branch-and-bound structure, queue discipline, and bound-staleness
sensitivity — the properties the paper measures — are unchanged.

The search explores the same tree regardless of machine timing *given
the same pruning decisions*; the final optimum is always exact (every
completed tour is checked against the committed bound), only the
amount of redundant work varies.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.apps.base import AppContext, Application, Program
from repro.apps import ops
from repro.errors import ConfigurationError

QUEUE_LOCK = 0
BOUND_LOCK = 1

#: Shared queue slot size: tour prefix + length (int32 fields).
SLOT_BYTES = 128

#: Cycles charged at each visited search node.  Deliberately larger
#: than a literal count of the per-node instructions: the simulated
#: instances are scaled down from the paper's 18/19 cities (whose
#: trees have orders of magnitude more nodes), and this constant
#: restores the paper's compute-to-queue-access ratio (see DESIGN.md).
CYCLES_PER_EXPANSION = 10_000

#: Idle workers re-poll the queue with exponential backoff in this
#: range, so a straggler solving a deep leaf is not drowned in
#: lock-token ping-pong from the other seven processors.
IDLE_BACKOFF_MIN_CYCLES = 20000
IDLE_BACKOFF_MAX_CYCLES = 1_000_000

#: How many search nodes a worker expands between re-reads of the
#: unsynchronized global bound (§2.4.3).
BOUND_POLL_EXPANSIONS = 200

Tour = Tuple[Tuple[int, ...], float]

#: Distance tables as plain Python lists, keyed by (cities, seed).
#: The bound computation is the simulation's hottest Python code;
#: indexing numpy scalars out of tiny arrays costs several times the
#: arithmetic itself.  ``ndarray.tolist`` is value-exact and numpy's
#: sequential reduce over arrays this small matches left-to-right
#: float accumulation bit-for-bit, so swapping the tables changes no
#: pruning decision and no simulated cycle (pinned by the goldens).
_TABLE_CACHE: Dict[Tuple[int, int],
                   Tuple[List[List[float]], List[float]]] = {}

#: Memoized sequential re-solves, same key.  ``verify`` needs the
#: sequential optimum after every run of an instance, and the
#: depth-first solve is a pure function of the distance matrix — a
#: sweep over processor counts re-derives it identically each time.
_SEQ_SOLVE_CACHE: Dict[Tuple[int, int],
                       Tuple[int, float, Tuple[int, ...]]] = {}


class TspApp(Application):
    """Branch-and-bound TSP over random Euclidean cities."""

    name = "tsp"

    def __init__(self, cities: int = 12, *, leaf_cutoff: int = 7,
                 queue_capacity: int = 4096, coord_seed: int = 7) -> None:
        if cities < 4:
            raise ConfigurationError(f"need at least 4 cities: {cities}")
        if leaf_cutoff < 2:
            raise ConfigurationError(
                f"leaf_cutoff must be >= 2: {leaf_cutoff}")
        self.cities = cities
        self.leaf_cutoff = leaf_cutoff
        self.queue_capacity = queue_capacity
        self.coord_seed = coord_seed
        self.name = f"tsp-{cities}"

    # ------------------------------------------------------------------
    def regions(self, nprocs: int) -> Dict[str, int]:
        """Shared tour queue, best-bound word, and distance table."""
        return {
            "tsp_queue": self.queue_capacity * SLOT_BYTES,
            "tsp_bound": 4096,
            "tsp_dist": self.cities * self.cities * 8,
        }

    def _distances(self) -> np.ndarray:
        rng = np.random.default_rng(self.coord_seed)
        pts = rng.random((self.cities, 2)) * 100.0
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff ** 2).sum(axis=2))

    def init_data(self, ctx: AppContext) -> None:
        """Load the distance table; seed the queue with the root tour."""
        dist = self._distances()
        ctx.store.view("tsp_dist", np.float64)[: dist.size] = dist.ravel()
        # Shared run state that models the queue contents; all access
        # is serialized by the simulated queue lock.
        ctx.params["_queue"] = [((0,), 0.0)]
        ctx.params["_active"] = 0
        # Which workers currently hold a popped-but-unretired item;
        # crash recovery uses this to keep the active count honest
        # when a worker dies mid-item (see on_node_failed).
        ctx.params["_working"] = [False] * ctx.nprocs
        ctx.params["_expansions"] = [0] * ctx.nprocs
        ctx.params["_best_tour"] = None

    # ------------------------------------------------------------------
    def _min_edges(self, dist: np.ndarray) -> np.ndarray:
        masked = dist.copy()
        np.fill_diagonal(masked, np.inf)
        return masked.min(axis=1)

    def _tables(self) -> Tuple[List[List[float]], List[float]]:
        """The (distance matrix, min-edge vector) as Python lists."""
        key = (self.cities, self.coord_seed)
        tables = _TABLE_CACHE.get(key)
        if tables is None:
            dist = self._distances()
            tables = (dist.tolist(), self._min_edges(dist).tolist())
            _TABLE_CACHE[key] = tables
        return tables

    def _lower_bound(self, dist: List[List[float]],
                     min_edge: List[float],
                     prefix: Tuple[int, ...], length: float) -> float:
        # Accumulates min_edge over the cities outside ``prefix`` in
        # ascending order — the exact addition order of the numpy
        # fancy-index + sequential-reduce formulation this replaces.
        total = 0.0
        free = 0
        for c in range(self.cities):
            if c not in prefix:
                total += min_edge[c]
                free += 1
        if not free:
            return length + dist[prefix[-1]][prefix[0]]
        return length + total + min_edge[prefix[0]]

    def _solve_local(self, dist: List[List[float]],
                     min_edge: List[float],
                     prefix: Tuple[int, ...], length: float,
                     bound: float) -> Tuple[int, float, Tuple[int, ...]]:
        """Depth-first solve of a small subproblem against ``bound``.

        Returns (expansions, best length found, best tour found).
        """
        expansions = 0
        best = bound
        best_tour: Tuple[int, ...] = ()
        stack = [(prefix, length)]
        while stack:
            pfx, plen = stack.pop()
            expansions += 1
            if len(pfx) == self.cities:
                total = plen + dist[pfx[-1]][pfx[0]]
                if total < best:
                    best = total
                    best_tour = pfx
                continue
            if self._lower_bound(dist, min_edge, pfx, plen) >= best:
                continue
            last = pfx[-1]
            row = dist[last]
            for city in range(self.cities):
                if city in pfx:
                    continue
                nlen = plen + row[city]
                child = pfx + (city,)
                if self._lower_bound(dist, min_edge, child, nlen) < best:
                    stack.append((child, nlen))
        return expansions, best, best_tour

    # ------------------------------------------------------------------
    def programs(self, ctx: AppContext) -> List[Program]:
        """One branch-and-bound worker per processor."""
        return [self._worker(ctx, p) for p in range(ctx.nprocs)]

    def _worker(self, ctx: AppContext, proc: int) -> Program:
        dist, min_edge = self._tables()
        queue: List[Tour] = ctx.params["_queue"]

        working = False
        backoff = IDLE_BACKOFF_MIN_CYCLES
        while True:
            # ---- pop one partial tour from the shared queue --------
            # The same critical section also retires the previous item
            # (decrements the active-worker count), so each unit of
            # work costs one queue-lock round trip.
            yield ops.Acquire(QUEUE_LOCK)
            if working:
                ctx.params["_active"] -= 1
                ctx.params["_working"][proc] = False
                working = False
            if not queue:
                idle = ctx.params["_active"] == 0
                yield ops.Release(QUEUE_LOCK)
                if idle:
                    break
                yield ops.Compute(backoff)
                backoff = min(backoff * 2, IDLE_BACKOFF_MAX_CYCLES)
                continue
            backoff = IDLE_BACKOFF_MIN_CYCLES
            prefix, length = queue.pop()
            ctx.params["_active"] += 1
            ctx.params["_working"][proc] = True
            working = True
            slot = len(queue) % self.queue_capacity
            yield ops.Read("tsp_queue", slot * SLOT_BYTES, SLOT_BYTES)
            yield ops.Release(QUEUE_LOCK)

            visible = yield ops.ReadBound()
            pruned = self._lower_bound(dist, min_edge, prefix,
                                       length) >= visible
            free = self.cities - len(prefix)

            if pruned:
                ctx.params["_expansions"][proc] += 1
                yield ops.Compute(CYCLES_PER_EXPANSION)
            elif free <= self.leaf_cutoff:
                yield from self._finish_subproblem(
                    ctx, proc, dist, min_edge, prefix, length, visible)
            else:
                yield from self._expand(ctx, proc, dist, min_edge, prefix,
                                        length, visible, queue)

        ctx.output[f"expansions_p{proc}"] = ctx.params["_expansions"][proc]

    def _expand(self, ctx: AppContext, proc: int, dist, min_edge, prefix,
                length, visible, queue) -> Program:
        """Push every viable child of ``prefix`` back to the queue."""
        last = prefix[-1]
        row = dist[last]
        children = []
        for city in range(self.cities):
            if city in prefix:
                continue
            nlen = length + row[city]
            child = prefix + (city,)
            if self._lower_bound(dist, min_edge, child, nlen) < visible:
                children.append((child, nlen))
        ctx.params["_expansions"][proc] += max(1, len(children))
        yield ops.Compute(CYCLES_PER_EXPANSION * max(1, len(children)))
        if children:
            yield ops.Acquire(QUEUE_LOCK)
            writes = []
            for child in children:
                queue.append(child)
                slot = (len(queue) - 1) % self.queue_capacity
                writes.append(
                    ops.Write("tsp_queue", slot * SLOT_BYTES, SLOT_BYTES))
            yield from writes
            yield ops.Release(QUEUE_LOCK)

    def _finish_subproblem(self, ctx: AppContext, proc: int, dist,
                           min_edge, prefix, length,
                           visible) -> Program:
        """Depth-first solve of a leaf subproblem, in chunks.

        Every ``BOUND_POLL_EXPANSIONS`` search nodes the worker
        re-reads the (unsynchronized) global bound and commits any
        improvement it has found.  On hardware the re-read returns the
        freshest committed value; under lazy release consistency it
        returns a value no newer than the worker's last sync point, so
        a lazy worker prunes against a staler bound and expands
        redundant nodes — the §2.4.3 effect.
        """
        best = visible
        pending: float = math.inf
        stack = [(prefix, length)]
        chunk = 0
        while True:
            while stack and chunk < BOUND_POLL_EXPANSIONS:
                pfx, plen = stack.pop()
                chunk += 1
                if len(pfx) == self.cities:
                    total = plen + dist[pfx[-1]][pfx[0]]
                    if total < best:
                        best = total
                        pending = total
                        ctx.params.setdefault("_tours", {})[total] = pfx
                    continue
                if self._lower_bound(dist, min_edge, pfx, plen) >= best:
                    continue
                last = pfx[-1]
                row = dist[last]
                for city in range(self.cities):
                    if city in pfx:
                        continue
                    nlen = plen + row[city]
                    child = pfx + (city,)
                    if self._lower_bound(dist, min_edge, child,
                                         nlen) < best:
                        stack.append((child, nlen))

            ctx.params["_expansions"][proc] += chunk
            yield ops.Compute(chunk * CYCLES_PER_EXPANSION)
            chunk = 0
            if pending < math.inf:
                yield ops.Acquire(BOUND_LOCK)
                improved = yield ops.UpdateBound(float(pending))
                if improved:
                    ctx.params["_best_tour"] = \
                        ctx.params["_tours"][pending]
                    yield ops.Write("tsp_bound", 0, 8)
                yield ops.Release(BOUND_LOCK)
                pending = math.inf
            if not stack:
                break
            fresh = yield ops.ReadBound()
            best = min(best, fresh)

    # ------------------------------------------------------------------
    def on_node_failed(self, ctx: AppContext, procs) -> None:
        """Retire dead workers' in-flight queue items.

        A worker that crashes between popping a partial tour and
        retiring it takes the subtree with it (crash-stop loses work —
        ``verify`` accepts that), but its increment of the shared
        active-worker count must not leak: the survivors' termination
        test is "queue empty and nobody active", so a leaked count
        turns completion into an infinite idle-poll loop.
        """
        working = ctx.params.get("_working")
        if not working:
            return
        for p in procs:
            if p < len(working) and working[p]:
                working[p] = False
                ctx.params["_active"] -= 1

    # ------------------------------------------------------------------
    def verify(self, ctx: AppContext) -> Dict[str, object]:
        """Check the parallel optimum against a sequential solve.

        A degraded run (``_failed_nodes`` set by crash recovery) gets
        relaxed acceptance: a crashed worker takes its unexplored
        subtrees with it, so the survivors' best tour only has to be a
        *valid* tour no better than the true optimum — crash-stop
        failures lose work, they must never invent a shorter tour.
        """
        dist, min_edge = self._tables()
        key = (self.cities, self.coord_seed)
        solved = _SEQ_SOLVE_CACHE.get(key)
        if solved is None:
            solved = self._solve_local(dist, min_edge, (0,), 0.0, math.inf)
            _SEQ_SOLVE_CACHE[key] = solved
        expansions, best, tour = solved
        degraded = bool(ctx.params.get("_failed_nodes"))
        best_tour = ctx.params.get("_best_tour")
        if best_tour is None:
            assert degraded, "parallel run found no tour"
            return {
                "optimal_length": float(best),
                "sequential_expansions": expansions,
                "parallel_expansions": sum(ctx.params["_expansions"]),
            }
        assert sorted(best_tour) == list(range(len(best_tour))), (
            "parallel best tour is not a permutation of the cities")
        par_len = sum(dist[best_tour[i]][best_tour[(i + 1) % len(best_tour)]]
                      for i in range(len(best_tour)))
        if degraded:
            assert par_len >= best - 1e-6, (
                f"degraded run produced an impossible tour: {par_len} "
                f"beats the sequential optimum {best}")
        else:
            assert abs(par_len - best) < 1e-6, (
                f"parallel optimum {par_len} != sequential optimum {best}")
        return {
            "optimal_length": float(best),
            "sequential_expansions": expansions,
            "parallel_expansions": sum(
                ctx.params["_expansions"]),
        }
