"""Full-map directory coherence over a crossbar (the AH architecture).

Each node is home to an interleaved share of physical pages.  The
directory tracks, per line, an exclusive owner and a sharer bitmask.
Miss latencies fall into the paper's three classes (§3.1): satisfied
by local memory, by a clean remote home, or by a dirty line at a third
node — the 20 / 90..130-cycle range quoted for DASH/FLASH-class
machines.  Processors block on misses (in-order CPUs), so bulk-access
latency is the serial sum of per-line services; crossbar ports add
queueing when traffic converges on one node (e.g. TSP's shared queue).
"""

from __future__ import annotations

from typing import Dict, Iterator, List

import numpy as np

from repro.check.checker import DirectoryChecker, active_check_config
from repro.errors import ConfigurationError
from repro.mem import directcache
from repro.mem.directcache import DirectMappedCache, EXCLUSIVE
from repro.net.crossbar import CrossbarNetwork
from repro.stats.counters import Counters

_BYTE_POPCOUNT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1)


def popcount(values: np.ndarray) -> np.ndarray:
    """Per-element population count of a uint64 array."""
    as_bytes = values.view(np.uint8).reshape(values.size, 8)
    return _BYTE_POPCOUNT[as_bytes].sum(axis=1)


def _bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lines(lines: List[int]) -> np.ndarray:
    return np.array(lines, dtype=np.int64)


class DirectorySystem:
    """Directory-based coherent memory across uniprocessor nodes."""

    def __init__(self, caches: List[DirectMappedCache],
                 network: CrossbarNetwork, counters: Counters, *,
                 total_lines: int, lines_per_page: int,
                 line_bytes: int,
                 hit_cycles: float = 1.0,
                 local_miss_cycles: int = 20,
                 remote_clean_cycles: int = 90,
                 remote_dirty_cycles: int = 130,
                 request_bytes: int = 16) -> None:
        if len(caches) > 64:
            raise ConfigurationError(
                "directory sharer bitmask supports at most 64 processors")
        self.caches = caches
        self.network = network
        self.counters = counters
        self.num_procs = len(caches)
        self.total_lines = total_lines
        self.lines_per_page = lines_per_page
        self.line_bytes = line_bytes
        self.hit_cycles = hit_cycles
        self.local_miss_cycles = local_miss_cycles
        self.remote_clean_cycles = remote_clean_cycles
        self.remote_dirty_cycles = remote_dirty_cycles
        self.request_bytes = request_bytes
        self.owner = np.full(total_lines, -1, dtype=np.int32)
        self.sharers = np.zeros(total_lines, dtype=np.uint64)
        total_pages = max(1, total_lines // lines_per_page)
        self._page_home = np.full(total_pages, -1, dtype=np.int32)
        # Short line lists (see ``directcache.SHORT_ACCESS_LINES``) walk
        # the same arrays one line at a time through these views.
        self._owner = memoryview(self.owner)
        self._sharers = memoryview(self.sharers)
        self._homes = memoryview(self._page_home)
        #: Online directory/SWMR checker (repro.check); None unless
        #: armed.
        cfg = active_check_config()
        self.checker = (DirectoryChecker(self, cfg)
                        if cfg is not None else None)

    # ------------------------------------------------------------------
    def home_of(self, lines: np.ndarray) -> np.ndarray:
        """Home node of each line (first-touch page placement).

        A page's home is the first node that accesses it — the
        standard NUMA placement of the era, which lands
        band-partitioned data (SOR's grid, Water's molecule array) at
        its owner regardless of how partitions align with pages.
        """
        pages = lines // self.lines_per_page
        homes = self._page_home[pages]
        return homes

    def _claim_homes(self, proc: int, lines: np.ndarray) -> None:
        """First-touch: unplaced pages become local to the toucher."""
        if lines.size == 0:
            return
        pages = lines // self.lines_per_page
        unset = self._page_home[pages] < 0
        if unset.any():
            self._page_home[pages[unset]] = proc

    def _bit(self, proc: int) -> np.uint64:
        return np.uint64(1) << np.uint64(proc)

    def _charge_ports(self, proc: int, lines: np.ndarray,
                      now: int) -> int:
        """Occupy crossbar ports for a batch of line transfers.

        Requests leave the requester; responses converge on it; each
        involved home's output port carries its share.
        """
        if lines.size <= directcache.SHORT_ACCESS_LINES:
            homes, lpp = self._homes, self.lines_per_page
            counts: Dict[int, int] = {}
            for line in lines.tolist():
                home = homes[line // lpp]
                if home != proc:
                    counts[home] = counts.get(home, 0) + 1
        else:
            homes = self.home_of(lines)
            per_home = np.bincount(homes[homes != proc],
                                   minlength=self.num_procs)
            counts = {int(home): int(per_home[home])
                      for home in np.flatnonzero(per_home)}
        n_remote = sum(counts.values())
        if n_remote == 0:
            return now
        wire_line = self.network.wire_cycles(self.line_bytes)
        wire_req = self.network.wire_cycles(self.request_bytes)
        self.counters.network_hops += 2 * n_remote
        _s, out_end = self.network.out_ports[proc].acquire(
            now, wire_req * n_remote)
        end = out_end
        for home in sorted(counts):
            _s, h_end = self.network.out_ports[home].acquire(
                now, wire_line * counts[home])
            end = max(end, h_end)
        _s, in_end = self.network.in_ports[proc].acquire(
            now, wire_line * n_remote)
        return max(end, in_end)

    def _classify(self, proc: int, lines: np.ndarray):
        """Split miss lines into latency classes."""
        own = self.owner[lines]
        dirty_remote = (own >= 0) & (own != proc)
        homes = self.home_of(lines)
        local = (homes == proc) & ~dirty_remote
        remote_clean = (homes != proc) & ~dirty_remote
        return local, remote_clean, dirty_remote

    # ------------------------------------------------------------------
    def read(self, proc: int, first_line: int, last_line: int,
             now: int) -> int:
        cache = self.caches[proc]
        res = cache.read(first_line, last_line)
        self.counters.cache_hits += res.hits
        latency = int(res.hits * self.hit_cycles)
        if res.misses == 0 and res.writebacks == 0:
            return now + latency

        lines = res.miss_lines
        if lines.size <= directcache.SHORT_ACCESS_LINES:
            latency += self._share_short(proc, lines.tolist())
        else:
            latency += self._share_bulk(proc, lines)
        self._handle_evictions(proc, res)

        end_ports = self._charge_ports(proc, lines, now + latency)
        end = max(now + latency, end_ports)
        if self.checker is not None:
            self.checker.after_op("read", proc, end, lines=lines)
        return end

    def write(self, proc: int, first_line: int, last_line: int,
              now: int) -> int:
        cache = self.caches[proc]
        res = cache.write(first_line, last_line)
        self.counters.cache_hits += res.hits
        latency = int(res.hits * self.hit_cycles)
        need_own = (np.concatenate([res.miss_lines, res.upgrade_lines])
                    if res.upgrade_lines.size else res.miss_lines)
        if need_own.size == 0 and res.writebacks == 0:
            return now + latency

        if need_own.size <= directcache.SHORT_ACCESS_LINES:
            latency += self._own_short(proc, need_own.tolist())
        else:
            latency += self._own_bulk(proc, need_own)
        self._handle_evictions(proc, res)

        end_ports = self._charge_ports(proc, need_own, now + latency)
        end = max(now + latency, end_ports)
        if self.checker is not None:
            self.checker.after_op("write", proc, end, lines=need_own)
        return end

    # ------------------------------------------------------------------
    # Read misses: latency classes, owner downgrade, sharer registration.
    # Each returns the miss latency it adds.
    # ------------------------------------------------------------------
    def _share_bulk(self, proc: int, lines: np.ndarray) -> int:
        self._claim_homes(proc, lines)
        local, remote_clean, dirty_remote = self._classify(proc, lines)
        latency = (int(np.count_nonzero(local)) * self.local_miss_cycles +
                   int(np.count_nonzero(remote_clean)) *
                   self.remote_clean_cycles +
                   int(np.count_nonzero(dirty_remote)) *
                   self.remote_dirty_cycles)
        self.counters.cache_misses_local += int(np.count_nonzero(local))
        self.counters.cache_misses_remote += int(
            np.count_nonzero(remote_clean | dirty_remote))

        # Owned (E/M) third-party copies are downgraded to SHARED and
        # dirty data is supplied cache-to-cache / written back.
        owned_lines = lines[dirty_remote]
        if owned_lines.size:
            owners = self.owner[owned_lines]
            for q in np.unique(owners):
                q_lines = owned_lines[owners == q]
                _present, dirty = self.caches[int(q)].downgrade_lines(
                    q_lines)
                self.counters.writebacks += dirty
                self.counters.cache_to_cache += dirty
                self.sharers[q_lines] |= self._bit(int(q))
            self.owner[owned_lines] = -1

        # Register sharing; a line nobody else holds fills EXCLUSIVE
        # and takes directory ownership, so the later silent E -> M
        # upgrade is already covered.
        unshared = lines[(self.sharers[lines] == 0) &
                         (self.owner[lines] == -1)]
        self.sharers[lines] |= self._bit(proc)
        if unshared.size:
            self.caches[proc].promote(unshared, EXCLUSIVE)
            self.owner[unshared] = proc
        return latency

    def _share_short(self, proc: int, lines: List[int]) -> int:
        """:meth:`_share_bulk` one line at a time, in the same order."""
        owner, sharers = self._owner, self._sharers
        n_local = n_clean = 0
        owned = []
        for line, home in zip(lines, self._claim_homes_short(proc, lines)):
            own = owner[line]
            if own >= 0 and own != proc:
                owned.append(line)
            elif home == proc:
                n_local += 1
            else:
                n_clean += 1
        self.counters.cache_misses_local += n_local
        self.counters.cache_misses_remote += n_clean + len(owned)

        by_owner = self._by_owner(owned)
        for q in sorted(by_owner):
            q_lines = by_owner[q]
            _present, dirty = self.caches[q].downgrade_lines(_lines(q_lines))
            self.counters.writebacks += dirty
            self.counters.cache_to_cache += dirty
            for line in q_lines:
                sharers[line] |= 1 << q
        for line in owned:
            owner[line] = -1

        unshared = [line for line in lines
                    if sharers[line] == 0 and owner[line] == -1]
        bit = 1 << proc
        for line in lines:
            sharers[line] |= bit
        if unshared:
            self.caches[proc].promote(_lines(unshared), EXCLUSIVE)
            for line in unshared:
                owner[line] = proc
        return (n_local * self.local_miss_cycles +
                n_clean * self.remote_clean_cycles +
                len(owned) * self.remote_dirty_cycles)

    # ------------------------------------------------------------------
    # Write ownership: latency classes, invalidation fan-out, takeover.
    # Each returns the miss latency it adds.
    # ------------------------------------------------------------------
    def _own_bulk(self, proc: int, need_own: np.ndarray) -> int:
        self._claim_homes(proc, need_own)
        local, remote_clean, dirty_remote = self._classify(proc, need_own)
        others = self.sharers[need_own] & ~self._bit(proc)
        n_inval = int(popcount(others).sum())
        has_sharers = others != 0

        # Lines with other sharers or a dirty owner pay the long
        # latency class; clean exclusive-to-us lines pay their home's.
        expensive = dirty_remote | has_sharers
        latency = (int(np.count_nonzero(expensive)) *
                   self.remote_dirty_cycles +
                   int(np.count_nonzero(local & ~expensive)) *
                   self.local_miss_cycles +
                   int(np.count_nonzero(remote_clean & ~expensive)) *
                   self.remote_clean_cycles)
        self.counters.cache_misses_local += int(
            np.count_nonzero(local & ~expensive))
        self.counters.cache_misses_remote += int(
            np.count_nonzero(expensive | (remote_clean & ~expensive)))
        self.counters.invalidations += n_inval

        # Invalidate every other copy: each sharer of any line once,
        # lowest processor first, then each dirty owner.
        if n_inval:
            union = int(np.bitwise_or.reduce(others))
            for q in _bits(union):
                q_lines = need_own[(others & self._bit(q)) != 0]
                self.caches[q].invalidate_lines(q_lines)
        dirty_lines = need_own[dirty_remote]
        if dirty_lines.size:
            owners = self.owner[dirty_lines]
            for q in np.unique(owners):
                q_lines = dirty_lines[owners == q]
                self.caches[int(q)].invalidate_lines(q_lines)
                self.counters.writebacks += int(q_lines.size)

        self.owner[need_own] = proc
        self.sharers[need_own] = self._bit(proc)
        return latency

    def _own_short(self, proc: int, need_own: List[int]) -> int:
        """:meth:`_own_bulk` one line at a time, in the same order."""
        owner, sharers = self._owner, self._sharers
        bit = 1 << proc
        n_local = n_clean = n_expensive = n_inval = 0
        union = 0
        others = []
        dirty_lines = []
        for line, home in zip(need_own,
                              self._claim_homes_short(proc, need_own)):
            own = owner[line]
            mask = sharers[line] & ~bit
            others.append(mask)
            if mask:
                union |= mask
                n_inval += bin(mask).count("1")
            if own >= 0 and own != proc:
                dirty_lines.append(line)
                n_expensive += 1
            elif mask:
                n_expensive += 1
            elif home == proc:
                n_local += 1
            else:
                n_clean += 1
        self.counters.cache_misses_local += n_local
        self.counters.cache_misses_remote += n_expensive + n_clean
        self.counters.invalidations += n_inval

        for q in _bits(union):
            q_bit = 1 << q
            self.caches[q].invalidate_lines(_lines(
                [line for line, mask in zip(need_own, others)
                 if mask & q_bit]))
        by_owner = self._by_owner(dirty_lines)
        for q in sorted(by_owner):
            self.caches[q].invalidate_lines(_lines(by_owner[q]))
            self.counters.writebacks += len(by_owner[q])

        for line in need_own:
            owner[line] = proc
            sharers[line] = bit
        return (n_expensive * self.remote_dirty_cycles +
                n_local * self.local_miss_cycles +
                n_clean * self.remote_clean_cycles)

    def _claim_homes_short(self, proc: int, lines: List[int]) -> List[int]:
        """:meth:`_claim_homes` for a short list; returns each line's home."""
        homes, lpp = self._homes, self.lines_per_page
        out = []
        for line in lines:
            page = line // lpp
            home = homes[page]
            if home < 0:
                homes[page] = home = proc
            out.append(home)
        return out

    def _by_owner(self, lines: List[int]) -> Dict[int, List[int]]:
        """``lines`` grouped by their directory owner, in order."""
        owner = self._owner
        groups: Dict[int, List[int]] = {}
        for line in lines:
            groups.setdefault(owner[line], []).append(line)
        return groups

    # ------------------------------------------------------------------
    def _handle_evictions(self, proc: int, res) -> None:
        """Deregister evicted lines (dirty ones write back to home).

        A bulk access longer than the cache may evict a line in one
        chunk and refetch it in a later chunk of the same access; such
        a line ends the access resident, so its registration (done
        before this call) must survive even though the interim
        eviction's writeback traffic is real.
        """
        if res.evicted_dirty_lines.size:
            self.counters.writebacks += int(res.evicted_dirty_lines.size)
            self._deregister(proc, res.evicted_dirty_lines)
        if res.evicted_clean_lines.size:
            # Clean EXCLUSIVE victims also drop directory ownership.
            self._deregister(proc, res.evicted_clean_lines)

    def _deregister(self, proc: int, evicted: np.ndarray) -> None:
        """Drop ``proc``'s ownership and sharer bit for victims it lost."""
        refetched, _dirty = self.caches[proc].probe_lines(evicted)
        if evicted.size <= directcache.SHORT_ACCESS_LINES:
            owner, sharers = self._owner, self._sharers
            keep = ~(1 << proc)
            for line, back in zip(evicted.tolist(), refetched.tolist()):
                if not back:
                    if owner[line] == proc:
                        owner[line] = -1
                    sharers[line] &= keep
            return
        gone = evicted[~refetched]
        mine = gone[self.owner[gone] == proc]
        self.owner[mine] = -1
        self.sharers[gone] &= ~self._bit(proc)
