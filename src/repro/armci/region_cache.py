"""Remote memory-region cache with LFU replacement.

Caching a remote region handle for every (structure, peer) pair costs
``sigma * zeta * gamma`` bytes (Eq. 5) — prohibitive under strong scaling
where zeta approaches p on a memory-limited machine. The proposed design
bounds the cache and serves misses with an active message to the region's
owner, evicting the **least frequently used** entry (Section III-B).

Two robustness refinements on the paper's scheme:

- entries with outstanding RDMA operations are *pinned* (refcounted) and
  never evicted, preventing use-after-evict during long non-blocking
  strided lists;
- the cache may be bound to the rank's registration budget
  (:class:`~repro.pami.memregion.MemoryRegionRegistry`), so cached remote
  handles draw from the same slot pool as local registrations and
  eviction frees budget under pressure.
"""

from __future__ import annotations

from ..errors import ArmciError
from ..obs.metrics import MetricsRegistry
from ..pami.memregion import MemoryRegion, MemoryRegionRegistry


class _Entry:
    """One cached handle with its LFU count, insertion age and pins."""

    __slots__ = ("region", "freq", "age", "pins")

    def __init__(self, region: MemoryRegion, age: int) -> None:
        self.region, self.freq, self.age, self.pins = region, 1, age, 0


class RegionCache:
    """Bounded LFU cache of remote :class:`MemoryRegion` handles."""

    __slots__ = ("capacity", "trace", "budget_registry", "_entries", "_size",
                 "_clock")

    def __init__(
        self,
        capacity: int | None,
        trace: MetricsRegistry,
        budget_registry: MemoryRegionRegistry | None = None,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ArmciError(f"cache capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.trace = trace
        self.budget_registry = budget_registry
        # owner rank -> its cached entries, oldest first: the one keyed
        # structure. Regions per owner rarely exceed sigma (1-7, Table
        # II), so the per-owner scan is short, and a tuple rebuilt on
        # insert and removal is smaller than a list.
        self._entries: dict[int, tuple[_Entry, ...]] = {}
        self._size = 0
        # Monotone insertion counter for deterministic LFU tie-breaking.
        self._clock = 0

    def __len__(self) -> int:
        return self._size

    def _entry(self, owner: int, base: int) -> _Entry | None:
        for entry in self._entries.get(owner, ()):
            if entry.region.base == base:
                return entry
        return None

    def lookup(self, owner: int, addr: int, nbytes: int) -> MemoryRegion | None:
        """Cached region of ``owner`` covering ``[addr, addr+nbytes)``."""
        for entry in self._entries.get(owner, ()):
            region = entry.region
            if region.covers(addr, nbytes):
                entry.freq += 1
                self.trace.counters["armci.region_cache_hits"] += 1
                return region
        self.trace.counters["armci.region_cache_misses"] += 1
        return None

    # ------------------------------------------------------------ pinning

    def pin(self, region: MemoryRegion) -> None:
        """Mark a cached handle in use by an outstanding RDMA op.

        Pinned entries are never evicted; a region evicted mid-transfer
        would deregister the handle the NIC is still using. No-op for
        regions not in the cache (local regions, uncached handles).
        """
        entry = self._entry(region.rank, region.base)
        if entry is not None:
            entry.pins += 1

    def unpin(self, region: MemoryRegion) -> None:
        """Drop one pin (the RDMA op completed)."""
        entry = self._entry(region.rank, region.base)
        if entry is not None and entry.pins:
            entry.pins -= 1

    def pinned(self, owner: int, base: int) -> int:
        """Outstanding pin count of an entry (0 if absent/unpinned)."""
        entry = self._entry(owner, base)
        return 0 if entry is None else entry.pins

    # ---------------------------------------------------------- mutation

    def insert(self, region: MemoryRegion) -> None:
        """Add a region handle fetched from its owner, evicting LFU.

        Only *unpinned* entries are eviction candidates. If the cache is
        full and everything is pinned, the insert proceeds over capacity
        (the transfer already paid for the handle) and a trace counter
        records the overflow. If the cache is bound to a registration
        budget and no slot can be freed, the handle is left uncached —
        the next access re-fetches it (graceful degradation, not an
        error).
        """
        entry = self._entry(region.rank, region.base)
        if entry is not None:
            entry.freq += 1
            return
        if self.capacity is not None and self._size >= self.capacity:
            if not self._evict():
                self.trace.incr("armci.region_cache_pinned_overflow")
        if self.budget_registry is not None and not self.budget_registry.reserve():
            # Try to make room within our own entries first.
            if not (self._evict() and self.budget_registry.reserve()):
                self.trace.incr("armci.region_cache_uncached")
                return
        self._clock += 1
        entries = self._entries
        owner = region.rank
        entries[owner] = entries.get(owner, ()) + (_Entry(region, self._clock),)
        self._size += 1

    def _drop(self, entry: _Entry) -> None:
        """Remove one entry and return its budget slot."""
        owner = entry.region.rank
        rest = tuple(e for e in self._entries[owner] if e is not entry)
        if rest:
            self._entries[owner] = rest
        else:
            del self._entries[owner]
        self._size -= 1
        if self.budget_registry is not None:
            self.budget_registry.release()

    def _evict(self) -> bool:
        """Evict the least-frequently-used *unpinned* entry.

        Returns False when every entry is pinned (nothing evictable).
        """
        candidates = [
            e for entries in self._entries.values() for e in entries if not e.pins
        ]
        if not candidates:
            return False
        self._drop(min(candidates, key=lambda e: (e.freq, e.age)))
        self.trace.incr("armci.region_cache_evictions")
        return True

    def evict_for_budget(self) -> int:
        """Evict one unpinned entry to free a budget slot.

        Called by the runtime when a local registration fails with the
        budget exhausted: cached remote handles are expendable (they can
        be re-fetched), local registrations are not. Returns the number
        of slots actually freed: 1, or 0 when the cache holds no budget
        or everything is pinned.
        """
        if self.budget_registry is None or not self._evict():
            return 0
        self.trace.incr("armci.region_budget_reclaims")
        return 1

    def invalidate(self, owner: int, base: int) -> None:
        """Drop a cached handle (the region was destroyed at its owner)."""
        entry = self._entry(owner, base)
        if entry is not None:
            self._drop(entry)

    def invalidate_rank(self, owner: int) -> None:
        """Drop every cached handle owned by ``owner`` (non-generator).

        Crash recovery: a respawned rank's old registrations are gone, so
        every handle pointing at its previous incarnation is poison.
        """
        for entry in self._entries.get(owner, ()):
            self.invalidate(owner, entry.region.base)

    def space_bytes(self, gamma: int) -> int:
        """Current cache footprint: entries * gamma (Eq. 5 second term)."""
        return self._size * gamma
