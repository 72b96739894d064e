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

#: Cache key: (owner_rank, any address inside the region is resolved by
#: the owner; we key on the region's base address).
CacheKey = tuple[int, int]


class RegionCache:
    """Bounded LFU cache of remote :class:`MemoryRegion` handles."""

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
        # owner rank -> {base address -> region}; regions per owner rarely
        # exceed sigma (1-7, Table II), so the per-owner scan is short.
        self._by_owner: dict[int, dict[int, MemoryRegion]] = {}
        self._size = 0
        self._freq: dict[CacheKey, int] = {}
        # Monotone insertion counter for deterministic LFU tie-breaking.
        self._age: dict[CacheKey, int] = {}
        self._clock = 0
        self._pins: dict[CacheKey, int] = {}

    def __len__(self) -> int:
        return self._size

    def lookup(self, owner: int, addr: int, nbytes: int) -> MemoryRegion | None:
        """Cached region of ``owner`` covering ``[addr, addr+nbytes)``."""
        regions = self._by_owner.get(owner)
        if regions:
            for region in regions.values():
                if region.covers(addr, nbytes):
                    self._freq[(owner, region.base)] += 1
                    self.trace.incr("armci.region_cache_hits")
                    return region
        self.trace.incr("armci.region_cache_misses")
        return None

    # ------------------------------------------------------------ pinning

    def pin(self, region: MemoryRegion) -> None:
        """Mark a cached handle in use by an outstanding RDMA op.

        Pinned entries are never evicted; a region evicted mid-transfer
        would deregister the handle the NIC is still using. No-op for
        regions not in the cache (local regions, uncached handles).
        """
        key = (region.rank, region.base)
        if key in self._freq:
            self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, region: MemoryRegion) -> None:
        """Drop one pin (the RDMA op completed)."""
        key = (region.rank, region.base)
        count = self._pins.get(key)
        if count is None:
            return
        if count <= 1:
            del self._pins[key]
        else:
            self._pins[key] = count - 1

    def pinned(self, owner: int, base: int) -> int:
        """Outstanding pin count of an entry (0 if absent/unpinned)."""
        return self._pins.get((owner, base), 0)

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
        key = (region.rank, region.base)
        regions = self._by_owner.setdefault(region.rank, {})
        if region.base in regions:
            self._freq[key] += 1
            return
        if self.capacity is not None and self._size >= self.capacity:
            if not self._evict():
                self.trace.incr("armci.region_cache_pinned_overflow")
        if self.budget_registry is not None and not self.budget_registry.reserve():
            # Try to make room within our own entries first.
            if not (self._evict() and self.budget_registry.reserve()):
                self.trace.incr("armci.region_cache_uncached")
                return
        regions[region.base] = region
        self._size += 1
        self._freq[key] = 1
        self._clock += 1
        self._age[key] = self._clock

    def _evict(self) -> bool:
        """Evict the least-frequently-used *unpinned* entry.

        Returns False when every entry is pinned (nothing evictable).
        """
        candidates = [k for k in self._freq if k not in self._pins]
        if not candidates:
            return False
        victim = min(candidates, key=lambda k: (self._freq[k], self._age[k]))
        owner, base = victim
        # Keep empty per-owner dicts: an in-flight insert may still hold a
        # reference to one.
        del self._by_owner[owner][base]
        self._size -= 1
        del self._freq[victim]
        del self._age[victim]
        if self.budget_registry is not None:
            self.budget_registry.release()
        self.trace.incr("armci.region_cache_evictions")
        return True

    def evict_for_budget(self, slots: int = 1) -> int:
        """Evict up to ``slots`` unpinned entries to free budget slots.

        Called by the runtime when a local registration fails with the
        budget exhausted: cached remote handles are expendable (they can
        be re-fetched), local registrations are not. Returns the number
        of slots actually freed; 0 when the cache holds no budget or
        everything is pinned.
        """
        if self.budget_registry is None:
            return 0
        freed = 0
        while freed < slots and self._evict():
            freed += 1
        if freed:
            self.trace.incr("armci.region_budget_reclaims", freed)
        return freed

    def invalidate(self, owner: int, base: int) -> None:
        """Drop a cached handle (the region was destroyed at its owner)."""
        regions = self._by_owner.get(owner)
        if regions is not None and base in regions:
            del regions[base]
            self._size -= 1
            del self._freq[(owner, base)]
            del self._age[(owner, base)]
            self._pins.pop((owner, base), None)
            if self.budget_registry is not None:
                self.budget_registry.release()

    def invalidate_rank(self, owner: int) -> None:
        """Drop every cached handle owned by ``owner`` (non-generator).

        Crash recovery: a respawned rank's old registrations are gone, so
        every handle pointing at its previous incarnation is poison.
        """
        regions = self._by_owner.get(owner)
        if not regions:
            return
        for base in list(regions):
            self.invalidate(owner, base)

    def space_bytes(self, gamma: int) -> int:
        """Current cache footprint: entries * gamma (Eq. 5 second term)."""
        return self._size * gamma
