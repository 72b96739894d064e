"""RDMA memory regions.

A memory region must be created (registered with the NIC) before its memory
can be the source or target of RDMA (Section III-B). Region metadata is
small (gamma = 8 bytes, size-independent) but creation is slow (delta =
43 us) and *can fail* at scale under memory constraints — the trigger for
ARMCI's active-message fall-back protocol (Section III-C.1). The registry
enforces an optional region budget to reproduce that failure mode.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Any, Generator

from ..errors import PamiError, ResourceExhaustedError
from ..sim.primitives import Delay


@dataclass(frozen=True, slots=True)
class MemoryRegion:
    """Registered memory usable for RDMA.

    Attributes
    ----------
    rank:
        Owning process.
    base:
        First virtual address covered.
    nbytes:
        Extent in bytes.
    region_id:
        Registration order within the owning registry.
    """

    rank: int
    base: int
    nbytes: int
    region_id: int

    def covers(self, addr: int, nbytes: int) -> bool:
        """Whether ``[addr, addr+nbytes)`` lies inside this region."""
        return self.base <= addr and addr + nbytes <= self.base + self.nbytes


class MemoryRegionRegistry:
    """Per-process table of created memory regions.

    Parameters
    ----------
    rank:
        Owning process rank.
    create_time:
        Simulated cost of one registration (delta, Table II).
    max_regions:
        Optional budget; creations beyond it raise
        :class:`ResourceExhaustedError`, triggering ARMCI's fall-back.
    """

    __slots__ = ("rank", "create_time", "max_regions", "_bases", "_regions",
                 "_next_id", "_reserved")

    def __init__(
        self, rank: int, create_time: float, max_regions: int | None = None
    ) -> None:
        if max_regions is not None and max_regions < 0:
            raise PamiError(f"max_regions must be >= 0, got {max_regions}")
        self.rank = rank
        self.create_time = create_time
        self.max_regions = max_regions
        self._bases: list[int] = []
        self._regions: dict[int, MemoryRegion] = {}
        self._next_id = 0
        self._reserved = 0

    def __len__(self) -> int:
        return len(self._regions)

    @property
    def in_use(self) -> int:
        """Budget slots consumed: registered regions plus reservations."""
        return len(self._regions) + self._reserved

    def reserve(self) -> bool:
        """Claim one budget slot for an external holder (region cache).

        Cached *remote* region handles pin NIC resources just like local
        registrations; when the cache is bound to a budget its entries
        draw from the same pool. Returns False when no slot is free.
        """
        if self.max_regions is not None and self.in_use >= self.max_regions:
            return False
        self._reserved += 1
        return True

    def release(self) -> None:
        """Return a slot taken with :meth:`reserve`."""
        if self._reserved <= 0:
            raise PamiError(f"rank {self.rank}: releasing unreserved slot")
        self._reserved -= 1

    def exhaust(self) -> int:
        """Clamp the budget to what is currently in use (chaos fault).

        Every subsequent :meth:`create`/:meth:`reserve` fails until a
        slot frees (destroy/release), modelling registration failure
        under node-wide memory pressure. Returns the clamped budget.
        """
        self.max_regions = self.in_use
        return self.max_regions

    def create(self, base: int, nbytes: int) -> Generator[Any, Any, MemoryRegion]:
        """Register ``[base, base+nbytes)``; a generator costing delta.

        Raises
        ------
        ResourceExhaustedError
            If the region budget is exhausted (**before** time is charged,
            as a failed PAMI_Memregion_create returns quickly).
        PamiError
            If the range overlaps an existing region.
        """
        if nbytes <= 0:
            raise PamiError(f"region size must be positive, got {nbytes}")
        if self.max_regions is not None and self.in_use >= self.max_regions:
            raise ResourceExhaustedError(
                f"rank {self.rank}: memory-region budget "
                f"({self.max_regions}) exhausted"
            )
        if self._overlaps(base, nbytes):
            raise PamiError(
                f"rank {self.rank}: region [{base:#x}, +{nbytes}) overlaps "
                "an existing region"
            )
        yield Delay(self.create_time)
        region = MemoryRegion(self.rank, base, nbytes, self._next_id)
        self._next_id += 1
        self._regions[base] = region
        bisect.insort(self._bases, base)
        return region

    def _overlaps(self, base: int, nbytes: int) -> bool:
        idx = bisect.bisect_right(self._bases, base)
        if idx > 0:
            prev = self._regions[self._bases[idx - 1]]
            if prev.base + prev.nbytes > base:
                return True
        if idx < len(self._bases):
            nxt = self._regions[self._bases[idx]]
            if base + nbytes > nxt.base:
                return True
        return False

    def find(self, addr: int, nbytes: int) -> MemoryRegion | None:
        """Region covering ``[addr, addr+nbytes)``, or ``None``."""
        idx = bisect.bisect_right(self._bases, addr)
        if idx == 0:
            return None
        region = self._regions[self._bases[idx - 1]]
        return region if region.covers(addr, nbytes) else None

    def destroy(self, region: MemoryRegion) -> None:
        """Deregister a region.

        Raises
        ------
        PamiError
            If the region is not registered here.
        """
        if self._regions.get(region.base) is not region:
            raise PamiError(
                f"rank {self.rank}: destroying unknown region {region}"
            )
        del self._regions[region.base]
        self._bases.remove(region.base)
