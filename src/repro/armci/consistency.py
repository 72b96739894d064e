"""Conflicting-memory-access tracking for location consistency.

ARMCI provides location consistency (Gao & Sarkar): reads from a process
must observe that process's memory after all of the reader's own
outstanding writes to it. Concretely, an outstanding write (put or
accumulate) to a target must be *fenced* before a read (get) is serviced
from that target (Section III-E).

Two trackers implement the check:

- :class:`CsTgtTracker` — the naive design: one read/write status per
  target rank, Theta(zeta) space. Suffers **false positives**: a get from
  matrix ``A`` on rank r forces a fence even when the only outstanding
  writes to r touch matrix ``C`` (the paper's dgemm example).
- :class:`CsMrTracker` — the proposed design: an 8-bit status per
  (memory region, target) pair, Theta(sigma * zeta) space. Reads of one
  distributed structure never fence writes to another. Accumulates are
  associative, so ordering among them is never enforced.

The dgemm ablation benchmark counts fences under each tracker.
"""

from __future__ import annotations

from ..errors import ArmciError

#: Status bits (stored in an 8-bit field per entry, as in the paper).
READ_BIT = 0x01
WRITE_BIT = 0x02

#: A region key identifies one distributed structure's segment on one
#: target: (target_rank, region_base_address).
RegionKey = tuple[int, int]


class ConsistencyTracker:
    """Interface: subclass and implement the three hooks."""

    def on_get(self, dst: int, key: RegionKey) -> None:
        """Record a read (get) from ``key`` on ``dst``."""
        raise NotImplementedError

    def on_write(self, dst: int, key: RegionKey) -> None:
        """Record a write (put/accumulate) to ``key`` on ``dst``."""
        raise NotImplementedError

    def needs_fence(self, dst: int, key: RegionKey) -> bool:
        """Whether a get from ``key`` on ``dst`` must fence first."""
        raise NotImplementedError

    def on_fence(self, dst: int) -> None:
        """All outstanding writes to ``dst`` have remotely completed."""
        raise NotImplementedError


class CsTgtTracker(ConsistencyTracker):
    """Naive per-target status (``cs_tgt``): Theta(zeta) space."""

    def __init__(self) -> None:
        self._status: dict[int, int] = {}

    def on_get(self, dst: int, key: RegionKey) -> None:
        self._status[dst] = self._status.get(dst, 0) | READ_BIT

    def on_write(self, dst: int, key: RegionKey) -> None:
        self._status[dst] = self._status.get(dst, 0) | WRITE_BIT

    def needs_fence(self, dst: int, key: RegionKey) -> bool:
        # Any outstanding write to the target forces a fence — even if it
        # touched a different distributed structure (false positive).
        return bool(self._status.get(dst, 0) & WRITE_BIT)

    def on_fence(self, dst: int) -> None:
        self._status.pop(dst, None)

    @property
    def space_entries(self) -> int:
        """Tracked entries (Theta(zeta))."""
        return len(self._status)


class CsMrTracker(ConsistencyTracker):
    """Proposed per-(region, target) status (``cs_mr``).

    Theta(sigma * zeta) space — a slight increase the paper accepts to
    eliminate false-positive synchronization.
    """

    def __init__(self) -> None:
        self._status: dict[RegionKey, int] = {}

    @staticmethod
    def _check_key(key: RegionKey) -> None:
        if key is None:
            raise ArmciError("cs_mr tracker requires a region key")

    def on_get(self, dst: int, key: RegionKey) -> None:
        self._check_key(key)
        self._status[key] = self._status.get(key, 0) | READ_BIT

    def on_write(self, dst: int, key: RegionKey) -> None:
        self._check_key(key)
        self._status[key] = self._status.get(key, 0) | WRITE_BIT

    def needs_fence(self, dst: int, key: RegionKey) -> bool:
        # Only a write outstanding on the *same* region forces the fence.
        self._check_key(key)
        return bool(self._status.get(key, 0) & WRITE_BIT)

    def on_fence(self, dst: int) -> None:
        # A fence completes every outstanding write to that target, across
        # all regions.
        for key in [k for k in self._status if k[0] == dst]:
            if self._status[key] & WRITE_BIT:
                self._status[key] &= ~WRITE_BIT
                if not self._status[key]:
                    del self._status[key]

    @property
    def space_entries(self) -> int:
        """Tracked entries (Theta(sigma * zeta))."""
        return len(self._status)


#: The trackers that exist: the paper's two designs (Section III-E),
#: keyed by :attr:`~repro.armci.config.ArmciConfig.consistency_tracker`
#: name. Config validation and :func:`make_tracker` both read this table.
TRACKERS: dict[str, type[ConsistencyTracker]] = {
    "cs_tgt": CsTgtTracker,
    "cs_mr": CsMrTracker,
}


def make_tracker(name: str) -> ConsistencyTracker:
    """Factory keyed by :class:`~repro.armci.config.ArmciConfig` names."""
    factory = TRACKERS.get(name)
    if factory is None:
        raise ArmciError(f"unknown tracker {name!r}; valid: {tuple(TRACKERS)}")
    return factory()
