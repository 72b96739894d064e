"""Replica bookkeeping for protected memory regions.

Each protected region keeps three images:

- the **live** segment in the owner's address space (the application
  writes here as usual);
- a host-side **committed** copy on the owner — the local half of the
  in-memory checkpoint, used as the diff base for incremental epochs and
  for survivor rollback;
- a **shadow** segment in the buddy's address space holding the same
  committed image, shipped over the simulated network — the remote half,
  used to reconstruct a respawned rank.

Dirty chunks travel into a **stage** segment next to the shadow and are
promoted stage->shadow only at the atomic epoch commit, so a crash
mid-checkpoint leaves the shadow intact at the previous epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ProtectedRegion:
    """One replicated memory region."""

    owner: int
    addr: int
    nbytes: int
    buddy: int
    #: Shadow segment (committed replica) in the buddy's address space.
    shadow_addr: int
    #: Stage segment (in-flight journal data) in the buddy's address space.
    stage_addr: int
    #: Owner-side committed image (epoch N); the diff base.
    committed: np.ndarray = field(default=None)  # type: ignore[assignment]
    #: Owner-side pending image snapshot taken while shipping epoch N+1.
    pending: np.ndarray | None = None
    #: Journal of this epoch's staged fragments:
    #: ``(region_offset, nbytes, stage_offset)`` triples.
    journal: list[tuple[int, int, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.committed is None:
            # Fresh allocations are zero-filled, so the committed image,
            # the live segment, and the (zero-filled) shadow agree from
            # the start.
            self.committed = np.zeros(self.nbytes, dtype=np.uint8)


@dataclass
class ReplicationStore:
    """Per-rank recovery state, owned by the manager (job-level).

    The store survives the rank's death — it models the recovery
    service's metadata, which in a real deployment lives with the job
    manager, not in the failed process image.
    """

    rank: int
    regions: list[ProtectedRegion] = field(default_factory=list)
    #: Highest epoch whose checkpoint committed (-1: none yet).
    committed_epoch: int = -1
    #: Committed application-state pickle (owner-side copy).
    state_pickle: bytes | None = None
    #: In-flight application-state pickle for the epoch being committed.
    pending_state: bytes | None = None
    #: Buddy-side segment holding the committed state pickle.
    state_shadow_addr: int | None = None
    state_shadow_cap: int = 0
    #: Buddy-side staging segment for the in-flight state pickle.
    state_stage_addr: int | None = None
    state_stage_cap: int = 0
    #: False while the buddy-side replica is lost (buddy died and
    #: re-replication has not completed). A rank dying while its own
    #: flag is down is unrecoverable.
    replica_valid: bool = True

    @property
    def buddy(self) -> int | None:
        return self.regions[0].buddy if self.regions else None
