"""Communication endpoints.

An endpoint addresses a destination ``(rank, context)`` within a client
(Section III-A). Creation is a purely *local* operation costing beta =
0.3 us and alpha = 4 bytes (Table II); ARMCI caches one endpoint per
destination in its communication clique (Eq. 3/4).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PamiError


@dataclass(frozen=True, slots=True)
class Endpoint:
    """Addresses ``(target_rank, context_index)`` in the job.

    Attributes
    ----------
    owner_rank:
        Rank that created (and caches) this endpoint.
    target_rank:
        Destination process.
    context_index:
        Destination context the endpoint routes to.
    """

    owner_rank: int
    target_rank: int
    context_index: int

    def __post_init__(self) -> None:
        if self.owner_rank < 0 or self.target_rank < 0:
            raise PamiError(
                f"ranks must be >= 0, got owner={self.owner_rank}, "
                f"target={self.target_rank}"
            )
        if self.context_index < 0:
            raise PamiError(
                f"context index must be >= 0, got {self.context_index}"
            )
