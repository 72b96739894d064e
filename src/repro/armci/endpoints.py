"""Endpoint cache.

Endpoints are created lazily as the communication clique (zeta) grows
during the application's lifetime and cached forever: alpha = 4 bytes and
beta = 0.3 us each (Eqs. 3-4), cheap enough to keep one per destination
even at full scale.
"""

from __future__ import annotations

from typing import Any, Generator

from ..obs.metrics import MetricsRegistry
from ..pami.endpoint import Endpoint
from ..sim.primitives import Delay


class EndpointCache:
    """Per-process endpoint table, filled on first use of a destination."""

    def __init__(
        self, owner_rank: int, create_time: float, trace: MetricsRegistry
    ) -> None:
        self.owner_rank = owner_rank
        self.create_time = create_time
        self.trace = trace
        self._cache: dict[tuple[int, int], Endpoint] = {}

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def clique_size(self) -> int:
        """Distinct destination ranks contacted so far (zeta)."""
        return len({target for target, _ctx in self._cache})

    def hit(self, target_rank: int, context_index: int = 0) -> Endpoint | None:
        """The cached endpoint, counted as a hit, or ``None``
        (non-generator: a hit costs no simulated time, so the per-op
        path asks here and enters :meth:`get` only on ``None``)."""
        endpoint = self._cache.get((target_rank, context_index))
        if endpoint is not None:
            self.trace.counters["armci.endpoint_cache_hits"] += 1
        return endpoint

    def get(
        self, target_rank: int, context_index: int = 0
    ) -> Generator[Any, Any, Endpoint]:
        """Endpoint for ``(target_rank, context_index)``; creates on miss.

        Endpoint creation is local (no communication) but costs beta.
        """
        endpoint = self.hit(target_rank, context_index)
        if endpoint is None:
            yield Delay(self.create_time)
            endpoint = Endpoint(self.owner_rank, target_rank, context_index)
            self._cache[(target_rank, context_index)] = endpoint
            self.trace.incr("armci.endpoints_created")
        return endpoint

    def space_bytes(self, alpha: int) -> int:
        """Space used by the cache: entries * alpha (Eq. 3)."""
        return len(self._cache) * alpha
