"""Simulated IBM PAMI (Parallel Active Messaging Interface) for BG/Q.

Exposes the primitives the paper builds ARMCI on (Section III-A):

- :class:`PamiWorld` — one simulated job (engine + network + per-rank state);
- :class:`PamiClient` — per-process client owning communication contexts;
- :class:`PamiContext` — a threading point with its own progress engine,
  work queue, and lock;
- :class:`Endpoint` — addresses a (rank, context) pair;
- :class:`MemoryRegion` — registered memory usable as an RDMA source/target;
- active messages with local/remote callbacks (:mod:`~repro.pami.activemsg`);
- RDMA put/get and non-RDMA get (:mod:`~repro.pami.rma`);
- read-modify-write AMOs, **software-serviced** — BG/Q PAMI exposes no NIC
  hardware for generic AMOs, the central limitation the paper's
  asynchronous-thread design works around (:mod:`~repro.pami.atomics`).
"""

from .memory import AddressSpace
from .context import PamiContext
from .client import PamiClient
from .endpoint import Endpoint
from .memregion import MemoryRegion, MemoryRegionRegistry
from .world import PamiWorld

__all__ = [
    "AddressSpace",
    "Endpoint",
    "MemoryRegion",
    "MemoryRegionRegistry",
    "PamiClient",
    "PamiContext",
    "PamiWorld",
]
