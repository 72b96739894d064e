"""Shared load-balance counters (NWChem's ``nxtask``).

A single 64-bit integer hosted on one rank; every process draws task ids
with ``fetch_add``. On BG/Q each draw is serviced by the host's software
progress engine — the primitive whose acceleration is the paper's
headline application result (Figs. 9-11).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..errors import ArmciError, ProcessFailedError

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.runtime import ArmciProcess


class SharedCounter:
    """A fetch-and-add counter on a host rank.

    Create collectively with :meth:`create`; every rank gets an equivalent
    handle to the same storage.
    """

    def __init__(self, host: int, addr: int, alloc=None) -> None:
        self.host = host
        self.addr = addr
        #: The backing collective :class:`~repro.armci.runtime.Allocation`
        #: when created via :meth:`create` (``None`` for raw handles).
        #: Crash recovery protects counters through this — the counter
        #: value lives in replicated memory and rolls back with it.
        self.alloc = alloc

    @classmethod
    def create(
        cls, rt: "ArmciProcess", host: int = 0
    ) -> Generator[Any, Any, "SharedCounter"]:
        """Collective creation; the counter starts at zero."""
        if not 0 <= host < rt.world.num_procs:
            raise ArmciError(f"counter host {host} out of range")
        alloc = yield from rt.malloc(8)
        return cls(host, alloc.addr(host), alloc)

    def next(self, rt: "ArmciProcess") -> Generator[Any, Any, int]:
        """Draw the next value (returns the pre-increment value)."""
        old = yield from rt.rmw(self.host, self.addr, "fetch_add", 1)
        rt.trace.incr("gax.counter_draws")
        return old

    def fetch_max(
        self, rt: "ArmciProcess", watermark: int
    ) -> Generator[Any, Any, bool]:
        """Raise the counter to at least ``watermark``.

        Concurrent merges from several survivors converge on the furthest
        progress any of them witnessed, and replaying one is harmless.
        Returns ``False`` instead of raising when the host is dead, so a
        failover chain can continue elsewhere.
        """
        try:
            yield from rt.rmw(self.host, self.addr, "fetch_max", watermark)
        except ProcessFailedError:
            return False
        rt.trace.incr("gax.watermarks_merged")
        return True

    def reset(self, rt: "ArmciProcess") -> Generator[Any, Any, int]:
        """Reset to zero; returns the old value (host-side swap)."""
        return (yield from rt.rmw(self.host, self.addr, "swap", 0))
