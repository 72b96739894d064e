"""Message aggregation over aggregate handles.

Figure 5's point: below ~4 KB the per-message overhead dominates, so
applications issuing many small writes should aggregate them. ARMCI's
aggregate handles do exactly that: puts posted under an open aggregate
are buffered as I/O-vector segments and shipped as one combined message
at flush — paying Eq. 7's ``o`` once instead of once per fragment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from ..errors import ArmciError
from .handles import Handle
from .vector import IoVector

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess


def _aggregation_buffer(rt: "ArmciProcess", nbytes: int) -> int:
    """The rank's staging buffer for aggregation flushes.

    Grows geometrically; a regrow frees the outgrown segment (and drops
    its NIC registration, returning the budget slot) instead of leaking
    it. Safe at this point: the previous flush snapshots its payload at
    post time and has completed locally before the next flush stages.
    """
    state = getattr(rt, "_agg_buffer", None)
    if state is None or nbytes > state[1]:
        size = max(nbytes, 64 * 1024, 0 if state is None else 2 * state[1])
        space = rt.world.space(rt.rank)
        addr = space.allocate(size)
        if state is not None:
            old_addr, old_size = state
            registry = rt.world.regions[rt.rank]
            region = registry.find(old_addr, old_size)
            if region is not None:
                registry.destroy(region)
            space.free(old_addr)
            rt.trace.incr("armci.aggregate_buffer_regrows")
        state = (addr, size)
        rt._agg_buffer = state
    return state[0]


@dataclass
class AggregateHandle:
    """Buffers small puts to one destination until :meth:`flush`.

    Data is staged eagerly (buffer-reuse semantics hold for each
    ``put`` call), so callers may immediately overwrite their source
    buffers.
    """

    owner: "ArmciProcess"
    dst: int
    #: Optional observer called as ``on_flush(total_bytes, segments)``
    #: after each successful flush — the serve layer's batching
    #: dashboards hang off this without touching the hot path (``None``,
    #: the default, costs one test).
    on_flush: Any = None
    _staged: list[tuple[int, Any]] = field(default_factory=list)
    _flushed: bool = False

    def put(self, local_addr: int, remote_addr: int, nbytes: int) -> None:
        """Stage one fragment (non-generator: staging is a local copy).

        Raises
        ------
        ArmciError
            If the aggregate was already flushed.
        """
        if self._flushed:
            raise ArmciError("aggregate handle already flushed")
        if nbytes <= 0:
            raise ArmciError(f"fragment size must be positive, got {nbytes}")
        data = self.owner.world.space(self.owner.rank).snapshot(local_addr, nbytes)
        self._staged.append((remote_addr, data))
        self.owner.trace.incr("armci.aggregate_staged")

    def flush_if_pending(self) -> Generator[Any, Any, Handle | None]:
        """Flush when fragments are staged; no-op (``None``) otherwise.

        The replication shipper uses this: an epoch with no dirty chunks
        toward one buddy must not pay (or crash on) an empty flush.
        """
        if not self._staged:
            self._flushed = True
            return None
        return (yield from self.flush())

    def flush(self) -> Generator[Any, Any, Handle]:
        """Ship all staged fragments as one combined vector put.

        Returns the underlying non-blocking :class:`Handle` after local
        completion (the combined message is on the wire; fence for
        remote completion as usual).
        """
        if self._flushed:
            raise ArmciError("aggregate handle already flushed")
        self._flushed = True
        if not self._staged:
            raise ArmciError("flush of an empty aggregate")
        rt = self.owner
        # Stage the combined payload in the rank's persistent aggregation
        # buffer: registered once, reused across flushes (a fresh buffer
        # per flush would pay a 43 us region registration every time).
        space = rt.world.space(rt.rank)
        total = sum(len(d) for _a, d in self._staged)
        scratch = _aggregation_buffer(rt, total)
        local_addrs = []
        offset = 0
        for _addr, data in self._staged:
            space.write_into(scratch + offset, data)
            local_addrs.append(scratch + offset)
            offset += len(data)
        vec = IoVector(
            tuple(local_addrs),
            tuple(a for a, _d in self._staged),
            tuple(len(d) for _a, d in self._staged),
        )
        def attempt() -> Generator[Any, Any, Handle]:
            h = yield from rt.nbputv_aggregated(self.dst, vec)
            yield from h.wait()
            return h

        with rt.span(
            "op", "aggregate_flush",
            dst=self.dst, nbytes=total, fragments=vec.num_segments,
        ):
            handle = yield from rt._with_retry(attempt, "aggregate_flush")
        rt.trace.incr("armci.aggregate_flushes")
        if self.on_flush is not None:
            self.on_flush(total, vec.num_segments)
        return handle
