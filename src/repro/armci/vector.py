"""General I/O-vector datatype (ARMCI_PutV / ARMCI_GetV).

ARMCI's third datatype class (Section II-B): an explicit list of
(source address, destination address, length) segments, used when the
transfer pattern has no uniform stride. The paper notes strided
descriptors cost far less metadata *when applicable*; the vector
interface is the general fall-back.

Protocols mirror the strided ones: one non-blocking RDMA per segment
(zero-copy) when regions are available, or a packed active message
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ArmciError
from ..pami.activemsg import AmEnvelope
from ..pami.context import CompletionItem, PamiContext, WorkItem
from ..pami.memory import as_u8
from .handles import Handle

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess


@dataclass(frozen=True)
class IoVector:
    """One I/O-vector: parallel lists of segment addresses and lengths."""

    local_addrs: tuple[int, ...]
    remote_addrs: tuple[int, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.lengths)
        if n == 0:
            raise ArmciError("I/O vector must have at least one segment")
        if len(self.local_addrs) != n or len(self.remote_addrs) != n:
            raise ArmciError(
                f"I/O vector arity mismatch: {len(self.local_addrs)} local, "
                f"{len(self.remote_addrs)} remote, {n} lengths"
            )
        if any(length <= 0 for length in self.lengths):
            raise ArmciError(f"segment lengths must be positive: {self.lengths}")

    @property
    def total_bytes(self) -> int:
        """Total payload across all segments."""
        return sum(self.lengths)

    @property
    def num_segments(self) -> int:
        return len(self.lengths)

    def metadata_bytes(self) -> int:
        """Descriptor size: 3 words per segment (vs 2 ints + strides for
        the uniformly-strided descriptor — the paper's 'very little
        memory' comparison)."""
        return 24 * self.num_segments

    def remote_extent(self) -> tuple[int, int]:
        """(min address, bytes) covering all remote segments."""
        lo = min(self.remote_addrs)
        hi = max(a + n for a, n in zip(self.remote_addrs, self.lengths))
        return lo, hi - lo

    def coalesced_segments(self) -> list[tuple[int, int, int]]:
        """Merge segments adjacent on *both* sides into maximal runs.

        Walks segments in posting order and extends the current run when
        the next segment starts exactly at the run's end locally *and*
        remotely. Returns ``(local_addr, remote_addr, nbytes)`` triples;
        a vector of back-to-back segments collapses to one RDMA.
        """
        runs: list[list[int]] = []
        for laddr, raddr, length in zip(
            self.local_addrs, self.remote_addrs, self.lengths
        ):
            if (
                runs
                and runs[-1][0] + runs[-1][2] == laddr
                and runs[-1][1] + runs[-1][2] == raddr
            ):
                runs[-1][2] += length
            else:
                runs.append([laddr, raddr, length])
        return [(l, r, n) for l, r, n in runs]


def ensure_local_segments(rt: "ArmciProcess", vec: IoVector):
    """Register every distinct local segment the vector touches.

    Generator returning ``True`` when all registrations hold (RDMA is
    usable) and ``False`` if any failed (callers fall back to packing).
    """
    from .contiguous import ensure_local_region

    seen: set[int] = set()
    space = rt.world.space(rt.rank)
    for addr, length in zip(vec.local_addrs, vec.lengths):
        base, _nbytes = space.segment_bounds(addr)
        if base in seen:
            continue
        seen.add(base)
        region = yield from ensure_local_region(rt, addr, length)
        if region is None:
            return False
    return True


def _vector_ops(rt: "ArmciProcess", vec: IoVector) -> list[tuple[int, int, int]]:
    """The (local, remote, nbytes) RDMA op list for one vector transfer.

    Coalescing off: exactly one op per segment. On: doubly-adjacent
    segment runs merge, recorded in ``armci.vector_segments_coalesced``.
    """
    if rt.coalesce_enabled:
        runs = vec.coalesced_segments()
        merged = vec.num_segments - len(runs)
        if merged:
            rt.trace.incr("armci.vector_segments_coalesced", merged)
        return runs
    return list(zip(vec.local_addrs, vec.remote_addrs, vec.lengths))


def nbputv_zero_copy(
    rt: "ArmciProcess", dst: int, vec: IoVector, handle: Handle
) -> Handle:
    """One non-blocking RDMA put per vector segment run."""
    ctx = rt.main_context
    ops = _vector_ops(rt, vec)
    for laddr, raddr, length in ops:
        op = rt.transport.rdma_put(
            ctx, dst, laddr, raddr, length, want_remote_ack=True
        )
        handle.add_event(op.local_event)
        rt.track_write_ack(dst, op.remote_ack_event)
    rt.trace.incr("armci.vector_rdma_ops", len(ops))
    rt.trace.incr("armci.putv_zero_copy")
    return handle


def nbgetv_zero_copy(
    rt: "ArmciProcess", dst: int, vec: IoVector, handle: Handle
) -> Handle:
    """One non-blocking RDMA get per vector segment run."""
    ctx = rt.main_context
    ops = _vector_ops(rt, vec)
    for laddr, raddr, length in ops:
        op = rt.transport.rdma_get(ctx, dst, raddr, laddr, length)
        handle.add_event(op.local_event)
    rt.trace.incr("armci.vector_rdma_ops", len(ops))
    rt.trace.incr("armci.getv_zero_copy")
    return handle


class SegmentLayout:
    """One side of an I/O-vector transfer, as the RDMA primitives'
    layout (the NIC walks the segment list; the wire carries it packed)."""

    __slots__ = ("addrs", "lengths", "total")

    def __init__(self, addrs, lengths, total: int) -> None:
        self.addrs = addrs
        self.lengths = lengths
        self.total = total

    def gather(self, space) -> np.ndarray:
        return _gather_segments(space, self.addrs, self.lengths, self.total)

    def scatter(self, space, data) -> None:
        _scatter_segments(space, self.addrs, self.lengths, data)


def nbputv_typed(
    rt: "ArmciProcess", dst: int, vec: IoVector, handle: Handle
) -> Handle:
    """Single typed-datatype message carrying all vector segments.

    The aggregation path (Fig. 5's remedy for many small messages): one
    message overhead for the whole vector plus a small per-segment NIC
    descriptor cost, with the NIC scattering fragments at the target.
    """
    total = vec.total_bytes
    op = rt.transport.rdma_put(
        rt.main_context, dst,
        SegmentLayout(vec.local_addrs, vec.lengths, total),
        SegmentLayout(vec.remote_addrs, vec.lengths, total),
        total,
        want_remote_ack=True,
        extra_occupancy=vec.num_segments * rt.world.params.typed_descriptor_time,
    )
    handle.add_event(op.local_event)
    rt.track_write_ack(dst, op.remote_ack_event)
    rt.trace.incr("armci.putv_typed")
    return handle


# ------------------------------------------------------------- fall-back


def _gather_segments(space, addrs, lengths, total: int) -> np.ndarray:
    """Pack segments into one private staging buffer via view-assigns."""
    out = np.empty(total, dtype=np.uint8)
    offset = 0
    for addr, length in zip(addrs, lengths):
        out[offset : offset + length] = space.view(addr, length)
        offset += length
    return out


def _scatter_segments(space, addrs, lengths, data) -> None:
    """Unpack a contiguous buffer into segments, one view-assign each."""
    buf = as_u8(data)
    offset = 0
    for addr, length in zip(addrs, lengths):
        space.write_into(addr, buf[offset : offset + length])
        offset += length


def nbputv_pack(
    rt: "ArmciProcess", dst: int, vec: IoVector, handle: Handle
) -> Handle:
    """Packed-AM vector put for unregistered targets."""
    world = rt.world
    space = world.space(rt.rank)
    data = _gather_segments(space, vec.local_addrs, vec.lengths, vec.total_bytes)
    ctx = rt.main_context
    ack = world.engine.event(f"putv.ack.{rt.rank}->{dst}")
    header = {
        "addrs": vec.remote_addrs,
        "lengths": vec.lengths,
        "ack": ack,
        "reply_ctx": ctx,
        "_cost": vec.total_bytes * world.params.pack_byte_time,
    }
    if rt.flow_enabled:
        header["_credit"] = True
    op = rt.transport.send_am(
        ctx,
        dst,
        _VECTOR_PUT_ID,
        header=header,
        payload=data,
    )
    handle.add_event(op.local_event)
    if rt.chaos_enabled:
        # Surfaces a transiently-lost packed vector put at its own wait.
        handle.add_event(ack)
    rt.track_write_ack(dst, ack)
    rt.trace.incr("armci.putv_pack")
    return handle


_VECTOR_PUT_ID = 9
_VECTOR_GET_ID = 10


def handle_vector_put(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Target side of packed vector put: scatter segments, ack."""
    h = env.header
    space = rt.world.space(rt.rank)
    _scatter_segments(space, h["addrs"], h["lengths"], env.payload)
    hops = rt.world.network.hops(rt.rank, env.src)
    reply_ctx: PamiContext = h["reply_ctx"]
    rt.engine.schedule(
        hops * rt.world.params.hop_latency,
        lambda _a: reply_ctx.post(CompletionItem(h["ack"])),
    )


class _VectorGetReplyItem(WorkItem):
    """Packed vector-get reply: scatter into local segments, complete."""

    __slots__ = ("data", "local_addrs", "lengths", "event")

    def __init__(self, data, local_addrs, lengths, event) -> None:
        self.data = data
        self.local_addrs = local_addrs
        self.lengths = lengths
        self.event = event

    def cost(self, ctx: PamiContext) -> float:
        p = ctx.params
        return (
            p.am_handler_time
            + len(self.data) * (p.shm_byte_time + p.pack_byte_time)
        )

    def execute(self, ctx: PamiContext) -> None:
        space = ctx.client.world.space(ctx.client.rank)
        _scatter_segments(space, self.local_addrs, self.lengths, self.data)
        self.event.succeed()


def nbgetv_pack(
    rt: "ArmciProcess", dst: int, vec: IoVector, handle: Handle
) -> Handle:
    """Packed-AM vector get: target gathers and streams one message."""
    ctx = rt.main_context
    done = rt.engine.event(f"getv.{rt.rank}<-{dst}")
    header = {
        "remote_addrs": vec.remote_addrs,
        "local_addrs": vec.local_addrs,
        "lengths": vec.lengths,
        "event": done,
        "reply_ctx": ctx,
    }
    if rt.flow_enabled:
        header["_credit"] = True
    rt.transport.send_am(
        ctx,
        dst,
        _VECTOR_GET_ID,
        header=header,
    )
    handle.add_event(done)
    rt.trace.incr("armci.getv_pack")
    return handle


def handle_vector_get(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Target side of packed vector get: gather and reply."""
    h = env.header
    space = rt.world.space(rt.rank)
    data = _gather_segments(
        space, h["remote_addrs"], h["lengths"], sum(h["lengths"])
    )
    pack_cost = len(data) * rt.world.params.pack_byte_time
    timing = rt.world.network.am_payload_timing(rt.rank, env.src, len(data))
    reply_ctx: PamiContext = h["reply_ctx"]
    rt.engine.schedule(
        timing.deliver + pack_cost - rt.engine.now,
        lambda _a: reply_ctx.post(
            _VectorGetReplyItem(data, h["local_addrs"], h["lengths"], h["event"])
        ),
    )
