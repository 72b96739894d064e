"""Uniformly non-contiguous (strided) datatype protocols (Section III-C.2).

Three implementations:

- **zero_copy** (proposed): post one non-blocking RDMA per contiguous
  chunk, exploiting the network's messaging rate — Eq. 9,
  ``T ~ o * m/l0 + m G``. No intermediate buffering, no flow control, no
  remote progress.
- **pack** (legacy baseline): pack chunks into a contiguous bounce buffer,
  ship one active message, unpack in the target's progress engine.
  Requires remote progress and double-copies every byte.
- **typed** (for tall-skinny patches under ``strided_protocol="auto"``):
  a single PAMI typed-datatype transfer whose NIC walks the chunk list;
  per-chunk cost is a descriptor fetch, far below a full message overhead.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ArmciError
from ..pami.activemsg import AmEnvelope
from ..pami.context import CompletionItem, PamiContext, WorkItem
from ..pami.memory import as_u8
from ..types import StridedDescriptor
from .handles import Handle

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess


def _gather(space, base: int, desc: StridedDescriptor, side: str) -> np.ndarray:
    """Pack all chunks of one side into one private contiguous buffer.

    Staging buffer is allocated once and filled by view-assigns — no
    per-chunk ``bytes`` objects, no ``b"".join`` reallocation.
    """
    chunk = desc.shape.chunk_bytes
    out = np.empty(desc.shape.total_bytes, dtype=np.uint8)
    pos = 0
    for off in desc.chunk_offsets(side):
        out[pos : pos + chunk] = space.view(base + off, chunk)
        pos += chunk
    return out


def _scatter(space, base: int, desc: StridedDescriptor, side: str, data) -> None:
    """Unpack a contiguous buffer into the chunk lattice of one side.

    ``data`` may be bytes or a uint8 ndarray; each chunk lands via a
    single view-assign from a zero-copy slice of the packed buffer.
    """
    chunk = desc.shape.chunk_bytes
    buf = as_u8(data)
    for i, off in enumerate(desc.chunk_offsets(side)):
        space.write_into(base + off, buf[i * chunk : (i + 1) * chunk])


def _rdma_ops(rt: "ArmciProcess", desc: StridedDescriptor) -> list[tuple[int, int, int]]:
    """The (src_off, dst_off, nbytes) list of RDMA ops for one transfer.

    With coalescing off this is exactly one op per chunk (the paper's
    Eq. 9 accounting); on, doubly-contiguous chunk runs merge and the
    merge count is recorded in ``armci.strided_chunks_coalesced``.
    """
    chunk = desc.shape.chunk_bytes
    if rt.coalesce_enabled:
        runs = desc.coalesced_runs()
        merged = desc.shape.num_chunks - len(runs)
        if merged:
            rt.trace.incr("armci.strided_chunks_coalesced", merged)
        return runs
    return [
        (s, d, chunk)
        for s, d in zip(desc.chunk_offsets("src"), desc.chunk_offsets("dst"))
    ]


# -------------------------------------------------------------- zero-copy


def nbput_strided_zero_copy(
    rt: "ArmciProcess",
    dst: int,
    local_base: int,
    remote_base: int,
    desc: StridedDescriptor,
    handle: Handle,
) -> Handle:
    """One non-blocking RDMA put per chunk run (the proposed protocol)."""
    ctx = rt.main_context
    ops = _rdma_ops(rt, desc)
    for src_off, dst_off, nbytes in ops:
        op = rt.transport.rdma_put(
            ctx, dst, local_base + src_off, remote_base + dst_off, nbytes,
            want_remote_ack=True,
        )
        handle.add_event(op.local_event)
        rt.track_write_ack(dst, op.remote_ack_event)
    rt.trace.incr("armci.strided_rdma_ops", len(ops))
    rt.trace.incr("armci.puts_strided_zero_copy")
    return handle


def nbget_strided_zero_copy(
    rt: "ArmciProcess",
    dst: int,
    local_base: int,
    remote_base: int,
    desc: StridedDescriptor,
    handle: Handle,
) -> Handle:
    """One non-blocking RDMA get per chunk run."""
    ctx = rt.main_context
    ops = _rdma_ops(rt, desc)
    for src_off, dst_off, nbytes in ops:
        op = rt.transport.rdma_get(
            ctx, dst, remote_base + dst_off, local_base + src_off, nbytes
        )
        handle.add_event(op.local_event)
    rt.trace.incr("armci.strided_rdma_ops", len(ops))
    rt.trace.incr("armci.gets_strided_zero_copy")
    return handle


# ------------------------------------------------------------------ typed


class StridedLayout:
    """One side of a strided transfer, as the RDMA primitives' layout
    (the NIC walks the chunk lattice; the wire carries it packed)."""

    __slots__ = ("base", "desc", "side")

    def __init__(self, base: int, desc: StridedDescriptor, side: str) -> None:
        self.base = base
        self.desc = desc
        self.side = side

    def gather(self, space) -> np.ndarray:
        return _gather(space, self.base, self.desc, self.side)

    def scatter(self, space, data) -> None:
        _scatter(space, self.base, self.desc, self.side, data)


def nbput_strided_typed(
    rt: "ArmciProcess",
    dst: int,
    local_base: int,
    remote_base: int,
    desc: StridedDescriptor,
    handle: Handle,
) -> Handle:
    """Single typed-datatype transfer for tall-skinny patches.

    The NIC walks the chunk descriptors: one message overhead total plus a
    small per-chunk descriptor cost, instead of a full message per chunk.
    """
    op = rt.transport.rdma_put(
        rt.main_context, dst,
        StridedLayout(local_base, desc, "src"),
        StridedLayout(remote_base, desc, "dst"),
        desc.shape.total_bytes,
        want_remote_ack=True,
        extra_occupancy=(
            desc.shape.num_chunks * rt.world.params.typed_descriptor_time
        ),
    )
    handle.add_event(op.local_event)
    rt.track_write_ack(dst, op.remote_ack_event)
    rt.trace.incr("armci.puts_strided_typed")
    return handle


def nbget_strided_typed(
    rt: "ArmciProcess",
    dst: int,
    local_base: int,
    remote_base: int,
    desc: StridedDescriptor,
    handle: Handle,
) -> Handle:
    """Single typed-datatype get for tall-skinny patches."""
    op = rt.transport.rdma_get(
        rt.main_context, dst,
        StridedLayout(remote_base, desc, "dst"),
        StridedLayout(local_base, desc, "src"),
        desc.shape.total_bytes,
        extra_occupancy=(
            desc.shape.num_chunks * rt.world.params.typed_descriptor_time
        ),
    )
    handle.add_event(op.local_event)
    rt.trace.incr("armci.gets_strided_typed")
    return handle


# ------------------------------------------------------------------- pack


def nbput_strided_pack(
    rt: "ArmciProcess",
    dst: int,
    local_base: int,
    remote_base: int,
    desc: StridedDescriptor,
    handle: Handle,
) -> Handle:
    """Legacy pack/unpack put: pack locally, one AM, unpack remotely."""
    world = rt.world
    total = desc.shape.total_bytes
    data = _gather(world.space(rt.rank), local_base, desc, "src")
    ctx = rt.main_context
    ack = world.engine.event(f"packput.ack.{rt.rank}->{dst}")
    unpack_cost = total * world.params.pack_byte_time
    header = {
        "remote_base": remote_base,
        "desc": desc,
        "ack": ack,
        "reply_ctx": ctx,
        "_cost": unpack_cost,
    }
    if rt.flow_enabled:
        header["_credit"] = True
    op = rt.transport.send_am(
        ctx,
        dst,
        _STRIDED_PACKED_PUT_ID,
        header=header,
        payload=data,
    )
    handle.add_event(op.local_event)
    if rt.chaos_enabled:
        # Surfaces a transiently-lost packed put at its own wait (the ack
        # cookie carries the fault token), making it retryable.
        handle.add_event(ack)
    # The local pack cost stalls the caller; charged via a pack event
    # resolved immediately by the handle machinery.
    pack_done = world.engine.event()
    world.engine.schedule(
        total * world.params.pack_byte_time, lambda _a: ctx.post(CompletionItem(pack_done))
    )
    handle.add_event(pack_done)
    rt.track_write_ack(dst, ack)
    rt.trace.incr("armci.puts_strided_pack")
    return handle


_STRIDED_PACKED_PUT_ID = 5


def handle_strided_packed_put(
    rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope
) -> None:
    """Target side of the legacy put: unpack inside the progress engine."""
    h = env.header
    _scatter(rt.world.space(rt.rank), h["remote_base"], h["desc"], "dst", env.payload)
    hops = rt.world.network.hops(rt.rank, env.src)
    reply_ctx: PamiContext = h["reply_ctx"]
    rt.engine.schedule(
        hops * rt.world.params.hop_latency,
        lambda _a: reply_ctx.post(CompletionItem(h["ack"])),
    )


class _PackedGetReplyItem(WorkItem):
    """Legacy get reply: unpack at the initiator inside its progress."""

    __slots__ = ("data", "local_base", "desc", "event")

    def __init__(self, data, local_base: int, desc: StridedDescriptor, event) -> None:
        self.data = data
        self.local_base = local_base
        self.desc = desc
        self.event = event

    def cost(self, ctx: PamiContext) -> float:
        p = ctx.params
        return (
            p.am_handler_time
            + len(self.data) * p.shm_byte_time
            + len(self.data) * p.pack_byte_time  # unpack
        )

    def execute(self, ctx: PamiContext) -> None:
        space = ctx.client.world.space(ctx.client.rank)
        _scatter(space, self.local_base, self.desc, "src", self.data)
        self.event.succeed()


def nbget_strided_pack(
    rt: "ArmciProcess",
    dst: int,
    local_base: int,
    remote_base: int,
    desc: StridedDescriptor,
    handle: Handle,
) -> Handle:
    """Legacy pack/unpack get: target packs and streams back one message."""
    ctx = rt.main_context
    done = rt.engine.event(f"packget.{rt.rank}<-{dst}")
    header = {
        "remote_base": remote_base,
        "local_base": local_base,
        "desc": desc,
        "event": done,
        "reply_ctx": ctx,
    }
    if rt.flow_enabled:
        header["_credit"] = True
    rt.transport.send_am(
        ctx,
        dst,
        _STRIDED_PACKED_GET_ID,
        header=header,
    )
    handle.add_event(done)
    rt.trace.incr("armci.gets_strided_pack")
    return handle


_STRIDED_PACKED_GET_ID = 6


def handle_strided_packed_get(
    rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope
) -> None:
    """Target side of the legacy get: pack inside the progress engine."""
    h = env.header
    desc: StridedDescriptor = h["desc"]
    data = _gather(rt.world.space(rt.rank), h["remote_base"], desc, "dst")
    total = len(data)
    # Pack cost is paid by the target progress engine before injecting.
    pack_cost = total * rt.world.params.pack_byte_time
    timing = rt.world.network.am_payload_timing(rt.rank, env.src, total)
    reply_ctx: PamiContext = h["reply_ctx"]
    rt.engine.schedule(
        timing.deliver + pack_cost - rt.engine.now,
        lambda _a: reply_ctx.post(
            _PackedGetReplyItem(data, h["local_base"], desc, h["event"])
        ),
    )


# -------------------------------------------------------------- selection


def select_strided_protocol(rt: "ArmciProcess", desc: StridedDescriptor) -> str:
    """Pick the protocol per config and patch shape.

    ``auto`` uses the typed path for tall-skinny patches (many chunks,
    each below the threshold), matching the paper's remedy for
    ``T_strided``'s inverse dependence on l0.
    """
    mode = rt.config.strided_protocol
    if mode == "pack":
        return "pack"
    if mode == "auto":
        if (
            desc.shape.num_chunks > 1
            and desc.shape.chunk_bytes < rt.config.tall_skinny_threshold
        ):
            return "typed"
        return "zero_copy"
    if mode == "zero_copy":
        return "zero_copy"
    raise ArmciError(f"unknown strided protocol {mode!r}")
