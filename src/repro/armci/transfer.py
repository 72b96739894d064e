"""One data-transfer path for ARMCI's three datatype classes.

The datatype — contiguous, uniformly strided, general I/O vector
(Section II-B) — only decides *which bytes* move; a :class:`Transfer`
says so once (built by :func:`~repro.armci.contiguous.contiguous_transfer`,
:func:`~repro.armci.strided.strided_transfer` or
:func:`~repro.armci.vector.vector_transfer`), and one set of protocols
moves it (Section III-C):

- **RDMA per run** (:func:`put_rdma`/:func:`get_rdma`) — one zero-copy
  NIC operation per doubly-contiguous run, the whole run list posted by
  one call of the transport's primitive: Eq. 7 for a contiguous
  transfer, Eq. 9 (``T ~ o * m/l0 + m G``) for a strided or vector one.
  No intermediate buffering, no remote progress.
- **typed** (:func:`put_typed`/:func:`get_typed`) — one transfer whose
  NIC walks the two layouts; per chunk it pays a descriptor fetch, far
  below a full message overhead (tall-skinny patches, aggregation).
- **active message** (:func:`put_am`/:func:`get_am`) — the fall-back
  when regions are unavailable (registration failed at scale, RDMA
  disabled) and the legacy pack/unpack baseline — Eq. 8. It inherits
  the fatal flaw: it requires the *remote* progress engine, so a busy
  remote main thread stalls it unless an asynchronous thread exists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..pami.activemsg import AmEnvelope
from ..pami.context import PamiContext, WorkItem
from ..pami.delivery import Delivery
from ..pami.rma import read_side, write_side
from ..sim.event import Event
from . import dispatch as _disp
from .handles import Handle

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess


class Transfer:
    """What one put or get moves, independent of how it is moved.

    Attributes
    ----------
    local, remote:
        Each side as an address (contiguous) or a *layout* packing its
        own lattice through ``gather(space)``/``scatter(space, data)``.
    nbytes:
        Total payload.
    runs:
        ``runs(config)`` -> the ``(local_addr, remote_addr, nbytes)``
        list of doubly-contiguous runs, merged under the job's
        ``strided_protocol="auto"``.
    descriptors:
        Chunks/segments a typed transfer's NIC walks (1 when contiguous).
    extent:
        ``(addr, nbytes)`` bounding the remote side, for region lookup.
    local_addrs:
        Local addresses whose segments must be registered for RDMA.
    pack_time:
        Origin software time to pack the local side for an AM put.
    counters:
        Counter names of this datatype, by ``<op>_<protocol>``.
    """

    __slots__ = (
        "local", "remote", "nbytes", "runs", "descriptors", "extent",
        "local_addrs", "pack_time", "counters",
    )

    def __init__(
        self,
        local,
        remote,
        nbytes: int,
        runs: Callable[[Any], list],
        descriptors: int,
        extent: tuple[int, int],
        local_addrs: tuple[int, ...],
        pack_time: float,
        counters: Mapping[str, str],
    ) -> None:
        self.local = local
        self.remote = remote
        self.nbytes = nbytes
        self.runs = runs
        self.descriptors = descriptors
        self.extent = extent
        self.local_addrs = local_addrs
        self.pack_time = pack_time
        self.counters = counters


def _pack_time(params, side, nbytes: int) -> float:
    """Software time to pack or unpack one side: only a layout is."""
    return nbytes * params.pack_byte_time if hasattr(side, "gather") else 0.0


def control_reply(
    rt: "ArmciProcess", to_rank: int, reply_ctx: PamiContext, cookie, value=None
) -> None:
    """Send a payload-less control packet (ack, grant, region handle)
    completing ``cookie`` with ``value`` at ``to_rank``'s ``reply_ctx``.
    Control packets ride the NIC-reliable lane (DESIGN.md §8)."""
    hops = rt.world.network.hops(rt.rank, to_rank)
    reply_ctx.complete_after(hops * rt.world.params.hop_latency, cookie, value)


# ------------------------------------------------------------ RDMA per run


def _runs(rt: "ArmciProcess", xfer: Transfer) -> list:
    """The RDMA op list of one transfer, counted per datatype.

    With coalescing off this is exactly one op per chunk (the paper's
    Eq. 9 accounting); on, doubly-contiguous runs merge."""
    runs = xfer.runs(rt.config)
    merged = xfer.descriptors - len(runs)
    if merged:
        rt.trace.incr(xfer.counters["merged"], merged)
    if "runs" in xfer.counters:
        rt.trace.incr(xfer.counters["runs"], len(runs))
    return runs


def put_rdma(rt: "ArmciProcess", dst: int, xfer: Transfer, handle: Handle) -> None:
    """One non-blocking RDMA put per run, posted in one call; remote acks
    tracked for fences."""
    events, acks = rt.transport.rdma_put(
        rt.main_context, dst, _runs(rt, xfer), want_remote_ack=True
    )
    handle.add_events(events)
    rt.track_write_acks(dst, acks)
    rt.trace.incr(xfer.counters["put_rdma"])


def get_rdma(rt: "ArmciProcess", dst: int, xfer: Transfer, handle: Handle) -> None:
    """One non-blocking RDMA get per run, posted in one call: truly
    one-sided."""
    handle.add_events(rt.transport.rdma_get(rt.main_context, dst, _runs(rt, xfer)))
    rt.trace.incr(xfer.counters["get_rdma"])


# ------------------------------------------------------------------ typed


def put_typed(rt: "ArmciProcess", dst: int, xfer: Transfer, handle: Handle) -> None:
    """Single typed-datatype put — one run whose sides are the layouts:
    one message overhead in total plus a descriptor fetch per chunk, the
    NIC scattering at the target."""
    events, acks = rt.transport.rdma_put(
        rt.main_context, dst, [(xfer.local, xfer.remote, xfer.nbytes)],
        want_remote_ack=True,
        extra_occupancy=xfer.descriptors * rt.world.params.typed_descriptor_time,
    )
    handle.add_events(events)
    rt.track_write_acks(dst, acks)
    rt.trace.incr(xfer.counters["put_typed"])


def get_typed(rt: "ArmciProcess", dst: int, xfer: Transfer, handle: Handle) -> None:
    """Single typed-datatype get."""
    handle.add_events(rt.transport.rdma_get(
        rt.main_context, dst, [(xfer.local, xfer.remote, xfer.nbytes)],
        extra_occupancy=xfer.descriptors * rt.world.params.typed_descriptor_time,
    ))
    rt.trace.incr(xfer.counters["get_typed"])


# --------------------------------------------------------- active message


def put_am(rt: "ArmciProcess", dst: int, xfer: Transfer, handle: Handle) -> None:
    """AM put: the packed payload rides one active message and is written
    (unpacked) by the target's progress engine. Local completion keeps
    put's buffer-reuse semantics, so no handshake is needed."""
    ctx = rt.main_context
    ack = Event(rt.engine, "put.am.ack")
    data = read_side(rt.world.space(rt.rank), xfer.local, xfer.nbytes)
    header = {
        "remote": xfer.remote,
        "ack": ack,
        "reply_ctx": ctx,
        "_cost": _pack_time(rt.world.params, xfer.remote, xfer.nbytes),
    }
    if rt.flow_enabled:
        header["_credit"] = True
    op = rt.transport.send_am(
        ctx, dst, _disp.PUT_REQUEST, header=header, payload=data
    )
    handle.add_events((op.local_event,))
    if op.at_risk:
        # A lost PUT_REQUEST is reported on the ack cookie; waiting it at
        # the handle makes the loss visible (and retryable) at the put
        # itself rather than silently skipped by the fence.
        handle.add_events((ack,))
    if xfer.pack_time:
        # The local pack stalls the caller until the buffer is staged.
        packed = rt.engine.event()
        ctx.complete_after(xfer.pack_time, packed)
        handle.add_events((packed,))
    rt.track_write_acks(dst, (ack,))
    rt.trace.incr(xfer.counters["put_am"])


def handle_put_request(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Target side of an AM put: land the payload, ack for fences."""
    h = env.header
    write_side(rt.world.space(rt.rank), h["remote"], env.payload)
    control_reply(rt, env.src, h["reply_ctx"], h["ack"])


def get_am(rt: "ArmciProcess", dst: int, xfer: Transfer, handle: Handle) -> None:
    """AM get (Eq. 8): the target's progress engine reads (packs) and
    streams the data back. Pays the extra remote ``o`` and, critically,
    stalls whenever the target makes no progress."""
    ctx = rt.main_context
    done = Event(rt.engine, "get.am")
    header = {
        "remote": xfer.remote,
        "nbytes": xfer.nbytes,
        "local": xfer.local,
        "event": done,
        "reply_ctx": ctx,
    }
    if rt.flow_enabled:
        header["_credit"] = True
    rt.transport.send_am(ctx, dst, _disp.GET_REQUEST, header=header)
    handle.add_events((done,))
    rt.trace.incr(xfer.counters["get_am"])


class GetReplyItem(WorkItem):
    """An AM get's data landing at the initiator: write (unpack) it
    through the local side inside the progress engine, then complete."""

    __slots__ = ("data", "local", "event")

    def __init__(self, data, local, event) -> None:
        self.data = data
        self.local = local
        self.event = event

    def cost(self, ctx: PamiContext) -> float:
        p = ctx.params
        n = len(self.data)
        return p.am_handler_time + n * p.shm_byte_time + _pack_time(p, self.local, n)

    def execute(self, ctx: PamiContext) -> None:
        write_side(ctx.client.world.space(ctx.client.rank), self.local, self.data)
        self.event.succeed()


class _GetReplyDelivery(Delivery):
    """An AM get's data on its way back: it lands as a
    :class:`GetReplyItem` in the initiator's context; the initiator's
    ``done`` cookie is the waiter."""

    __slots__ = ("reply_ctx", "local", "done")

    def land(self, payload) -> None:
        self.reply_ctx.post(GetReplyItem(payload, self.local, self.done))

    def fail(self, token, delay: float) -> bool:
        self.reply_ctx.complete_after(delay, self.done, token)
        return True


def handle_get_request(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Target side of an AM get: read (pack) the data and stream it back.

    Unlike a payload-less ack the reply carries data, so it makes the
    trip every payload makes (:class:`~repro.pami.delivery.Delivery`):
    a loss completes the initiator's cookie with the fault (get is
    idempotent — the retry layer re-issues), a flipped bit lands
    silently or is caught by the integrity engine and retransmitted, and
    a reply to a dead or respawned initiator incarnation is dropped.
    """
    h = env.header
    world = rt.world
    data = read_side(world.space(rt.rank), h["remote"], h["nbytes"])
    # The pack is paid by the target's progress engine before injecting.
    pack_cost = _pack_time(world.params, h["remote"], len(data))
    timing = world.network.am_payload_timing(rt.rank, env.src, len(data))
    reply = _GetReplyDelivery(world, rt.rank, env.src, "am", waiter_at_dst=True)
    reply.reply_ctx = h["reply_ctx"]
    reply.local = h["local"]
    reply.done = h["event"]
    reply.carry(data)
    rt.engine.schedule(timing.deliver + pack_cost - rt.engine.now, reply.attempt)


#: RDMA protocol name (``strided_protocol`` vocabulary) -> poster, per
#: op; ``"pack"`` is the active message, which needs no regions.
PUT = {"zero_copy": put_rdma, "typed": put_typed}
GET = {"zero_copy": get_rdma, "typed": get_typed}
