"""Active messages.

Non-blocking sends with local callbacks; the remote handler runs inside the
target's progress engine when some thread there advances the target context
(Section III-A.2). ARMCI uses AMs for its fall-back protocols, region-cache
miss service, accumulates, and collectives.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Generator

import numpy as np

from ..errors import PamiError
from ..obs.span import context_lane
from ..sim.event import Event
from . import faults as _flt
from .context import PamiContext, WorkItem
from .delivery import Delivery


@dataclass(frozen=True)
class AmEnvelope:
    """One active message in flight.

    Attributes
    ----------
    dispatch_id:
        Selects the registered handler at the target.
    src, dst:
        Sender and receiver ranks.
    header:
        Small out-of-band metadata (kept tiny, like a PAMI immediate
        header).
    payload:
        Optional bulk payload: ``bytes`` or a flat uint8 numpy array.
        The hot data path passes private ndarray snapshots so handlers
        can scatter zero-copy slices; retransmits/duplicates under chaos
        replay the same envelope, so the payload must never alias caller
        memory.
    """

    dispatch_id: int
    src: int
    dst: int
    header: dict[str, Any] = field(default_factory=dict)
    payload: bytes | np.ndarray | None = None

    @property
    def payload_bytes(self) -> int:
        """Payload size in bytes (0 when header-only)."""
        return len(self.payload) if self.payload is not None else 0


class AmItem(WorkItem):
    """A delivered active message waiting for its handler to run."""

    __slots__ = ("envelope",)

    def __init__(self, envelope: AmEnvelope) -> None:
        self.envelope = envelope

    @property
    def credited(self) -> bool:
        # Request-class AMs whose sender acquired a flow-control credit
        # carry the reserved "_credit" header key; servicing them frees
        # the FIFO slot. Control traffic (replies, completions) bypasses
        # the bounded FIFO.
        return bool(self.envelope.header.get("_credit"))

    def cost(self, ctx: PamiContext) -> float:
        # Handler dispatch plus copying the payload out of NIC buffers.
        # Senders may declare extra handler work (accumulate flops, strided
        # unpack...) via the reserved "_cost" header field.
        p = ctx.params
        return (
            p.am_handler_time
            + self.envelope.payload_bytes * p.shm_byte_time
            + float(self.envelope.header.get("_cost", 0.0))
        )

    def execute(self, ctx: PamiContext) -> None:
        handler = ctx.client.handler_for(self.envelope.dispatch_id)
        ctx.trace.incr("pami.am_handled")
        obs = ctx.client.world.obs
        if obs is None:
            handler(ctx, self.envelope)
            return
        env = self.envelope
        now = ctx.engine.now
        # The span id rode over in the header (the reply-cookie metadata
        # path), so the remote service span parents back to the send.
        sid = obs.begin(
            ctx.client.rank,
            context_lane(ctx),
            "am_service",
            obs.dispatch_names.get(env.dispatch_id, f"am.{env.dispatch_id}"),
            parent_id=env.header.get("_span"),
            start=now - self.cost(ctx),
            src=env.src,
        )
        try:
            handler(ctx, env)
        finally:
            obs.end(sid)
            # Reply cookies the handler did not resolve synchronously
            # (acks posted back over the wire) are produced by this
            # service: register them so handle waits can draw edges.
            for key in _flt.REPLY_KEYS:
                cookie = env.header.get(key)
                if (
                    isinstance(cookie, Event)
                    and not cookie.triggered
                    and obs.span_for_event(cookie) is None
                ):
                    obs.register_event(cookie, sid)

    def on_dropped(self, world, dead_rank: int) -> None:
        _flt.fail_am_replies(world, self.envelope, dead_rank)


class DuplicateAmItem(WorkItem):
    """A chaos-duplicated delivery, discarded by sequence-number dedup.

    Costs the target the same dispatch + copy time as the original but
    has no semantic effect — modeling a transport whose reliability
    layer detects the replayed sequence number after pulling the packet
    off the NIC.
    """

    __slots__ = ("envelope",)

    def __init__(self, envelope: AmEnvelope) -> None:
        self.envelope = envelope

    def cost(self, ctx: PamiContext) -> float:
        p = ctx.params
        return p.am_handler_time + self.envelope.payload_bytes * p.shm_byte_time

    def execute(self, ctx: PamiContext) -> None:
        ctx.trace.incr("pami.am_duplicates_discarded")


@dataclass(frozen=True)
class AmOp:
    """Handle to one posted active message."""

    envelope: AmEnvelope
    local_event: Event
    deliver_time: float
    #: Obs flight-span id (None when observability is off).
    span_id: int | None = None


class _AmDelivery(Delivery):
    """An envelope on its way to the target's context queue. Its waiters
    are the reply cookies in its header; a fire-and-forget message has
    none, so its losses are the transport's to retransmit."""

    __slots__ = ("envelope", "target_context")

    def land(self, payload) -> None:
        env = self.envelope
        # Resolved at delivery time: the post-time client object is
        # stale if the target died and respawned in between.
        client = self.world.client(self.dst)
        context = self.target_context
        dst_ctx = (
            client.progress_context() if context is None else client.context(context)
        )
        dst_ctx.post(
            AmItem(
                env if payload is env.payload
                else dataclasses.replace(env, payload=payload)
            )
        )
        chaos = self.world.chaos
        if chaos is not None and chaos.duplicate(self.src, self.dst):
            dst_ctx.post(DuplicateAmItem(env))

    def credit(self) -> None:
        # A credited request that will never be serviced (target died,
        # or the loss was reported to the initiator) must return its
        # FIFO slot, or backpressure would leak credits under chaos.
        if self.envelope.header.get("_credit"):
            client = self.world.client(self.dst)
            context = self.target_context
            (
                client.progress_context() if context is None
                else client.context(context)
            ).release_credit()

    def fail(self, token, delay: float) -> bool:
        return _flt.fail_reply_cookies(self.world, self.envelope, token, delay) > 0


def send_am(
    ctx: PamiContext,
    dst_rank: int,
    dispatch_id: int,
    header: dict[str, Any] | None = None,
    payload: bytes | np.ndarray | None = None,
    target_context: int | None = None,
) -> AmOp:
    """Post a non-blocking active message.

    The envelope lands on the target's progress context (or an explicit
    ``target_context``) and waits for a thread there to advance. The local
    event fires once the send buffer is reusable.
    """
    world = ctx.client.world
    src = ctx.client.rank
    env = AmEnvelope(dispatch_id, src, dst_rank, dict(header or {}), payload)
    timing = world.network.am_payload_timing(src, dst_rank, env.payload_bytes)
    engine = world.engine
    now = engine.now

    # Every copy, retransmits included, is a fresh message to the chaos
    # injector, and its fate is rolled when it arrives.
    delivery = _AmDelivery(world, src, dst_rank, "am", rerolls_injector=True)
    delivery.envelope = env
    delivery.target_context = target_context
    chaos = world.chaos
    deliver_at = timing.deliver
    if chaos is not None:
        deliver_at = chaos.ordered_deliver(src, dst_rank, timing.deliver)
    if delivery.link_mode:
        deliver_at = world.network.ordered_deliver(src, dst_rank, deliver_at)
    world.ordering.record(src, dst_rank, deliver_at)

    local_event = engine.event(f"am.local.{src}->{dst_rank}")
    delivery.carry(env.payload)
    engine.schedule(deliver_at - now, delivery.attempt)
    ctx.complete_after(timing.inject_done - now, local_event)
    world.trace.incr("pami.am_sent")
    obs = world.obs
    span_id = None
    if obs is not None:
        # Wire-time flight span on the net lane; the id rides in the
        # header (same metadata path as the reply cookies — ints are
        # invisible to the cookie scanner) so the remote service span
        # can parent back across the rank boundary.
        span_id = obs.record(
            src, "net", "am", f"am.{dispatch_id}", now, deliver_at,
            dst=dst_rank, nbytes=env.payload_bytes,
        )
        env.header["_span"] = span_id
        obs.register_event(local_event, span_id)
    return AmOp(env, local_event, deliver_at, span_id)


def send_am_immediate(
    ctx: PamiContext,
    dst_rank: int,
    dispatch_id: int,
    header: dict[str, Any] | None = None,
    payload: bytes | np.ndarray | None = None,
    target_context: int | None = None,
) -> Generator[Any, Any, AmOp]:
    """The PAMI immediate AM variant: blocks until the send is injected.

    Small control messages only.

    Raises
    ------
    PamiError
        If the payload exceeds the immediate-size limit (512 bytes, like
        PAMI's short-message threshold).
    """
    if payload is not None and len(payload) > 512:
        raise PamiError(
            f"immediate AM payload {len(payload)} exceeds 512-byte limit"
        )
    op = send_am(ctx, dst_rank, dispatch_id, header, payload, target_context)
    # Blocking completion semantics: stall (advancing the local context)
    # until the send buffer is reusable.
    yield from ctx.wait_with_progress(op.local_event)
    return op
