"""Active messages.

Non-blocking sends with local callbacks; the remote handler runs inside the
target's progress engine when some thread there advances the target context
(Section III-A.2). ARMCI uses AMs for its fall-back protocols, region-cache
miss service, accumulates, and collectives.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..record import SlotRecord
from ..sim.event import Event
from . import faults as _flt
from .context import PamiContext, WorkItem
from .delivery import Delivery


class AmEnvelope(SlotRecord):
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

    __slots__ = ("dispatch_id", "src", "dst", "header", "payload")

    def __init__(
        self, dispatch_id: int, src: int, dst: int,
        header: dict[str, Any] | None = None,
        payload: bytes | np.ndarray | None = None,
    ) -> None:
        self.dispatch_id = dispatch_id
        self.src = src
        self.dst = dst
        self.header = {} if header is None else header
        self.payload = payload

    @property
    def payload_bytes(self) -> int:
        """Payload size in bytes (0 when header-only)."""
        return len(self.payload) if self.payload is not None else 0


class AmItem(WorkItem):
    """A delivered active message waiting for its handler to run."""

    __slots__ = ("envelope", "credited")

    def __init__(self, envelope: AmEnvelope) -> None:
        self.envelope = envelope
        # Request-class AMs whose sender acquired a flow-control credit
        # carry the reserved "_credit" header key; servicing them frees
        # the FIFO slot. Control traffic (replies, completions) bypasses
        # the bounded FIFO.
        self.credited = bool(envelope.header.get("_credit"))

    def cost(self, ctx: PamiContext) -> float:
        # Handler dispatch plus copying the payload out of NIC buffers.
        # Senders may declare extra handler work (accumulate flops, strided
        # unpack...) via the reserved "_cost" header field.
        p = ctx.params
        env = self.envelope
        payload = env.payload
        return (
            p.am_handler_time
            + (0 if payload is None else len(payload)) * p.shm_byte_time
            + float(env.header.get("_cost", 0.0))
        )

    def execute(self, ctx: PamiContext) -> None:
        handler = ctx.client.handler_for(self.envelope.dispatch_id)
        ctx.trace.counters["pami.am_handled"] += 1
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
            ctx.lane,
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


class AmOp(SlotRecord):
    """Handle to one posted active message.

    ``at_risk`` says whether the wire can lose the first copy
    (``Delivery.at_risk``): a sender waits its reply cookie then, or the
    loss is never seen. ``span_id`` is the obs flight span (None when
    observability is off).
    """

    __slots__ = ("envelope", "local_event", "deliver_time", "at_risk", "span_id")

    def __init__(
        self, envelope: AmEnvelope, local_event: Event, deliver_time: float,
        at_risk: bool, span_id: int | None,
    ) -> None:
        self.envelope = envelope
        self.local_event = local_event
        self.deliver_time = deliver_time
        self.at_risk = at_risk
        self.span_id = span_id


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
                else AmEnvelope(env.dispatch_id, env.src, env.dst, env.header, payload)
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
    nbytes = 0 if payload is None else len(payload)
    timing = world.network.am_payload_timing(src, dst_rank, nbytes)
    engine = world.engine
    now = engine.now

    # Every copy, retransmits included, is a fresh message to the chaos
    # injector, and its fate is rolled when it arrives.
    delivery = _AmDelivery(world, src, dst_rank, "am", rerolls_injector=True)
    delivery.envelope = env
    delivery.target_context = target_context
    deliver_at = world.ordering.deliver(delivery, timing.deliver)

    # Per-op events carry a kind; the envelope says which ranks.
    local_event = Event(engine, "am.local")
    delivery.carry(env.payload)
    engine._push(deliver_at - now, delivery.attempt, None)
    ctx.complete_after(timing.inject_done - now, local_event)
    world.trace.counters["pami.am_sent"] += 1
    span_id = None
    if world.obs is not None:
        # Wire-time flight span on the net lane; the id rides in the
        # header (same metadata path as the reply cookies — ints are
        # invisible to the cookie scanner) so the remote service span
        # can parent back across the rank boundary.
        span_id = delivery.flight(
            "am", f"am.{dispatch_id}", deliver_at, nbytes, local_event
        )
        env.header["_span"] = span_id
    return AmOp(env, local_event, deliver_at, delivery.at_risk, span_id)

