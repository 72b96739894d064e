"""Atomic memory operations (read-modify-write).

The central hardware limitation of the paper (Section III-D): **Blue
Gene/Q's NIC has no generic AMO support**, so PAMI services AMOs in
software — the request sits in the target's context queue until a thread
there advances the progress engine. Load-balance counters therefore stall
whenever the target process computes, unless an asynchronous progress
thread services them (Figs. 9 and 11).

AMOs are *unordered* with respect to other messages (Section III-A.4), so
they deliberately bypass the :class:`~repro.pami.ordering.OrderingChecker`.

A hardware NIC-serviced path (``world.nic_amo_support = True``) models the
Cray-Gemini-style fetch-and-add the paper's conclusion asks for in future
Blue Gene hardware.
"""

from __future__ import annotations

from typing import Callable

from ..errors import PamiError
from ..obs.span import context_lane
from ..sim.event import Event
from ..record import SlotRecord
from . import faults as _flt
from .context import PamiContext, WorkItem
from .delivery import Delivery

#: value_new = op(value_old, operand, operand2); returns the new value.
RmwFunc = Callable[[int, int, int], int]

#: Supported read-modify-write operations; all return the *old* value to
#: the initiator (fetch semantics).
RMW_OPS: dict[str, RmwFunc] = {
    # PAMI "add": old + operand.
    "fetch_add": lambda old, a, _b: old + a,
    # Unconditional exchange.
    "swap": lambda old, a, _b: a,
    # PAMI "compare-and-test": write operand2 iff old == operand.
    "compare_swap": lambda old, a, b: b if old == a else old,
    # Pure read (used for counter inspection).
    "fetch": lambda old, _a, _b: old,
    # Monotone max-merge (idempotent; used by CRDT-style watermark
    # recovery in the fault-tolerant task pool).
    "fetch_max": lambda old, a, _b: old if old >= a else a,
}

#: Hardware NIC service time per AMO in the what-if model (Gemini-class).
NIC_AMO_SERVICE = 50e-9


class RmwOp(SlotRecord):
    """Handle to one posted read-modify-write.

    ``event`` fires with the **old** value once the reply reaches the
    initiator and its context is advanced.
    """

    __slots__ = ("op", "src", "dst", "addr", "event")

    def __init__(self, op: str, src: int, dst: int, addr: int, event: Event) -> None:
        self.op = op
        self.src = src
        self.dst = dst
        self.addr = addr
        self.event = event


class RmwItem(WorkItem):
    """A software-serviced AMO waiting in the target's context queue."""

    __slots__ = ("request", "delivery", "posted_at", "credited")

    def __init__(
        self, request: "_RmwRequest", delivery: "_RmwDelivery", posted_at: float
    ) -> None:
        self.request = request
        self.delivery = delivery
        self.posted_at = posted_at
        self.credited = delivery.credited

    def cost(self, ctx: PamiContext) -> float:
        return ctx.params.rmw_service_time

    def execute(self, ctx: PamiContext) -> None:
        req = self.request
        world = ctx.client.world
        trace = world.trace
        if self.delivery.gone(req.src):
            # The initiator's incarnation died while this AMO sat queued:
            # skip the apply (its effect will be replayed after recovery)
            # and drop the reply nobody is waiting for.
            trace.incr("pami.stale_deliveries_dropped")
            return
        trace.incr("pami.rmw_serviced")
        now = world.engine.now
        trace.add_time("pami.rmw_queue_wait", now - self.posted_at)
        obs = world.obs
        if obs is not None:
            sid = obs.record(
                ctx.client.rank, context_lane(ctx), "amo_service",
                f"rmw.{req.op}", now - self.cost(ctx), now,
                parent_id=self.delivery.parent_span,
                src=req.src, queue_wait=now - self.posted_at,
            )
            # Feed the initiator's counter_wait edge: the wait ends
            # because this service ran (the Fig. 9/11 causality).
            obs.register_event(req.event, sid)
        _service(world, req)

    def on_dropped(self, world, dead_rank: int) -> None:
        # The hosting rank died with this AMO unserviced: the initiator's
        # NIC reports the failure after its timeout.
        req = self.request
        src_client = world.client(req.src)
        if world.is_failed(req.src) or req.reply_context >= len(src_client.contexts):
            return  # initiator is gone too (or respawning): nobody waits
        src_client.context(req.reply_context).complete_after(
            _flt.FAULT_DETECT_DELAY, req.event, _flt.Failure(dead_rank)
        )


class _RmwRequest(SlotRecord):
    __slots__ = (
        "op", "src", "dst", "addr", "operand", "operand2", "event",
        "reply_context",
    )

    def __init__(
        self, op: str, src: int, dst: int, addr: int, operand: int,
        operand2: int, event: Event, reply_context: int,
    ) -> None:
        self.op = op
        self.src = src
        self.dst = dst
        self.addr = addr
        self.operand = operand
        self.operand2 = operand2
        self.event = event
        self.reply_context = reply_context

    def __bytes__(self) -> bytes:
        """Canonical wire encoding of the AMO's mutable fields — what the
        integrity layer checksums (AMO requests carry ints, not buffers)."""
        return f"{self.op}:{self.addr}:{self.operand}:{self.operand2}".encode()


def _service(world, req: "_RmwRequest") -> None:
    """Atomically apply the op to target memory; the old value rides a
    control packet back to the initiator."""
    # One segment lookup serves both the load and the store.
    cell = world.space(req.dst).i64_view(req.addr)
    old = int(cell[0])
    cell[0] = RMW_OPS[req.op](old, req.operand, req.operand2)
    world.client(req.src).context(req.reply_context).complete_after(
        world.network.hops(req.dst, req.src) * world.params.hop_latency,
        req.event, old,
    )


class _RmwDelivery(Delivery):
    """An AMO request on its way to whoever services it: the target's
    context queue (software, the BG/Q reality) or — :class:`_NicRmwDelivery`
    — its NIC. The payload is the request itself."""

    __slots__ = ("ctx", "event", "target_context", "credited", "parent_span")

    def land(self, request) -> None:
        # Resolve at delivery time (a respawned target has a fresh client).
        client = self.world.client(self.dst)
        context = self.target_context
        dst_ctx = (
            client.progress_context() if context is None else client.context(context)
        )
        dst_ctx.post(RmwItem(request, self, self.world.engine.now))

    def credit(self) -> None:
        if self.credited:
            self.world.client(self.dst).progress_context().release_credit()

    def fail(self, token, delay: float) -> bool:
        self.ctx.complete_after(delay, self.event, token)
        return True

    def damaged(self, corruption):
        req = self.payload
        return _RmwRequest(
            req.op, req.src, req.dst, req.addr,
            _flt.corrupt_int(req.operand, corruption.bit), req.operand2, req.event,
            req.reply_context,
        )


class _NicRmwDelivery(_RmwDelivery):
    """What-if hardware path: the target NIC applies the op directly,
    serialized only by the NIC's AMO pipeline — no software progress."""

    __slots__ = ()

    def land(self, request) -> None:
        world = self.world
        obs = world.obs
        if obs is not None:
            now = world.engine.now
            sid = obs.record(
                self.dst, "net", "amo_service", f"nic_rmw.{request.op}",
                now - NIC_AMO_SERVICE, now, parent_id=self.parent_span,
                src=request.src,
            )
            obs.register_event(request.event, sid)
        _service(world, request)


def rmw(
    ctx: PamiContext,
    dst_rank: int,
    addr: int,
    op: str,
    operand: int = 0,
    operand2: int = 0,
    target_context: int | None = None,
    credited: bool = False,
    nic: bool | None = None,
) -> RmwOp:
    """Post a non-blocking read-modify-write on ``(dst_rank, addr)``.

    Parameters
    ----------
    ctx:
        The initiator's context (receives the reply).
    target_context:
        Which target context services the request; defaults to the
        target's progress context.
    credited:
        The sender holds a flow-control credit against the target's
        progress context; servicing (or losing) the request returns it.
    nic:
        Per-op override of the hardware-serviced path: ``True`` forces
        NIC service, ``False`` forces target-side software, ``None``
        (default) follows ``world.nic_amo_support``. Backends with a
        *partial* native AMO set (MPI-3) route each opcode accordingly.

    Returns
    -------
    RmwOp
        Wait on ``.event`` (e.g. via ``ctx.wait_with_progress``) for the
        old value.
    """
    if op not in RMW_OPS:
        raise PamiError(f"unknown rmw op {op!r}; supported: {sorted(RMW_OPS)}")
    world = ctx.client.world
    src = ctx.client.rank
    engine = world.engine
    event = Event(engine, "rmw.reply")
    req = _RmwRequest(op, src, dst_rank, addr, operand, operand2, event, ctx.index)
    arrive = world.network.packet_arrival(src, dst_rank)
    now = engine.now
    world.trace.counters["pami.rmw_posted"] += 1
    obs = world.obs

    use_nic = world.nic_amo_support if nic is None else nic
    delivery = (_NicRmwDelivery if use_nic else _RmwDelivery)(
        world, src, dst_rank, "rmw"
    )
    delivery.ctx = ctx
    delivery.event = event
    delivery.target_context = target_context
    delivery.credited = credited
    # Snapshot the initiator's ambient span at post time: by the time the
    # target services the request the initiator's stack may have moved.
    delivery.parent_span = obs.current(src) if obs is not None else None

    if delivery.at_risk:
        # AMOs are unordered (Section III-A.4): unclamped jitter.
        arrive = delivery.jittered(arrive)
    fault, _corruption, detect = delivery.fate or delivery.roll()
    if fault is not None:
        # Request lost before the op was applied — retry-safe: the
        # fetch_add/swap never happened at the target. Nothing flies;
        # the initiator NIC reports the loss ``detect`` after the
        # arrival it missed.
        delivery.fail(fault, arrive + detect - now)
        delivery.credit()
        return RmwOp(op, src, dst_rank, addr, event)
    delivery.carry(req)
    if use_nic:
        arrive = world.nic_amo_slot(dst_rank, arrive, NIC_AMO_SERVICE)
    engine.schedule(arrive - now, delivery.attempt)
    return RmwOp(op, src, dst_rank, addr, event)
