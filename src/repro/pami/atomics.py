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

import dataclasses
from dataclasses import dataclass
from typing import Callable

from ..errors import PamiError
from ..sim.event import Event
from . import faults as _flt
from .context import CompletionItem, PamiContext, WorkItem
from .integrity import corrupt_int

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


@dataclass(frozen=True)
class RmwOp:
    """Handle to one posted read-modify-write.

    ``event`` fires with the **old** value once the reply reaches the
    initiator and its context is advanced.
    """

    op: str
    src: int
    dst: int
    addr: int
    event: Event


class RmwItem(WorkItem):
    """A software-serviced AMO waiting in the target's context queue."""

    __slots__ = (
        "request", "reply_ctx", "posted_at", "credited", "parent_span",
        "src_inc",
    )

    def __init__(
        self,
        request: "_RmwRequest",
        reply_ctx_rank: int,
        posted_at: float,
        credited: bool = False,
        parent_span: int | None = None,
        src_inc: int = 0,
    ) -> None:
        self.request = request
        self.reply_ctx = reply_ctx_rank
        self.posted_at = posted_at
        self.credited = credited
        self.parent_span = parent_span
        self.src_inc = src_inc

    def cost(self, ctx: PamiContext) -> float:
        return ctx.params.rmw_service_time

    def execute(self, ctx: PamiContext) -> None:
        req = self.request
        world = ctx.client.world
        trace = world.trace
        if world.is_failed(req.src) or world.incarnations[req.src] != self.src_inc:
            # The initiator's incarnation died while this AMO sat queued:
            # skip the apply (its effect will be replayed after recovery)
            # and drop the reply nobody is waiting for.
            trace.incr("pami.stale_deliveries_dropped")
            return
        trace.incr("pami.rmw_serviced")
        trace.add_time("pami.rmw_queue_wait", world.engine.now - self.posted_at)
        obs = world.obs
        if obs is not None:
            from ..obs.span import context_lane

            sid = obs.record(
                ctx.client.rank, context_lane(ctx), "amo_service",
                f"rmw.{req.op}", world.engine.now - self.cost(ctx),
                world.engine.now, parent_id=self.parent_span,
                src=req.src, queue_wait=world.engine.now - self.posted_at,
            )
            # Feed the initiator's counter_wait edge: the wait ends
            # because this service ran (the Fig. 9/11 causality).
            obs.register_event(req.event, sid)
        old = _apply(world, req)
        # Reply control packet back to the initiator.
        hops = world.network.hops(req.dst, req.src)
        latency = hops * world.params.hop_latency
        src_ctx = world.client(req.src).context(req.reply_context)
        world.engine.schedule(
            latency, lambda _arg: src_ctx.post(CompletionItem(req.event, old))
        )

    def on_dropped(self, world, dead_rank: int) -> None:
        # The hosting rank died with this AMO unserviced: the initiator's
        # NIC reports the failure after its timeout.
        req = self.request
        src_client = world.client(req.src)
        if world.is_failed(req.src) or req.reply_context >= len(src_client.contexts):
            return  # initiator is gone too (or respawning): nobody waits
        src_ctx = src_client.context(req.reply_context)
        world.engine.schedule(
            _flt.FAULT_DETECT_DELAY,
            lambda _a: src_ctx.post(
                CompletionItem(req.event, _flt.Failure(dead_rank))
            ),
        )


@dataclass(frozen=True)
class _RmwRequest:
    op: str
    src: int
    dst: int
    addr: int
    operand: int
    operand2: int
    event: Event
    reply_context: int


def _operand_bytes(req: "_RmwRequest") -> bytes:
    """Canonical wire encoding of the AMO's mutable fields — what the
    integrity layer checksums (AMO requests carry ints, not buffers)."""
    return f"{req.op}:{req.addr}:{req.operand}:{req.operand2}".encode()


def _apply(world, req: "_RmwRequest") -> int:
    """Atomically apply the op to target memory; returns the old value."""
    # One segment lookup serves both the load and the store.
    cell = world.space(req.dst).i64_view(req.addr)
    old = int(cell[0])
    cell[0] = RMW_OPS[req.op](old, req.operand, req.operand2)
    return old


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
    event = engine.event(f"rmw.{op}.{src}->{dst_rank}")
    req = _RmwRequest(op, src, dst_rank, addr, operand, operand2, event, ctx.index)
    arrive = world.network.packet_arrival(src, dst_rank)
    now = engine.now
    world.trace.incr("pami.rmw_posted")
    obs = world.obs
    # Snapshot the initiator's ambient span at post time: by the time the
    # target services the request the initiator's stack may have moved.
    parent_span = obs.current(src) if obs is not None else None

    src_inc = world.incarnations[src]
    dst_inc = world.incarnations[dst_rank]

    def _return_credit() -> None:
        # Credits belong to the incarnation they were acquired against; a
        # respawned target's fresh context must not be over-credited.
        if credited and world.incarnations[dst_rank] == dst_inc:
            world.client(dst_rank).progress_context().release_credit()

    chaos = world.chaos
    integ = world.integrity
    net = world.network
    link_mode = net.route_table is not None and not net.is_local(src, dst_rank)
    if chaos is not None:
        # AMOs are unordered (Section III-A.4): unclamped jitter.
        arrive = chaos.unordered_deliver(src, dst_rank, arrive)
    fault, corruption, detect = _flt.wire_outcome(
        world, src, dst_rank, "rmw", link_mode
    )
    if fault is not None:
        # Request lost before the op was applied — retry-safe: the
        # fetch_add/swap never happened at the target.

        def report_loss(_a) -> None:
            _return_credit()
            ctx.post(CompletionItem(event, fault))

        engine.schedule(arrive + detect - now, report_loss)
        return RmwOp(op, src, dst_rank, addr, event)
    protection = (
        integ.protect(src, dst_rank, _operand_bytes(req))
        if integ is not None
        else None
    )
    budget = integ.config.max_retransmits if integ is not None else 0
    # The request as the wire delivers it on the first attempt.
    req_wire = req
    if corruption is not None:
        req_wire = dataclasses.replace(
            req, operand=corrupt_int(req.operand, corruption.bit)
        )

    use_nic = world.nic_amo_support if nic is None else nic
    if use_nic:
        # What-if hardware path: the target NIC applies the op directly,
        # serialized only by the NIC's AMO pipeline — no software progress.
        done = world.nic_amo_slot(dst_rank, arrive, NIC_AMO_SERVICE)

        def hw_service(_arg) -> None:
            if world.is_failed(dst_rank) or world.incarnations[dst_rank] != dst_inc:
                engine.schedule(
                    _flt.FAULT_DETECT_DELAY,
                    lambda _a: ctx.post(
                        CompletionItem(event, _flt.Failure(dst_rank))
                    ),
                )
                return
            if protection is not None:
                verdict = integ.verify(
                    src, dst_rank, protection[0], protection[1],
                    _operand_bytes(req_wire),
                )
                if verdict == "corrupt":
                    # NIC checksum reject: surfaced as a transient loss
                    # (retry-safe — the op was never applied).
                    engine.schedule(
                        _flt.FAULT_DETECT_DELAY,
                        lambda _a: ctx.post(CompletionItem(
                            event,
                            _flt.TransientFault("integrity", src, dst_rank),
                        )),
                    )
                    return
            elif req_wire is not req:
                world.trace.incr("pami.silent_corruptions")
            if obs is not None:
                sid = obs.record(
                    dst_rank, "net", "amo_service", f"nic_rmw.{req.op}",
                    done - NIC_AMO_SERVICE, done, parent_id=parent_span,
                    src=req.src,
                )
                obs.register_event(event, sid)
            old = _apply(world, req_wire)
            hops = world.network.hops(dst_rank, src)
            engine.schedule(
                hops * world.params.hop_latency,
                lambda _a: ctx.post(CompletionItem(event, old)),
            )

        engine.schedule(done - now, hw_service)
        return RmwOp(op, src, dst_rank, addr, event)

    attempts = [0]

    def deliver(_arg) -> None:
        if world.is_failed(src) or world.incarnations[src] != src_inc:
            # Dead-incarnation request: the initiator's state was rolled
            # back, so applying the op would double-count on replay.
            world.trace.incr("pami.stale_deliveries_dropped")
            _return_credit()
            return
        if world.is_failed(dst_rank) or world.incarnations[dst_rank] != dst_inc:
            _return_credit()
            engine.schedule(
                _flt.FAULT_DETECT_DELAY,
                lambda _a: ctx.post(CompletionItem(event, _flt.Failure(dst_rank))),
            )
            return
        attempts[0] += 1
        cur = req_wire if attempts[0] == 1 else req
        if 1 < attempts[0] <= budget and link_mode:
            # Retransmits re-roll the wire over the *current* route; the
            # attempt past the budget goes out clean (bounded loss).
            lost, flipped, _d = _flt.wire_outcome(
                world, src, dst_rank, "rmw", True, first=False
            )
            if lost is not None:
                integ.count_retransmit(len(_operand_bytes(req)))
                engine.schedule(integ.config.retransmit_delay, deliver)
                return
            if flipped is not None:
                cur = dataclasses.replace(
                    req, operand=corrupt_int(req.operand, flipped.bit)
                )
        if protection is not None:
            verdict = integ.verify(
                src, dst_rank, protection[0], protection[1], _operand_bytes(cur)
            )
            if verdict == "corrupt":
                if attempts[0] > budget or (
                    link_mode and net.route_blocked(src, dst_rank)
                ):
                    # Out of transport budget: hand the op back to the
                    # ARMCI retry layer (retry-safe — never applied).
                    world.trace.incr("armci.integrity.aborted")
                    _return_credit()
                    engine.schedule(
                        _flt.FAULT_DETECT_DELAY,
                        lambda _a: ctx.post(CompletionItem(
                            event,
                            _flt.TransientFault("integrity", src, dst_rank),
                        )),
                    )
                    return
                integ.count_retransmit(len(_operand_bytes(req)))
                engine.schedule(integ.config.retransmit_delay, deliver)
                return
            if verdict == "duplicate":
                _return_credit()
                return
        elif cur is not req:
            # No integrity layer: the corrupted operand applies silently.
            world.trace.incr("pami.silent_corruptions")
        # Resolve at delivery time (a respawned target has a fresh client).
        target_client = world.client(dst_rank)
        if target_context is not None:
            dst_ctx = target_client.context(target_context)
        else:
            dst_ctx = target_client.progress_context()
        dst_ctx.post(
            RmwItem(
                cur, src, engine.now, credited=credited,
                parent_span=parent_span, src_inc=src_inc,
            )
        )

    engine.schedule(arrive - now, deliver)
    return RmwOp(op, src, dst_rank, addr, event)
