"""RDMA put/get primitives.

RDMA data movement never touches the target's progress engine — the target
NIC serves reads and writes directly (Section III-C.1). That property is
what makes RDMA get truly one-sided and is why the ARMCI protocols prefer
it whenever memory regions exist on both sides.

Local completions, however, are PAMI callbacks: they are *delivered* at the
hardware completion time but only *dispatched* when a thread advances the
issuing context (:class:`~repro.pami.context.CompletionItem`), matching
PAMI's completion semantics.

One wire path: :func:`rdma_put` and :func:`rdma_get` are the only place
a network :class:`~repro.machine.network.TransferTiming` becomes
scheduled deliver / complete / ack events, for contiguous transfers and
— through a *layout* on either side — for the typed strided and
I/O-vector transfers of Section III-C.2 alike. Every transfer asks
:func:`~repro.pami.faults.wire_outcome` what the wire did to it, and
"clean" (the only answer with chaos and link faults off) is the plain
three-event schedule. The other answers:

* **Loss** (chaos drop, or a hop on a dead/lossy link of the current
  :class:`~repro.topology.routing.RouteTable` route) — the initiator NIC
  times out and the op completes with a
  :class:`~repro.pami.faults.TransientFault`; the ARMCI retry layer
  re-issues.
* **Corruption** (chaos ``corrupt_mode="payload"``, or a corrupting
  link) — one payload bit flips. With ``world.integrity`` installed
  every transfer carries a CRC32 + sequence number verified at delivery:
  the damaged copy is discarded and retransmitted transparently (over
  the *current* route, so a link the health monitor has since marked
  suspect is avoided) and put acks certify *verified* delivery. Without
  it the damage lands and counts ``pami.silent_corruptions``.
* **Stale incarnations** — traffic from or to a rank that died (and
  possibly respawned) since the post is discarded by the NIC.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import PamiError
from ..machine.network import TransferTiming
from ..sim.event import Event
from . import faults as _flt
from .context import CompletionItem, PamiContext


@dataclass(frozen=True)
class RmaOp:
    """Handle to one posted RDMA operation.

    Attributes
    ----------
    kind:
        ``"put"`` or ``"get"``.
    src, dst:
        Initiator and target ranks.
    nbytes:
        Payload size.
    local_event:
        Triggers when the initiator's completion callback is dispatched
        (buffer reusable for puts; data landed for gets).
    remote_ack_event:
        For puts: triggers when the remote-delivery notification reaches
        the initiator (used by ARMCI fences). ``None`` for gets.
    timing:
        The network timing breakdown (useful for benchmarks).
    """

    kind: str
    src: int
    dst: int
    nbytes: int
    local_event: Event
    remote_ack_event: Event | None
    timing: TransferTiming


def read_side(space, layout, nbytes: int):
    """Private packed copy of the ``nbytes`` a transfer covers on one side.

    ``layout`` is a plain address (the contiguous case) or an object
    packing its own lattice through ``gather(space)`` — the strided and
    I/O-vector layouts of the ARMCI typed-datatype transfers.
    """
    if hasattr(layout, "gather"):
        return layout.gather(space)
    return space.snapshot(layout, nbytes)


def write_side(space, layout, data) -> None:
    """Land a packed payload at ``layout`` (see :func:`read_side`)."""
    if hasattr(layout, "scatter"):
        layout.scatter(space, data)
    else:
        space.write_into(layout, data)


def _complete_after(ctx: PamiContext, delay: float, event: Event, value=None) -> None:
    """Post ``event``'s completion (carrying ``value``) to ``ctx`` after
    ``delay``; a ``None`` value is the success case."""
    ctx.engine.schedule(
        delay, lambda _arg: ctx.post(CompletionItem(event, value))
    )


def rdma_put(
    ctx: PamiContext,
    dst_rank: int,
    local,
    remote,
    nbytes: int,
    want_remote_ack: bool = False,
    extra_occupancy: float = 0.0,
) -> RmaOp:
    """Post a non-blocking RDMA put from ``ctx``'s process to ``dst_rank``.

    ``local``/``remote`` are addresses or layouts (:func:`read_side`). Data
    is captured at post time (ARMCI put follows MPI-style buffer-reuse
    semantics: the buffer is logically owned by the runtime until local
    completion, and the paper notes put therefore needs no fall-back).
    """
    world = ctx.client.world
    src = ctx.client.rank
    if nbytes <= 0:
        raise PamiError(f"put size must be positive, got {nbytes}")
    # Private uint8 snapshot (capture semantics); landing it below is a
    # view-assign — no bytes materialization on either side.
    data = read_side(world.space(src), local, nbytes)
    net = world.network
    timing = net.put_timing(src, dst_rank, nbytes, extra_occupancy)
    engine = world.engine
    now = engine.now

    local_event = engine.event(f"put.local.{src}->{dst_rank}")
    remote_ack = (
        engine.event(f"put.rack.{src}->{dst_rank}") if want_remote_ack else None
    )

    chaos = world.chaos
    integ = world.integrity
    link_mode = net.route_table is not None and not net.is_local(src, dst_rank)
    fault, corruption, detect = _flt.wire_outcome(
        world, src, dst_rank, "put", link_mode
    )
    deliver_at = timing.deliver
    if chaos is not None:
        deliver_at = chaos.ordered_deliver(src, dst_rank, deliver_at)
    if link_mode:
        # Reroutes can shorten paths mid-stream; ordered traffic stays
        # monotone per pair (head-of-line blocking on the new route).
        deliver_at = net.ordered_deliver(src, dst_rank, deliver_at)
    world.ordering.record(src, dst_rank, deliver_at)
    src_inc = world.incarnations[src]
    dst_inc = world.incarnations[dst_rank]
    protection = integ.protect(src, dst_rank, data) if integ is not None else None
    budget = integ.config.max_retransmits if integ is not None else 0
    retries = 0
    obs = world.obs

    def ack(_arg) -> None:
        if world.is_failed(dst_rank) or world.incarnations[dst_rank] != dst_inc:
            _complete_after(
                ctx, _flt.FAULT_DETECT_DELAY, remote_ack, _flt.Failure(dst_rank)
            )
        else:
            ctx.post(CompletionItem(remote_ack))

    def arrive(_arg) -> None:
        """One copy (the first, or a retransmit) reaches the target NIC."""
        nonlocal corruption
        if fault is not None:
            return  # dropped: lost in transit
        if world.is_failed(dst_rank) or world.incarnations[dst_rank] != dst_inc:
            # A respawned target has fresh memory (the old registration
            # is gone); a dead NIC drops the packet.
            if world.incarnations[dst_rank] != dst_inc:
                world.trace.incr("pami.stale_deliveries_dropped")
            if protection is not None and remote_ack is not None:
                ack(None)  # unprotected puts schedule the ack at post time
            return
        if world.is_failed(src) or world.incarnations[src] != src_inc:
            # Traffic from a dead incarnation must not land after the
            # survivors rolled back — the NIC discards the packet.
            world.trace.incr("pami.stale_deliveries_dropped")
            return
        if retries:
            # A retransmit rolls the wire over the *current* route; the
            # last one in the budget goes out clean (bounded loss) unless
            # no route is left at all.
            corruption = None
            if link_mode:
                if retries >= budget:
                    if net.route_blocked(src, dst_rank):
                        retransmit()  # budget spent: gives the write up
                        return
                else:
                    lost, corruption, _d = _flt.wire_outcome(
                        world, src, dst_rank, "put", True, first=False
                    )
                    if lost is not None:
                        retransmit()  # transport-level loss: keep trying
                        return
        payload = data if corruption is None else corruption.apply(data)
        if protection is not None:
            verdict = integ.verify(
                src, dst_rank, protection[0], protection[1], payload
            )
            if verdict == "corrupt":
                retransmit()
                return
            if verdict == "duplicate":
                return
        elif corruption is not None:
            # No integrity layer: the damaged copy lands silently.
            world.trace.incr("pami.silent_corruptions")
        write_side(world.space(dst_rank), remote, payload)
        if protection is not None and remote_ack is not None:
            # Verified delivery: only now does the ack leave the target.
            engine.schedule(net.hop_cost(src, dst_rank), ack)

    if integ is not None:
        # Only an integrity engine retransmits (a failed verification
        # starts it), so only then is this closure — and its reference
        # cycle with ``arrive`` — built.

        def retransmit() -> None:
            nonlocal retries
            if retries >= budget:
                # Budget exhausted (with the target unreachable on every
                # path, or every copy damaged). The write is lost; the
                # fence treats the transient ack like a chaos loss
                # (escalation to rank death — when the target really is
                # cut off everywhere — is the health monitor's job, not
                # this transfer's).
                world.trace.incr("armci.integrity.aborted")
                if remote_ack is not None:
                    _complete_after(
                        ctx, _flt.FAULT_DETECT_DELAY, remote_ack,
                        _flt.TransientFault("integrity_exhausted", src, dst_rank),
                    )
                return
            retries += 1
            integ.count_retransmit(nbytes)
            t2 = net.put_timing(src, dst_rank, nbytes)
            base = engine.now
            delay = integ.config.retransmit_delay + (t2.deliver - base)
            if obs is not None:
                obs.record(
                    src, "net", "integrity", "put.retransmit", base,
                    base + delay, dst=dst_rank, nbytes=nbytes,
                )
            engine.schedule(delay, arrive)

    engine.schedule(deliver_at - now, arrive)
    # A lost put surfaces as an error completion once the initiator NIC
    # misses the end-to-end delivery confirmation (``detect`` later).
    complete_at = timing.complete if fault is None else timing.complete + detect
    _complete_after(ctx, complete_at - now, local_event, fault)
    if remote_ack is not None:
        if protection is None:
            # The ack rides the NIC-reliable path and is scheduled
            # unconditionally at post time.
            engine.schedule(deliver_at + net.hop_cost(src, dst_rank) - now, ack)
        elif fault is not None:
            # Lost write: the fence must not hang on this ack, and must
            # not count it — the local completion already surfaced the
            # fault (and ARMCI re-issued the op).
            _complete_after(ctx, complete_at - now, remote_ack, fault)
    world.trace.incr("pami.rdma_puts")
    if obs is not None:
        sid = obs.record(
            src, "net", "rdma", "rdma_put", now, timing.complete,
            dst=dst_rank, nbytes=nbytes,
        )
        obs.register_event(local_event, sid)
        if remote_ack is not None:
            obs.register_event(remote_ack, sid)
    return RmaOp("put", src, dst_rank, nbytes, local_event, remote_ack, timing)


def rdma_get(
    ctx: PamiContext,
    dst_rank: int,
    remote,
    local,
    nbytes: int,
    extra_occupancy: float = 0.0,
) -> RmaOp:
    """Post a non-blocking RDMA get; target memory is read by its NIC.

    The target's *software* is never involved: the data snapshot is taken
    at the time the target NIC serves the read (``timing.deliver``), and
    lands in the initiator's memory at ``timing.complete``.
    ``remote``/``local`` are addresses or layouts (:func:`read_side`).
    """
    world = ctx.client.world
    src = ctx.client.rank
    if nbytes <= 0:
        raise PamiError(f"get size must be positive, got {nbytes}")
    net = world.network
    timing = net.get_timing(src, dst_rank, nbytes, extra_occupancy)
    engine = world.engine
    now = engine.now

    local_event = engine.event(f"get.local.{src}<-{dst_rank}")

    chaos = world.chaos
    integ = world.integrity
    link_mode = net.route_table is not None and not net.is_local(src, dst_rank)
    # ``loss``/``corruption`` are the fate of the round in flight: the
    # first one here, re-rolled by every retransmit.
    loss, corruption, detect = _flt.wire_outcome(
        world, src, dst_rank, "get", link_mode
    )
    deliver_at = timing.deliver
    if chaos is not None:
        # Gets bypass the ordering checker (NIC-served reads), so their
        # jitter needs no per-pair clamping.
        deliver_at = chaos.unordered_deliver(src, dst_rank, deliver_at)
    # Jitter delays the whole round trip: the reply lands later too.
    complete_at = timing.complete + (deliver_at - timing.deliver)
    dst_inc = world.incarnations[dst_rank]
    budget = integ.config.max_retransmits if integ is not None else 0
    retries = 0
    obs = world.obs
    snap: list = []  # [payload ndarray, (seq, csum)] once the NIC reads

    def read_remote(_arg) -> None:
        # A respawned target's fresh space has no registration at the
        # old address: the read misses and the op completes with a
        # Failure token, exactly like a read served by a dead NIC.
        if (
            loss is None
            and not world.is_failed(dst_rank)
            and world.incarnations[dst_rank] == dst_inc
        ):
            snap.append(read_side(world.space(dst_rank), remote, nbytes))
            if integ is not None:
                # Reply flow runs target -> initiator.
                snap.append(integ.protect(dst_rank, src, snap[0]))

    def complete(_arg) -> None:
        if not snap:
            if loss is None:
                # Dead target NIC (fail-stop): error completion after
                # the detection timeout.
                _complete_after(
                    ctx, _flt.FAULT_DETECT_DELAY, local_event,
                    _flt.Failure(dst_rank),
                )
            elif 0 < retries < budget:
                retransmit()  # transport-level loss: keep trying
            else:
                # The first round's loss (and the last retransmit's)
                # surfaces to the op; the ARMCI retry layer re-issues.
                _complete_after(ctx, detect, local_event, loss)
            return
        payload = snap[0] if corruption is None else corruption.apply(snap[0])
        if integ is not None:
            verdict = integ.verify(dst_rank, src, snap[1][0], snap[1][1], payload)
            if verdict == "corrupt":
                retransmit()
                return
            if verdict == "duplicate":
                return
        elif corruption is not None:
            # No integrity layer: the damaged reply lands silently.
            world.trace.incr("pami.silent_corruptions")
        write_side(world.space(src), local, payload)
        ctx.post(CompletionItem(local_event))

    if integ is not None:
        # Only an integrity engine retransmits (a failed verification
        # starts it), so only then is this closure — and its reference
        # cycle with ``complete`` — built.

        def retransmit() -> None:
            nonlocal retries, loss, corruption, detect
            if retries >= budget:
                world.trace.incr("armci.integrity.aborted")
                _complete_after(
                    ctx, _flt.FAULT_DETECT_DELAY, local_event,
                    _flt.TransientFault("integrity_exhausted", src, dst_rank),
                )
                return
            retries += 1
            integ.count_retransmit(nbytes)
            loss = corruption = None
            detect = _flt.FAULT_DETECT_DELAY
            if link_mode:
                if retries < budget:
                    loss, corruption, _d = _flt.wire_outcome(
                        world, src, dst_rank, "get", True, first=False
                    )
                elif net.route_blocked(src, dst_rank):
                    # The last round goes out clean (bounded loss)
                    # unless no route is left at all.
                    loss = _flt.TransientFault("unreachable", src, dst_rank)
            t2 = net.get_timing(src, dst_rank, nbytes)
            base = engine.now
            delay = integ.config.retransmit_delay
            if obs is not None:
                obs.record(
                    src, "net", "integrity", "get.retransmit", base,
                    base + delay + (t2.complete - base),
                    dst=dst_rank, nbytes=nbytes,
                )
            snap.clear()
            engine.schedule(delay + (t2.deliver - base), read_remote)
            engine.schedule(delay + (t2.complete - base), complete)

    engine.schedule(deliver_at - now, read_remote)
    engine.schedule(complete_at - now, complete)
    world.trace.incr("pami.rdma_gets")
    if obs is not None:
        sid = obs.record(
            src, "net", "rdma", "rdma_get", now, complete_at,
            dst=dst_rank, nbytes=nbytes,
        )
        obs.register_event(local_event, sid)
    return RmaOp("get", src, dst_rank, nbytes, local_event, None, timing)
