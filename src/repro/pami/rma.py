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
I/O-vector transfers of Section III-C.2 alike. What the wire does to a
transfer in between (loss, corruption, retransmission, a peer dying) is
:class:`~repro.pami.delivery.Delivery`'s; what is RDMA's own:

* a put's *local* completion and its fate are scheduled at post time,
  and without an integrity engine so is its ack (NIC-reliable path);
  with one, the ack leaves the target only after the payload verified;
* a get is a round trip: the target NIC reads at ``deliver`` time, the
  reply lands at ``complete`` time, and a retransmitted round pays a
  fresh :meth:`~repro.machine.network.TorusNetwork.get_timing`.
"""

from __future__ import annotations

from ..errors import PamiError
from ..machine.network import TransferTiming
from ..sim.event import Event
from ..record import SlotRecord
from . import faults as _flt
from .context import CompletionItem, PamiContext
from .delivery import RETRANSMIT_DELAY, Delivery


class RmaOp(SlotRecord):
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

    __slots__ = (
        "kind", "src", "dst", "nbytes", "local_event", "remote_ack_event",
        "timing",
    )

    def __init__(
        self, kind: str, src: int, dst: int, nbytes: int, local_event: Event,
        remote_ack_event: Event | None, timing: TransferTiming,
    ) -> None:
        self.kind = kind
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.local_event = local_event
        self.remote_ack_event = remote_ack_event
        self.timing = timing


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


class _PutDelivery(Delivery):
    """A put's payload on its way to the target NIC.

    The local completion is the caller's (scheduled at post time, with
    the first copy's fate); what is left to complete here is the remote
    ack, and only when the ack certifies *verified* delivery.
    """

    __slots__ = ("ctx", "remote", "remote_ack", "verified_ack")

    def land(self, payload) -> None:
        world = self.world
        write_side(world.spaces[self.dst], self.remote, payload)
        if self.verified_ack:
            # Verified delivery: only now does the ack leave the target.
            world.engine._push(
                world.network.hop_cost(self.src, self.dst), self.ack, None
            )

    def ack(self, _arg=None) -> None:
        """The remote-delivery notification reaches the initiator."""
        if self.gone(self.dst):
            self.ctx.complete_after(
                _flt.FAULT_DETECT_DELAY, self.remote_ack, _flt.Failure(self.dst)
            )
        else:
            self.ctx.post(CompletionItem(self.remote_ack))

    def fail(self, token, delay: float) -> bool:
        if self.verified_ack:
            self.ctx.complete_after(delay, self.remote_ack, token)
        return True

    def resend(self) -> None:
        world = self.world
        engine = world.engine
        nbytes = len(self.payload)
        t2 = world.network.put_timing(self.src, self.dst, nbytes)
        base = engine.now
        delay = RETRANSMIT_DELAY + (t2.deliver - base)
        if world.obs is not None:
            self.flight("integrity", "put.retransmit", base + delay, nbytes)
        engine._push(delay, self.attempt, None)


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
    data = read_side(world.spaces[src], local, nbytes)
    net = world.network
    timing = net.put_timing(src, dst_rank, nbytes, extra_occupancy)
    engine = world.engine
    now = engine.now

    # Per-op events carry a kind; the RmaOp says which ranks.
    local_event = Event(engine, "put.local")
    remote_ack = Event(engine, "put.rack") if want_remote_ack else None

    delivery = _PutDelivery(world, src, dst_rank, "put")
    delivery.ctx = ctx
    delivery.remote = remote
    delivery.remote_ack = remote_ack
    # The first copy's fate is rolled here, so a loss can ride the local
    # completion scheduled below.
    fault, _corruption, detect = delivery.fate or delivery.roll()
    deliver_at = world.ordering.deliver(delivery, timing.deliver)
    delivery.carry(data)
    unprotected = delivery.seal is None
    delivery.verified_ack = (
        remote_ack is not None and not unprotected and fault is None
    )

    engine._push(deliver_at - now, delivery.attempt, None)
    # A lost put surfaces as an error completion once the initiator NIC
    # misses the end-to-end delivery confirmation (``detect`` later).
    complete_at = timing.complete if fault is None else timing.complete + detect
    ctx.complete_after(complete_at - now, local_event, fault)
    if remote_ack is not None:
        if unprotected:
            # The ack rides the NIC-reliable path and is scheduled
            # unconditionally at post time.
            engine._push(
                deliver_at + net.hop_cost(src, dst_rank) - now, delivery.ack, None
            )
        elif fault is not None:
            # Lost write: the fence must not hang on this ack, and must
            # not count it — the local completion already surfaced the
            # fault (and ARMCI re-issued the op).
            ctx.complete_after(complete_at - now, remote_ack, fault)
    world.trace.counters["pami.rdma_puts"] += 1
    if world.obs is not None:
        delivery.flight(
            "rdma", "rdma_put", timing.complete, nbytes, local_event, remote_ack
        )
    return RmaOp("put", src, dst_rank, nbytes, local_event, remote_ack, timing)


class _GetDelivery(Delivery):
    """A get's round trip: the target NIC reads at ``deliver`` time
    (:meth:`read`), the reply lands at the initiator at ``complete``
    time (:meth:`attempt`). Each round's fate is rolled before it flies —
    the read has to know whether there is a round to serve."""

    __slots__ = ("ctx", "remote", "local", "nbytes", "local_event")

    def read(self, _arg=None) -> None:
        """The target NIC serves the read — unless this round was lost,
        or the NIC is dead (a respawned target's fresh space has no
        registration at the old address: the read misses)."""
        if self.fate[0] is None and not self.gone(self.dst):
            # Reply flow runs target -> initiator.
            self.carry(
                read_side(self.world.spaces[self.dst], self.remote, self.nbytes),
                back=True,
            )

    def land(self, payload) -> None:
        write_side(self.world.spaces[self.src], self.local, payload)
        self.ctx.post(CompletionItem(self.local_event))

    def fail(self, token, delay: float) -> bool:
        self.ctx.complete_after(delay, self.local_event, token)
        return True

    def resend(self) -> None:
        world = self.world
        engine = world.engine
        self.roll()
        t2 = world.network.get_timing(self.src, self.dst, self.nbytes)
        base = engine.now
        delay = RETRANSMIT_DELAY
        if world.obs is not None:
            self.flight(
                "integrity", "get.retransmit", base + delay + (t2.complete - base),
                self.nbytes,
            )
        engine._push(delay + (t2.deliver - base), self.read, None)
        engine._push(delay + (t2.complete - base), self.attempt, None)


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

    local_event = Event(engine, "get.local")

    delivery = _GetDelivery(world, src, dst_rank, "get")
    delivery.ctx = ctx
    delivery.remote = remote
    delivery.local = local
    delivery.nbytes = nbytes
    delivery.local_event = local_event
    if delivery.fate is None:
        delivery.roll()
    deliver_at = timing.deliver
    if delivery.at_risk:
        # Gets bypass the ordering map (NIC-served reads), so their
        # jitter needs no per-pair clamping.
        deliver_at = delivery.jittered(deliver_at)
    # Jitter delays the whole round trip: the reply lands later too.
    complete_at = timing.complete + (deliver_at - timing.deliver)

    engine._push(deliver_at - now, delivery.read, None)
    engine._push(complete_at - now, delivery.attempt, None)
    world.trace.counters["pami.rdma_gets"] += 1
    if world.obs is not None:
        delivery.flight("rdma", "rdma_get", complete_at, nbytes, local_event)
    return RmaOp("get", src, dst_rank, nbytes, local_event, None, timing)
