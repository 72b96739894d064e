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
a network timing becomes scheduled deliver / complete / ack events. Each
takes a list of ``(local, remote, nbytes)`` runs and posts them in one
loop: a contiguous transfer is one run, Eq. 9's zero-copy lattice one
run per chunk, and the typed strided and I/O-vector transfers of Section
III-C.2 one run whose sides are *layouts*. What cannot change inside the
loop — the lane's hop cost on an unfaulted route, each run size's NIC
occupancy, the address space, the counters — is read once per call;
each run keeps its own :class:`~repro.pami.delivery.Delivery`, and its
entries are pushed in posting order. What the wire does to a run in
between (loss, corruption, retransmission, a peer dying) is the
delivery's; what is RDMA's own:

* a put's *local* completion and its fate are scheduled at post time,
  and without an integrity engine so is its ack (NIC-reliable path);
  with one, the ack leaves the target only after the payload verified;
* a get is a round trip: the target NIC reads at ``deliver`` time, the
  reply lands at ``complete`` time, and a retransmitted round pays a
  fresh :meth:`~repro.machine.network.TorusNetwork.get_timing`.
"""

from __future__ import annotations

from ..errors import PamiError
from ..machine.network import TRANSFER_COUNTERS
from ..obs.span import kind
from ..sim.event import Event
from . import faults as _flt
from .context import CompletionItem, PamiContext
from .delivery import RETRANSMIT_DELAY, Delivery

#: The wire-time span kinds on the initiator's net lane: a run's flight,
#: and an integrity retransmit's.
_PUT_SPAN = kind("net", "rdma", "rdma_put", None, ("dst", "nbytes"))
_GET_SPAN = kind("net", "rdma", "rdma_get", None, ("dst", "nbytes"))
_PUT_RETRANSMIT_SPAN = kind(
    "net", "integrity", "put.retransmit", None, ("dst", "nbytes")
)
_GET_RETRANSMIT_SPAN = kind(
    "net", "integrity", "get.retransmit", None, ("dst", "nbytes")
)
#: What a call counts: its runs and bytes, and its RDMA ops.
_PUT_COUNTERS = (*TRANSFER_COUNTERS["put"], "pami.rdma_puts")
_GET_COUNTERS = (*TRANSFER_COUNTERS["get"], "pami.rdma_gets")


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
            world.obs.record(
                self.src, _PUT_RETRANSMIT_SPAN, (self.dst, nbytes), base, base + delay
            )
        engine._push(delay, self.attempt, None)


def rdma_put(
    ctx: PamiContext,
    dst_rank: int,
    runs,
    want_remote_ack: bool = False,
    extra_occupancy: float = 0.0,
) -> tuple[list[Event], list[Event] | None]:
    """Post one non-blocking RDMA put per ``(local, remote, nbytes)`` run
    from ``ctx``'s process to ``dst_rank``; each run's local completion
    event, and its remote ack with ``want_remote_ack`` (else ``None``).

    Sides are addresses or layouts (:func:`read_side`); ``extra_occupancy``
    is added to each run's. Data is captured at post time (ARMCI put
    follows MPI-style buffer-reuse semantics: the buffer is logically
    owned by the runtime until local completion, and the paper notes put
    therefore needs no fall-back).
    """
    world = ctx.client.world
    src = ctx.client.rank
    space = world.spaces[src]
    net = world.network
    engine = world.engine
    now = engine.now
    obs = world.obs
    hop = net.lane(src, dst_rank)
    local_events = []
    remote_acks = [] if want_remote_ack else None
    size = occupancy = None
    total = 0
    for local, remote, nbytes in runs:
        if nbytes <= 0:
            raise PamiError(f"put size must be positive, got {nbytes}")
        # Private uint8 snapshot (capture semantics); landing it is a
        # view-assign — no bytes materialization on either side.
        data = read_side(space, local, nbytes)
        if nbytes != size:
            size, occupancy = nbytes, net.occupancy(nbytes, extra_occupancy)
        _start, _done, deliver, complete = net.put_run(
            src, dst_rank, nbytes, occupancy, hop
        )
        # Per-op events carry a kind; the caller knows which ranks.
        local_event = Event(engine, "put.local")
        local_events.append(local_event)
        remote_ack = Event(engine, "put.rack") if want_remote_ack else None
        delivery = _PutDelivery(world, src, dst_rank, "put")
        delivery.ctx = ctx
        delivery.remote = remote
        delivery.remote_ack = remote_ack
        # The first copy's fate is rolled here, so a loss can ride the local
        # completion scheduled below.
        fault, _corruption, detect = delivery.fate or delivery.roll()
        if delivery.at_risk and hop is not None:
            # The roll can move the route: its cost is read again.
            hop = net.hop_cost(src, dst_rank)
        deliver_at = world.ordering.deliver(delivery, deliver)
        delivery.carry(data)
        unprotected = delivery.seal is None
        delivery.verified_ack = (
            remote_ack is not None and not unprotected and fault is None
        )

        engine._push(deliver_at - now, delivery.attempt, None)
        # A lost put surfaces as an error completion once the initiator NIC
        # misses the end-to-end delivery confirmation (``detect`` later).
        complete_at = complete if fault is None else complete + detect
        ctx.complete_after(complete_at - now, local_event, fault)
        if remote_ack is not None:
            remote_acks.append(remote_ack)
            if unprotected:
                # The ack rides the NIC-reliable path and is scheduled
                # unconditionally at post time.
                ack_at = deliver_at if hop is None else deliver_at + hop
                engine._push(ack_at - now, delivery.ack, None)
            elif fault is not None:
                # Lost write: the fence must not hang on this ack, and must
                # not count it — the local completion already surfaced the
                # fault (and ARMCI re-issued the op).
                ctx.complete_after(complete_at - now, remote_ack, fault)
        if obs is not None:
            obs.record(
                src, _PUT_SPAN, (dst_rank, nbytes), now, complete,
                (local_event, remote_ack),
            )
        total += nbytes
    messages, moved, posted = _PUT_COUNTERS
    counters = world.trace.counters
    counters[messages] += len(runs)
    counters[moved] += total
    counters[posted] += len(runs)
    return local_events, remote_acks


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
            world.obs.record(
                self.src, _GET_RETRANSMIT_SPAN, (self.dst, self.nbytes), base,
                base + delay + (t2.complete - base),
            )
        engine._push(delay + (t2.deliver - base), self.read, None)
        engine._push(delay + (t2.complete - base), self.attempt, None)


def rdma_get(
    ctx: PamiContext,
    dst_rank: int,
    runs,
    extra_occupancy: float = 0.0,
) -> list[Event]:
    """Post one non-blocking RDMA get per ``(local, remote, nbytes)`` run
    (as :func:`rdma_put`); each run's local completion event. Target
    memory is read by its NIC.

    The target's *software* is never involved: the data snapshot is taken
    at the time the target NIC serves the read (``deliver``), and lands
    in the initiator's memory at ``complete``.
    """
    world = ctx.client.world
    src = ctx.client.rank
    net = world.network
    engine = world.engine
    now = engine.now
    obs = world.obs
    hop = net.lane(src, dst_rank)
    local_events = []
    size = occupancy = None
    total = 0
    for local, remote, nbytes in runs:
        if nbytes <= 0:
            raise PamiError(f"get size must be positive, got {nbytes}")
        if nbytes != size:
            size, occupancy = nbytes, net.occupancy(nbytes, extra_occupancy)
        _start, _done, deliver, complete = net.get_run(
            src, dst_rank, nbytes, occupancy, hop
        )
        local_event = Event(engine, "get.local")
        local_events.append(local_event)
        delivery = _GetDelivery(world, src, dst_rank, "get")
        delivery.ctx = ctx
        delivery.remote = remote
        delivery.local = local
        delivery.nbytes = nbytes
        delivery.local_event = local_event
        deliver_at = deliver
        if delivery.at_risk:
            delivery.roll()
            if hop is not None:
                # The roll can move the route: its cost is read again.
                hop = net.hop_cost(src, dst_rank)
            # Gets bypass the ordering map (NIC-served reads), so their
            # jitter needs no per-pair clamping.
            deliver_at = delivery.jittered(deliver_at)
        # Jitter delays the whole round trip: the reply lands later too.
        complete_at = complete + (deliver_at - deliver)

        engine._push(deliver_at - now, delivery.read, None)
        engine._push(complete_at - now, delivery.attempt, None)
        if obs is not None:
            obs.record(
                src, _GET_SPAN, (dst_rank, nbytes), now, complete_at, (local_event,)
            )
        total += nbytes
    messages, moved, posted = _GET_COUNTERS
    counters = world.trace.counters
    counters[messages] += len(runs)
    counters[moved] += total
    counters[posted] += len(runs)
    return local_events
