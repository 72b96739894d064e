"""Selector/actor runtime over the ARMCI runtime.

An :class:`ActorSystem` lives on every rank of the job (SPMD: every
rank constructs one and takes part in every collective
:meth:`~ActorSystem.register` call). An actor is owned by exactly one
rank; other ranks address it by name. Messages are fixed-format records
(:data:`~repro.serve.mailbox.SLOT_DTYPE`); delivery is per-(sender,
inbox) FIFO via the remote-accumulate ring lanes of
:mod:`repro.serve.mailbox`, with **automatic sender-side aggregation**:
everything posted between two ``flush`` calls toward one destination
rank ships as a single combined vector put (one
:class:`~repro.armci.aggregate.AggregateHandle` flush), regardless of
how many actors/inboxes it spans.

Selector semantics: an actor declares several named inboxes in priority
order and may *guard* any of them (``Actor.guard`` returning ``False``
leaves that inbox's lanes untouched — messages wait in the ring and
backpressure propagates to senders through the lane's bounded
capacity).

Backpressure composes with the runtime's existing credit/FIFO flow
control: lane capacity bounds what a sender may commit (refreshing the
consumer's ``head`` costs one AMO); beneath that, the aggregate flush
itself is subject to FIFO credits and deadline propagation like any
ARMCI operation. ``flush`` is *best-effort*: what fits in the lanes
goes out, the rest stays queued locally — never blocking, which is what
keeps termination waves deadlock-free.

Termination bookkeeping is per-peer (``sent_to[r]`` / ``recv_from[r]``)
so that when a rank dies, *both* sides of its flows drop out of the
wave stats symmetrically — otherwise a survivor's global send counter
would forever exceed the global receive counter and the four-counter
protocol would never fire.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator

import numpy as np

from ..errors import ArmciError, ProcessFailedError
from ..sim.primitives import Delay
from .mailbox import InboxSpec, Mailbox, SLOT_DTYPE, StagingBuffer, stage_batch

#: Simulated sleep (seconds) of an actor loop with nothing to do, and of
#: a termination detector waiting on its board.
POLL_INTERVAL = 2e-6

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.runtime import ArmciProcess
    from .termination import FourCounterTermination


class Actor:
    """Base class for actors. Override :meth:`on_batch` (and optionally
    :meth:`guard`). ``on_batch`` may be a plain method or a generator
    (it is ``yield from``-ed when it returns one), so handlers may issue
    ARMCI operations."""

    def on_batch(self, system: "ActorSystem", inbox: str, sender: int,
                 records: np.ndarray):
        raise NotImplementedError

    def guard(self, inbox: str) -> bool:
        """Selector guard: ``False`` defers the inbox (ring untouched)."""
        return True


class _Registration:
    """One registered actor as seen from any rank."""

    __slots__ = ("name", "owner", "actor", "specs", "mailboxes")

    def __init__(self, name, owner, actor, specs, mailboxes) -> None:
        self.name = name
        self.owner = owner
        self.actor = actor  # None on non-owner ranks
        self.specs = specs
        self.mailboxes = mailboxes  # {inbox name: Mailbox}


class ActorSystem:
    """Per-rank actor runtime (see module docstring)."""

    #: Cap on records drained per lane poll and sent per lane flush leg.
    MAX_BATCH = 4096

    def __init__(self, rt: "ArmciProcess") -> None:
        self.rt = rt
        self._registry: dict[str, _Registration] = {}
        self._local: list[_Registration] = []  # actors owned here, in order
        #: Outbound queues: {dst rank: {(actor, inbox): [record arrays]}}.
        self._outbox: dict[int, dict[tuple[str, str], list[np.ndarray]]] = {}
        #: Loopback queue (owner == self): no ring round-trip.
        self._local_queue: list[tuple[str, str, np.ndarray]] = []
        #: Sender-side lane views, one per (actor, inbox) posted to.
        self._lanes: dict[tuple[str, str], Any] = {}
        self._scratch = StagingBuffer()
        self._sent_to: dict[int, int] = {}
        self._recv_from: dict[int, int] = {}
        self._dead: set[int] = set()
        self._peer_death_hooks: list[Callable[[int], None]] = []
        #: Workload drivers set this while they still have work pending
        #: that is not yet visible in any queue (e.g. future arrivals).
        self.busy = False
        #: Request-level instruments (latency histograms) go where the
        #: job says: its own registry unless another was installed.
        self.metrics = rt.job.serve_metrics

    # ----------------------------------------------------- registration

    def register(
        self,
        name: str,
        owner: int,
        actor: Actor | None,
        inboxes: tuple[InboxSpec, ...],
    ) -> Generator[Any, Any, None]:
        """Collectively register one actor (every rank must call, with
        identical ``name``/``owner``/``inboxes``; ``actor`` is retained
        only on the owner)."""
        if name in self._registry:
            raise ArmciError(f"actor {name!r} already registered")
        if not inboxes:
            raise ArmciError(f"actor {name!r} needs at least one inbox")
        rt = self.rt
        if rt.rank == owner and actor is None:
            raise ArmciError(f"owner rank {owner} must supply actor {name!r}")
        mailboxes = {}
        for spec in inboxes:
            senders = spec.senders
            if senders is None:
                senders = tuple(range(rt.world.num_procs))
            else:
                senders = tuple(senders)
            stride = 16 + spec.capacity * SLOT_DTYPE.itemsize
            alloc = yield from rt.malloc(len(senders) * stride)
            mailboxes[spec.name] = Mailbox(rt, owner, spec, senders, alloc)
        reg = _Registration(
            name, owner, actor if rt.rank == owner else None,
            tuple(inboxes), mailboxes,
        )
        self._registry[name] = reg
        if rt.rank == owner:
            self._local.append(reg)
        rt.trace.incr("serve.actors_registered")

    def on_peer_dead(self, hook: Callable[[int], None]) -> None:
        """Register a callback fired once per rank discovered dead."""
        self._peer_death_hooks.append(hook)

    # ----------------------------------------------------------- posting

    def post(self, name: str, inbox: str, records: np.ndarray) -> int:
        """Queue records for an actor's inbox (local, non-blocking).

        Returns the number queued (0 when the owner is known dead —
        dropped and counted, like a send into a crashed rank).
        """
        reg = self._registry[name]
        if len(records) == 0:
            return 0
        if records.dtype != SLOT_DTYPE:
            raise ArmciError(
                f"records must use SLOT_DTYPE, got {records.dtype}"
            )
        dst = reg.owner
        if dst in self._dead or self.rt.world.is_failed(dst):
            self._note_dead(dst)
            self.rt.trace.incr("serve.records_dropped_dead", len(records))
            return 0
        if inbox not in reg.mailboxes:
            raise ArmciError(f"actor {name!r} has no inbox {inbox!r}")
        n = len(records)
        self._sent_to[dst] = self._sent_to.get(dst, 0) + n
        self.rt.trace.incr("serve.records_posted", n)
        if dst == self.rt.rank:
            self._local_queue.append((name, inbox, records.copy()))
            self.rt.trace.incr("serve.local_deliveries", n)
        else:
            self._outbox.setdefault(dst, {}).setdefault((name, inbox), []).append(
                records.copy()
            )
        return n

    def outbox_pending(self) -> int:
        """Records queued locally but not yet committed to any ring."""
        return sum(
            len(a)
            for per_dst in self._outbox.values()
            for arrays in per_dst.values()
            for a in arrays
        )

    # ------------------------------------------------------------ flush

    def flush(self) -> Generator[Any, Any, bool]:
        """Ship queued records, best effort; ``True`` if any were sent.

        Per destination rank: stage what fits into each target lane
        under one aggregate handle, flush it (one combined vector put),
        fence, then commit every lane with a remote ``fetch_add``.
        Lanes without room defer their leftovers locally (backpressure);
        a dead destination drops its whole queue (counted).
        """
        rt = self.rt
        progress = False
        for dst in sorted(self._outbox):
            per_dst = self._outbox[dst]
            if not per_dst:
                continue
            if dst in self._dead or rt.world.is_failed(dst):
                self._drop_dst(dst)
                continue
            agg = rt.aggregate(dst)
            agg.on_flush = self._on_wire_flush
            commits: list[tuple[Any, int]] = []
            try:
                for key in sorted(per_dst):
                    arrays = per_dst[key]
                    if not arrays:
                        continue
                    records = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
                    lane = self._sender_lane(key)
                    want = min(len(records), self.MAX_BATCH)
                    if lane.room < want:
                        yield from lane.refresh_head(rt)
                    n_send = min(want, lane.room)
                    if n_send <= 0:
                        per_dst[key] = [records]
                        rt.trace.incr("serve.backpressure_deferrals")
                        continue
                    stage_batch(rt, agg, self._scratch, lane, records[:n_send])
                    commits.append((lane, n_send))
                    if n_send < len(records):
                        per_dst[key] = [records[n_send:]]
                        rt.trace.incr("serve.backpressure_deferrals")
                    else:
                        per_dst[key] = []
                if not commits:
                    continue
                handle = yield from agg.flush_if_pending()
                if handle is not None:
                    yield from rt.fence(dst)
                    rt.trace.incr("serve.wire_flushes")
                for lane, n in commits:
                    yield from rt.rmw(dst, lane.commit_addr, "fetch_add", n)
                    lane.tail += n
                    progress = True
            except ProcessFailedError:
                if rt.world.is_failed(rt.rank):
                    raise
                # Lanes whose commit already landed advanced their tail
                # above; everything else (staged-but-uncommitted data
                # included) is simply dropped with the dead rank.
                self._drop_dst(dst)
        return progress

    def _on_wire_flush(self, total_bytes: int, segments: int) -> None:
        """Aggregate-handle observer: batching efficiency dashboards."""
        self.rt.trace.incr("serve.wire_bytes", total_bytes)
        self.rt.trace.incr("serve.wire_segments", segments)

    def _sender_lane(self, key: tuple[str, str]):
        lane = self._lanes.get(key)
        if lane is None:
            name, inbox = key
            mailbox = self._registry[name].mailboxes[inbox]
            lane = self._lanes[key] = mailbox.sender_lane(self.rt.rank)
        return lane

    def _drop_dst(self, dst: int) -> None:
        per_dst = self._outbox.pop(dst, {})
        dropped = sum(len(a) for arrays in per_dst.values() for a in arrays)
        if dropped:
            self.rt.trace.incr("serve.records_dropped_dead", dropped)
        self._note_dead(dst)

    def _note_dead(self, dst: int) -> None:
        if dst in self._dead:
            return
        self._dead.add(dst)
        self.rt.trace.incr("serve.peer_deaths")
        for hook in self._peer_death_hooks:
            hook(dst)

    # ---------------------------------------------------------- polling

    def poll_once(self) -> Generator[Any, Any, bool]:
        """Drain deliverable messages once; ``True`` if any delivered.

        Loopback queue first (guard-deferred batches re-queue in order),
        then every locally-owned actor's inboxes in priority order,
        every permitted sender lane per inbox.
        """
        delivered = False
        if self._local_queue:
            pending, self._local_queue = self._local_queue, []
            for name, inbox, records in pending:
                reg = self._registry[name]
                if reg.actor is not None and reg.actor.guard(inbox):
                    self._recv_from[self.rt.rank] = (
                        self._recv_from.get(self.rt.rank, 0) + len(records)
                    )
                    self.rt.trace.incr("serve.records_delivered", len(records))
                    yield from self._deliver(reg, inbox, self.rt.rank, records)
                    delivered = True
                else:
                    self._local_queue.append((name, inbox, records))
                    self.rt.trace.incr("serve.guard_deferrals")
        for reg in self._local:
            for spec in reg.specs:
                if not reg.actor.guard(spec.name):
                    self.rt.trace.incr("serve.guard_deferrals")
                    continue
                mailbox = reg.mailboxes[spec.name]
                for sender in mailbox.senders:
                    if sender == self.rt.rank:
                        continue  # loopback never touches the ring
                    records = mailbox.poll(sender)
                    if records is None:
                        continue
                    self._recv_from[sender] = (
                        self._recv_from.get(sender, 0) + len(records)
                    )
                    yield from self._deliver(reg, spec.name, sender, records)
                    delivered = True
        return delivered

    def _deliver(self, reg, inbox: str, sender: int, records) -> Generator:
        result = reg.actor.on_batch(self, inbox, sender, records)
        if result is not None and hasattr(result, "send"):
            yield from result

    # ------------------------------------------------------ termination

    @property
    def idle(self) -> bool:
        """No local work in flight (rings excluded: unconsumed ring data
        is caught by the sent/recv imbalance in the wave stats)."""
        return (
            not self.busy
            and not self._local_queue
            and self.outbox_pending() == 0
        )

    def wave_stats(self) -> tuple[int, int, bool]:
        """``(sent, recv, idle)`` over *alive* peers only."""
        world = self.rt.world
        sent = sum(
            n for r, n in self._sent_to.items() if not world.is_failed(r)
        )
        recv = sum(
            n for r, n in self._recv_from.items() if not world.is_failed(r)
        )
        return sent, recv, self.idle

    def _service(self) -> Generator[Any, Any, None]:
        """Keep draining while parked inside a termination wave.

        The explicit ``rt.progress()`` matters in default (D) mode: a
        rank that only sleeps between polls never services its progress
        context, so peers' ring commits would never land (Fig. 9's
        point, biting an idle server instead of a computing one).
        """
        yield from self.rt.progress()
        yield from self.poll_once()
        yield from self.flush()

    def run(
        self,
        detector: "FourCounterTermination",
        step: Callable[[], Generator] | None = None,
    ) -> Generator[Any, Any, None]:
        """Poll/step/flush until the detector declares termination.

        ``step`` is the workload's chance to inject new messages (e.g.
        the open-loop client driver); it is a generator returning truthy
        when it made progress. When nothing moved and the system is not
        yet idle, the loop sleeps one ``POLL_INTERVAL``.
        """
        while True:
            # Explicit progress first (see _service): deliver whatever
            # peers have pushed at our context before polling the rings.
            yield from self.rt.progress()
            progress = yield from self.poll_once()
            if step is not None:
                progress = bool((yield from step())) or progress
            progress = bool((yield from self.flush())) or progress
            if not self.idle:
                if not progress:
                    yield Delay(POLL_INTERVAL)
                continue
            if progress:
                continue  # give just-flushed peers a chance to respond
            done = yield from detector.wave(
                self.wave_stats(), service=self._service
            )
            if done:
                return
            yield Delay(POLL_INTERVAL)
