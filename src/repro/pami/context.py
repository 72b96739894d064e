"""PAMI communication contexts: the progress points of the runtime.

A context owns a work queue of incoming items (active messages, AMO
requests, completion notifications) and a lock. Items are only processed
when some simulated thread *advances* the context while holding its lock —
exactly the PAMI model the paper builds on:

- RDMA data movement bypasses contexts entirely (the NIC serves it);
- AMOs and active messages sit in the queue until a thread advances;
- the main thread advances while blocked in waits (default mode, "D");
- a dedicated asynchronous thread advances continuously ("AT",
  Section III-D), on its own context when ``rho = 2``.

This is the mechanism that produces Figures 9 and 11: under default mode,
a target busy computing leaves its queue unserviced and every requester
stalls.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Generator

from ..errors import DeadlineExceededError
from ..obs.span import LANES, kind
from ..sim.event import Event
from ..sim.primitives import Delay, WaitAny
from ..sim.resources import Lock, Queue
from .faults import check_completion

if TYPE_CHECKING:  # pragma: no cover
    from .client import PamiClient

#: A serviced round's span kind, by the context's lane.
_DRAIN_SPANS = {
    lane: kind(lane, "progress", "drain", None, ("items",)) for lane in LANES
}


class TimerEvent(Event):
    """An :class:`Event` backed by a cancellable engine timer.

    ``handle`` is the engine's :class:`~repro.sim.engine.Timer`, whose
    argument is this event: the reference is dropped once the timer
    fires or is cancelled, so a finished wait leaves no cycle behind.
    """

    __slots__ = ("handle",)


def deadline_timer(engine, deadline: float) -> TimerEvent:
    """An event that triggers once the simulation clock reaches ``deadline``.

    Used by deadline-aware waits: include the timer in a ``WaitAny`` so
    the waiter wakes when its deadline passes even if nothing else does.
    Call :func:`cancel_timer` once the wait resolves — abandoned timers
    would otherwise keep the simulation alive until their expiry.
    """
    timer = TimerEvent(engine, "deadline")
    timer.handle = engine.schedule_timer(
        max(deadline - engine.now, 0.0), _fire_timer, timer
    )
    return timer


def cancel_timer(timer: TimerEvent | None) -> None:
    """Retire a :func:`deadline_timer` that is no longer needed."""
    if timer is not None and not timer.triggered:
        timer.handle.cancel()
        timer.handle = None


def _fire_timer(timer: TimerEvent) -> None:
    timer.handle = None
    timer.succeed()


class WorkItem:
    """Base class for items serviced by a context's progress engine."""

    #: Whether servicing this item returns a flow-control credit to the
    #: hosting context (True for request-class items whose sender acquired
    #: a credit; False for control traffic, which rides the NIC-reliable
    #: lane and bypasses the bounded FIFO).
    credited = False

    def cost(self, ctx: "PamiContext") -> float:
        """Progress-engine time consumed servicing this item."""
        raise NotImplementedError

    def execute(self, ctx: "PamiContext") -> None:
        """Instantaneous effects (fire events, write memory, post replies)."""
        raise NotImplementedError

    def on_dropped(self, world, dead_rank: int) -> None:
        """The hosting rank failed before servicing this item.

        Implementations owning a reply path must fail it so healthy
        initiators do not hang (fault-tolerance extension). Default: the
        item evaporates with its host.
        """


class CompletionItem(WorkItem):
    """A local/remote completion notification awaiting callback dispatch.

    PAMI fires completion callbacks from inside ``PAMI_Context_advance``;
    this item models the dispatch. ``event`` is succeeded with ``value``
    when some thread advances the owning context.
    """

    __slots__ = ("event", "value")

    def __init__(self, event: Event, value: Any = None) -> None:
        self.event = event
        self.value = value

    def cost(self, ctx: "PamiContext") -> float:
        return ctx.params.advance_poll_time

    def execute(self, ctx: "PamiContext") -> None:
        ctx.trace.counters["pami.completions_dispatched"] += 1
        self.event.succeed(self.value)


class PamiContext:
    """One communication context of a client.

    Parameters
    ----------
    client:
        Owning :class:`~repro.pami.client.PamiClient`.
    index:
        Context index within the client (0-based).
    capacity:
        Injection/reception FIFO slots (flow-control credits). ``None``
        = unbounded, the seed model.
    """

    __slots__ = ("client", "index", "engine", "params", "trace", "queue", "lock",
                 "_lock_overhead", "_arrival", "busy_time", "capacity",
                 "_credits_out", "_room", "progress_epoch", "lane")

    def __init__(
        self, client: "PamiClient", index: int, capacity: int | None = None
    ) -> None:
        self.client = client
        self.index = index
        engine = client.world.engine
        self.engine = engine
        self.params = client.world.params
        self.trace = client.world.trace
        # The queue, the lock and the arrival / room signals carry a kind,
        # not a per-context name: a context's errors name it themselves,
        # and a name string per context is bytes on every rank.
        self.queue = Queue(engine, name="ctx.q")
        self.lock = Lock(engine, name="ctx.lock")
        #: One ``PAMI_Context_advance``'s lock guard, yielded per advance.
        self._lock_overhead = Delay(self.params.context_lock_overhead)
        self._arrival = Event(engine, "ctx.arrival")
        #: Cumulative time threads spent holding this context's lock.
        self.busy_time = 0.0
        #: FIFO depth; None = unbounded.
        self.capacity = capacity
        #: Outstanding flow-control credits (occupied FIFO slots).
        self._credits_out = 0
        #: Room signal, created by the first :meth:`room_signal`.
        self._room: Event | None = None
        #: Monotone service heartbeat: bumped every time a batch of items
        #: is drained. The progress watchdog samples this to detect a
        #: wedged async progress thread.
        self.progress_epoch = 0
        #: The display lane of this context's spans: ``async`` for the
        #: last of several contexts (the async-progress thread's), else
        #: ``main``; :meth:`PamiClient.create_context` moves it.
        self.lane = "main"

    # ------------------------------------------------------------ posting

    def post(self, item: WorkItem) -> None:
        """Enqueue a work item and wake any thread waiting for arrivals."""
        self.queue.put(item)
        if not self._arrival._triggered:
            self._arrival.succeed()

    def arrival_signal(self) -> Event:
        """An event that triggers at the next :meth:`post`.

        Threads with nothing to do block on this instead of busy-polling.
        """
        if self._arrival._triggered:
            self._arrival = Event(self.engine, "ctx.arrival")
        return self._arrival

    def complete_after(self, delay: float, event: Event, value: Any = None) -> None:
        """Post ``event``'s completion (carrying ``value``) here after
        ``delay`` — the one way to complete a waiter later. A ``None``
        value is success; a :mod:`~repro.pami.faults` token fails it."""
        self.engine._push(delay, self.post, CompletionItem(event, value))

    # ------------------------------------------------------- flow control

    @property
    def saturated(self) -> bool:
        """True when every FIFO slot holds an outstanding credit."""
        return self.capacity is not None and self._credits_out >= self.capacity

    def try_acquire_credit(self) -> bool:
        """Claim one FIFO slot; False if the context is saturated.

        Senders that fail to acquire must park on :meth:`room_signal`
        (sender-side backpressure) rather than posting anyway.
        """
        if self.capacity is None:
            return True
        if self._credits_out < self.capacity:
            self._credits_out += 1
            return True
        self.trace.incr("pami.fifo_credit_denied")
        return False

    def reserve_credits(self, count: int) -> None:
        """Forcibly occupy ``count`` slots (chaos ``saturate_fifo``)."""
        if self.capacity is not None:
            self._credits_out += count

    def release_credit(self) -> None:
        """Return one FIFO slot and wake parked senders."""
        if self.capacity is None:
            return
        if self._credits_out > 0:
            self._credits_out -= 1
        if self._room is not None and not self._room._triggered:
            self._room.succeed()

    def room_signal(self) -> Event:
        """An event that triggers at the next credit release."""
        if self._room is None or self._room._triggered:
            self._room = Event(self.engine, "ctx.room")
        return self._room

    # ----------------------------------------------------------- progress

    def advance(self, max_items: int | None = None) -> Generator[Any, Any, int]:
        """One ``PAMI_Context_advance`` call: take the lock, service up to
        ``max_items`` queued items, release; the round returns how many
        it serviced. The lock models the guard the paper discusses in
        Section III-D.

        Non-generator: returns the one progress generator, which
        :meth:`wait_with_progress` runs too.
        """
        return self._progress(
            (None,), None, math.inf if max_items is None else max_items
        )

    def wait_with_progress(
        self, event: Event, deadline: float | None = None
    ) -> Generator[Any, Any, Any]:
        """Block until ``event`` triggers, advancing this context meanwhile.

        This is the PAMI blocking-wait idiom: the waiting thread *is* the
        progress engine. It is what lets a default-mode (no async thread)
        process service remote AMOs while sitting in a blocking call — and
        why a default-mode process that is *computing* services nothing.

        With a ``deadline`` (absolute simulated time), the wait raises
        :class:`~repro.errors.DeadlineExceededError` once the clock
        reaches it, instead of blocking forever.

        Non-generator: returns the one progress generator, which runs
        each :meth:`advance` round in its own frame.
        """
        return self._progress((event,), deadline, 0)

    def wait_all_with_progress(
        self, events: list[Event], deadline: float | None, op: str
    ) -> Generator[Any, Any, None]:
        """Block until every one of ``events`` triggers, as
        :meth:`wait_with_progress` in one generator: each event is waited
        in posting order and its value checked as it is reached (a
        failure token raises through
        :func:`~repro.pami.faults.check_completion` for ``op``), and at
        most one deadline timer is armed for the lot."""
        return self._progress(events, deadline, 0, op)

    def _progress(
        self, events, deadline: float | None, max_items: float, op: str | None = None
    ) -> Generator[Any, Any, Any]:
        """Advance rounds until each of ``events`` triggers, in order
        (``(None,)``: one round of at most ``max_items``; a wait bounds
        each round by the queue); with ``op``, check each value as it is
        reached. Returns the last value.

        A round holds the lock, pays its guard, then services the queue:
        each item costs simulated progress-engine time and executes its
        effects at the instant its service completes. The queued batch is
        charged as one delay with the per-item effects scheduled at their
        exact offsets — timing-identical to item-by-item servicing, at a
        fraction of the scheduler events. A round left early (a killed
        thread) gives the lock back, or leaves the lock's queue.
        """
        timer: TimerEvent | None = None
        engine = self.engine
        value = None
        try:
            for event in events:
                while event is None or not event._triggered:
                    if event is not None:
                        if deadline is not None and engine.now >= deadline:
                            self.trace.incr("pami.wait_deadline_expired")
                            raise DeadlineExceededError(
                                f"wait on context r{self.client.rank}.ctx{self.index} "
                                f"exceeded deadline t={deadline:.6g}s"
                            )
                        # Re-read after every yield: a round drops the deque
                        # and the next post makes a new one.
                        items = self.queue.items
                        if not items:
                            # Sleep until either our op completes (possibly
                            # serviced by another thread) or new work arrives
                            # (:meth:`arrival_signal`, read in this frame).
                            arrival = self._arrival
                            if arrival._triggered:
                                arrival = self._arrival = Event(engine, "ctx.arrival")
                            waits = [event, arrival]
                            if deadline is not None:
                                if timer is None:
                                    # One timer for the whole wait.
                                    timer = deadline_timer(engine, deadline)
                                waits.append(timer)
                            yield WaitAny(waits)
                            continue
                        # Bound each round to the work pending at entry (one
                        # PAMI_Context_advance): under a continuous stream of
                        # remote requests the queue never empties, and an
                        # unbounded round would starve the waiter from ever
                        # re-checking its event.
                        max_items = len(items)
                    grant = None if self.lock.try_acquire() else self.lock.acquire()
                    try:
                        if grant is not None:
                            yield grant
                        yield self._lock_overhead
                        start, serviced = engine.now, 0
                        items = self.queue.items
                        while items and serviced < max_items:
                            offset = 0.0
                            while items and serviced < max_items:
                                item = items.popleft()
                                if item.credited:
                                    # The FIFO slot frees as soon as the item is
                                    # popped for service; parked senders may
                                    # inject again.
                                    self.release_credit()
                                offset += item.cost(self)
                                engine._push(offset, self._execute_item, item)
                                serviced += 1
                            yield Delay(offset)
                            # Items that arrived during the batch are picked up
                            # next batch.
                            items = self.queue.items
                        if not items:
                            # An idle context holds no deque; the next post
                            # makes one.
                            self.queue.items = None
                        if serviced:
                            self.progress_epoch += 1
                            obs = self.client.world.obs
                            if obs is not None:
                                # Root span (no ambient parent): the async
                                # thread's rounds must not attach to whatever
                                # the main thread happens to have open.
                                obs.record(
                                    self.client.rank, _DRAIN_SPANS[self.lane],
                                    (serviced,), start, engine.now, (), 0,
                                )
                        self.trace.counters["pami.items_serviced"] += serviced
                        self.busy_time += engine.now - start
                    finally:
                        if grant is None or grant._triggered:
                            self.lock.release()
                        else:
                            self.lock.withdraw(grant)
                    if event is None:
                        return serviced
                value = event._value
                if value is not None and op is not None:
                    check_completion(value, op=op)
            return value
        finally:
            if timer is not None:
                cancel_timer(timer)

    def _execute_item(self, item: WorkItem) -> None:
        try:
            item.execute(self)
        except Exception as exc:
            from ..errors import SimulationError

            self.engine.fail(
                SimulationError(
                    f"work item {type(item).__name__} on context "
                    f"r{self.client.rank}.ctx{self.index} raised {exc!r}"
                ),
                cause=exc,
            )
