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

from typing import TYPE_CHECKING, Any, Generator

from ..errors import DeadlineExceededError, PamiError
from ..sim.event import Event
from ..sim.primitives import Delay, WaitAny
from ..sim.resources import Lock, Queue

if TYPE_CHECKING:  # pragma: no cover
    from .client import PamiClient


class TimerEvent(Event):
    """An :class:`Event` backed by a cancellable engine timer."""

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


def _fire_timer(timer: Event) -> None:
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

    def __init__(
        self, client: "PamiClient", index: int, capacity: int | None = None
    ) -> None:
        self.client = client
        self.index = index
        engine = client.world.engine
        self.engine = engine
        self.params = client.world.params
        self.trace = client.world.trace
        name = f"r{client.rank}.ctx{index}"
        self.queue = Queue(engine, name=f"{name}.q")
        self.lock = Lock(engine, name=f"{name}.lock")
        #: One ``PAMI_Context_advance``'s lock guard, yielded per advance.
        self._lock_overhead = Delay(self.params.context_lock_overhead)
        # The arrival / room signals are re-armed per wait: they carry a
        # kind, not a per-context name (``name`` says which context).
        self._arrival = Event(engine, "ctx.arrival")
        #: Cumulative time threads spent holding this context's lock.
        self.busy_time = 0.0
        #: FIFO depth; None = unbounded.
        self.capacity = capacity
        #: Outstanding flow-control credits (occupied FIFO slots).
        self._credits_out = 0
        self._room = Event(engine, "ctx.room")
        #: Monotone service heartbeat: bumped every time a batch of items
        #: is drained. The progress watchdog samples this to detect a
        #: wedged async progress thread.
        self.progress_epoch = 0

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
        self.engine.schedule(delay, self.post, CompletionItem(event, value))

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
        if not self._room.triggered:
            self._room.succeed()

    def room_signal(self) -> Event:
        """An event that triggers at the next credit release."""
        if self._room.triggered:
            self._room = Event(self.engine, "ctx.room")
        return self._room

    # ----------------------------------------------------------- progress

    def drain(self, max_items: int | None = None) -> Generator[Any, Any, int]:
        """Service queued items; caller **must** hold :attr:`lock`.

        Each item costs simulated progress-engine time, then executes its
        effects at the simulated instant its service completes. For
        efficiency the currently-queued batch is charged as one delay and
        the per-item effects are scheduled at their exact offsets —
        timing-identical to item-by-item servicing, at a fraction of the
        scheduler events. Returns the number of items serviced.
        """
        if not self.lock.locked:
            raise PamiError(
                f"drain of context r{self.client.rank}.ctx{self.index} "
                "without holding its lock"
            )
        serviced = 0
        engine = self.engine
        start = engine.now
        items = self.queue.items
        while items and (max_items is None or serviced < max_items):
            offset = 0.0
            while items and (max_items is None or serviced < max_items):
                item = items.popleft()
                if item.credited:
                    # The FIFO slot frees as soon as the item is popped
                    # for service; parked senders may inject again.
                    self.release_credit()
                offset += item.cost(self)
                engine.schedule(offset, self._execute_item, item)
                serviced += 1
            yield Delay(offset)
            # Items that arrived during the batch are picked up next round.
        if serviced:
            self.progress_epoch += 1
            obs = self.client.world.obs
            if obs is not None:
                from ..obs.span import context_lane

                # Root span (no ambient parent): the async thread's
                # drains must not attach to whatever the main thread
                # happens to have open.
                obs.record(
                    self.client.rank, context_lane(self), "progress",
                    "drain", start, engine.now,
                    parent_id=None, items=serviced,
                )
        self.trace.counters["pami.items_serviced"] += serviced
        self.busy_time += engine.now - start
        return serviced

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

    def advance(self, max_items: int | None = None) -> Generator[Any, Any, int]:
        """Acquire the lock, :meth:`drain`, release.

        This is one ``PAMI_Context_advance`` call; the lock acquisition
        models the guard the paper discusses in Section III-D.
        """
        if not self.lock.try_acquire():
            yield self.lock.acquire()
        yield self._lock_overhead
        try:
            serviced = yield from self.drain(max_items)
        finally:
            self.lock.release()
        return serviced

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
        """
        timer: TimerEvent | None = None
        items = self.queue.items
        try:
            while not event._triggered:
                if deadline is not None and self.engine.now >= deadline:
                    self.trace.incr("pami.wait_deadline_expired")
                    raise DeadlineExceededError(
                        f"wait on context r{self.client.rank}.ctx{self.index} "
                        f"exceeded deadline t={deadline:.6g}s"
                    )
                if not items:
                    # Sleep until either our op completes (possibly drained
                    # by another thread) or new work arrives to service.
                    waits = [event, self.arrival_signal()]
                    if deadline is not None:
                        if timer is None:
                            timer = deadline_timer(self.engine, deadline)
                        waits.append(timer)
                    yield WaitAny(waits)
                    continue
                # Bound each advance to the work pending at entry (one
                # PAMI_Context_advance): under a continuous stream of remote
                # requests the queue never empties, and an unbounded drain
                # would starve the waiter from ever re-checking its event.
                yield from self.advance(max_items=len(items))
            return event.value
        finally:
            if timer is not None:
                cancel_timer(timer)
