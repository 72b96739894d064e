"""The discrete-event scheduler."""

from __future__ import annotations

import random
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable

from ..errors import DeadlockError, SimulationError
from .process import ProcessBody, SimProcess
from .event import Event


class Timer:
    """Handle to a cancellable scheduled callback (:meth:`Engine.schedule_timer`).

    A cancelled timer's heap entry is skipped when reached — without
    advancing the clock — so abandoned deadline timers neither fire nor
    stretch the simulated run to their expiry time. The engine counts
    the cancelled entries still on its heap and drops them all once
    they are most of it (:meth:`Engine._purge_cancelled`).
    """

    __slots__ = ("_callback", "_arg", "cancelled", "_engine")

    def __init__(self, callback: Callable[[Any], None], arg: Any) -> None:
        self._callback = callback
        self._arg = arg
        self.cancelled = False
        #: The engine whose heap holds this timer's entry (None once it
        #: ran, or when it went to the zero-delay lane).
        self._engine: Engine | None = None

    def __call__(self, _arg: Any) -> None:
        if not self.cancelled:
            self._engine = None
            self._callback(self._arg)

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        engine = self._engine
        if engine is not None:
            engine._cancelled_timers += 1
            cancelled = engine._cancelled_timers
            if cancelled > PURGE_FLOOR and 2 * cancelled > len(engine._heap):
                engine._purge_cancelled()


#: The argument a :class:`Timer` entry is scheduled with: the run loop
#: and the purge tell a timer from a plain callback by this identity.
TIMER = object()


# --------------------------------------------------------------- policies

#: Cancelled timers must outnumber this (and half the heap) before the
#: engine rebuilds its heap without them.
PURGE_FLOOR = 64

#: Tie-break band assigned to events scheduled past a policy's ``limit``
#: (mid-range, so un-perturbed events keep FIFO order among themselves).
_FIFO_BAND = 1 << 31
#: Band that sorts a demoted event behind every other equal-time event.
_DEMOTED_BAND = 1 << 33


class SchedulePolicy:
    """Equal-timestamp tie-breaking policy for :class:`Engine`.

    The engine orders its heap by ``(time, key)``; the policy supplies
    ``key`` for each scheduled entry. Events at *different* simulated
    times are never reordered — a policy only permutes the execution
    order of logically concurrent (equal-timestamp) events, which the
    default engine runs in FIFO submission order.

    The base class is an explicit FIFO policy: every event gets the same
    band, so ties fall through to the submission sequence number. It
    reproduces exactly the ``Engine(policy=None)`` order while enabling
    the schedule bookkeeping (digest/log) the verification harness uses.

    Subclasses override :meth:`key`. Keys must be ``(band, seq)`` tuples
    (``seq`` last) so entries from one policy are mutually comparable and
    the engine can recover the submission number for its schedule log.
    """

    name = "fifo"

    def key(self, seq: int) -> tuple[int, int]:
        """Tie-break key for the ``seq``-th scheduled entry."""
        return (_FIFO_BAND, seq)

    def describe(self) -> str:
        """Human-readable policy label for logs and reports."""
        return self.name


class RandomTieBreakPolicy(SchedulePolicy):
    """Seeded uniform tie-breaking: concurrent events run in random order.

    Each scheduled entry draws a 32-bit band, so equal-timestamp events
    execute in a seed-determined random permutation of submission order.
    ``limit`` bounds the perturbation to the first ``limit`` scheduled
    entries (later entries take the neutral FIFO band) — the knob the
    shrinker bisects to find a minimal failing perturbation.
    """

    name = "random"

    def __init__(self, seed: int, limit: int | None = None) -> None:
        if limit is not None and limit < 0:
            raise SimulationError(f"policy limit must be >= 0, got {limit}")
        self.seed = seed
        self.limit = limit
        self._rng = random.Random(seed)
        self._issued = 0

    def key(self, seq: int) -> tuple[int, int]:
        self._issued += 1
        if self.limit is not None and self._issued > self.limit:
            return (_FIFO_BAND, seq)
        return (self._rng.getrandbits(32), seq)

    def describe(self) -> str:
        lim = "" if self.limit is None else f",limit={self.limit}"
        return f"{self.name}(seed={self.seed}{lim})"


class PriorityPerturbationPolicy(SchedulePolicy):
    """Bounded PCT-style perturbation (Burckhardt et al. priority fuzzing).

    Equal-timestamp events are split into a small number of priority
    ``bands`` (FIFO *within* a band, so the perturbation is coarser and
    more structured than uniform tie-breaking), and ``demotions`` randomly
    chosen schedule points are pushed behind every other concurrent event
    — the "one event delayed a long time" schedules that uniform random
    tie-breaks almost never produce, and that expose lost-wakeup and
    stale-read bugs. ``horizon`` is the schedule-index range the demotion
    points are drawn from; ``limit`` bounds perturbation for shrinking.
    """

    name = "pct"

    def __init__(
        self,
        seed: int,
        bands: int = 3,
        demotions: int = 4,
        horizon: int = 8192,
        limit: int | None = None,
    ) -> None:
        if bands < 1:
            raise SimulationError(f"need >= 1 priority band, got {bands}")
        if demotions < 0:
            raise SimulationError(f"demotions must be >= 0, got {demotions}")
        if horizon < 1:
            raise SimulationError(f"horizon must be >= 1, got {horizon}")
        if limit is not None and limit < 0:
            raise SimulationError(f"policy limit must be >= 0, got {limit}")
        self.seed = seed
        self.bands = bands
        self.demotions = demotions
        self.horizon = horizon
        self.limit = limit
        self._rng = random.Random(seed)
        self._change_points = frozenset(
            self._rng.sample(range(horizon), min(demotions, horizon))
        )
        self._issued = 0

    def key(self, seq: int) -> tuple[int, int]:
        i = self._issued
        self._issued += 1
        if self.limit is not None and i >= self.limit:
            return (_FIFO_BAND, seq)
        if i in self._change_points:
            return (_DEMOTED_BAND, seq)
        return (self._rng.randrange(self.bands), seq)

    def describe(self) -> str:
        lim = "" if self.limit is None else f",limit={self.limit}"
        return (
            f"{self.name}(seed={self.seed},bands={self.bands},"
            f"demotions={self.demotions}{lim})"
        )


def _mix64(h: int, v: int) -> int:
    """splitmix64 step folding ``v`` into running digest ``h``."""
    x = (h ^ v) * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class Engine:
    """Deterministic discrete-event scheduler.

    Maintains a heap of ``(time, key, callback, arg)`` entries. With no
    policy configured (the default), ``key`` is the monotonically
    increasing submission sequence number, so equal timestamps are broken
    FIFO and runs are exactly reproducible — bit-for-bit the historical
    behaviour. With a :class:`SchedulePolicy`, ``key`` is the policy's
    ``(band, seq)`` tuple: equal-timestamp events execute in the policy's
    (still fully deterministic, seed-driven) order, which is how the
    verification harness explores alternative schedules.

    Parameters
    ----------
    policy:
        Optional tie-breaking policy. ``None`` = FIFO (default).
    record_schedule:
        If True, every executed entry is appended to :attr:`schedule_log`
        as ``(time, seq)`` — the raw material for divergence logs. Off by
        default (it grows with the run).
    """

    def __init__(
        self,
        policy: SchedulePolicy | None = None,
        record_schedule: bool = False,
    ) -> None:
        if policy is not None and not isinstance(policy, SchedulePolicy):
            raise SimulationError(
                f"policy must be a SchedulePolicy, got {type(policy).__name__}"
            )
        #: Current simulated time in seconds (read-only for callers).
        self.now = 0.0
        self._heap: list[tuple[float, Any, Callable[[Any], None], Any]] = []
        # Fast lane for zero-delay entries (event resolution, process
        # steps): a FIFO deque sidesteps two O(log n) heap operations per
        # entry on the hottest scheduling path. Only usable when ties are
        # broken FIFO with no bookkeeping — any policy or recording routes
        # everything through the heap so digests/logs stay complete.
        self._fast: deque[tuple[int, Callable[[Any], None], Any]] = deque()
        self._fast_ok = policy is None and not record_schedule
        self._seq = 0
        self._policy = policy
        self._record = record_schedule
        self._schedule_log: list[tuple[float, int]] = []
        self._digest = 0
        self._live_processes: set[SimProcess] = set()
        self._failure: BaseException | None = None
        self._events_executed = 0
        #: Cancelled :class:`Timer` entries still on the heap.
        self._cancelled_timers = 0

    @property
    def events_executed(self) -> int:
        """Number of scheduler entries executed so far (for diagnostics)."""
        return self._events_executed

    @property
    def policy(self) -> SchedulePolicy | None:
        """The configured tie-breaking policy (None = FIFO)."""
        return self._policy

    @property
    def schedule_digest(self) -> int:
        """64-bit fingerprint of the executed event order.

        Two runs with the same digest executed entries in the same
        submission order; distinct digests mean distinct schedules. Only
        maintained when a policy is configured or recording is on (the
        default FIFO path skips the bookkeeping entirely).
        """
        return self._digest

    @property
    def schedule_log(self) -> list[tuple[float, int]]:
        """Executed ``(time, seq)`` entries (``record_schedule`` only)."""
        return self._schedule_log

    def schedule(self, delay: float, callback: Callable[[Any], None], arg: Any = None) -> None:
        """Run ``callback(arg)`` after ``delay`` seconds of simulated time.

        The one checked way in for callers outside the engine's own
        layers: it rejects a non-callable and marks a :class:`Timer`
        entry (subclasses too) by scheduling it with :data:`TIMER` as
        its argument, so :meth:`run` recognises a timer by identity.
        The simulator and PAMI, whose callbacks are always bound
        methods, go straight to :meth:`_push`.
        """
        if not callable(callback):
            raise SimulationError(
                f"scheduled callback must be callable, got {type(callback).__name__}"
            )
        if isinstance(callback, Timer):
            arg = TIMER
        self._push(delay, callback, arg)

    def _push(self, delay: float, callback: Callable[[Any], None], arg: Any) -> None:
        """Put one entry on the engine: ``(time, key, callback, arg)`` on
        the heap, or ``(seq, callback, arg)`` on the zero-delay fast lane."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        if delay == 0.0 and self._fast_ok:
            # Same-timestamp FIFO entries keep their submission sequence
            # number so the run loop can merge them against the heap in
            # exact (time, seq) order — bit-for-bit the heap-only order.
            self._fast.append((seq, callback, arg))
            return
        key: Any = seq if self._policy is None else self._policy.key(seq)
        heappush(self._heap, (self.now + delay, key, callback, arg))

    def schedule_timer(
        self, delay: float, callback: Callable[[Any], None], arg: Any = None
    ) -> Timer:
        """Like :meth:`schedule`, returning a cancellable :class:`Timer`."""
        timer = Timer(callback, arg)
        self._push(delay, timer, TIMER)
        if delay != 0.0 or not self._fast_ok:
            timer._engine = self
        return timer

    def _purge_cancelled(self) -> None:
        """Rebuild the heap without its cancelled timers, in place (the
        run loop holds the list). Invisible to execution: entries are
        totally ordered by ``(time, key)``, and a cancelled one never
        runs, moves the clock or counts."""
        heap = self._heap
        heap[:] = [
            entry for entry in heap
            if not (entry[3] is TIMER and entry[2].cancelled)
        ]
        heapify(heap)
        self._cancelled_timers = 0

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot :class:`Event` bound to this engine."""
        return Event(self, name=name)

    def spawn(
        self, body: ProcessBody, name: str = "proc", daemon: bool = False
    ) -> SimProcess:
        """Start a simulated process from a generator.

        Parameters
        ----------
        body:
            The generator to drive.
        name:
            Label for error messages.
        daemon:
            Daemon processes (e.g. progress threads) may still be blocked
            when the simulation completes without that counting as deadlock.
        """
        proc = SimProcess(self, body, name=name, daemon=daemon)
        self._live_processes.add(proc)
        proc.start()
        return proc

    def process_finished(self, proc: SimProcess) -> None:
        """Internal: a process's generator terminated."""
        self._live_processes.discard(proc)

    def fail(self, error: SimulationError, cause: BaseException | None = None) -> None:
        """Internal: record a fatal error; :meth:`run` re-raises it."""
        if self._failure is None:
            if cause is not None:
                error.__cause__ = cause
            self._failure = error

    def run(self) -> float:
        """Execute scheduled work until the heap drains.

        Returns the final simulated time. Re-raises the first process
        failure, if any. Cancelled :class:`Timer` entries are discarded
        without executing, advancing the clock, or counting toward
        :attr:`events_executed` — under any tie-breaking policy (a timer
        entry carries :data:`TIMER`, Timer subclasses included).
        """
        track = self._policy is not None or self._record
        heap, fast = self._heap, self._fast
        while heap or fast:
            if self._failure is not None:
                raise self._failure
            # Zero-delay fast lane: entries are due *now*; run one when the
            # heap is empty, due later, or due now but submitted later —
            # i.e. strict (time, seq) merge order, identical to heap-only.
            if fast and (
                not heap or heap[0][0] > self.now or heap[0][1] > fast[0][0]
            ):
                _seq, callback, arg = fast.popleft()
                if arg is TIMER and callback.cancelled:
                    continue
                self._events_executed += 1
                callback(arg)
                continue
            time, key, callback, arg = heappop(heap)
            if arg is TIMER and callback.cancelled:
                if callback._engine is not None:
                    callback._engine = None
                    self._cancelled_timers -= 1
                continue
            self.now = time
            self._events_executed += 1
            if track:
                seq = key[-1] if isinstance(key, tuple) else key
                self._digest = _mix64(self._digest, seq)
                if self._record:
                    self._schedule_log.append((time, seq))
            callback(arg)
        if self._failure is not None:
            raise self._failure
        return self.now

    def run_until_complete(self, processes: Iterable[SimProcess]) -> list[Any]:
        """Run until every listed process finishes; return their results.

        Raises
        ------
        DeadlockError
            If the event heap drains while a listed (non-daemon) process is
            still blocked — i.e. nothing can ever wake it.
        """
        procs = list(processes)
        self.run()
        stuck = [p for p in procs if not p.done.triggered]
        if stuck:
            names = ", ".join(p.name for p in stuck)
            raise DeadlockError(
                f"simulation drained with {len(stuck)} blocked process(es): {names}"
            )
        return [p.done.value for p in procs]
