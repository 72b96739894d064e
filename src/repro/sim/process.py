"""Simulated processes: generator coroutines driven by the engine."""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Generator, Sequence

from ..errors import SimulationError
from .event import Event
from .primitives import Delay, WaitAll, WaitAny, WaitEvent

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

#: The generator type a process body must have.
ProcessBody = Generator[Any, Any, Any]


class SimProcess:
    """A running simulated process.

    Wraps a generator and interprets the commands it yields. The process's
    :attr:`done` event triggers with the generator's return value when it
    finishes. Exceptions raised inside the generator abort the whole
    simulation (loud failure: protocol bugs must not be silently swallowed).

    Processes are created via :meth:`Engine.spawn`, not directly.
    """

    __slots__ = (
        "engine", "name", "body", "done", "daemon", "_started", "_killed",
        "_wait", "_awaited", "_pending", "_arms",
    )

    def __init__(
        self, engine: "Engine", body: ProcessBody, name: str, daemon: bool
    ) -> None:
        if not hasattr(body, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(body).__name__}; "
                "did you forget a yield in the process function?"
            )
        self.engine = engine
        self.name = name
        self.body = body
        self.daemon = daemon
        #: Triggers with the generator's return value on completion.
        self.done = Event(engine, name=f"{name}.done")
        self._started = False
        self._killed = False
        #: Multi-event waits resumed so far. A process blocks in one
        #: wait at a time, so the process is its own waiter: a
        #: ``WaitAny`` arm carries the count it was armed under and is
        #: dead once the count moved on, and ``_arms`` holds the
        #: ``(event, arm)`` pairs until the first arm runs; a ``WaitAll``
        #: counts down ``_pending`` over ``_awaited``.
        self._wait = 0
        self._awaited: Sequence[Event] = ()
        self._arms: Sequence[tuple[Event, Any]] = ()
        self._pending = 0

    def start(self) -> None:
        """Schedule the first step at the current simulated time."""
        if self._started:
            raise SimulationError(f"process {self.name!r} started twice")
        self._started = True
        self.engine._push(0.0, self._step, None)

    def kill(self) -> None:
        """Terminate the process (fail-stop crash): ``done`` fires with
        ``None`` and the generator never runs again.

        Safe to call from within the process's own frame (a rank failing
        itself): the generator can't be closed while executing, so the
        kill flag suppresses any further stepping once it yields or
        returns.
        """
        if self._killed or self.done.triggered:
            return
        self._killed = True
        self._disarm()
        try:
            self.body.close()
        except (ValueError, RuntimeError):
            pass  # generator currently executing (self-kill)
        self.engine.process_finished(self)
        self.done.succeed(None)

    # The engine resumes us through this callback.
    def _step(self, send_value: Any) -> None:
        """Resume the generator and interpret the command it yields."""
        if self._killed:
            return
        try:
            command = self.body.send(send_value)
        except StopIteration as stop:
            if self._killed:
                return
            self.engine.process_finished(self)
            self.done.succeed(stop.value)
            return
        except Exception as exc:
            if self._killed:
                return
            self.engine.process_finished(self)
            self.engine.fail(
                SimulationError(f"process {self.name!r} raised {exc!r}"), cause=exc
            )
            return
        if self._killed:
            return
        # Exact types first: the two commands a blocking op yields.
        kind = type(command)
        if kind is Delay:
            self.engine._push(command.dt, self._step, None)
        elif kind is WaitAny:
            self._wait_any(command.events)
        elif isinstance(command, Delay):
            self.engine._push(command.dt, self._step, None)
        elif isinstance(command, WaitEvent):
            command.event.add_callback(self._step)
        elif isinstance(command, WaitAll):
            self._wait_all(command.events)
        elif isinstance(command, WaitAny):
            self._wait_any(command.events)
        elif isinstance(command, Event):
            # Allow yielding a bare Event as shorthand for WaitEvent(event).
            command.add_callback(self._step)
        elif isinstance(command, SimProcess):
            # Yielding a process waits for its completion (join).
            command.done.add_callback(self._step)
        else:
            self.engine.process_finished(self)
            self.engine.fail(
                SimulationError(
                    f"process {self.name!r} yielded unsupported command "
                    f"{command!r}"
                )
            )

    def _wait_all(self, events: Sequence[Event]) -> None:
        pending = sum(1 for ev in events if not ev._triggered)
        if pending == 0:
            self.engine._push(0.0, self._step, [ev.value for ev in events])
            return
        self._awaited = events
        self._pending = pending
        for ev in events:
            if not ev._triggered:
                ev._callbacks.append(self._one_of_all)

    def _one_of_all(self, _value: Any) -> None:
        self._pending -= 1
        if self._pending == 0:
            events, self._awaited = self._awaited, ()
            self._step([ev.value for ev in events])

    def _wait_any(self, events: Sequence[Event]) -> None:
        # One arm per event, armed in one pass. The first to run takes
        # its siblings back off the events that have not triggered, so
        # an event that outlives the wait (a context's arrival signal)
        # holds no dead arm and keeps no finished process alive.
        # Siblings already scheduled (their events triggered in the same
        # instant) are dead by the wait count alone. An event found
        # triggered ends the pass: the arms set so far are taken back
        # and the lowest triggered index wins at once.
        arm, wait = self._first_of_any, self._wait
        arms = []
        for i, ev in enumerate(events):
            if ev._triggered:
                for armed, each in arms:
                    armed._callbacks.remove(each)
                self.engine._push(0.0, self._step, (i, ev._value))
                return
            each = partial(arm, wait, i)
            ev._callbacks.append(each)
            arms.append((ev, each))
        self._arms = arms

    def _first_of_any(self, wait: int, index: int, value: Any) -> None:
        if wait == self._wait:
            self._wait = wait + 1
            arms, self._arms = self._arms, ()
            for ev, each in arms:
                if not ev._triggered:
                    ev._callbacks.remove(each)
            self._step((index, value))

    def _disarm(self) -> None:
        """Take the current ``WaitAny``'s arms off untriggered events."""
        arms, self._arms = self._arms, ()
        for ev, each in arms:
            if not ev._triggered:
                ev._callbacks.remove(each)
