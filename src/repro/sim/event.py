"""One-shot simulation events.

An :class:`Event` is the synchronization primitive of the simulator: it can
be waited on by any number of processes and succeeds exactly once, carrying
an optional value. Waiters are resumed in FIFO order at the simulated time of
the trigger.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine


class Event:
    """A one-shot event that processes can wait on.

    Parameters
    ----------
    engine:
        The owning engine; waiter wake-ups are scheduled on it.
    name:
        Optional label used in error messages and traces.
    """

    __slots__ = (
        "engine",
        "name",
        "_value",
        "_triggered",
        "_callbacks",
        "_obs_span",
    )

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._value: Any = None
        self._triggered = False
        self._callbacks: list[Callable[[Any], None]] = []
        #: Obs span id registered as this event's cause (kept on the event
        #: itself: an id()-keyed side table would alias once the allocator
        #: reuses a collected event's address, breaking byte-stable exports).
        self._obs_span: int | None = None

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` has been called. (Per-operation waits
        inside the runtime read the ``_triggered`` slot directly.)"""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed`.

        Raises
        ------
        SimulationError
            If the event has not triggered yet.
        """
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has not triggered")
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Trigger the event, waking all current and future waiters.

        Wake-ups happen at the current simulated time but as separate
        scheduler entries, preserving FIFO order with other same-time work.

        Raises
        ------
        SimulationError
            If the event already triggered (events are one-shot).
        """
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            self.engine.schedule(0.0, cb, value)

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Run ``callback(value)`` when the event triggers.

        If the event already triggered, the callback is scheduled at the
        current simulated time (it never runs synchronously, keeping
        re-entrancy out of process code).
        """
        if self._triggered:
            self.engine.schedule(0.0, callback, self._value)
        else:
            self._callbacks.append(callback)
