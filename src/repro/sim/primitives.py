"""Commands that simulated processes yield to the engine.

A simulated process is a generator. Each ``yield`` hands the engine one of
these command objects; the engine resumes the generator when the command
completes, sending back the command's result (e.g. the event's value).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..errors import SimulationError
from ..types import SlotRecord

if TYPE_CHECKING:  # pragma: no cover
    from .event import Event


class Delay(SlotRecord):
    """Suspend the process for ``dt`` seconds of simulated time."""

    __slots__ = ("dt",)

    def __init__(self, dt: float) -> None:
        if dt < 0:
            raise SimulationError(f"cannot delay by negative time {dt}")
        self.dt = dt


class WaitEvent(SlotRecord):
    """Suspend until ``event`` triggers; the yield returns ``event.value``."""

    __slots__ = ("event",)

    def __init__(self, event: "Event") -> None:
        self.event = event


class WaitAll(SlotRecord):
    """Suspend until every event in ``events`` has triggered.

    The yield returns the list of event values in the given order. An empty
    sequence completes immediately.
    """

    __slots__ = ("events",)

    def __init__(self, events: Sequence["Event"]) -> None:
        self.events = events


class WaitAny(SlotRecord):
    """Suspend until the *first* of ``events`` triggers.

    The yield returns ``(index, value)`` of the first event to trigger
    (lowest index wins if several are already triggered). The sequence must
    be non-empty. Other events are left untouched and may be waited on again.
    """

    __slots__ = ("events",)

    def __init__(self, events: Sequence["Event"]) -> None:
        if not events:
            raise SimulationError("WaitAny needs at least one event")
        self.events = events


Command = Delay | WaitEvent | WaitAll | WaitAny
