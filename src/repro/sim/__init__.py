"""Deterministic discrete-event simulation engine.

The engine drives *simulated processes*: plain Python generators that yield
command objects (:class:`~repro.sim.primitives.Delay`,
:class:`~repro.sim.primitives.WaitAny`, or a bare
:class:`~repro.sim.event.Event`). All times are seconds of
simulated time; execution is deterministic (FIFO tie-breaking on equal
timestamps), so every benchmark in this package is exactly reproducible.
"""

from .engine import Engine
from .event import Event
from .primitives import Delay, WaitAny
from .process import SimProcess
from .resources import Lock, Queue

__all__ = [
    "Delay",
    "Engine",
    "Event",
    "Lock",
    "Queue",
    "SimProcess",
    "WaitAny",
]
