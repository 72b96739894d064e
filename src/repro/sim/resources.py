"""Simulated synchronization resources: locks and FIFO queues.

These model *simulated-time* contention (e.g. the PAMI context lock shared
by the main and asynchronous progress threads), not Python threading.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any

from ..errors import SimulationError
from .event import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine


class Lock:
    """Binary mutual-exclusion lock with FIFO grant order.

    Used to model the PAMI progress-engine lock (Section III-D): when the
    main thread and the asynchronous thread share one communication context,
    they contend on this lock; with two contexts each thread owns its own.
    """

    __slots__ = ("engine", "name", "_count", "_waiters")

    def __init__(self, engine: "Engine", name: str = "lock") -> None:
        self.engine = engine
        self.name = name
        #: 1 while free, 0 while held.
        self._count = 1
        #: Blocked acquirers, oldest first; created on the first block,
        #: so an uncontended lock carries no deque.
        self._waiters: deque[Event] | None = None

    def acquire(self) -> Event:
        """Request the lock; the returned event triggers when granted.

        Processes use it as ``yield lock.acquire()``.
        """
        ev = Event(self.engine, "sem.grant")
        if self._count > 0:
            self._count -= 1
            ev.succeed()
        else:
            if self._waiters is None:
                self._waiters = deque()
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take the lock immediately if it is free; never blocks."""
        if self._count > 0:
            self._count -= 1
            return True
        return False

    def withdraw(self, request: Event) -> None:
        """Take a not-yet-granted :meth:`acquire` request off the queue
        (its process gave up, or was killed, while waiting)."""
        self._waiters.remove(request)

    @property
    def locked(self) -> bool:
        """Whether the lock is currently held."""
        return self._count == 0

    def release(self) -> None:
        """Release the lock, granting it to the oldest waiter if any."""
        if self._count == 1:
            raise SimulationError(f"lock {self.name!r} released while not held")
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._count += 1


class Queue:
    """Unbounded FIFO queue with blocking get.

    ``put`` is immediate; ``get`` returns an event that triggers with the
    oldest item as soon as one is available. Used for context work queues.
    """

    __slots__ = ("engine", "name", "items", "_getters")

    def __init__(self, engine: "Engine", name: str = "queue") -> None:
        self.engine = engine
        self.name = name
        #: Queued items, oldest first; created by the first :meth:`put`
        #: that finds no blocked getter, so a queue that never held an
        #: item carries no deque. Per-item callers (a context's drain)
        #: test and ``popleft`` it directly, re-reading the attribute
        #: after every yield; never filled but through :meth:`put`.
        self.items: deque[Any] | None = None
        #: Blocked getters, oldest first; created on the first block.
        self._getters: deque[Event] | None = None

    def __len__(self) -> int:
        return len(self.items) if self.items else 0

    def put(self, item: Any) -> None:
        """Append an item, waking the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        elif self.items is None:
            self.items = deque((item,))
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Request the oldest item; use as ``item = yield queue.get()``."""
        ev = Event(self.engine, "queue.get")
        if self.items:
            ev.succeed(self.items.popleft())
        else:
            if self._getters is None:
                self._getters = deque()
            self._getters.append(ev)
        return ev

    def get_nowait(self) -> Any:
        """Pop the oldest item immediately.

        Raises
        ------
        SimulationError
            If the queue is empty.
        """
        if not self.items:
            raise SimulationError(f"queue {self.name!r} is empty")
        return self.items.popleft()
