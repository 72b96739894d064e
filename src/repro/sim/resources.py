"""Simulated synchronization resources: locks, semaphores, FIFO queues.

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


class Semaphore:
    """Counting semaphore with FIFO grant order."""

    __slots__ = ("engine", "name", "_count", "_waiters")

    def __init__(self, engine: "Engine", count: int = 1, name: str = "sem") -> None:
        if count < 0:
            raise SimulationError(f"semaphore count must be >= 0, got {count}")
        self.engine = engine
        self.name = name
        self._count = count
        #: Blocked acquirers, oldest first; created on the first block,
        #: so an uncontended semaphore carries no deque.
        self._waiters: deque[Event] | None = None

    def acquire(self) -> Event:
        """Request a permit; the returned event triggers when granted.

        Processes use it as ``yield sem.acquire()``.
        """
        ev = Event(self.engine, name=f"{self.name}.acquire")
        if self._count > 0:
            self._count -= 1
            ev.succeed()
        else:
            if self._waiters is None:
                self._waiters = deque()
            self._waiters.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Take a permit immediately if available; never blocks."""
        if self._count > 0:
            self._count -= 1
            return True
        return False

    def release(self) -> None:
        """Return a permit, granting the oldest waiter if any."""
        if self._waiters:
            self._waiters.popleft().succeed()
        else:
            self._count += 1


class Lock(Semaphore):
    """Binary mutual-exclusion lock (a semaphore with one permit).

    Used to model the PAMI progress-engine lock (Section III-D): when the
    main thread and the asynchronous thread share one communication context,
    they contend on this lock; with two contexts each thread owns its own.
    """

    def __init__(self, engine: "Engine", name: str = "lock") -> None:
        super().__init__(engine, count=1, name=name)

    @property
    def locked(self) -> bool:
        """Whether the lock is currently held."""
        return self._count == 0

    def release(self) -> None:
        if self._count == 1:
            raise SimulationError(f"lock {self.name!r} released while not held")
        super().release()


class Queue:
    """Unbounded FIFO queue with blocking get.

    ``put`` is immediate; ``get`` returns an event that triggers with the
    oldest item as soon as one is available. Used for context work queues.
    """

    __slots__ = ("engine", "name", "items", "_getters")

    def __init__(self, engine: "Engine", name: str = "queue") -> None:
        self.engine = engine
        self.name = name
        #: Queued items, oldest first. Per-item callers (a context's
        #: drain) test and ``popleft`` it directly; never filled but
        #: through :meth:`put`, which serves blocked getters first.
        self.items: deque[Any] = deque()
        #: Blocked getters, oldest first; created on the first block.
        self._getters: deque[Event] | None = None

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> None:
        """Append an item, waking the oldest blocked getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self) -> Event:
        """Request the oldest item; use as ``item = yield queue.get()``."""
        ev = Event(self.engine, name=f"{self.name}.get")
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
