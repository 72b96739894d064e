"""Pairwise notify/wait synchronization (armci_notify / armci_notify_wait).

A producer writes data with puts, then notifies the consumer; PAMI's
pairwise ordering (deterministic routing) guarantees the notification is
delivered after every earlier put from the same source has landed, so the
consumer may read the data without a full fence — the classic
producer-consumer idiom ARMCI supports on ordered networks.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator

from ..pami.activemsg import AmEnvelope
from ..pami.context import PamiContext

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess

NOTIFY_ID = 11


class NotifyBoard:
    """Per-process inbox of notifications, keyed by source rank."""

    def __init__(self) -> None:
        self._available: dict[int, int] = {}
        self._waiters: dict[int, deque] = {}

    def deliver(self, src: int) -> None:
        """A notification from ``src`` arrived; wake one waiter or bank it."""
        waiters = self._waiters.get(src)
        if waiters:
            waiters.popleft().succeed()
        else:
            self._available[src] = self._available.get(src, 0) + 1

    def consume_or_wait(self, src: int, engine):
        """Take one banked notification, or return an Event to wait on."""
        if self._available.get(src, 0) > 0:
            self._available[src] -= 1
            return None
        event = engine.event(f"notify.from.{src}")
        self._waiters.setdefault(src, deque()).append(event)
        return event

    def pending(self, src: int) -> int:
        """Banked (unconsumed) notifications from ``src``."""
        return self._available.get(src, 0)


def notify(rt: "ArmciProcess", dst: int) -> Generator[Any, Any, None]:
    """Send one notification to ``dst``, ordered after prior puts there."""
    ctx = rt.main_context
    op = rt.transport.send_am(ctx, dst, NOTIFY_ID, header={})
    yield from ctx.wait_with_progress(op.local_event)
    rt.trace.incr("armci.notifies_sent")


def notify_wait(rt: "ArmciProcess", src: int) -> Generator[Any, Any, None]:
    """Block until one notification from ``src`` arrives (consuming it).

    Raises :class:`~repro.errors.DeadlineExceededError` if the op's
    deadline (ambient, else ``config.default_deadline``) passes first.
    """
    event = rt.notify_board.consume_or_wait(src, rt.engine)
    if event is not None:
        yield from rt.main_context.wait_with_progress(
            event, deadline=rt._op_deadline()
        )
    rt.trace.incr("armci.notifies_consumed")


def handle_notify(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Target-side notification delivery."""
    rt.notify_board.deliver(env.src)
