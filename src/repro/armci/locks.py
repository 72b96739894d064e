"""ARMCI mutexes (lock/unlock primitives).

Mutexes are distributed round-robin across ranks; acquiring one sends a
LOCK_REQUEST active message to the owner, whose progress engine either
grants immediately or queues the requester FIFO. Like every AM-serviced
primitive on BG/Q, mutex throughput depends on owner-side progress.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Generator

from ..errors import ArmciError
from ..pami.activemsg import AmEnvelope
from ..pami.context import PamiContext
from .transfer import control_reply

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess


class MutexTable:
    """Owner-side state of the mutexes a rank hosts."""

    def __init__(self) -> None:
        # mutex id -> holder rank (None = free).
        self._holder: dict[int, int | None] = {}
        # mutex id -> FIFO of (requester rank, grant event, reply ctx).
        self._waiters: dict[int, deque] = {}

    def host(self, mutex_id: int) -> None:
        """Start hosting a mutex (free)."""
        self._holder.setdefault(mutex_id, None)
        self._waiters.setdefault(mutex_id, deque())

    def holder(self, mutex_id: int) -> int | None:
        """Current holder rank, or None if free."""
        self._check(mutex_id)
        return self._holder[mutex_id]

    def _check(self, mutex_id: int) -> None:
        if mutex_id not in self._holder:
            raise ArmciError(f"mutex {mutex_id} not hosted here")

    def try_acquire(self, mutex_id: int, requester: int, grant, reply_ctx) -> bool:
        """Grant if free; otherwise queue. Returns True if granted now."""
        self._check(mutex_id)
        if self._holder[mutex_id] is None:
            self._holder[mutex_id] = requester
            return True
        self._waiters[mutex_id].append((requester, grant, reply_ctx))
        return False

    def release(self, mutex_id: int, releaser: int):
        """Release; returns the next ``(rank, grant, reply_ctx)`` or None.

        Raises
        ------
        ArmciError
            If the releaser does not hold the mutex.
        """
        self._check(mutex_id)
        if self._holder[mutex_id] != releaser:
            raise ArmciError(
                f"rank {releaser} released mutex {mutex_id} held by "
                f"{self._holder[mutex_id]}"
            )
        if self._waiters[mutex_id]:
            nxt = self._waiters[mutex_id].popleft()
            self._holder[mutex_id] = nxt[0]
            return nxt
        self._holder[mutex_id] = None
        return None


def mutex_owner(mutex_id: int, num_procs: int) -> int:
    """Round-robin placement of mutexes on ranks."""
    if mutex_id < 0:
        raise ArmciError(f"mutex id must be >= 0, got {mutex_id}")
    return mutex_id % num_procs


def lock(rt: "ArmciProcess", mutex_id: int, span) -> Generator[Any, Any, None]:
    """Blocking acquire of a distributed mutex (inside the caller's
    ``lock_wait`` ``span``)."""
    owner = mutex_owner(mutex_id, rt.world.num_procs)
    ctx = rt.main_context
    deadline = rt._op_deadline(None)
    yield from rt._acquire_send_credit(owner, deadline)
    grant = rt.engine.event(f"lock.{mutex_id}.r{rt.rank}")
    header = {"mutex": mutex_id, "grant": grant, "reply_ctx": ctx}
    if rt.flow_enabled:
        header["_credit"] = True
    rt.transport.send_am(ctx, owner, _LOCK_REQUEST_ID, header=header)
    granted = yield from ctx.wait_with_progress(grant, deadline=deadline)
    from ..pami.faults import check_completion

    check_completion(granted, op="lock")
    # The grant cookie was registered to the owner-side service span.
    span.caused_by(grant)
    rt.trace.incr("armci.locks_acquired")


def unlock(rt: "ArmciProcess", mutex_id: int) -> Generator[Any, Any, None]:
    """Release a distributed mutex (fire-and-forget AM to the owner)."""
    owner = mutex_owner(mutex_id, rt.world.num_procs)
    ctx = rt.main_context
    op = rt.transport.send_am(
        ctx, owner, _UNLOCK_REQUEST_ID, header={"mutex": mutex_id}
    )
    yield from ctx.wait_with_progress(op.local_event)
    rt.trace.incr("armci.locks_released")


_LOCK_REQUEST_ID = 7
_UNLOCK_REQUEST_ID = 8


def handle_lock_request(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Owner-side LOCK_REQUEST handler."""
    h = env.header
    rt.mutexes.host(h["mutex"])
    if rt.mutexes.try_acquire(h["mutex"], env.src, h["grant"], h["reply_ctx"]):
        control_reply(rt, env.src, h["reply_ctx"], h["grant"])


def handle_unlock_request(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Owner-side UNLOCK_REQUEST handler: pass the mutex to the next waiter."""
    nxt = rt.mutexes.release(env.header["mutex"], env.src)
    if nxt is not None:
        requester, grant, reply_ctx = nxt
        control_reply(rt, requester, reply_ctx, grant)
