"""Processor groups and software tree collectives.

Global Arrays exposes processor groups (NWChem partitions its ranks into
groups for independent sub-calculations); group collectives cannot use
the partition-wide hardware barrier/collective network, so they run as
**software trees over active messages** — log2(n) rounds of AMs.

Delivered tree messages are *banked* by the AM handler (so they need the
receiver's progress engine only to land), but forwarding happens inside
the member's own collective call: like any collective, a tree stalls on
late-arriving participants regardless of asynchronous progress threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator

from ..errors import ArmciError
from ..pami.activemsg import AmEnvelope
from ..pami.context import PamiContext
from ..pami.faults import check_completion

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess

GROUP_MSG_ID = 12


@dataclass(frozen=True)
class ProcessGroup:
    """An ordered subset of the job's ranks.

    All group collectives are identified by ``(tag, sequence)`` so
    concurrent groups and repeated rounds never cross-talk.
    """

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ArmciError("a group needs at least one member")
        if len(set(self.members)) != len(self.members):
            raise ArmciError(f"duplicate ranks in group: {self.members}")

    @property
    def size(self) -> int:
        return len(self.members)

    def index_of(self, rank: int) -> int:
        """Group index of a world rank.

        Raises
        ------
        ArmciError
            If the rank is not a member.
        """
        try:
            return self.members.index(rank)
        except ValueError:
            raise ArmciError(f"rank {rank} not in group {self.members}") from None


@dataclass
class _GroupState:
    """Per-rank collective state: messages received, keyed by round tag."""

    inbox: dict[tuple, list] = field(default_factory=dict)
    waiters: dict[tuple, Any] = field(default_factory=dict)
    sequence: dict[tuple[int, ...], int] = field(default_factory=dict)


def _state(rt: "ArmciProcess") -> _GroupState:
    state = getattr(rt, "_group_state", None)
    if state is None:
        state = _GroupState()
        rt._group_state = state
    return state


def handle_group_message(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Deliver a tree-collective message; wake the local waiter if any."""
    state = _state(rt)
    key = tuple(env.header["key"])
    state.inbox.setdefault(key, []).append(env.header["value"])
    waiter = state.waiters.pop(key, None)
    if waiter is not None and not waiter.triggered:
        waiter.succeed()


def _await_messages(
    rt: "ArmciProcess", key: tuple, count: int, members: tuple[int, ...] = ()
) -> Generator[Any, Any, list]:
    """Block (with progress) until ``count`` messages arrive for ``key``.

    Group collectives are all-or-nothing: the wait is watched against
    every other group member, so a participant dying mid-collective
    raises :class:`~repro.errors.ProcessFailedError` here after the
    detection delay instead of hanging the tree.
    """
    state = _state(rt)
    peers = [m for m in members if m != rt.rank]
    while len(state.inbox.get(key, [])) < count:
        event = rt.engine.event(f"group.{key}")
        state.waiters[key] = event
        if len(state.inbox.get(key, [])) >= count:  # raced with delivery
            state.waiters.pop(key, None)
            continue
        if peers:
            rt.job.failure_detector.watch(event, peers)
        value = yield from rt.main_context.wait_with_progress(event)
        check_completion(value, op="group")
    return state.inbox.pop(key)


def _send(rt: "ArmciProcess", dst: int, key: tuple, value) -> Generator[Any, Any, None]:
    op = rt.transport.send_am(
        rt.main_context, dst, GROUP_MSG_ID,
        header={"key": list(key), "value": value},
    )
    yield from rt.main_context.wait_with_progress(op.local_event)


def _sequence(rt: "ArmciProcess", group: ProcessGroup) -> int:
    state = _state(rt)
    seq = state.sequence.get(group.members, 0)
    state.sequence[group.members] = seq + 1
    return seq


def group_reduce_tree(
    rt: "ArmciProcess", group: ProcessGroup, value: float
) -> Generator[Any, Any, float]:
    """Binomial-tree allreduce (sum) over the group; returns the sum.

    log2(n) up-sweep to the group root (member 0), then a log2(n)
    broadcast down — 2·log2(n) AM latencies, every hop needing the
    receiver's progress engine.
    """
    me = group.index_of(rt.rank)
    n = group.size
    seq = _sequence(rt, group)
    acc = value

    # Up-sweep: at round k, members with index % 2^(k+1) == 2^k send to
    # index - 2^k.
    k = 1
    while k < n:
        if me % (2 * k) == k:
            parent = group.members[me - k]
            yield from _send(rt, parent, ("up", seq, me) + group.members, acc)
            break
        if me % (2 * k) == 0 and me + k < n:
            values = yield from _await_messages(
                rt, ("up", seq, me + k) + group.members, 1, group.members
            )
            acc += values[0]
        k *= 2

    # Down-sweep broadcast of the final value from the root.
    result = acc
    if me != 0:
        values = yield from _await_messages(
            rt, ("down", seq, me) + group.members, 1, group.members
        )
        result = values[0]
    k = 1
    while k < n:
        k *= 2
    k //= 2
    while k >= 1:
        if me % (2 * k) == 0 and me + k < n:
            yield from _send(
                rt, group.members[me + k], ("down", seq, me + k) + group.members, result
            )
        k //= 2
    rt.trace.incr("armci.group_allreduces")
    return result
