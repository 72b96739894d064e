"""Actor mailboxes: remote-accumulate ring queues in ``AddressSpace``.

One mailbox = one guarded inbox of one actor. Internally it is a set of
single-producer/single-consumer *lanes*, one per permitted sender rank,
carved out of a single collective allocation on the owner. Per lane::

    [ commit u64 | head u64 | slot 0 | slot 1 | ... | slot C-1 ]

``commit`` and ``head`` are absolute monotone positions (never wrap);
slot ``p`` lives at ring offset ``(p mod C) * SLOT_BYTES``. The sender
owns a private ``tail`` plus a cached copy of ``head``:

- **produce**: stage slot payloads with the rank's aggregate handle
  (one combined vector put per destination per flush), ``fence`` the
  destination, then advance ``commit`` with a remote ``fetch_add`` —
  the "remote accumulate" that makes the batch visible. Fencing before
  the accumulate means a committed range is always fully written, even
  if the sender dies between two lane commits.
- **consume**: entirely local reads on the owner (``commit`` minus
  ``head`` slots, at most two contiguous runs across the wrap), then a
  local ``head`` advance. Senders refresh their ``head`` cache lazily
  with a ``fetch`` AMO only when the cached room runs out — the
  backpressure signal.

The slot wire format is fixed and shared with the KV workload (48
bytes, naturally aligned little-endian)::

    seq u64 | kind u16 | flags u16 | client u32 | key u64
    value f64 | arrival f64 | deadline f64

``seq`` is the per-lane absolute position, giving the consumer a free
FIFO-integrity check: a committed batch whose sequence numbers are not
contiguous with ``head`` indicates ring corruption.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from ..errors import ArmciError

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.aggregate import AggregateHandle, Scratch
    from ..armci.runtime import ArmciProcess

#: Fixed mailbox slot wire format (48 bytes, naturally aligned).
SLOT_DTYPE = np.dtype(
    [
        ("seq", "<u8"),
        ("kind", "<u2"),
        ("flags", "<u2"),
        ("client", "<u4"),
        ("key", "<u8"),
        ("value", "<f8"),
        ("arrival", "<f8"),
        ("deadline", "<f8"),
    ]
)
SLOT_BYTES = SLOT_DTYPE.itemsize
#: Bytes of lane header (commit + head).
LANE_HEADER_BYTES = 16

#: Message kind codes (responses are ``kind + RESPONSE_BIAS``).
KIND_GET = 1
KIND_ACC = 2
KIND_PUT = 3
KIND_CTL_PAUSE = 6
KIND_CTL_RESUME = 7
RESPONSE_BIAS = 8

#: Slot flag bits.
FLAG_RESPOND = 1  #: sender wants a response record back
FLAG_REPLICA = 2  #: replica copy of a dual-written mutation
FLAG_LATE = 4  #: deadline had already expired at delivery


@dataclass(frozen=True)
class InboxSpec:
    """Declared shape of one inbox: capacity and permitted senders.

    ``senders=None`` admits every rank in the job. Order of ``inboxes``
    at registration is the selector priority order (first drained
    first).
    """

    name: str
    capacity: int = 256
    senders: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ArmciError(f"inbox capacity must be >= 1, got {self.capacity}")


class SenderLane:
    """Sender-side view of one SPSC lane (lives on the posting rank)."""

    __slots__ = ("owner", "capacity", "commit_addr", "head_addr", "ring_addr",
                 "tail", "head_cache")

    def __init__(self, owner: int, capacity: int, lane_base: int) -> None:
        self.owner = owner
        self.capacity = capacity
        self.commit_addr = lane_base
        self.head_addr = lane_base + 8
        self.ring_addr = lane_base + LANE_HEADER_BYTES
        self.tail = 0  # next absolute position to fill
        self.head_cache = 0  # last observed consumer position

    @property
    def room(self) -> int:
        """Free slots per the cached head (a lower bound on the truth)."""
        return self.capacity - (self.tail - self.head_cache)

    def refresh_head(self, rt: "ArmciProcess") -> Generator[Any, Any, int]:
        """AMO-read the owner's ``head`` (the backpressure round-trip)."""
        self.head_cache = yield from rt.rmw(self.owner, self.head_addr, "fetch")
        rt.trace.incr("serve.head_refreshes")
        return self.room

    def runs(self, count: int) -> list[tuple[int, int, int]]:
        """Ring placement of the next ``count`` slots as contiguous runs.

        Returns ``[(record_offset, ring_addr, nrecords), ...]`` — at
        most two entries (one wrap).
        """
        first_idx = self.tail % self.capacity
        n1 = min(count, self.capacity - first_idx)
        out = [(0, self.ring_addr + first_idx * SLOT_BYTES, n1)]
        if n1 < count:
            out.append((n1, self.ring_addr, count - n1))
        return out


class Mailbox:
    """Owner-side view of one inbox (poll is pure local memory)."""

    def __init__(
        self,
        rt: "ArmciProcess",
        owner: int,
        spec: InboxSpec,
        senders: tuple[int, ...],
        alloc,
    ) -> None:
        self.rt = rt
        self.owner = owner
        self.spec = spec
        self.senders = senders
        self.alloc = alloc
        self._lane_stride = LANE_HEADER_BYTES + spec.capacity * SLOT_BYTES

    def lane_base(self, board_rank: int, sender: int) -> int:
        try:
            lane = self.senders.index(sender)
        except ValueError:
            raise ArmciError(
                f"rank {sender} may not post to inbox {self.spec.name!r} "
                f"(senders: {self.senders})"
            ) from None
        return self.alloc.addr(board_rank) + lane * self._lane_stride

    def sender_lane(self, sender: int) -> SenderLane:
        return SenderLane(
            self.owner, self.spec.capacity, self.lane_base(self.owner, sender)
        )

    def poll(self, sender: int) -> np.ndarray | None:
        """Drain one lane (owner-local); ``None`` when it is empty.

        Copies the committed slots out in one copy (the ring may be
        overwritten the moment ``head`` advances), checks per-lane
        sequence continuity, and publishes the new ``head`` for the
        sender's next AMO fetch.
        """
        rt = self.rt
        if rt.rank != self.owner:
            raise ArmciError(
                f"rank {rt.rank} polling inbox {self.spec.name!r} owned by "
                f"rank {self.owner}"
            )
        space = rt.world.space(self.owner)
        base = self.lane_base(self.owner, sender)
        commit = space.read_i64(base)
        head = space.read_i64(base + 8)
        n = commit - head
        if n <= 0:
            return None
        cap = self.spec.capacity
        ring = space.view(base + LANE_HEADER_BYTES, cap * SLOT_BYTES)
        ring = ring.view(SLOT_DTYPE)
        first_idx = head % cap
        n1 = min(n, cap - first_idx)
        records = np.empty(n, SLOT_DTYPE)
        records[:n1] = ring[first_idx:first_idx + n1]
        records[n1:] = ring[:n - n1]
        if records["seq"].tolist() != list(range(head, commit)):
            raise ArmciError(
                f"inbox {self.spec.name!r} lane from rank {sender}: "
                f"sequence break at head {head} (ring corruption)"
            )
        space.write_i64(base + 8, commit)
        rt.trace.incr("serve.records_delivered", n)
        return records


def stage_batch(
    rt: "ArmciProcess",
    agg: "AggregateHandle",
    scratch: "Scratch",
    lane: SenderLane,
    records: np.ndarray,
) -> int:
    """Stage ``records`` into a lane under an open aggregate handle.

    Per contiguous ring run, copies the run's records once into the
    local staging buffer, numbers them with lane sequence numbers there,
    and posts one aggregate fragment. Non-generator: the aggregate
    snapshots payload eagerly, so the staging buffer is immediately
    reusable. The caller must flush + fence + ``fetch_add`` the lane's
    commit word afterwards (see ``ActorSystem.flush``) — ``lane.tail``
    advances only then.
    """
    n = len(records)
    space = rt.world.space(rt.rank)
    for rec_off, ring_addr, nrec in lane.runs(n):
        nbytes = nrec * SLOT_BYTES
        local = scratch.reserve(rt, nbytes)
        slots = space.view(local, nbytes).view(SLOT_DTYPE)
        slots[:] = records[rec_off:rec_off + nrec]
        first = lane.tail + rec_off
        slots["seq"] = np.arange(first, first + nrec, dtype=np.uint64)
        agg.put(local, ring_addr, nbytes)
    rt.trace.incr("serve.records_sent", n)
    return n
