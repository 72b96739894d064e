"""Distributed quiescence detection for the actor layer.

``FourCounterTermination`` is the classic four-counter wave protocol
(Mattern-style), generalizing the taskpool's "watermark says everyone
is past X" idea to arbitrary message-passing actors. Each participant
contributes ``(sent, received, idle)`` to a wave board hosted on the
coordinator; the coordinator declares termination only when **two
consecutive waves** observe the same globally-balanced counters
(``S_w == R_w == S_{w-1} == R_{w-1}``) with every participant idle. A
message consumed after its receiver contributed shows up as ``R_w <
S_w`` and blocks the verdict, so no in-flight message can be missed —
the standard safety argument, and the reason one balanced snapshot is
not enough.

Fault tolerance: the coordinator is the lowest-indexed *alive*
participant. The board is a collective allocation, so every participant
already owns an identically-shaped (zero-filled) segment; when the
coordinator dies, survivors re-aim their contributions at the next
host's segment and restart the two-wave history (``_prev`` reset —
counters from boards on dead ranks cannot be trusted).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Generator

from ..errors import ArmciError, ProcessFailedError
from ..sim.primitives import Delay
from . import actor as _actor

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.runtime import ArmciProcess

#: Bytes per participant slot on the wave board: sent, recv, idle, wave.
_SLOT_BYTES = 32
#: Bytes of board tail: verdict, result_wave.
_TAIL_BYTES = 16


@dataclass
class _WaveStats:
    """One participant's contribution to a wave."""

    sent: int
    recv: int
    idle: bool


class FourCounterTermination:
    """Coordinator-hosted four-counter wave termination detector.

    Collective: every participant calls :meth:`create` (which performs a
    collective ``malloc``) and then drives :meth:`wave` with its local
    ``(sent, received, idle)`` stats whenever it believes the system may
    be quiescent. ``wave`` returns ``True`` exactly when global
    termination is certain; ``False`` sends the caller back to work.

    ``service`` (optional callback returning a generator) is invoked
    between polls on both sides of the protocol, so a participant stuck
    inside a wave keeps draining its mailboxes — without it, a
    coordinator waiting for a backpressured peer's contribution while
    that peer waits for the coordinator to drain its ring would
    deadlock.
    """

    def __init__(
        self,
        rt: "ArmciProcess",
        participants: tuple[int, ...],
        alloc,
        scratch: int,
    ) -> None:
        self.rt = rt
        self.participants = participants
        self.alloc = alloc
        self._scratch = scratch
        self._index = {r: i for i, r in enumerate(participants)}
        self._wave = 0
        #: (alive-set key, S, R) of the previous completed wave, or None.
        self._prev: tuple[tuple[int, ...], int, int] | None = None

    @classmethod
    def create(
        cls,
        rt: "ArmciProcess",
        participants=None,
    ) -> Generator[Any, Any, "FourCounterTermination"]:
        """Collective creation (all participants must call this)."""
        if participants is None:
            participants = range(rt.world.num_procs)
        participants = tuple(participants)
        if rt.rank not in participants:
            raise ArmciError(
                f"rank {rt.rank} is not among participants {participants}"
            )
        nbytes = len(participants) * _SLOT_BYTES + _TAIL_BYTES
        alloc = yield from rt.malloc(nbytes)
        scratch = rt.world.space(rt.rank).allocate(_SLOT_BYTES)
        return cls(rt, participants, alloc, scratch)

    # ------------------------------------------------------------ utils

    def _alive(self) -> tuple[int, ...]:
        world = self.rt.world
        return tuple(r for r in self.participants if not world.is_failed(r))

    def _coordinator(self) -> int:
        alive = self._alive()
        if not alive:
            raise ProcessFailedError("no termination participant left alive")
        return alive[0]

    def _slot_addr(self, board_rank: int, participant: int) -> int:
        return self.alloc.addr(board_rank) + self._index[participant] * _SLOT_BYTES

    def _tail_addr(self, board_rank: int) -> int:
        return self.alloc.addr(board_rank) + len(self.participants) * _SLOT_BYTES

    # --------------------------------------------------------- protocol

    def wave(
        self,
        stats: _WaveStats | tuple[int, int, bool],
        service: Callable[[], Generator] | None = None,
    ) -> Generator[Any, Any, bool]:
        """Run one wave; ``True`` iff global termination is detected.

        Safe against coordinator death at any point: the survivor
        re-aims at the next-lowest alive participant's board segment and
        re-contributes the same wave (writes are idempotent — the slot
        holds absolute counters, not deltas).
        """
        if isinstance(stats, tuple):
            stats = _WaveStats(*stats)
        self._wave += 1
        w = self._wave
        rt = self.rt
        attempts = 0
        while True:
            coord = self._coordinator()
            try:
                yield from self._contribute(coord, stats, w)
                if rt.rank == coord:
                    return (yield from self._decide(stats, w, service))
                return (yield from self._await_verdict(coord, w, service))
            except ProcessFailedError:
                if rt.world.is_failed(rt.rank):
                    raise
                # Coordinator (or board host) died mid-wave: forget the
                # two-wave history and retry against the next survivor.
                self._prev = None
                rt.trace.incr("serve.termination_failovers")
                attempts += 1
                if attempts > len(self.participants):
                    raise

    def _contribute(
        self, coord: int, stats: _WaveStats, w: int
    ) -> Generator[Any, Any, None]:
        rt = self.rt
        slot = self._slot_addr(coord, rt.rank)
        if coord == rt.rank:
            space = rt.world.space(rt.rank)
            space.write_i64(slot, stats.sent)
            space.write_i64(slot + 8, stats.recv)
            space.write_i64(slot + 16, 1 if stats.idle else 0)
            space.write_i64(slot + 24, w)
            return
        space = rt.world.space(rt.rank)
        space.write_i64(self._scratch, stats.sent)
        space.write_i64(self._scratch + 8, stats.recv)
        space.write_i64(self._scratch + 16, 1 if stats.idle else 0)
        space.write_i64(self._scratch + 24, w)
        # One 32-byte put: the wave cell lands last in address order but
        # visibility is gated by the fence, which covers the whole slot.
        yield from rt.put(coord, self._scratch, slot, _SLOT_BYTES)
        yield from rt.fence(coord)
        rt.trace.incr("serve.wave_contributions")

    def _decide(
        self,
        stats: _WaveStats,
        w: int,
        service: Callable[[], Generator] | None,
    ) -> Generator[Any, Any, bool]:
        """Coordinator side: gather, decide, publish."""
        rt = self.rt
        space = rt.world.space(rt.rank)
        while True:
            alive = self._alive()
            if rt.rank != self._coordinator():
                # We lost coordinatorship (should be impossible while
                # alive — rank order is static); treat as failover.
                raise ProcessFailedError("coordinator demoted mid-wave")
            ready = True
            for r in alive:
                if r == rt.rank:
                    continue
                # ">= w" (not "== w"): after a failover participants can
                # arrive with mixed wave numbers; any contribution at
                # least as fresh as ours counts.
                if space.read_i64(self._slot_addr(rt.rank, r) + 24) < w:
                    ready = False
                    break
            if ready:
                break
            if service is not None:
                yield from service()
            else:
                # Keep servicing our own context while parked (default
                # mode has no async thread to land peers' contributions).
                yield from rt.progress()
            yield Delay(_actor.POLL_INTERVAL)
        total_sent = stats.sent
        total_recv = stats.recv
        all_idle = stats.idle
        for r in alive:
            if r == rt.rank:
                continue
            slot = self._slot_addr(rt.rank, r)
            total_sent += space.read_i64(slot)
            total_recv += space.read_i64(slot + 8)
            all_idle = all_idle and space.read_i64(slot + 16) == 1
        key = alive
        done = (
            all_idle
            and total_sent == total_recv
            and self._prev is not None
            and self._prev == (key, total_sent, total_recv)
        )
        self._prev = (key, total_sent, total_recv)
        tail = self._tail_addr(rt.rank)
        # Verdict strictly before result_wave: a peer that observes
        # result_wave >= w in one snapshot is guaranteed to see the
        # matching verdict in the same snapshot.
        space.write_i64(tail, 1 if done else 0)
        space.write_i64(tail + 8, w)
        rt.trace.incr("serve.waves_coordinated")
        return done

    def _await_verdict(
        self, coord: int, w: int, service: Callable[[], Generator] | None
    ) -> Generator[Any, Any, bool]:
        """Non-coordinator side: poll the board tail for wave ``w``."""
        rt = self.rt
        space = rt.world.space(rt.rank)
        tail = self._tail_addr(coord)
        while True:
            yield from rt.get(coord, self._scratch, tail, _TAIL_BYTES)
            result_wave = space.read_i64(self._scratch + 8)
            if result_wave >= w:
                return space.read_i64(self._scratch) == 1
            if service is not None:
                yield from service()
            else:
                yield from rt.progress()
            yield Delay(_actor.POLL_INTERVAL)
