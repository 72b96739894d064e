"""Collective synchronization.

Blue Gene/Q integrates a hardware barrier/collective network with the
torus (Section II-A), so barriers do not ride the AM path. ARMCI barrier
semantics additionally require the waiting thread to keep the progress
engine moving — which is exactly how a default-mode (no async thread)
process manages to service remote AMOs while it sits in a barrier.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterable

from ..errors import ArmciError
from ..pami.faults import FAULT_DETECT_DELAY, Failure, check_completion
from ..sim.engine import Engine
from ..sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess


class HardwareBarrier:
    """The partition's hardware barrier network.

    All ranks must arrive before the release fires, ``latency`` after the
    last arrival. Rounds are implicit: a rank can only re-arrive after
    being released, so one in-flight event per round suffices.

    Fault tolerance (epoch-based liveness): once a participant dies
    (:meth:`note_rank_failure`), the current round — and every later one
    — can never complete. Instead of hanging, the in-flight release
    event fires with a :class:`~repro.pami.faults.Failure` token after
    ``FAULT_DETECT_DELAY`` (the barrier network's hardware liveness sweep),
    and arrivals in later epochs fail the same way. Survivors raise
    :class:`~repro.errors.ProcessFailedError` from their barrier call.
    """

    def __init__(
        self,
        engine: Engine,
        num_procs: int,
        latency: float,
    ) -> None:
        if num_procs < 1:
            raise ArmciError(f"barrier needs >= 1 participant, got {num_procs}")
        self.engine = engine
        self.num_procs = num_procs
        self.latency = latency
        self._arrived: set[int] = set()
        self._event: Event | None = None
        self.rounds_completed = 0
        self.rounds_broken = 0
        #: Currently-dead participants (empty = barrier healthy).
        self._failed: set[int] = set()
        #: First dead participant (None = barrier healthy).
        self._broken_by: int | None = None

    def note_rank_failure(self, rank: int) -> None:
        """A participant died: break the current and all future rounds."""
        self._failed.add(rank)
        if self._broken_by is None:
            self._broken_by = rank
        event = self._event
        if event is not None and self._arrived:
            self._fail_round(event, rank)

    def note_rank_recovered(self, rank: int) -> None:
        """A dead participant was respawned: future rounds can complete
        again once every dead participant has recovered. No-op for ranks
        that never failed, so healthy paths are unaffected."""
        self._failed.discard(rank)
        self._broken_by = min(self._failed) if self._failed else None

    def _fail_round(self, event: Event, dead_rank: int) -> None:
        self.rounds_broken += 1
        self._arrived.clear()
        self._event = None
        token = Failure(dead_rank)
        self.engine.schedule(
            FAULT_DETECT_DELAY,
            lambda _a: None if event.triggered else event.succeed(token),
        )

    def arrive(self, rank: int = -1) -> Event:
        """Register ``rank``'s arrival; wait on the returned event.

        Raises
        ------
        ArmciError
            If the same rank arrives twice in one round (a collective
            protocol violation).
        """
        if not self._arrived:
            self._event = self.engine.event("hw_barrier")
        if rank >= 0 and rank in self._arrived:
            raise ArmciError(
                f"rank {rank} entered the barrier twice in one round"
            )
        self._arrived.add(rank if rank >= 0 else -1 - len(self._arrived))
        event = self._event
        assert event is not None
        if self._broken_by is not None:
            # Broken epoch: the liveness sweep reports the dead rank to
            # every arrival after the detection delay.
            self._fail_round(event, self._broken_by)
            return event
        if len(self._arrived) == self.num_procs:
            self._arrived.clear()
            self.rounds_completed += 1
            self.engine.schedule(self.latency, lambda _a: event.succeed())
        return event


#: Watches kept before triggered ones are pruned.
WATCH_PRUNE_FLOOR = 64


class FailureDetector:
    """Fails watched events when a watched rank dies.

    The ARMCI job registers one detector with the PAMI world's failure
    listeners. Wait paths that block on a peer's *software* action (group
    tree messages) watch their wake-up event against the
    ranks they depend on; if one of those ranks fails, the event fires
    with a :class:`~repro.pami.faults.Failure` token after the detection
    delay instead of never.
    """

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self._dead: set[int] = set()
        self._watches: list[tuple[Event, frozenset[int]]] = []
        #: Watch-list length that triggers the next prune of triggered
        #: events: double what the last prune kept, so watching stays
        #: O(1) amortised however many watches are still live.
        self._prune_at = WATCH_PRUNE_FLOOR

    def watch(self, event: Event, ranks: Iterable[int]) -> None:
        """Fail ``event`` if any of ``ranks`` dies before it triggers."""
        members = frozenset(ranks)
        already_dead = members & self._dead
        if already_dead:
            self._fail(event, min(already_dead))
            return
        self._watches.append((event, members))
        if len(self._watches) > self._prune_at:
            self._watches = [
                (ev, m) for ev, m in self._watches if not ev.triggered
            ]
            self._prune_at = max(WATCH_PRUNE_FLOOR, 2 * len(self._watches))

    def _fail(self, event: Event, dead_rank: int) -> None:
        token = Failure(dead_rank)
        self.engine.schedule(
            FAULT_DETECT_DELAY,
            lambda _a: None if event.triggered else event.succeed(token),
        )

    def note_rank_recovered(self, rank: int) -> None:
        """Stop failing new watches that name a respawned rank."""
        self._dead.discard(rank)

    def note_rank_failure(self, rank: int) -> None:
        self._dead.add(rank)
        keep: list[tuple[Event, frozenset[int]]] = []
        for event, members in self._watches:
            if event.triggered:
                continue
            if rank in members:
                self._fail(event, rank)
            else:
                keep.append((event, members))
        self._watches = keep


def barrier(rt: "ArmciProcess", timeline: str | None = None) -> Generator[Any, Any, None]:
    """ARMCI barrier: hardware sync + progress while waiting.

    ``timeline`` puts the dwell in the Gantt view — the application's
    own ``rt.barrier()`` calls, not the ones inside ``malloc``/``free``.

    Raises :class:`~repro.errors.ProcessFailedError` if a participant
    died — the epoch-based liveness check above — instead of deadlocking,
    and :class:`~repro.errors.DeadlineExceededError` if the op's deadline
    (ambient, else ``config.default_deadline``) passes first.
    """
    deadline = rt._op_deadline()
    rt._observe("on_barrier_enter")
    obs = rt.obs
    with rt.span("barrier", "barrier", timeline=timeline) as span:
        # The barrier span doubles as this rank's arrival record; the
        # exit draws a wait-for edge from the last arriver's span (the
        # only place critical_path hops ranks).
        if obs is not None:
            obs.barrier_arrive(id(rt.job.hw_barrier), rt.rank, span.sid)
        release = rt.job.hw_barrier.arrive(rt.rank)
        try:
            value = yield from rt.main_context.wait_with_progress(
                release, deadline=deadline
            )
            check_completion(value, op="barrier")
        finally:
            if obs is not None:
                obs.barrier_exit(id(rt.job.hw_barrier), rt.rank, span.sid)
    rt._observe("on_barrier_exit")
    rt.trace.incr("armci.barriers")


class ReductionBoard:
    """Software allreduce (sum) scratchpad (models the hardware collective net).

    Rounds are explicit: each rank deposits into its current round, a
    barrier guarantees completeness, then every rank collects. The first
    collector sums the round; the others are handed that result. A
    round's storage is reclaimed once all ranks have collected it, so
    back-to-back reductions never race.
    """

    def __init__(self, num_procs: int) -> None:
        self.num_procs = num_procs
        self._rounds: dict[int, dict[int, float]] = {}
        #: round -> [sum, collectors so far], made by the round's first
        #: collector.
        self._reduced: dict[int, list] = {}
        self._rank_round: dict[int, int] = {}
        #: Reductions actually computed (one per collected round).
        self.rounds_reduced = 0

    def reset(self) -> None:
        """Discard every in-flight round and resynchronize round ids.

        Crash recovery calls this at the rollback point: aborted rounds
        must not satisfy post-recovery deposits (survivors and a
        respawned rank could otherwise disagree on round ids and merge a
        replayed reduction with a pre-crash one). Idempotent.
        """
        self._rounds.clear()
        self._reduced.clear()
        self._rank_round.clear()

    def deposit(self, rank: int, value: float) -> int:
        """Deposit for this rank's next round; returns the round id."""
        rnd = self._rank_round.get(rank, 0)
        self._rank_round[rank] = rnd + 1
        values = self._rounds.setdefault(rnd, {})
        if rank in values:
            raise ArmciError(f"rank {rank} deposited twice in round {rnd}")
        values[rank] = value
        return rnd

    def collect(self, rnd: int) -> float:
        """Sum round ``rnd``; storage reclaimed after the last collector."""
        values = self._rounds.get(rnd)
        if values is None or len(values) != self.num_procs:
            have = 0 if values is None else len(values)
            raise ArmciError(
                f"round {rnd} incomplete: {have}/{self.num_procs} deposits"
            )
        reduced = self._reduced.get(rnd)
        if reduced is None:
            reduced = self._reduced[rnd] = [float(sum(values.values())), 0]
            self.rounds_reduced += 1
        reduced[1] += 1
        if reduced[1] == self.num_procs:
            del self._rounds[rnd]
            del self._reduced[rnd]
        return reduced[0]


def allreduce(rt: "ArmciProcess", value: float) -> Generator[Any, Any, float]:
    """Sum over all ranks (hardware collective network model)."""
    board = rt.job.reduction_board
    rnd = board.deposit(rt.rank, value)
    yield from barrier(rt)
    return board.collect(rnd)
