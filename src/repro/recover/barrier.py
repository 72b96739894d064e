"""The recovery rendezvous: fault-gather and resume synchronization.

Recovery is a two-phase meeting of every expected participant:

- ``gather`` — everyone has quiesced their outstanding communication
  (tolerantly: operations toward dead ranks are abandoned). Only after
  the gather releases is it safe to roll memory back, because no
  surviving peer still has writes in flight toward anyone.
- ``resume`` — rollback and re-replication are done everywhere; the
  epoch loop may continue.

A *new* death while a round is in progress restarts it: every waiter is
released with the :data:`RESTART` token and loops back to the gather,
and the newly dead rank's respawned incarnation joins the next round.
Rounds are stamped with a **generation** (bumped on every death): the
gather release hands the generation to each participant, and a
``resume`` arrival carrying a stale generation bounces straight back
with :data:`RESTART`. That covers the participant that never *waited*
through the restart — it was mid-rollback or mid-re-replication when
the new death hit — and would otherwise park in a phase nobody else is
coming to. This is what makes the manager survive repeated (and
overlapping) rank deaths instead of deadlocking on a half-assembled
rendezvous.
"""

from __future__ import annotations


class _Restart:
    """Sentinel released to waiters when a round is aborted."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<recovery-restart>"


RESTART = _Restart()

_PHASES = ("gather", "resume")


class RecoveryRendezvous:
    """Barrier-like meeting point that tolerates deaths mid-round."""

    def __init__(self, engine, num_procs: int, latency: float, trace) -> None:
        self.engine = engine
        self.latency = latency
        self.trace = trace
        #: Ranks that must arrive for a phase to release.
        self.expected: set[int] = set(range(num_procs))
        #: Completed recovery rounds (the resume-phase release count).
        self.rounds_completed = 0
        #: Round generation; bumped on every death so stale arrivals
        #: (from participants that missed a restart) are detectable.
        self.generation = 0
        self._phases: dict[str, tuple[set, object]] = {}

    def arrive(self, phase: str, rank: int, generation: int | None = None):
        """Register ``rank`` at ``phase``; returns the release event.

        The event fires with the current :attr:`generation` when all
        expected ranks arrived (after the control latency), or with
        :data:`RESTART` if the round aborts first. Passing the
        ``generation`` the gather handed out lets a ``resume`` arrival
        from an aborted round bounce immediately instead of parking in
        a phase the other participants already abandoned. Re-arrival
        after a restart is safe: the aborted round's state was
        discarded, so the rank simply joins the fresh round.
        """
        if phase not in _PHASES:
            raise ValueError(f"unknown rendezvous phase {phase!r}")
        if generation is not None and generation != self.generation:
            stale = self.engine.event(f"recover.{phase}.stale")
            stale.succeed(RESTART)
            return stale
        entry = self._phases.get(phase)
        if entry is None:
            entry = (set(), self.engine.event(f"recover.{phase}"))
            self._phases[phase] = entry
        arrived, event = entry
        arrived.add(rank)
        self._maybe_release(phase)
        return event

    def _maybe_release(self, phase: str) -> None:
        entry = self._phases.get(phase)
        if entry is None:
            return
        arrived, event = entry
        if not (self.expected <= arrived):
            return
        del self._phases[phase]
        if phase == "resume":
            self.rounds_completed += 1
        gen = self.generation
        self.engine.schedule(
            self.latency,
            lambda _a, ev=event: None if ev.triggered else ev.succeed(gen),
        )

    def note_rank_failure(self, rank: int) -> None:
        """Abort any in-progress round: all waiters get :data:`RESTART`.

        The dead rank may have been counted as arrived; its (respawned)
        incarnation must re-quiesce and re-gather, so the only safe move
        is to restart everyone.
        """
        self.generation += 1
        for phase in list(self._phases):
            _arrived, event = self._phases.pop(phase)
            self.trace.incr("recover.rendezvous_restarts")
            self.engine.schedule(
                self.latency,
                lambda _a, ev=event: None if ev.triggered else ev.succeed(RESTART),
            )
