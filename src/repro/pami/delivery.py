"""One delivery state machine for everything that crosses the wire.

RDMA put and get, active messages, AMOs (software- and NIC-serviced) and
the fall-back get's data reply all take the same trip (DESIGN.md §14)::

    post --> attempt --> guard --> fate --> verify --> land
               ^           |         |         |
               |           v         v         v
               +------ retransmit <-(lost unseen / checksum reject)
                           |
                           v   budget spent
      drop as stale     give up: fail the waiter with a typed token

:class:`Delivery` is that trip, written once. A caller subclasses it and
supplies three things — **what lands** (:meth:`Delivery.land`), **who is
credited** (:meth:`Delivery.credit`) and **what completes**
(:meth:`Delivery.fail`) — and decides only *when* to call it: whether the
first fate is rolled at post time (:meth:`Delivery.roll`, as RDMA and
AMOs do so the loss can be scheduled with the completion) or left to the
attempt itself (active messages, get replies).
"""

from __future__ import annotations

from . import faults as _flt

#: Transport retransmit budget (see :attr:`Delivery.budget`) and the
#: backoff before every retransmit.
RETRANSMIT_BUDGET = 8
RETRANSMIT_DELAY = 5e-6

#: ``TransientFault.reason`` when the transport gives a delivery up: its
#: retransmit budget died to repeated damage, or no route is left. The
#: initiator's earlier completions said nothing of this loss, so waiters
#: that certify delivery (the fence) must raise on it, not skip it.
GIVEN_UP = "integrity_exhausted"

_CLEAN = (None, None, _flt.FAULT_DETECT_DELAY)


class Delivery:
    """One payload's trip from ``src`` to ``dst``, retransmits included.

    ``src``/``dst`` name the direction the wire is rolled in;
    ``initiator`` is the end whose waiter observes the outcome (``src``
    unless ``waiter_at_dst``: a get reply travels *to* its waiter) and
    ``target`` the other. Both incarnations, the link mode and whether
    the wire can perturb this copy at all (``at_risk``) are captured
    here, at post time.

    ``rerolls_injector``: a retransmit is a fresh message to the chaos
    injector too (active messages); otherwise retransmits re-roll only
    the links of the current route.
    """

    __slots__ = (
        "world", "src", "dst", "kind", "initiator", "target",
        "initiator_inc", "target_inc", "link_mode", "at_risk", "rerolls_injector",
        "payload", "seal", "fate", "retries",
    )

    def __init__(
        self, world, src: int, dst: int, kind: str,
        waiter_at_dst: bool = False, rerolls_injector: bool = False,
    ) -> None:
        self.world = world
        self.src = src
        self.dst = dst
        self.kind = kind
        self.initiator, self.target = (dst, src) if waiter_at_dst else (src, dst)
        incarnations = world.incarnations
        self.initiator_inc = incarnations[self.initiator]
        self.target_inc = incarnations[self.target]
        net = world.network
        self.link_mode = link_mode = (
            net.route_table is not None and not net.is_local(src, dst)
        )
        # The one answer to "can the wire delay, reorder or lose this
        # copy": the chaos injector is installed, or the link model is on
        # and the route leaves the node. A sender whose first copy can be
        # lost waits its reply cookie, or the loss is never seen. With
        # neither, the wire can only deliver.
        self.at_risk = at_risk = world.chaos is not None or link_mode
        self.rerolls_injector = rerolls_injector
        self.payload = None
        self.seal = None
        self.fate = None if at_risk else _CLEAN
        self.retries = 0

    # ------------------------------------------------ the caller's hooks

    def land(self, payload) -> None:
        """What lands: the verified (or unprotected) ``payload`` reached
        the far end."""
        raise NotImplementedError

    def credit(self) -> None:
        """Who is credited: return the FIFO slot this delivery holds at
        the target, which will never service it. Default: nobody."""

    def fail(self, token, delay: float) -> bool:
        """What completes: fail the waiter with ``token`` after ``delay``.
        False when nobody can observe the failure — a loss is then the
        transport's to retransmit."""
        raise NotImplementedError

    def damaged(self, corruption):
        """The payload with ``corruption``'s bit flipped."""
        return corruption.apply(self.payload)

    def resend(self) -> None:
        """Put the next copy on the wire."""
        self.world.engine._push(RETRANSMIT_DELAY, self.attempt, None)

    def jittered(self, time: float) -> float:
        """``time`` plus the chaos injector's jitter for this pair (as is
        with no injector) — the one place a delivery's delay is drawn."""
        chaos = self.world.chaos
        return time if chaos is None else time + chaos.jitter(self.src, self.dst)

    # ------------------------------------------------------ the skeleton

    def carry(self, payload, back: bool = False) -> None:
        """Load what this delivery moves (``back``: it travels ``dst`` to
        ``src``, a get's reply), sealed with a checksum and a sequence
        number when an integrity engine is installed."""
        self.payload = payload
        integ = self.world.integrity
        if integ is not None:
            flow = (self.dst, self.src) if back else (self.src, self.dst)
            self.seal = flow + integ.protect(*flow, payload)

    def gone(self, rank: int) -> bool:
        """Whether ``rank`` (one of the two peers) died, or died and
        respawned, since the post."""
        world = self.world
        inc = self.initiator_inc if rank == self.initiator else self.target_inc
        return rank in world.failed_ranks or world.incarnations[rank] != inc

    @property
    def budget(self) -> int:
        """Retransmits this delivery may spend (the one budget rule): the
        integrity config's own, but never below :data:`RETRANSMIT_BUDGET`
        under chaos; :data:`RETRANSMIT_BUDGET` with no integrity engine."""
        world = self.world
        integ = world.integrity
        if integ is None:
            return RETRANSMIT_BUDGET
        own = integ.config.max_retransmits
        return own if world.chaos is None else max(own, RETRANSMIT_BUDGET)

    def roll(self):
        """Decide the fate ``(fault, corruption, detect)`` of the next
        copy and keep it for :meth:`attempt`.

        ``fault`` is a :class:`~repro.pami.faults.TransientFault` when the
        copy is lost in transit, ``corruption`` a
        :class:`~repro.pami.faults.PayloadCorruption` when it arrives
        with a flipped bit, both ``None`` when it arrives clean; ``detect``
        is how long the initiator NIC takes to report a loss. The chaos
        injector rolls on the first copy (on every copy with
        ``rerolls_injector``); a copy it left alone asks the links of its
        current route (``link_mode``). Bounded loss: the copy sent with
        the budget spent goes out clean unless no route is left at all.
        """
        world = self.world
        src, dst = self.src, self.dst
        retries = self.retries
        fault = corruption = None
        if retries and retries >= self.budget:
            if world.network.route_blocked(src, dst):
                fault = _flt.TransientFault(GIVEN_UP, src, dst)
        else:
            chaos = world.chaos
            if chaos is not None and (retries == 0 or self.rerolls_injector):
                outcome = chaos.transfer_fault(src, dst, self.kind)
                if isinstance(outcome, _flt.PayloadCorruption):
                    corruption = outcome
                else:
                    fault = outcome
            if fault is None and corruption is None and self.link_mode:
                wire = world.network.wire_fate(src, dst, self.kind)
                if wire is not None:
                    if wire[0] == "dropped":
                        fault = _flt.TransientFault(_flt.LINK_DEAD, src, dst)
                    else:
                        corruption = wire[1]
        self.fate = fate = (fault, corruption, _flt.FAULT_DETECT_DELAY)
        return fate

    def attempt(self, _arg=None) -> None:
        """One copy — the first, or a retransmit — reaches the far end."""
        world = self.world
        failed = world.failed_ranks
        incarnations = world.incarnations
        initiator = self.initiator
        if initiator in failed or incarnations[initiator] != self.initiator_inc:
            # Its state was rolled back (or nobody waits): landing this,
            # or servicing it, could double-apply replayed effects.
            world.trace.incr("pami.stale_deliveries_dropped")
            self._return_credit()
            return
        target = self.target
        respawned = incarnations[target] != self.target_inc
        if respawned or target in failed:
            if respawned:
                # Addressed to a dead incarnation: the fresh one has
                # none of the memory or queues this was meant for.
                world.trace.incr("pami.stale_deliveries_dropped")
            self.fail(_flt.Failure(target), _flt.FAULT_DETECT_DELAY)
            self._return_credit()
            return
        fault, corruption, detect = self.fate or self.roll()
        self.fate = None
        if fault is not None:
            # The first copy's loss is the initiator's to see (and the
            # ARMCI retry layer's to re-issue); a loss nobody can
            # observe, and any retransmit's, is the transport's.
            if self.retries == 0 and self.fail(fault, detect):
                self._return_credit()
            else:
                self.retransmit(fault)
            return
        payload = self.payload
        flipped = corruption is not None and payload is not None
        if flipped:
            payload = self.damaged(corruption)
        seal = self.seal
        if seal is not None:
            verdict = world.integrity.verify(*seal, payload)
            if verdict == "corrupt":
                self.retransmit()
                return
            if verdict == "duplicate":
                self._return_credit()
                return
        elif flipped:
            # No integrity layer: the damaged copy lands silently.
            world.trace.incr("pami.silent_corruptions")
        self.land(payload)

    def retransmit(self, lost=None) -> None:
        """A copy was ``lost`` unseen, or failed verification: resend it
        while the budget lasts, then give the delivery up."""
        world = self.world
        if self.retries >= self.budget:
            world.trace.incr("armci.integrity.aborted")
            self.fail(
                _flt.TransientFault(GIVEN_UP, self.src, self.dst),
                _flt.FAULT_DETECT_DELAY,
            )
            self._return_credit()
            return
        self.retries += 1
        if lost is not None:
            world.trace.incr(
                "net.retransmits"
                if lost.reason == _flt.LINK_DEAD
                else "chaos.retransmits"
            )
        if self.seal is not None:
            payload = self.payload
            world.integrity.count_retransmit(
                0 if payload is None else len(bytes(payload))
            )
        self.resend()

    def _return_credit(self) -> None:
        # The slot belongs to the incarnation it was acquired against: a
        # respawned target's fresh contexts carry fresh credits.
        if self.world.incarnations[self.target] == self.target_inc:
            self.credit()
