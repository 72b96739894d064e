"""Link health monitoring: observed link state with hysteresis.

The fault-aware router should react to what the machine can *observe*,
not to ground truth: a link that silently dies keeps eating traffic until
enough losses accumulate. :class:`LinkHealthMonitor` aggregates per-link
loss/corruption observations from the wire (reported by
:meth:`~repro.machine.network.TorusNetwork.wire_fate`), walks each link
through ``ok -> suspect -> dead`` with hysteresis, and exposes the
*observed* picture as the routing view consulted by
:class:`~repro.topology.routing.RouteTable` — so rerouting kicks in only
once the monitor has concluded the link is bad, exactly the BG/Q control
system's behaviour of marking links down after repeated CRC/retransmit
failures (Chen et al., IEEE Micro 2012).

Observed-dead links are re-checked by heartbeat probes through the
engine. Probes are **bounded** (``PROBE_BUDGET`` per death): the
simulation engine drains its heap to completion, so an unbounded
self-rescheduling probe would never let the run finish. A link revived
by the fault plan notifies the monitor directly
(:meth:`note_link_revived`), covering links whose probe budget expired.

Escalation: when a link dies, the monitor recomputes reachability from
the anchor node over observed-healthy links. Only nodes unreachable on
**all** paths are reported to the failure machinery — a broken route or
a degraded partition is not a death sentence while any detour exists.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

#: Consecutive bad observations (losses/corruptions) before a link is
#: marked *suspect* (soft-blocked: routed around when an alternative
#: exists), and before a *suspect* link is marked *dead* (hard-blocked)
#: and escalation is evaluated.
SUSPECT_AFTER = 2
DEAD_AFTER = 4
#: Heartbeat probe interval for observed-dead links (seconds).
PROBE_PERIOD = 20e-6

#: Consecutive good observations (clean traffic on a suspect link, or
#: successful probes on a dead one) before the link returns to *ok*.
REVIVE_AFTER = 2
#: Probes per death before the monitor stops checking; a fault-plan
#: ``revive`` still recovers the link via direct notification.
PROBE_BUDGET = 16


@dataclass(frozen=True)
class LinkHealthConfig:
    """Link health monitor knobs (``ArmciConfig.health``).

    Parameters
    ----------
    escalate:
        Whether observed-dead links trigger the reachability check that
        reports fully-unreachable ranks to the failure machinery.
    """

    escalate: bool = True


class LinkHealthMonitor:
    """Observed per-link health; doubles as the routing view.

    The view contract (``epoch`` / ``hard_blocked`` / ``soft_blocked``)
    composes the monitor's own observations with the ground-truth
    epoch, so fault-plan mutations invalidate cached routes even before
    the monitor observes their effects.
    """

    def __init__(
        self,
        engine,
        torus,
        link_state,
        config: LinkHealthConfig,
        trace,
        anchor: tuple[int, ...],
    ) -> None:
        self.engine = engine
        self.torus = torus
        self.link_state = link_state
        self.config = config
        self.trace = trace
        #: Reachability anchor (rank 0's node).
        self.anchor = anchor
        #: Callback(frozenset of unreachable node coords); installed by
        #: the world to fail the ranks living there.
        self.on_unreachable = None
        self._epoch = 0
        # Link -> "suspect" | "dead" (absent = ok).
        self._state: dict = {}
        self._bad: dict = {}
        self._good: dict = {}

    # ------------------------------------------------- routing view API

    @property
    def epoch(self) -> int:
        """Observed epoch, advanced by both observation and ground truth."""
        return self._epoch + self.link_state.epoch

    def hard_blocked(self, u, v) -> bool:
        """Routing avoids links the monitor has concluded are dead."""
        return self._state.get(self.link_state.key(u, v)) == "dead"

    def soft_blocked(self, u, v) -> bool:
        """Suspect links are detoured around when an alternative exists."""
        return self._state.get(self.link_state.key(u, v)) == "suspect"

    # ----------------------------------------------------- observations

    def observe_loss(self, link) -> None:
        """One transfer died crossing ``link``."""
        self._observe_bad(link)

    def observe_corruption(self, link) -> None:
        """One transfer was corrupted crossing ``link`` (link-level CRC
        counters see this even when the end-to-end layer does not)."""
        self._observe_bad(link)

    def observe_route_ok(self, hops) -> None:
        """A transfer crossed ``hops`` (``(u, v)`` pairs) cleanly."""
        if not self._state:
            return  # every link ok: nothing to recover
        key = self.link_state.key
        for u, v in hops:
            link = key(u, v)
            if self._state.get(link) == "suspect":
                self._observe_good(link)

    def note_link_revived(self, link) -> None:
        """Ground truth revived ``link`` (fault plan): trust it."""
        self._bad.pop(link, None)
        self._good.pop(link, None)
        if self._state.pop(link, None) is not None:
            self._epoch += 1
            self.trace.incr("net.links_revived")

    # -------------------------------------------------------- internals

    def _observe_bad(self, link) -> None:
        n = self._bad.get(link, 0) + 1
        self._bad[link] = n
        self._good.pop(link, None)
        state = self._state.get(link)
        if state is None and n >= SUSPECT_AFTER:
            self._state[link] = state = "suspect"
            self._epoch += 1
            self.trace.incr("net.links_suspected")
        if state == "suspect" and n >= DEAD_AFTER:
            self._state[link] = "dead"
            self._epoch += 1
            self.trace.incr("net.links_dead")
            self._arm_probe(link, 0)
            self._escalate()

    def _observe_good(self, link) -> None:
        self._bad.pop(link, None)
        n = self._good.get(link, 0) + 1
        self._good[link] = n
        if n >= REVIVE_AFTER:
            self._good.pop(link, None)
            if self._state.pop(link, None) is not None:
                self._epoch += 1
                self.trace.incr("net.links_revived")

    def _arm_probe(self, link, attempt: int) -> None:
        if attempt >= PROBE_BUDGET:
            return
        self.engine.schedule(PROBE_PERIOD, lambda _a: self._probe(link, attempt))

    def _probe(self, link, attempt: int) -> None:
        if self._state.get(link) != "dead":
            return  # recovered by other means; stop the chain
        self.trace.incr("net.health_probes")
        if not self.link_state.is_dead_link(link):
            self._observe_good(link)
            if self._state.get(link) != "dead":
                return
        else:
            self._good.pop(link, None)
        self._arm_probe(link, attempt + 1)

    def _escalate(self) -> None:
        """Report nodes unreachable on every observed-healthy path.

        Partition != death for individual links: a node is only reported
        once **no** path from the anchor reaches it. The BFS runs over
        links not observed dead, so the check is exactly as optimistic
        as the router — a rank is never declared dead while the router
        still has a way to reach it.
        """
        if not self.config.escalate or self.on_unreachable is None:
            return
        reachable = {self.anchor}
        frontier = deque([self.anchor])
        state = self._state
        key = self.link_state.key
        while frontier:
            node = frontier.popleft()
            for nb in self.torus.neighbors(node):
                if nb in reachable or state.get(key(node, nb)) == "dead":
                    continue
                reachable.add(nb)
                frontier.append(nb)
        unreachable = frozenset(
            coord for coord in self.torus.coords() if coord not in reachable
        )
        if unreachable:
            self.on_unreachable(unreachable)
