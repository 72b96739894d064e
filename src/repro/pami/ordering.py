"""Pairwise message ordering: the one per-pair map of ordered deliveries.

PAMI guarantees ordering between a pair of processes for ordinary messages
(deterministic dimension-order routing), but **not** for AMOs
(Section III-A.4). ARMCI's location-consistency bookkeeping relies on the
ordered part, so this module alone decides when ordered traffic lands.

With chaos jitter or link-fault reroutes able to move a delivery, a late
packet head-of-line blocks the later ones on its pair: the delivery is
clamped to the pair's last one. With neither, nothing can reorder a pair,
so the same map *asserts* monotone delivery instead — a violation is a
model bug and fails loudly.
"""

from __future__ import annotations

from collections import defaultdict

from ..errors import PamiError


class OrderingChecker:
    """Per-(src, dst) monotone delivery of ordered traffic."""

    def __init__(self) -> None:
        #: ``src << 32 | dst`` -> last delivery time, 0.0 before the first
        #: (an int key is half the bytes of a pair tuple, and there is one
        #: per pair in use).
        self._last: dict[int, float] = defaultdict(float)
        self.checked = 0

    def deliver(self, delivery, deliver_time: float) -> float:
        """When ``delivery``'s ordered message, due at ``deliver_time``,
        lands, recorded as its pair's last delivery.

        A delivery the wire can perturb (``delivery.at_risk``: chaos
        jitter, or reroutes that shorten a path mid-stream) takes its
        jitter and is clamped to the pair's last delivery.

        Raises
        ------
        PamiError
            Otherwise, if this delivery precedes an earlier one for the
            same pair.
        """
        src, dst = delivery.src, delivery.dst
        key = src << 32 | dst
        last = self._last[key]
        if delivery.at_risk:
            deliver_time = delivery.jittered(deliver_time)
            if deliver_time < last:
                deliver_time = last
        elif deliver_time < last:
            raise PamiError(
                f"pairwise ordering violated for {src}->{dst}: delivery at "
                f"{deliver_time} before earlier delivery at {last}"
            )
        self._last[key] = deliver_time
        self.checked += 1
        return deliver_time
