"""Pairwise message-ordering checker.

PAMI guarantees ordering between a pair of processes for ordinary messages
(deterministic dimension-order routing), but **not** for AMOs
(Section III-A.4). ARMCI's location-consistency bookkeeping relies on the
ordered part, so the simulation *asserts* it: every ordered delivery is
checked to be monotone per (source, destination) pair. A violation is a
model bug and fails loudly.
"""

from __future__ import annotations

from ..errors import PamiError


class OrderingChecker:
    """Asserts per-(src, dst) monotone delivery of ordered traffic."""

    def __init__(self) -> None:
        #: ``src << 32 | dst`` -> last delivery time (an int key is half
        #: the bytes of a pair tuple, and there is one per pair in use).
        self._last: dict[int, float] = {}
        self.checked = 0

    def record(self, src: int, dst: int, deliver_time: float) -> None:
        """Record an ordered delivery; raise if it would reorder the pair.

        Raises
        ------
        PamiError
            If this delivery precedes an earlier one for the same pair.
        """
        key = src << 32 | dst
        last = self._last.get(key)
        if last is not None and deliver_time < last:
            raise PamiError(
                f"pairwise ordering violated for {src}->{dst}: delivery at "
                f"{deliver_time} before earlier delivery at {last}"
            )
        self._last[key] = deliver_time
        self.checked += 1
