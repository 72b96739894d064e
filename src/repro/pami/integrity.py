"""End-to-end payload integrity: checksums and sequence numbers.

Corruption itself is a wire fate
(:class:`~repro.pami.faults.PayloadCorruption`: one bit flipped in a
private copy of the in-flight payload). This module is the defense: a
default-off integrity layer that tags every protected transfer with a
CRC32 checksum and a per-(src, dst) sequence number, verifies both at
delivery, and lets the transport retransmit corrupted transfers
transparently (over the rerouted path when the health monitor has marked
the offending link suspect). This mirrors BG/Q's link-level CRC +
retransmission (Chen et al., IEEE Micro 2012) lifted to the end-to-end
layer, where an fault-injection harness can actually exercise it.

Nothing here *runs* on the default path: chaos payload mode, the
link-fault model, and :class:`IntegrityEngine` construction are the only
producers of corruptions and checksums, all gated behind default-off
knobs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import ReproError


class IntegrityError(ReproError):
    """Invalid integrity configuration."""


def checksum(payload) -> int:
    """CRC32 of a payload (ndarray, bytes-like, or None)."""
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        data = np.ascontiguousarray(payload).view(np.uint8)
        return zlib.crc32(data)
    return zlib.crc32(bytes(payload))


@dataclass(frozen=True)
class IntegrityConfig:
    """End-to-end integrity knobs (``ArmciConfig.integrity``).

    Parameters
    ----------
    max_retransmits:
        Transport retransmit budget per corrupted transfer. Exhaustion
        surfaces a :class:`~repro.pami.faults.TransientFault` to the
        initiator (the ARMCI retry layer takes over from there).
    """

    max_retransmits: int = 8

    def __post_init__(self) -> None:
        if self.max_retransmits < 0:
            raise IntegrityError(
                f"max_retransmits must be >= 0, got {self.max_retransmits}"
            )


class IntegrityEngine:
    """Per-job checksum/sequence state for protected transfers.

    ``protect`` tags an outgoing transfer; ``verify`` checks it at
    delivery. Sequence numbers are per (src, dst) flow and detect
    duplicate deliveries of retransmitted transfers (the first accepted
    copy wins; replays are discarded). All counters live under
    ``armci.integrity.*``.
    """

    __slots__ = ("config", "trace", "obs", "_next_seq", "_delivered")

    def __init__(self, config: IntegrityConfig, trace, obs=None) -> None:
        self.config = config
        self.trace = trace
        self.obs = obs
        self._next_seq: dict[tuple[int, int], int] = {}
        # Per-flow accepted-seq window: (high-water contiguous, sparse set
        # above it) — bounded even for long-lived flows.
        self._delivered: dict[tuple[int, int], tuple[int, set[int]]] = {}

    def protect(self, src: int, dst: int, payload) -> tuple[int, int]:
        """Tag one outgoing transfer; returns ``(seq, checksum)``."""
        flow = (src, dst)
        seq = self._next_seq.get(flow, 0)
        self._next_seq[flow] = seq + 1
        self.trace.incr("armci.integrity.protected")
        return seq, checksum(payload)

    def verify(self, src: int, dst: int, seq: int, csum: int, payload) -> str:
        """Check one delivery: ``"ok"``, ``"corrupt"``, or ``"duplicate"``.

        ``"corrupt"`` deliveries must be discarded by the caller (and
        retransmitted); ``"duplicate"`` means an earlier copy of the same
        sequence number already landed.
        """
        if checksum(payload) != csum:
            self.trace.incr("armci.integrity.checksum_failures")
            return "corrupt"
        flow = (src, dst)
        floor, above = self._delivered.get(flow, (-1, set()))
        if seq <= floor or seq in above:
            self.trace.incr("armci.integrity.duplicates_discarded")
            return "duplicate"
        above.add(seq)
        while floor + 1 in above:
            floor += 1
            above.discard(floor)
        self._delivered[flow] = (floor, above)
        self.trace.incr("armci.integrity.verified")
        return "ok"

    def count_retransmit(self, nbytes: int) -> None:
        """Account one transport retransmit of a protected transfer."""
        self.trace.incr("armci.integrity.retransmits")
        self.trace.incr("armci.integrity.retransmit_bytes", nbytes)
