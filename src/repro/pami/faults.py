"""Fault injection and detection (fault-tolerance extension).

The paper motivates PGAS models partly by resiliency (Section I, citing
the authors' fault-tolerant communication runtime). This extension lets
tests and benchmarks *fail* a simulated process:

- the failed rank's progress stops (its contexts are never advanced
  again; queued and future work is dropped);
- one-sided operations targeting it complete **with a failure token**
  after a detection delay (modeling NIC timeout/error completion), which
  the ARMCI layer surfaces as :class:`~repro.errors.ProcessFailedError`
  at the initiator — the semantics a fault-tolerant runtime needs:
  remote failure must not hang healthy processes' one-sided traffic.

Three token kinds flow through completion-event values and wire fates:

- :class:`Failure` — fail-stop: the target process is dead. Surfaced as
  :class:`~repro.errors.ProcessFailedError`; not retryable.
- :class:`TransientFault` — the request was lost in transit (chaos
  injection, :mod:`repro.chaos`) but the target lives. Surfaced as
  :class:`~repro.errors.TransientFaultError`; the ARMCI retry layer
  re-issues such operations with exponential backoff.
- :class:`PayloadCorruption` — the transfer arrives with one bit flipped
  (chaos payload mode, a corrupting link); it lands silently unless the
  integrity layer (:mod:`repro.pami.integrity`) rejects it.

Collectives involving a failed rank no longer hang: the ARMCI layer's
epoch-based liveness detection (:mod:`repro.armci.collectives`) fails
the survivors' barrier events with :class:`Failure` after the detection
delay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ProcessFailedError, TransientFaultError
from ..sim.event import Event


@dataclass(frozen=True)
class Failure:
    """Fail-stop token delivered through a completion event's value."""

    dead_rank: int

    def to_exception(self, op: str | None = None) -> ProcessFailedError:
        what = op if op is not None else "one-sided operation"
        return ProcessFailedError(
            f"{what} targeted failed rank {self.dead_rank}",
            rank=self.dead_rank,
            op=op,
        )


@dataclass(frozen=True)
class TransientFault:
    """Transient-loss token: the request from ``src`` to ``dst`` was
    dropped or checksum-rejected before taking effect. Retry-safe."""

    reason: str
    src: int
    dst: int

    def to_exception(self) -> TransientFaultError:
        return TransientFaultError(
            f"request {self.src}->{self.dst} {self.reason} in transit "
            "(transient; safe to retry)"
        )


def corrupt_int(value: int, bit: int) -> int:
    """Flip one bit of a 64-bit operand (AMO requests carry ints, not
    buffers). Bit 63 is excluded so the result stays in i64 range for
    the target's signed view."""
    return value ^ (1 << (bit % 63))


@dataclass(frozen=True)
class PayloadCorruption:
    """A silent in-flight corruption: which bit flips, on which transfer.

    Produced by the chaos engine (``corrupt_mode="payload"``) or by a
    corrupting link (:class:`~repro.topology.links.LinkState`); consumed
    at delivery, where :meth:`apply` materializes the damaged copy. With
    integrity off the damage lands silently — the bug the integrity
    layer exists to catch.
    """

    src: int
    dst: int
    pos_frac: float
    bit: int

    def apply(self, payload):
        """A private copy of ``payload`` with the bit flipped.

        ``pos_frac`` in [0, 1) selects the byte (scaled by length, so one
        roll works for any payload size); ``bit`` the bit within it.
        ``None`` and empty payloads come back unchanged (nothing to
        flip). ndarray payloads stay ndarrays; bytes-like become ``bytes``.
        """
        if payload is None:
            return None
        n = len(payload)
        if n == 0:
            return payload
        pos = min(int(self.pos_frac * n), n - 1)
        mask = 1 << (self.bit % 8)
        if isinstance(payload, np.ndarray):
            out = payload.copy()
            flat = out.view(np.uint8).reshape(-1)
            flat[pos] ^= mask
            return out
        out = bytearray(payload)
        out[pos] ^= mask
        return bytes(out)


#: Extra delay before the initiator's NIC reports a failed target
#: (timeout/error-completion path; much slower than success).
FAULT_DETECT_DELAY = 25e-6


#: ``TransientFault.reason`` of a loss on a dead/lossy link (as opposed
#: to the chaos injector's "dropped"/"corrupted").
LINK_DEAD = "link_dead"


def check_completion(value, op: str | None = None):
    """Raise if a completion value carries a failure token; else pass it
    through. Used by every ARMCI wait path. ``op`` names the originating
    operation kind so the raised exception carries structured routing
    attributes (see :class:`~repro.errors.ProcessFailedError`)."""
    if value is None:
        return None  # a clean completion, the per-operation case
    if isinstance(value, Failure):
        raise value.to_exception(op)
    if isinstance(value, TransientFault):
        raise value.to_exception()
    return value


#: Header keys that carry reply cookies (events the initiator waits on).
REPLY_KEYS = ("event", "ack", "grant", "reply")


def fail_reply_cookies(world, envelope, token, delay=FAULT_DETECT_DELAY) -> int:
    """Fail every reply cookie of a lost active message with ``token``.

    Every header the runtime builds is flat: its cookies sit under
    :data:`REPLY_KEYS` and reply through its ``reply_ctx``. Each fires
    with ``token`` after ``delay``, so waiting healthy processes raise
    instead of hanging. Returns the number of cookies failed — 0 means
    the message was fire-and-forget and loss must be handled by the
    transport (retransmit) instead.
    """
    header = envelope.header
    reply_ctx = header.get("reply_ctx")
    failed = 0
    for key in REPLY_KEYS:
        cookie = header.get(key)
        if isinstance(cookie, Event) and reply_ctx is not None and not cookie.triggered:
            reply_ctx.complete_after(delay, cookie, token)
            failed += 1
    return failed


def fail_am_replies(world, envelope, dead_rank: int) -> None:
    """Fail every reply cookie of an active message lost to a dead rank."""
    fail_reply_cookies(world, envelope, Failure(dead_rank))
