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

Two token kinds flow through completion-event values:

- :class:`Failure` — fail-stop: the target process is dead. Surfaced as
  :class:`~repro.errors.ProcessFailedError`; not retryable.
- :class:`TransientFault` — the request was lost in transit (chaos
  injection, :mod:`repro.chaos`) but the target lives. Surfaced as
  :class:`~repro.errors.TransientFaultError`; the ARMCI retry layer
  re-issues such operations with exponential backoff.

Collectives involving a failed rank no longer hang: the ARMCI layer's
epoch-based liveness detection (:mod:`repro.armci.collectives`) fails
the survivors' barrier events with :class:`Failure` after the detection
delay.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProcessFailedError, TransientFaultError
from ..sim.event import Event
from .integrity import PayloadCorruption


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


#: Extra delay before the initiator's NIC reports a failed target
#: (timeout/error-completion path; much slower than success).
FAULT_DETECT_DELAY = 25e-6


#: ``TransientFault.reason`` of a loss on a dead/lossy link (as opposed
#: to the chaos injector's "dropped"/"corrupted").
LINK_DEAD = "link_dead"


def wire_outcome(world, src: int, dst: int, kind: str, link_mode: bool, first=True):
    """What the wire does to one attempt of a ``kind`` transfer.

    Returns ``(fault, corruption, detect)``: a :class:`TransientFault`
    when the attempt is lost in transit, a
    :class:`~repro.pami.integrity.PayloadCorruption` when it arrives with
    a flipped bit, both ``None`` when it arrives clean; ``detect`` is how
    long the initiator NIC takes to report the loss (always
    :data:`FAULT_DETECT_DELAY`, as on every other failure-completion
    path). The chaos injector
    rolls on ``first`` attempts only (transport retransmits re-roll the
    links, not the injector); a transfer it left alone asks the links of
    its current route (``link_mode``: link-fault model on, inter-node).
    """
    fault = corruption = None
    chaos = world.chaos
    if first and chaos is not None:
        outcome = chaos.transfer_fault(src, dst, kind)
        if isinstance(outcome, PayloadCorruption):
            corruption = outcome
        elif outcome is not None:
            fault = outcome
    if fault is None and corruption is None and link_mode:
        wire = world.network.wire_fate(src, dst, kind)
        if wire is not None:
            if wire[0] == "dropped":
                fault = TransientFault(LINK_DEAD, src, dst)
            else:
                corruption = wire[1]
    return fault, corruption, FAULT_DETECT_DELAY


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


def _collect_reply_cookies(header, reply_ctx, out) -> None:
    """Gather (reply_ctx, event) pairs from a header, recursing into
    forwarded envelopes and nested containers.

    A forwarded envelope (an AM carried inside another AM's header, as
    forwarding/redirect protocols do) may name its own ``reply_ctx``;
    cookies under it reply there, falling back to the enclosing one.
    """
    ctx = header.get("reply_ctx", reply_ctx)
    for key, value in header.items():
        if key != "reply_ctx":
            _scan_cookie_value(key, value, ctx, out)


def _scan_cookie_value(key, value, ctx, out) -> None:
    if isinstance(value, Event):
        if key in REPLY_KEYS and ctx is not None and not value.triggered:
            out.append((ctx, value))
    elif isinstance(value, dict):
        _collect_reply_cookies(value, ctx, out)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _scan_cookie_value(key, item, ctx, out)
    elif hasattr(value, "header") and hasattr(value, "dispatch_id"):
        # A forwarded AmEnvelope nested in this header.
        _collect_reply_cookies(value.header, ctx, out)


def fail_reply_cookies(world, envelope, token, delay=FAULT_DETECT_DELAY) -> int:
    """Fail every reply cookie of a lost active message with ``token``.

    Scans the envelope header recursively (cookies may sit inside
    forwarded envelopes or nested descriptors). Each cookie fires with
    ``token`` after ``delay`` through its reply context, so waiting
    healthy processes raise instead of hanging. Returns the number of
    cookies failed — 0 means the message was fire-and-forget and loss
    must be handled by the transport (retransmit) instead.
    """
    pending: list = []
    _collect_reply_cookies(envelope.header, None, pending)
    for reply_ctx, cookie in pending:
        reply_ctx.complete_after(delay, cookie, token)
    return len(pending)


def fail_am_replies(world, envelope, dead_rank: int) -> None:
    """Fail every reply cookie of an active message lost to a dead rank."""
    fail_reply_cookies(world, envelope, Failure(dead_rank))
