"""Exception hierarchy for the :mod:`repro` package.

Every layer raises a subclass of :class:`ReproError` so callers can catch
package failures without masking programming errors (``TypeError`` etc.).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class SimulationError(ReproError):
    """A discrete-event simulation invariant was violated."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting."""


class TopologyError(ReproError):
    """Invalid torus geometry, coordinate, or rank mapping."""


class PamiError(ReproError):
    """A PAMI-layer precondition failed (bad endpoint, context, region...)."""


class ArmciError(ReproError):
    """An ARMCI-layer precondition failed."""


class ResourceExhaustedError(PamiError, ArmciError):
    """A resource budget (memory-region slots, FIFO credits) was exhausted.

    Subclasses both :class:`PamiError` (the budget lives in the PAMI
    layer) and :class:`ArmciError` (blocking ARMCI calls surface it), so
    existing ``except ArmciError`` handlers keep working.
    """


class DeadlineExceededError(ArmciError):
    """A blocking operation's deadline expired before it completed.

    Raised instead of hanging when a deadline (inherited from an
    enclosing operation, else ``ArmciConfig.default_deadline``) passes
    while the operation is
    still parked — waiting on a completion event, a flow-control
    credit, or a retry backoff sleep.
    """


class ConsistencyError(ArmciError):
    """A location-consistency invariant was violated."""


class VerificationError(ReproError):
    """The verification subsystem (``repro.verify``) found a defect:
    an oracle-flagged missed fence, a data race, or a schedule-dependent
    divergence a fuzz run could not shrink cleanly."""


class HandleError(ArmciError):
    """Misuse of a non-blocking request handle (double wait, reuse...)."""


class GlobalArrayError(ReproError):
    """Invalid global-array construction or patch access."""


class ProcessFailedError(ReproError):
    """A one-sided operation targeted a failed process.

    Raised at the *initiator* when fault detection completes (the
    fault-tolerance extension; cf. Vishnu et al., HiPC 2010 — the
    resiliency motivation in the paper's introduction).

    Attributes
    ----------
    rank:
        The failed rank, when the detector knows it (``None`` otherwise).
    op:
        The originating operation kind (``"put"``, ``"rmw"``,
        ``"barrier"``, ``"fence"``...) so recovery code and tests can
        route per-op compensation without parsing message text.
    """

    def __init__(
        self, message: str = "", *, rank: int | None = None, op: str | None = None
    ) -> None:
        super().__init__(message)
        self.rank = rank
        self.op = op


class RecoveryError(ReproError):
    """The crash-recovery subsystem (``repro.recover``) hit a protocol
    error it could not compensate for."""


class UnrecoverableError(RecoveryError):
    """A failure pattern the replication scheme cannot survive — e.g. a
    rank *and* its replication buddy both died inside one epoch."""


class TransientFaultError(ReproError):
    """A one-sided operation was lost to a *transient* transport fault.

    Unlike :class:`ProcessFailedError` the target is still alive: the
    NIC reported a dropped or checksum-rejected packet (chaos
    injection). The operation is safe to retry — faults are injected
    before any target-side effect, so a retried op applies exactly once.
    """


class RetryExhaustedError(TransientFaultError):
    """The retry budget for a transient fault was spent without success.

    Subclasses :class:`TransientFaultError` so callers that treat any
    transient-fault outcome uniformly can catch the base class.
    """
