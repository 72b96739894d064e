"""ARMCI runtime configuration knobs.

Every design alternative evaluated in the paper is a switch here, so the
benchmarks can run the same workload under "default (D)" vs "asynchronous
thread (AT)", ``cs_tgt`` vs ``cs_mr``, RDMA vs fall-back, and the strided
protocol variants.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ArmciError
from ..obs import ObsConfig
from .consistency import is_known_tracker, known_trackers

#: Built-in consistency-tracker names (Section III-E). Additional
#: implementations may be registered via ``consistency.register_tracker``.
TRACKERS = ("cs_tgt", "cs_mr")
#: Valid strided-protocol names (Section III-C.2).
STRIDED_PROTOCOLS = ("zero_copy", "pack", "auto")
#: First retry backoff (seconds of simulated time) and its growth per attempt.
RETRY_BASE_DELAY = 2e-6
RETRY_MULTIPLIER = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry policy for transient transport faults.

    Blocking ARMCI operations that complete with a
    :class:`~repro.errors.TransientFaultError` (chaos injection,
    :mod:`repro.chaos`) are re-issued up to ``max_retries`` times,
    sleeping ``RETRY_BASE_DELAY * RETRY_MULTIPLIER**k`` (capped at
    ``max_delay``) between attempts. A spent budget raises
    :class:`~repro.errors.RetryExhaustedError`; ``max_retries=0``
    disables retries and surfaces the raw fault.
    """

    max_retries: int = 5
    max_delay: float = 1e-3

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ArmciError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.max_delay < RETRY_BASE_DELAY:
            raise ArmciError(
                f"max_delay ({self.max_delay}) must be >= RETRY_BASE_DELAY "
                f"({RETRY_BASE_DELAY})"
            )


@dataclass(frozen=True)
class ArmciConfig:
    """Configuration of one ARMCI job.

    Parameters
    ----------
    backend:
        Communication backend the job runs over: ``"pami"`` (the paper's
        Blue Gene/Q messaging layer) or ``"mpi3"`` (MPI-3 one-sided
        windows — flush completion, limited native AMOs, emulated active
        messages). ``None`` (default) resolves
        :data:`repro.transport.DEFAULT_BACKEND`, itself ``"pami"``
        unless the ``REPRO_ARMCI_BACKEND`` environment variable says
        otherwise.
    async_thread:
        ``True`` = the paper's AT design: a dedicated SMT thread per
        process advances the progress context continuously. ``False`` =
        default (D): progress happens only when the main thread blocks in
        ARMCI calls.
    num_contexts:
        PAMI contexts per process (rho). With ``async_thread`` and
        ``rho=2`` the async thread owns its own context, eliminating lock
        contention with the main thread (Section III-D).
    use_rdma:
        Enable the RDMA fast path. Disabled, every transfer takes the
        active-message fall-back (useful to measure Eq. 7 vs Eq. 8).
    consistency_tracker:
        ``"cs_mr"`` (proposed, per-memory-region) or ``"cs_tgt"`` (naive,
        per-target).
    region_cache_capacity:
        Remote memory-region cache entries per process (LFU replacement).
        ``None`` = unbounded.
    strided_protocol:
        ``"zero_copy"`` (proposed), ``"pack"`` (legacy baseline), or
        ``"auto"`` (zero-copy, switching to the PAMI typed-datatype path
        for tall-skinny chunks, with chunk-run coalescing on the strided
        and vector paths: adjacent chunks contiguous on *both* sides
        merge into a single RDMA per run, and a fully contiguous
        descriptor collapses to one op). The paper's two protocols post
        exactly one op per chunk (byte-identical Eq. 9 accounting).
    tall_skinny_threshold:
        Chunk sizes (bytes) strictly below this use the typed-datatype
        path under ``strided_protocol="auto"``.
    retry:
        :class:`RetryPolicy` applied by blocking operations to transient
        transport faults (only reachable under chaos injection).
    fifo_depth:
        Injection/reception FIFO slots per progress context. ``None`` =
        unbounded (the seed model). Bounded, every request-class active
        message consumes a flow-control credit against the target's
        progress context; senders with no credit park on a room signal
        (sender-side backpressure) instead of queueing unboundedly.
    memregion_budget:
        Per-rank memory-region registration budget (slots shared between
        local registrations and the remote-region cache). Exhaustion
        degrades contiguous/strided transfers to the active-message
        fall-back path (Eqs. 7–8); ``RegionCache`` eviction frees budget
        under pressure. ``None`` = unbounded.
    default_deadline:
        Deadline (seconds of simulated time, relative to each top-level
        blocking call; a nested wait inherits its enclosing call's).
        Expiry raises :class:`~repro.errors.DeadlineExceededError`
        instead of hanging. ``None`` = wait forever.
    watchdog_period:
        Heartbeat period of the progress watchdog (requires
        ``async_thread``). If the progress context has pending work and
        its service epoch does not advance for a full period, the async
        progress thread is declared stalled and progress duty fails over
        to a main-thread-driven loop. ``None`` = no watchdog.
    obs:
        :class:`~repro.obs.ObsConfig` observability switches. Disabled
        (the default) ``rt.span(...)`` brackets every blocking call with
        the shared no-op ``NO_SPAN`` and the wire-level sites are one
        ``obs is None`` test each; enabled, the job records causal
        spans/metrics for Perfetto export, critical-path analysis and
        the text Gantt (``util.timeline.intervals(job.obs.spans)``).
    recovery:
        :class:`~repro.recover.RecoveryConfig` crash-recovery switches
        (buddy replication, coordinated checkpoint/restore, respawn).
        ``None`` (the default) keeps every recovery code path dormant —
        paper figures are byte-identical.
    integrity:
        :class:`~repro.pami.integrity.IntegrityConfig` end-to-end payload
        integrity switches (per-transfer CRC32 + sequence numbers,
        verified at delivery, with transparent transport retransmission
        of corrupted transfers). ``None`` (the default) keeps the
        protection off — silent in-flight corruption
        (``corrupt_mode="payload"`` chaos, corrupting links) then lands.
    health:
        :class:`~repro.machine.health.LinkHealthConfig` link health
        monitoring switches. Set, the job routes on *observed* link
        state: wire losses/corruptions walk links through
        ``ok -> suspect -> dead`` with hysteresis, rerouting kicks in as
        links are declared bad, and ranks left unreachable on **all**
        paths (and only those) are escalated to the failure machinery.
        ``None`` (the default) routes on ground truth when link faults
        are injected, and not at all otherwise.
    """

    backend: str | None = None
    async_thread: bool = False
    num_contexts: int = 1
    use_rdma: bool = True
    consistency_tracker: str = "cs_mr"
    region_cache_capacity: int | None = None
    strided_protocol: str = "zero_copy"
    tall_skinny_threshold: int = 128
    retry: RetryPolicy = RetryPolicy()
    fifo_depth: int | None = None
    memregion_budget: int | None = None
    default_deadline: float | None = None
    watchdog_period: float | None = None
    obs: ObsConfig = ObsConfig()
    recovery: object | None = None
    integrity: object | None = None
    health: object | None = None

    def __post_init__(self) -> None:
        if self.backend is not None:
            from ..transport import BACKENDS

            if self.backend not in BACKENDS:
                raise ArmciError(
                    f"unknown backend {self.backend!r}; "
                    f"valid: {sorted(BACKENDS)}"
                )
        if not isinstance(self.obs, ObsConfig):
            raise ArmciError(
                f"obs must be an ObsConfig, got {type(self.obs).__name__}"
            )
        if self.recovery is not None:
            from ..recover.config import RecoveryConfig

            if not isinstance(self.recovery, RecoveryConfig):
                raise ArmciError(
                    f"recovery must be a RecoveryConfig or None, got "
                    f"{type(self.recovery).__name__}"
                )
        if self.integrity is not None:
            from ..pami.integrity import IntegrityConfig

            if not isinstance(self.integrity, IntegrityConfig):
                raise ArmciError(
                    f"integrity must be an IntegrityConfig or None, got "
                    f"{type(self.integrity).__name__}"
                )
        if self.health is not None:
            from ..machine.health import LinkHealthConfig

            if not isinstance(self.health, LinkHealthConfig):
                raise ArmciError(
                    f"health must be a LinkHealthConfig or None, got "
                    f"{type(self.health).__name__}"
                )
        if self.num_contexts < 1:
            raise ArmciError(f"need >= 1 context, got {self.num_contexts}")
        if not is_known_tracker(self.consistency_tracker):
            raise ArmciError(
                f"unknown tracker {self.consistency_tracker!r}; "
                f"valid: {known_trackers()}"
            )
        if self.strided_protocol not in STRIDED_PROTOCOLS:
            raise ArmciError(
                f"unknown strided protocol {self.strided_protocol!r}; "
                f"valid: {STRIDED_PROTOCOLS}"
            )
        if self.region_cache_capacity is not None and self.region_cache_capacity < 1:
            raise ArmciError(
                f"region cache capacity must be >= 1 or None, got "
                f"{self.region_cache_capacity}"
            )
        if self.tall_skinny_threshold < 0:
            raise ArmciError(
                f"tall_skinny_threshold must be >= 0, got "
                f"{self.tall_skinny_threshold}"
            )
        if self.fifo_depth is not None and self.fifo_depth < 1:
            raise ArmciError(
                f"fifo_depth must be >= 1 or None, got {self.fifo_depth}"
            )
        if self.memregion_budget is not None and self.memregion_budget < 1:
            raise ArmciError(
                f"memregion_budget must be >= 1 or None, got "
                f"{self.memregion_budget}"
            )
        if self.default_deadline is not None and self.default_deadline <= 0:
            raise ArmciError(
                f"default_deadline must be > 0 or None, got "
                f"{self.default_deadline}"
            )
        if self.watchdog_period is not None and self.watchdog_period <= 0:
            raise ArmciError(
                f"watchdog_period must be > 0 or None, got "
                f"{self.watchdog_period}"
            )
        if self.watchdog_period is not None and not self.async_thread:
            raise ArmciError(
                "watchdog_period requires async_thread=True (the watchdog "
                "monitors the async progress thread)"
            )

    @classmethod
    def default_mode(cls, **overrides) -> "ArmciConfig":
        """The paper's 'D' configuration (no async thread)."""
        return cls(async_thread=False, num_contexts=1, **overrides)

    @classmethod
    def async_thread_mode(cls, **overrides) -> "ArmciConfig":
        """The paper's 'AT' configuration (async thread, two contexts)."""
        return cls(async_thread=True, num_contexts=2, **overrides)
