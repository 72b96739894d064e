"""Chaos injection: transient transport faults for resilience testing.

The seed models only fail-stop ranks (:mod:`repro.pami.faults`). Real
networks also exhibit *transient* faults — dropped packets, checksum
rejects, duplicated deliveries, latency spikes — that a production PGAS
runtime must absorb with retries rather than surface as process death
(the resiliency motivation of Section I; cf. the timeout/error-completion
protocols of scalable MPI-3 RMA implementations).

This module is the one owner of fault injection:

- :class:`ChaosConfig` — seeded probabilities for drop / corruption /
  duplication / jitter, optionally restricted to chosen links.
- :class:`FaultPlan` — scheduled fail-stop crashes, resource faults and
  link faults, composing with the transient model; :func:`check_plan`,
  :func:`schedule_plan`, :func:`apply_resource_fault` and
  :func:`apply_link_fault` are what a planned fault does to a job.
- :class:`ChaosEngine` — the runtime object the PAMI layer consults at
  each transfer. It is only constructed when injection is enabled, so
  the fast path pays exactly one ``world.chaos is None`` check.

Fault semantics (what the ARMCI retry layer relies on):

- Faults are injected at **request delivery, before any target-side
  effect** (remote write, AM handler, AMO application). A retried
  operation therefore applies **exactly once** — the lost attempt never
  touched the target. Corruption is modeled as a checksum reject at the
  receiving NIC: the packet is discarded, never written.
- Reply/ack control packets ride the NIC-reliable path and are not
  chaos-exposed; only the forward request path rolls the dice.
- Duplicated deliveries are discarded by sequence-number dedup at the
  target (they cost handler time but have no semantic effect).
- Jitter on ordered traffic is clamped per (src, dst) pair so delivery
  order on a deterministic route stays monotone (head-of-line blocking,
  :mod:`repro.pami.ordering`); AMOs and gets are unordered and take
  unclamped jitter.
- Active messages with no reply cookie (group and tag-matched sends)
  cannot report loss to their initiator, so the transport retransmits
  them (:class:`~repro.pami.delivery.Delivery`, re-rolling the dice up
  to its budget); the final attempt always
  delivers (bounded-loss transport, so a ``drop_prob`` of 1.0 cannot
  livelock the simulation).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .errors import ArmciError, ReproError
from .pami.context import PamiContext, WorkItem
from .pami.faults import PayloadCorruption, TransientFault

#: Valid resource-fault kinds for :class:`ResourceFault`.
RESOURCE_FAULT_KINDS = ("exhaust_memregions", "stall_progress", "saturate_fifo")

#: Valid corruption models for :attr:`ChaosConfig.corrupt_mode`.
CORRUPT_MODES = ("detected", "payload")

#: Valid link-fault kinds for :class:`LinkFault`.
LINK_FAULT_KINDS = ("kill", "revive", "degrade", "lossy", "corrupt")


class ChaosError(ReproError):
    """Invalid chaos configuration or fault plan."""


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ChaosError(f"{name} must be in [0, 1], got {value}")


def _check_coord(name: str, coord) -> None:
    if not isinstance(coord, tuple) or not all(
        isinstance(c, int) and c >= 0 for c in coord
    ):
        raise ChaosError(f"{name} must be a node coordinate tuple, got {coord!r}")


@dataclass(frozen=True)
class LinkFault:
    """One scheduled link fault on the torus link ``(a, b)`` at time ``at``.

    Kinds
    -----
    ``kill``
        The link dies: every transfer routed across it is lost until a
        ``revive`` (fault-aware routing detours around it meanwhile).
    ``revive``
        The link comes back healthy (clears degradation/loss modes too).
    ``degrade``
        Per-hop latency across the link is multiplied by ``factor``.
    ``lossy``
        Transfers crossing the link are dropped with probability ``prob``.
    ``corrupt``
        Transfers crossing the link get one payload bit flipped with
        probability ``prob`` — *silently*, unless end-to-end integrity
        (``ArmciConfig.integrity``) catches it.
    """

    kind: str
    a: tuple[int, ...]
    b: tuple[int, ...]
    at: float
    factor: float = 1.0
    prob: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in LINK_FAULT_KINDS:
            raise ChaosError(
                f"unknown link fault {self.kind!r}; valid: {LINK_FAULT_KINDS}"
            )
        _check_coord("link endpoint a", self.a)
        _check_coord("link endpoint b", self.b)
        if self.at < 0.0:
            raise ChaosError(f"fault time must be >= 0, got {self.at}")
        if self.kind == "degrade" and self.factor < 1.0:
            raise ChaosError(
                f"degrade factor must be >= 1, got {self.factor}"
            )
        if self.kind in ("lossy", "corrupt"):
            _check_prob(f"{self.kind} prob", self.prob)


@dataclass(frozen=True)
class ChaosConfig:
    """Transient-fault injection knobs (all probabilities per transfer).

    ``drop_prob`` and ``corrupt_prob`` are mutually exclusive outcomes of
    one roll (their sum must stay <= 1); both discard the request before
    it takes effect, differing only in the reported reason.
    """

    #: RNG seed: identical configs replay identical fault sequences.
    seed: int = 0
    #: Probability a request is silently lost in the network.
    drop_prob: float = 0.0
    #: Probability a request is checksum-rejected at the receiving NIC.
    corrupt_prob: float = 0.0
    #: Probability a delivered message is delivered twice (the duplicate
    #: is discarded by sequence-number dedup, costing handler time).
    dup_prob: float = 0.0
    #: Probability a transfer takes extra latency.
    jitter_prob: float = 0.0
    #: Maximum extra latency per jittered transfer (uniform in [0, max]).
    jitter_max: float = 0.0
    #: Restrict injection to these (src, dst) links; None = every link.
    links: frozenset[tuple[int, int]] | None = None
    #: Corruption model. ``"detected"`` (the legacy seed behaviour): the
    #: receiving NIC's checksum rejects the packet, so corruption is just
    #: a loss with a different reason. ``"payload"``: the corruption is
    #: *silent* — one payload bit flips in flight and the damaged data
    #: lands, unless ``ArmciConfig.integrity`` verification catches it.
    corrupt_mode: str = "detected"

    def __post_init__(self) -> None:
        if self.corrupt_mode not in CORRUPT_MODES:
            raise ChaosError(
                f"unknown corrupt_mode {self.corrupt_mode!r}; "
                f"valid: {CORRUPT_MODES}"
            )
        _check_prob("drop_prob", self.drop_prob)
        _check_prob("corrupt_prob", self.corrupt_prob)
        _check_prob("dup_prob", self.dup_prob)
        _check_prob("jitter_prob", self.jitter_prob)
        if self.drop_prob + self.corrupt_prob > 1.0:
            raise ChaosError(
                "drop_prob + corrupt_prob must not exceed 1, got "
                f"{self.drop_prob} + {self.corrupt_prob}"
            )
        if self.jitter_max < 0.0:
            raise ChaosError(f"jitter_max must be >= 0, got {self.jitter_max}")
        if self.links is not None:
            for pair in self.links:
                if (
                    not isinstance(pair, tuple)
                    or len(pair) != 2
                    or not all(isinstance(r, int) and r >= 0 for r in pair)
                ):
                    raise ChaosError(f"links entries must be (src, dst), got {pair!r}")

    @property
    def enabled(self) -> bool:
        """Whether any injection can actually occur."""
        return (
            self.drop_prob > 0.0
            or self.corrupt_prob > 0.0
            or self.dup_prob > 0.0
            or (self.jitter_prob > 0.0 and self.jitter_max > 0.0)
        )

    @classmethod
    def light(cls, seed: int = 0) -> "ChaosConfig":
        """Mild preset (low drop/dup/jitter): enough injection to shake
        retry and ordering paths without drowning a run in retransmits.
        Used by the verification fuzz targets."""
        return cls(
            seed=seed,
            drop_prob=0.02,
            dup_prob=0.02,
            jitter_prob=0.1,
            jitter_max=2e-6,
        )


@dataclass(frozen=True)
class RankCrash:
    """One scheduled fail-stop crash: ``rank`` dies at simulated ``at``."""

    rank: int
    at: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ChaosError(f"crash rank must be >= 0, got {self.rank}")
        if self.at < 0.0:
            raise ChaosError(f"crash time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class ResourceFault:
    """One scheduled *resource* fault (non-fatal; the rank stays alive).

    Kinds
    -----
    ``exhaust_memregions``
        Clamp ``rank``'s memory-region budget to what is currently in
        use; later registrations fail and transfers degrade to the
        active-message fall-back (Eqs. 7–8).
    ``stall_progress``
        Wedge ``rank``'s asynchronous progress thread (it stops
        servicing its context). Liveness then depends on the progress
        watchdog failing over, or on deadlines surfacing the stall.
    ``saturate_fifo``
        Burst ``amount`` junk work items into ``rank``'s progress-context
        FIFO, consuming flow-control credits; senders targeting the rank
        hit backpressure until the burst drains.
    """

    kind: str
    rank: int
    at: float
    amount: int = 0

    def __post_init__(self) -> None:
        if self.kind not in RESOURCE_FAULT_KINDS:
            raise ChaosError(
                f"unknown resource fault {self.kind!r}; "
                f"valid: {RESOURCE_FAULT_KINDS}"
            )
        if self.rank < 0:
            raise ChaosError(f"fault rank must be >= 0, got {self.rank}")
        if self.at < 0.0:
            raise ChaosError(f"fault time must be >= 0, got {self.at}")
        if self.kind == "saturate_fifo" and self.amount < 1:
            raise ChaosError(
                f"saturate_fifo needs amount >= 1, got {self.amount}"
            )


class FifoNoiseItem(WorkItem):
    """Junk work injected by ``saturate_fifo``.

    Occupies one FIFO slot (credit) until serviced and costs one handler
    dispatch, with no semantic effect — modelling a burst of unexpected
    traffic (e.g. an all-to-one incast) saturating the reception FIFO.
    """

    credited = True

    def cost(self, ctx: PamiContext) -> float:
        return ctx.params.am_handler_time

    def execute(self, ctx: PamiContext) -> None:
        ctx.trace.incr("chaos.noise_serviced")


@dataclass
class FaultPlan:
    """A schedule of fail-stop crashes and resource faults.

    Chainable: ``FaultPlan().crash(2, at=1e-3).saturate_fifo(0, at=2e-3,
    amount=64).stall_progress(1, at=3e-3)``.
    """

    crashes: list[RankCrash] = field(default_factory=list)
    resource_faults: list[ResourceFault] = field(default_factory=list)
    link_faults: list[LinkFault] = field(default_factory=list)

    def crash(self, rank: int, at: float) -> "FaultPlan":
        """Schedule ``rank`` to fail at simulated time ``at``."""
        self.crashes.append(RankCrash(rank, at))
        return self

    def exhaust_memregions(self, rank: int, at: float) -> "FaultPlan":
        """Exhaust ``rank``'s memory-region budget at time ``at``."""
        self.resource_faults.append(
            ResourceFault("exhaust_memregions", rank, at)
        )
        return self

    def stall_progress(self, rank: int, at: float) -> "FaultPlan":
        """Wedge ``rank``'s async progress thread at time ``at``."""
        self.resource_faults.append(ResourceFault("stall_progress", rank, at))
        return self

    def saturate_fifo(self, rank: int, at: float, amount: int = 32) -> "FaultPlan":
        """Burst ``amount`` junk items into ``rank``'s FIFO at time ``at``."""
        self.resource_faults.append(
            ResourceFault("saturate_fifo", rank, at, amount)
        )
        return self

    def kill_link(self, a, b, at: float) -> "FaultPlan":
        """Kill the torus link ``(a, b)`` at time ``at``."""
        self.link_faults.append(LinkFault("kill", tuple(a), tuple(b), at))
        return self

    def revive_link(self, a, b, at: float) -> "FaultPlan":
        """Revive the torus link ``(a, b)`` at time ``at``."""
        self.link_faults.append(LinkFault("revive", tuple(a), tuple(b), at))
        return self

    def degrade_link(self, a, b, at: float, factor: float) -> "FaultPlan":
        """Multiply the link's per-hop latency by ``factor`` at time ``at``."""
        self.link_faults.append(
            LinkFault("degrade", tuple(a), tuple(b), at, factor=factor)
        )
        return self

    def lossy_link(self, a, b, at: float, prob: float) -> "FaultPlan":
        """Make the link drop crossing transfers w.p. ``prob`` at ``at``."""
        self.link_faults.append(
            LinkFault("lossy", tuple(a), tuple(b), at, prob=prob)
        )
        return self

    def corrupt_link(self, a, b, at: float, prob: float) -> "FaultPlan":
        """Make the link silently flip payload bits w.p. ``prob`` at ``at``."""
        self.link_faults.append(
            LinkFault("corrupt", tuple(a), tuple(b), at, prob=prob)
        )
        return self


def check_plan(plan: FaultPlan, world) -> None:
    """Reject a plan naming a rank or a link ``world`` lacks — at job
    construction, not mid-run. Link faults switch the network into
    link-fault mode now, so routing is fault-aware from t=0."""
    for fault in (*plan.crashes, *plan.resource_faults):
        if not 0 <= fault.rank < world.num_procs:
            raise ArmciError(
                f"fault plan targets rank {fault.rank}, job has "
                f"{world.num_procs} processes"
            )
    if plan.link_faults:
        link_state = world.enable_link_faults()
        for lf in plan.link_faults:
            link_state.key(lf.a, lf.b)


def schedule_plan(plan: FaultPlan, job) -> None:
    """Queue every fault of ``plan``: its times count from now, the start
    of ``job.run()`` (application time)."""
    schedule = job.engine.schedule
    for crash in plan.crashes:
        schedule(crash.at, job.world.fail_rank, crash.rank)
    for fault in plan.resource_faults:
        schedule(fault.at, partial(apply_resource_fault, job), fault)
    for lf in plan.link_faults:
        schedule(lf.at, partial(apply_link_fault, job.world), lf)


def apply_resource_fault(job, fault: ResourceFault) -> None:
    """Inject one resource fault into ``job`` now.

    Non-fatal: the rank stays alive but loses a resource — its
    registration budget, its async progress thread, or its FIFO
    headroom — exercising the degradation paths (AM fall-back,
    watchdog failover, sender backpressure).
    """
    if job.world.is_failed(fault.rank):
        return
    rt, trace = job.processes[fault.rank], job.trace
    if fault.kind == "exhaust_memregions":
        budget = job.world.regions[fault.rank].exhaust()
        trace.incr("chaos.memregion_exhaustions")
        trace.incr("chaos.memregion_budget_clamped", budget)
    elif fault.kind == "stall_progress":
        if rt.async_thread is not None and not rt.async_thread.done.triggered:
            rt.async_thread.kill()
            trace.incr("chaos.progress_stalls")
    else:  # saturate_fifo
        ctx = rt.client.progress_context()
        # The burst occupies FIFO slots even past capacity (the NIC
        # already accepted the packets); senders see no room until
        # the noise drains.
        ctx.reserve_credits(fault.amount)
        for _ in range(fault.amount):
            ctx.post(FifoNoiseItem())
        trace.incr("chaos.fifo_saturations")
        trace.incr("chaos.fifo_noise_injected", fault.amount)


def apply_link_fault(world, fault: LinkFault) -> None:
    """Apply one link fault to ``world``'s ground-truth link state now."""
    links, a, b, trace = world.enable_link_faults(), fault.a, fault.b, world.trace
    if fault.kind == "kill":
        links.kill(a, b)
        trace.incr("chaos.link_kills")
    elif fault.kind == "revive":
        link = links.revive(a, b)
        trace.incr("chaos.link_revives")
        if world.network.health is not None:
            world.network.health.note_link_revived(link)
    elif fault.kind == "degrade":
        links.degrade(a, b, fault.factor)
        trace.incr("chaos.link_degrades")
    elif fault.kind == "lossy":
        links.set_lossy(a, b, fault.prob)
        trace.incr("chaos.links_made_lossy")
    else:  # corrupt
        links.set_corrupting(a, b, fault.prob)
        trace.incr("chaos.links_made_corrupting")


class ChaosEngine:
    """Runtime dice-roller consulted by the PAMI transfer paths.

    Constructed by :class:`~repro.pami.world.PamiWorld` only when the
    config is enabled; every injection site guards with a single
    ``world.chaos is None`` check, so disabled runs pay no RNG calls.
    """

    __slots__ = ("config", "trace", "_rng")

    def __init__(self, config: ChaosConfig, trace) -> None:
        self.config = config
        self.trace = trace
        self._rng = random.Random(config.seed)

    def _applies(self, src: int, dst: int) -> bool:
        links = self.config.links
        return links is None or (src, dst) in links

    def transfer_fault(self, src: int, dst: int, kind: str):
        """Roll drop/corruption for one request; None = delivered clean.

        Returns a :class:`~repro.pami.faults.TransientFault` for a loss
        (or a detected corruption), a
        :class:`~repro.pami.faults.PayloadCorruption` for a silent
        payload corruption (``corrupt_mode="payload"``), or None.
        """
        if not self._applies(src, dst):
            return None
        cfg = self.config
        roll = self._rng.random()
        if roll < cfg.drop_prob:
            self.trace.incr("chaos.drops")
            self.trace.incr(f"chaos.drops.{kind}")
            return TransientFault("dropped", src, dst)
        if roll < cfg.drop_prob + cfg.corrupt_prob:
            self.trace.incr("chaos.corruptions")
            self.trace.incr(f"chaos.corruptions.{kind}")
            if cfg.corrupt_mode == "payload":
                # Extra RNG draws happen only in payload mode, so the
                # legacy "detected" fault sequences replay unchanged.
                return PayloadCorruption(
                    src, dst, self._rng.random(), self._rng.randrange(8)
                )
            return TransientFault("corrupted", src, dst)
        return None

    def duplicate(self, src: int, dst: int) -> bool:
        """Whether a delivered message is delivered a second time."""
        if not self._applies(src, dst) or self.config.dup_prob <= 0.0:
            return False
        if self._rng.random() < self.config.dup_prob:
            self.trace.incr("chaos.duplicates")
            return True
        return False

    def jitter(self, src: int, dst: int) -> float:
        """Extra latency for one ``src`` -> ``dst`` transfer (0.0 = none);
        ordered traffic clamps it per pair (:mod:`repro.pami.ordering`)."""
        cfg = self.config
        if (
            not self._applies(src, dst)
            or cfg.jitter_prob <= 0.0
            or cfg.jitter_max <= 0.0
        ):
            return 0.0
        if self._rng.random() < cfg.jitter_prob:
            self.trace.incr("chaos.jittered")
            return self._rng.random() * cfg.jitter_max
        return 0.0
