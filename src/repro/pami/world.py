"""The simulated job: engine, network, and per-rank PAMI state."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import PamiError
from ..machine.bgq import BGQParams
from ..machine.network import TorusNetwork
from ..obs.metrics import MetricsRegistry
from ..sim.engine import Engine
from ..topology.mapping import RankMapping, abcdet_mapping
from ..topology.partitions import nodes_for_processes, partition_shape
from .client import PamiClient
from .memory import AddressSpace
from .memregion import MemoryRegionRegistry
from .ordering import OrderingChecker

if TYPE_CHECKING:  # pragma: no cover
    from ..chaos import ChaosConfig


class PamiWorld:
    """Everything one simulated PGAS job shares.

    Parameters
    ----------
    num_procs:
        Total process count ``p``.
    procs_per_node:
        Processes per node ``c`` (16 in the paper's runs).
    params:
        Machine constants; defaults to calibrated BG/Q values.
    mapping:
        Explicit rank mapping; by default the standard partition for the
        node count with ABCDET placement (the paper's configuration).
    max_regions:
        Per-process memory-region budget (None = unlimited); small budgets
        force ARMCI's fall-back protocols.
    nic_amo_support:
        If True, model a NIC with hardware fetch-and-add (the Gemini-like
        "future Blue Gene" what-if from the paper's conclusions).
    chaos:
        Optional :class:`~repro.chaos.ChaosConfig` enabling transient
        fault injection on the transport (see :mod:`repro.chaos`). When
        absent or disabled, ``self.chaos`` is None and every injection
        site short-circuits on that single check.
    """

    def __init__(
        self,
        num_procs: int,
        procs_per_node: int = 16,
        params: BGQParams | None = None,
        mapping: RankMapping | None = None,
        max_regions: int | None = None,
        nic_amo_support: bool = False,
        link_contention: bool = False,
        engine: Engine | None = None,
        chaos: "ChaosConfig | None" = None,
    ) -> None:
        if num_procs < 1:
            raise PamiError(f"need at least one process, got {num_procs}")
        self.num_procs = num_procs
        self.params = params if params is not None else BGQParams()
        self.engine = engine if engine is not None else Engine()
        #: The job's one telemetry sink: every layer of this world
        #: counts into it, and ``repro.obs`` records span durations there.
        self.trace = MetricsRegistry()
        if mapping is None:
            # Small jobs fit on fewer slots than a full node offers.
            ppn = min(procs_per_node, num_procs)
            nodes = nodes_for_processes(num_procs, ppn)
            mapping = abcdet_mapping(partition_shape(nodes), ppn)
        if mapping.num_ranks < num_procs:
            raise PamiError(
                f"mapping has {mapping.num_ranks} slots for {num_procs} procs"
            )
        self.mapping = mapping
        self.network = TorusNetwork(
            self.engine, mapping, self.params, self.trace,
            link_contention=link_contention,
        )
        self.ordering = OrderingChecker()
        self.nic_amo_support = nic_amo_support
        self._max_regions = max_regions
        #: Per-rank virtual address spaces (real bytes live here).
        self.spaces = [AddressSpace() for _ in range(num_procs)]
        #: Per-rank RDMA region tables.
        self.regions = [
            MemoryRegionRegistry(r, self.params.memregion_create_time, max_regions)
            for r in range(num_procs)
        ]
        #: Per-rank PAMI clients (contexts are created by the runtime).
        self.clients = [PamiClient(self, r) for r in range(num_procs)]
        # Injection serialization for hardware AMOs at each target NIC.
        self._nic_amo_free: dict[int, float] = {}
        #: Observability recorder (:class:`repro.obs.Obs`); installed by
        #: the ARMCI job when ``ObsConfig.enabled``, ``None`` otherwise —
        #: every PAMI-layer instrumentation site is one ``is None`` test.
        self.obs = None
        #: Ranks failed via :meth:`fail_rank` (fault-tolerance extension).
        self.failed_ranks: set[int] = set()
        #: Per-rank incarnation numbers, bumped on every :meth:`respawn_rank`.
        #: Delivery paths compare the incarnation captured at post time
        #: against the current one so traffic addressed to a dead
        #: incarnation cannot land in a respawned rank's fresh memory.
        self.incarnations: list[int] = [0] * num_procs
        #: Callbacks invoked with the rank on every :meth:`fail_rank`.
        self._failure_listeners: list = []
        #: Chaos engine (transient fault injection); None = disabled.
        self.chaos = None
        #: End-to-end integrity engine (:mod:`repro.pami.integrity`);
        #: installed by the ARMCI job when ``ArmciConfig.integrity`` is
        #: enabled, None otherwise — protected paths pay one ``is None``.
        self.integrity = None
        if chaos is not None and chaos.enabled:
            from ..chaos import ChaosEngine

            self.chaos = ChaosEngine(chaos, self.trace)
        if chaos is not None and getattr(chaos, "link_faults", ()):
            self.enable_link_faults(seed=chaos.seed)
            for lf in chaos.link_faults:
                self.schedule_link_fault(lf)

    # ----------------------------------------------------- link faults

    def enable_link_faults(self, seed: int = 0):
        """Switch the network into link-fault mode (idempotent).

        Builds the ground-truth :class:`~repro.topology.links.LinkState`
        and a fault-aware :class:`~repro.topology.routing.RouteTable`
        over it (the oracle view: routing reacts to faults instantly —
        :meth:`install_health_monitor` swaps in the observed view).
        Returns the link state.
        """
        net = self.network
        if net.link_state is None:
            from ..topology.links import LinkState
            from ..topology.routing import RouteTable

            link_state = LinkState(self.mapping.torus, seed=seed)
            route_table = RouteTable(
                self.mapping.torus, link_state, trace=self.trace
            )
            net.enable_link_faults(link_state, route_table)
        return net.link_state

    def install_health_monitor(self, config):
        """Route on *observed* link health instead of ground truth.

        The monitor feeds on wire observations, walks links through
        ``ok -> suspect -> dead`` with hysteresis, and — when a link
        death leaves ranks unreachable on every path — escalates those
        ranks (and only those) to :meth:`fail_rank`.
        """
        link_state = self.enable_link_faults()
        from ..machine.health import LinkHealthMonitor

        monitor = LinkHealthMonitor(
            self.engine, self.mapping.torus, link_state, config,
            self.trace, anchor=self.network.node_of(0),
        )
        monitor.on_unreachable = self._fail_unreachable
        self.network.install_health(monitor)
        return monitor

    def _fail_unreachable(self, nodes) -> None:
        """Fail every live rank living on a fully-unreachable node."""
        for rank in range(self.num_procs):
            if rank not in self.failed_ranks and self.network.node_of(rank) in nodes:
                self.trace.incr("net.ranks_unreachable")
                self.fail_rank(rank)

    def schedule_link_fault(self, fault) -> None:
        """Queue one :class:`~repro.chaos.LinkFault` at its planned time.

        The link coordinates are validated eagerly (bad plans fail at
        construction, not mid-run).
        """
        link_state = self.enable_link_faults()
        link_state.key(fault.a, fault.b)
        self.engine.schedule(
            fault.at - self.engine.now,
            lambda _a, f=fault: self.apply_link_fault(f),
        )

    def apply_link_fault(self, fault) -> None:
        """Apply one link fault to the ground-truth link state now."""
        link_state = self.enable_link_faults()
        if fault.kind == "kill":
            link_state.kill(fault.a, fault.b)
            self.trace.incr("chaos.link_kills")
        elif fault.kind == "revive":
            link = link_state.revive(fault.a, fault.b)
            self.trace.incr("chaos.link_revives")
            if self.network.health is not None:
                self.network.health.note_link_revived(link)
        elif fault.kind == "degrade":
            link_state.degrade(fault.a, fault.b, fault.factor)
            self.trace.incr("chaos.link_degrades")
        elif fault.kind == "lossy":
            link_state.set_lossy(fault.a, fault.b, fault.prob)
            self.trace.incr("chaos.links_made_lossy")
        elif fault.kind == "corrupt":
            link_state.set_corrupting(fault.a, fault.b, fault.prob)
            self.trace.incr("chaos.links_made_corrupting")
        else:  # pragma: no cover - LinkFault validates kinds
            raise PamiError(f"unknown link fault kind {fault.kind!r}")

    def client(self, rank: int) -> PamiClient:
        """Client of ``rank`` with bounds checking."""
        if not 0 <= rank < self.num_procs:
            raise PamiError(f"rank {rank} out of range [0, {self.num_procs})")
        return self.clients[rank]

    def space(self, rank: int) -> AddressSpace:
        """Address space of ``rank``."""
        if not 0 <= rank < self.num_procs:
            raise PamiError(f"rank {rank} out of range [0, {self.num_procs})")
        return self.spaces[rank]

    def fail_rank(self, rank: int) -> None:
        """Kill ``rank``: its progress stops and its queued work is dropped.

        One-sided operations already in flight or posted later complete
        with failure tokens at their initiators (see
        :mod:`repro.pami.faults`). Failure listeners registered via
        :meth:`on_rank_failed` run afterwards — the ARMCI job uses them
        to kill the rank's main-thread process and to break collectives
        the dead rank participated in. Idempotent.
        """
        if not 0 <= rank < self.num_procs:
            raise PamiError(f"rank {rank} out of range [0, {self.num_procs})")
        if rank in self.failed_ranks:
            return
        self.failed_ranks.add(rank)
        for ctx in self.clients[rank].contexts:
            while len(ctx.queue):
                item = ctx.queue.get_nowait()
                item.on_dropped(self, rank)
        self.trace.incr("pami.ranks_failed")
        for listener in list(self._failure_listeners):
            listener(rank)

    def on_rank_failed(self, callback) -> None:
        """Register ``callback(rank)`` to run whenever a rank fails."""
        self._failure_listeners.append(callback)

    def is_failed(self, rank: int) -> bool:
        """Whether ``rank`` has been failed (non-generator)."""
        return rank in self.failed_ranks

    def incarnation(self, rank: int) -> int:
        """Current incarnation number of ``rank`` (non-generator)."""
        return self.incarnations[rank]

    def respawn_rank(self, rank: int) -> None:
        """Bring a failed rank back with a fresh, empty incarnation.

        The rank gets a new address space, region table, and PAMI client
        (contexts and dispatch handlers must be re-created by the runtime).
        Its incarnation number is bumped so in-flight traffic addressed to
        the dead incarnation is silently dropped at delivery.
        """
        if rank not in self.failed_ranks:
            raise PamiError(f"respawn of rank {rank} which is not failed")
        self.failed_ranks.discard(rank)
        self.spaces[rank] = AddressSpace()
        self.regions[rank] = MemoryRegionRegistry(
            rank, self.params.memregion_create_time, self._max_regions
        )
        self.clients[rank] = PamiClient(self, rank)
        self.incarnations[rank] += 1
        self.trace.incr("pami.ranks_respawned")

    def nic_amo_slot(self, rank: int, arrive: float, service: float) -> float:
        """Serialize a hardware AMO through ``rank``'s NIC; returns done time."""
        start = max(arrive, self._nic_amo_free.get(rank, 0.0))
        done = start + service
        self._nic_amo_free[rank] = done
        return done
