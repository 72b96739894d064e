"""Torus network timing model.

Computes when transfers inject, arrive, and complete. The model has three
mechanisms, each pinned to numbers the paper reports (see
:mod:`repro.machine.bgq`):

1. **Latency path** — software overhead + per-hop torus latency + payload
   wire time + cache-alignment penalty.
2. **Injection serialization** — each rank's NIC injection FIFO is a serial
   resource: message *k* cannot start injecting before message *k-1* has
   finished. This produces the pipelined-bandwidth curve (Fig. 4/6) and the
   strided-transfer behaviour (Eq. 9, Fig. 8) without any special-casing.
3. **Intra-node path** — same-node transfers bypass the torus and move
   through the L2 crossbar.

The network computes *times*; actual byte movement is done by the PAMI
layer, which schedules copies at the times computed here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..sim.engine import Engine
from ..topology.mapping import RankMapping
from ..record import SlotRecord
from .bgq import BGQParams

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.metrics import MetricsRegistry


class TransferTiming(SlotRecord):
    """Timing of one data transfer.

    Attributes
    ----------
    inject_start:
        When the payload starts injecting at the sending NIC.
    inject_done:
        When the sending NIC finishes serializing the payload.
    deliver:
        When the payload has fully landed in target memory.
    complete:
        When the initiator's completion callback may fire.
    """

    __slots__ = ("inject_start", "inject_done", "deliver", "complete")

    def __init__(
        self, inject_start: float, inject_done: float, deliver: float,
        complete: float,
    ) -> None:
        self.inject_start = inject_start
        self.inject_done = inject_done
        self.deliver = deliver
        self.complete = complete


class TorusNetwork:
    """Timing model for one job partition.

    Parameters
    ----------
    engine:
        Simulation engine (supplies the clock).
    mapping:
        Rank placement on the torus partition.
    params:
        Calibrated machine constants.
    trace:
        The job's metrics registry: byte/message counters.
    """

    def __init__(
        self,
        engine: Engine,
        mapping: RankMapping,
        params: BGQParams,
        trace: "MetricsRegistry",
        link_contention: bool = False,
    ) -> None:
        self.engine = engine
        self.mapping = mapping
        self.params = params
        self.trace = trace
        #: Model serialization on shared torus links (extension beyond the
        #: paper, whose evaluation assumed uncongested links).
        self.link_contention = link_contention
        # Next time each rank's injection FIFO is free.
        self._inject_free: dict[int, float] = {}
        # Cache rank -> node coordinate (mapping lookups are hot), one
        # tuple per node shared by its ranks (``_nodes`` interns them).
        self._node_cache: dict[int, tuple[int, ...]] = {}
        self._nodes: dict[tuple[int, ...], tuple[int, ...]] = {}
        # Cache (src node, dst node) -> hop count (distance computations
        # are hot).
        self._hops_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        # Directed link -> next free time (contention model only).
        self._link_free: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = {}
        # Cache (src, dst) -> directed links of the dimension-order route.
        self._route_cache: dict[tuple[int, int], tuple] = {}
        #: Link-fault mode (all None = the seed's immortal network; the
        #: default paths pay a single ``route_table is None`` test).
        self.link_state = None
        self.route_table = None
        self.health = None
        # (src, dst) -> (view epoch, hop links | None, hop cost, hops).
        self._fault_route_cache: dict[tuple[int, int], tuple] = {}

    # ------------------------------------------------------------ helpers

    def node_of(self, rank: int) -> tuple[int, ...]:
        """Node coordinate of ``rank`` (cached)."""
        coord = self._node_cache.get(rank)
        if coord is None:
            coord = self.mapping.node_of(rank)
            coord = self._node_cache[rank] = self._nodes.setdefault(coord, coord)
        return coord

    def hops(self, src: int, dst: int) -> int:
        """Torus hop count between the nodes hosting two ranks (cached
        per node pair: the distance is a property of the partition)."""
        node = self._node_cache.get
        key = (node(src) or self.node_of(src), node(dst) or self.node_of(dst))
        h = self._hops_cache.get(key)
        if h is None:
            h = self._hops_cache[key] = self.mapping.torus.distance(*key)
        return h

    def is_local(self, src: int, dst: int) -> bool:
        """True if both ranks share a node (transfer bypasses the torus)."""
        return self.node_of(src) == self.node_of(dst)

    def _route_links(self, src: int, dst: int) -> tuple:
        """Directed links of the dimension-order route between two ranks."""
        key = (src, dst)
        links = self._route_cache.get(key)
        if links is None:
            from ..topology.routing import dimension_order_route

            path = dimension_order_route(
                self.mapping.torus, self.node_of(src), self.node_of(dst)
            )
            links = tuple(zip(path, path[1:]))
            self._route_cache[key] = links
        return links

    # ------------------------------------------------- link-fault mode

    def enable_link_faults(self, link_state, route_table) -> None:
        """Switch into link-fault mode: timing follows the actual route."""
        self.link_state = link_state
        self.route_table = route_table
        self._fault_route_cache.clear()

    def install_health(self, monitor) -> None:
        """Route on the monitor's *observed* view instead of ground truth."""
        self.health = monitor
        self.route_table.view = monitor
        self.route_table.invalidate()
        self._fault_route_cache.clear()

    def _fault_route(self, src: int, dst: int) -> tuple:
        """Current route between two ranks: ``(hop links, hop cost, hops)``.

        ``hop links`` is None when the destination is unreachable on
        every path; timing then falls back to the torus distance (the
        transfer is doomed anyway — :meth:`wire_fate` drops it).
        """
        key = (src, dst)
        epoch = self.route_table.view.epoch
        hit = self._fault_route_cache.get(key)
        if hit is not None and hit[0] == epoch:
            return hit[1], hit[2], hit[3]
        src_node, dst_node = self.node_of(src), self.node_of(dst)
        path = self.route_table.route(src_node, dst_node)
        p = self.params
        if path is None:
            hops = self.mapping.torus.distance(src_node, dst_node)
            links, cost = None, hops * p.hop_latency
        else:
            links = tuple(zip(path, path[1:]))
            hops = len(links)
            factor = self.link_state.latency_factor
            # Sum of per-hop factors: with every factor 1.0 this is
            # exactly float(hops), so a fault-free route prices
            # identically to the seed's ``hops * hop_latency``.
            cost = p.hop_latency * sum(factor(u, v) for u, v in links)
            base = self.mapping.torus.distance(src_node, dst_node)
            if hops > base:
                self.trace.incr("net.reroute_extra_hops", hops - base)
        self._fault_route_cache[key] = (epoch, links, cost, hops)
        return links, cost, hops

    def hop_cost(self, src: int, dst: int) -> float:
        """Torus traversal latency between two ranks' nodes.

        The seed expression when link faults are off; the priced actual
        route (detours and degraded links included) when they are on.
        """
        if self.route_table is None:
            return self.hops(src, dst) * self.params.hop_latency
        return self._fault_route(src, dst)[1]

    def route_blocked(self, src: int, dst: int) -> bool:
        """Whether no healthy path currently reaches ``dst`` from ``src``."""
        if self.route_table is None or self.is_local(src, dst):
            return False
        return self._fault_route(src, dst)[0] is None

    def wire_fate(self, src: int, dst: int, kind: str):
        """Resolve the link-level fate of one transfer over its route.

        Returns None (clean), ``("dropped", link | None)`` when the
        transfer dies on a dead/lossy hop (None = no route at all), or
        ``("corrupt", PayloadCorruption)`` when a corrupting hop flips a
        payload bit. Health observations are fed as a side effect. Only
        called in link-fault mode, for inter-node transfers.
        """
        links, _cost, _hops = self._fault_route(src, dst)
        health = self.health
        if links is None:
            self.trace.incr("net.link_drops")
            self.trace.incr(f"net.link_drops.{kind}")
            return ("dropped", None)
        ls = self.link_state
        for u, v in links:
            link = ls.key(u, v)
            if ls.is_dead_link(link) or ls.roll_loss(link):
                self.trace.incr("net.link_drops")
                self.trace.incr(f"net.link_drops.{kind}")
                if health is not None:
                    health.observe_loss(link)
                return ("dropped", link)
            hit = ls.roll_corrupt(link)
            if hit is not None:
                from ..pami.faults import PayloadCorruption

                self.trace.incr("net.payload_corruptions")
                if health is not None:
                    health.observe_corruption(link)
                return ("corrupt", PayloadCorruption(src, dst, hit[0], hit[1]))
        if health is not None:
            health.observe_route_ok(links)
        return None

    def _inject(
        self, rank: int, post_time: float, occupancy: float, dst: int | None = None
    ) -> tuple[float, float]:
        """Serialize a message through ``rank``'s injection FIFO.

        With link contention enabled, the message additionally waits for
        every link on its route (cut-through: the route's links are held
        together for the payload's serialization time). Returns
        ``(inject_start, inject_done)``.
        """
        start = max(post_time, self._inject_free.get(rank, 0.0))
        if self.link_contention and dst is not None:
            links = self._route_links(rank, dst)
            for link in links:
                start = max(start, self._link_free.get(link, 0.0))
            done = start + occupancy
            for link in links:
                self._link_free[link] = done
            if links:
                self.trace.incr("net.link_reservations", len(links))
        else:
            done = start + occupancy
        self._inject_free[rank] = done
        return start, done

    def _occupancy(self, nbytes: int, extra: float = 0.0) -> float:
        p = self.params
        return (
            p.message_pipeline_overhead
            + p.wire_time(nbytes)
            + p.alignment_penalty(nbytes)
            + extra
        )

    # ------------------------------------------------------------- paths

    def put_timing(
        self, src: int, dst: int, nbytes: int, extra_occupancy: float = 0.0
    ) -> TransferTiming:
        """RDMA put: local completion does not wait for remote delivery.

        Adjacent-node blocking latency at 16 B is ~2.7 us (Fig. 3); burst
        bandwidth approaches 1775 MB/s (Fig. 4).
        """
        p = self.params
        now = self.engine.now
        counters = self.trace.counters
        counters["net.put.messages"] += 1
        counters["net.put.bytes"] += nbytes
        if self.is_local(src, dst):
            deliver = now + p.shm_latency + nbytes * p.shm_byte_time
            return TransferTiming(now, now, deliver, deliver)
        start, done = self._inject(
            src, now, self._occupancy(nbytes, extra_occupancy), dst=dst
        )
        deliver = done + self.hop_cost(src, dst)
        complete = done + p.put_completion_delay
        return TransferTiming(start, done, deliver, complete)

    def get_timing(
        self, src: int, dst: int, nbytes: int, extra_occupancy: float = 0.0
    ) -> TransferTiming:
        """RDMA get: request travels to the target NIC, data streams back.

        No target *software* involvement — the target NIC serves the read
        (this is the property that makes RDMA get truly one-sided,
        Section III-C.1). The data return serializes through the target's
        injection FIFO. ``deliver`` is when the target memory is read;
        ``complete`` when the data has landed at the source.

        Adjacent-node 16 B latency is ~2.89 us (Fig. 3).
        """
        p = self.params
        now = self.engine.now
        counters = self.trace.counters
        counters["net.get.messages"] += 1
        counters["net.get.bytes"] += nbytes
        if self.is_local(src, dst):
            read_at = now + p.shm_latency
            complete = read_at + p.shm_latency + nbytes * p.shm_byte_time
            return TransferTiming(now, now, read_at, complete)
        hop_cost = self.hop_cost(src, dst)
        request_arrive = now + p.get_request_overhead + hop_cost
        start, done = self._inject(
            dst, request_arrive, self._occupancy(nbytes, extra_occupancy), dst=src
        )
        complete = done + hop_cost + p.get_completion_delay
        return TransferTiming(start, done, start, complete)

    def packet_arrival(self, src: int, dst: int) -> float:
        """Arrival time of a small control packet (AM header, AMO request).

        Control packets are tiny and bypass payload injection serialization.
        """
        p = self.params
        now = self.engine.now
        self.trace.counters["net.control.messages"] += 1
        if self.is_local(src, dst):
            return now + p.shm_latency
        return now + p.am_send_overhead + self.hop_cost(src, dst)

    def am_payload_timing(self, src: int, dst: int, nbytes: int) -> TransferTiming:
        """An active message carrying a payload (fall-back protocols).

        The payload serializes through the source's injection FIFO like any
        other message; ``deliver`` is when the target NIC has the payload
        queued for its progress engine.
        """
        p = self.params
        now = self.engine.now
        self.trace.incr("net.am.messages")
        self.trace.incr("net.am.bytes", nbytes)
        if self.is_local(src, dst):
            deliver = now + p.shm_latency + nbytes * p.shm_byte_time
            return TransferTiming(now, now, deliver, deliver)
        start, done = self._inject(src, now, self._occupancy(nbytes), dst=dst)
        deliver = done + self.hop_cost(src, dst)
        return TransferTiming(start, done, deliver, deliver)
