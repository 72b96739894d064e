"""Tests for the optional torus link-contention model (extension).

The paper's evaluation assumes uncongested links; this extension lets the
simulator serialize payloads on shared route links, reproducing incast
hotspots (cf. the authors' earlier hot-spot-avoidance work).
"""

import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.machine import BGQParams, TorusNetwork
from repro.obs.metrics import MetricsRegistry
from repro.pami import PamiWorld
from repro.sim import Engine
from repro.topology import RankMapping, Torus


def ring_mapping(nodes: int) -> RankMapping:
    """One rank per node on a 1-D ring embedded in 5 dims."""
    return RankMapping(Torus((nodes, 1, 1, 1, 1)), 1, order="ABCDET")


def make_net(nodes=8, contention=True):
    eng = Engine()
    return eng, TorusNetwork(
        eng, ring_mapping(nodes), BGQParams(), MetricsRegistry(),
        link_contention=contention,
    )


class TestLinkModel:
    def test_disjoint_paths_do_not_contend(self):
        eng, net = make_net()
        a = net.put_timing(0, 1, 65536)
        b = net.put_timing(2, 3, 65536)
        # Same start: different sources, disjoint links.
        assert b.inject_start == a.inject_start

    def test_shared_link_serializes(self):
        eng, net = make_net()
        # 1 -> 0 and 2 -> 0 share the link (1,...) -> (0,...).
        a = net.put_timing(1, 0, 65536)
        b = net.put_timing(2, 0, 65536)
        assert b.inject_start >= a.inject_done

    def test_contention_disabled_ignores_shared_links(self):
        eng, net = make_net(contention=False)
        a = net.put_timing(1, 0, 65536)
        b = net.put_timing(2, 0, 65536)
        assert b.inject_start == a.inject_start

    def test_longer_route_holds_all_links(self):
        eng, net = make_net()
        # 3 -> 0 goes through links 3->2, 2->1, 1->0 (shorter direction).
        net.put_timing(3, 0, 65536)
        # A transfer on any of those links must wait.
        t = net.put_timing(2, 1, 65536)
        assert t.inject_start > 0

    def test_opposite_directions_are_independent(self):
        eng, net = make_net()
        a = net.put_timing(1, 0, 65536)
        b = net.put_timing(0, 1, 65536)  # reverse direction, its own link
        assert b.inject_start == a.inject_start

    def test_reservations_counted(self):
        eng, net = make_net()
        net.put_timing(3, 0, 1024)
        assert net.trace.count("net.link_reservations") == 3


class TestIncastEndToEnd:
    def _incast(self, contention: bool) -> float:
        """7 ranks put 64 KB to rank 0 concurrently; return makespan."""
        world = PamiWorld(
            8, procs_per_node=1,
            mapping=ring_mapping(8),
            link_contention=contention,
        )
        job = ArmciJob(8, config=ArmciConfig(), world=world)
        job.init()
        t0 = job.engine.now

        def body(rt):
            alloc = yield from rt.malloc(8 * 65536)
            yield from rt.barrier()
            if rt.rank != 0:
                src = rt.world.space(rt.rank).allocate(65536)
                yield from rt.put(0, src, alloc.addr(0) + rt.rank * 65536, 65536)
                yield from rt.fence(0)
            yield from rt.barrier()

        job.run(body)
        return job.engine.now - t0

    def test_incast_slower_under_contention(self):
        free = self._incast(contention=False)
        congested = self._incast(contention=True)
        # On the 8-ring, 3 of the 7 sources share the 1->0 link and 4
        # share 7->0, so the transfer phase roughly quadruples; barriers
        # and setup dilute the end-to-end ratio.
        assert congested > 1.5 * free

    def test_results_identical_data_either_way(self):
        # Contention changes timing only, never data (checked implicitly:
        # fences complete and the jobs run to completion in both modes).
        assert self._incast(True) > 0
        assert self._incast(False) > 0
