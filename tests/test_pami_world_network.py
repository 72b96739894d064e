"""Additional unit tests: PamiWorld plumbing and network edge cases."""

import pytest

from repro.errors import PamiError
from repro.machine import BGQParams, TorusNetwork
from repro.obs.metrics import MetricsRegistry
from repro.pami import PamiWorld
from repro.sim import Engine
from repro.topology import RankMapping, Torus

from .conftest import build_world


class TestWorldPlumbing:
    def test_explicit_mapping_must_fit(self):
        small = RankMapping(Torus((2, 1, 1, 1, 1)), 1, order="ABCDET")
        with pytest.raises(PamiError, match="slots"):
            PamiWorld(4, mapping=small)

    def test_nic_amo_slot_serializes(self):
        world = PamiWorld(2, procs_per_node=1)
        first = world.nic_amo_slot(0, arrive=1e-6, service=50e-9)
        second = world.nic_amo_slot(0, arrive=1e-6, service=50e-9)
        assert second == pytest.approx(first + 50e-9)
        # A different rank's NIC is independent.
        other = world.nic_amo_slot(1, arrive=1e-6, service=50e-9)
        assert other == pytest.approx(first)

    def test_small_jobs_shrink_procs_per_node(self):
        # 2 procs at 16/node fit on one node without error.
        world = PamiWorld(2, procs_per_node=16)
        assert world.mapping.num_ranks == 2

    def test_trace_shared_between_network_and_world(self):
        world = build_world(num_procs=2, procs_per_node=1)
        assert world.network.trace is world.trace


class TestNetworkEdgeCases:
    def _net(self, **kwargs):
        eng = Engine()
        mapping = RankMapping(Torus((4, 1, 1, 1, 1)), 1, order="ABCDET")
        return eng, TorusNetwork(eng, mapping, BGQParams(), MetricsRegistry(), **kwargs)

    def test_injection_fifo_shared_across_destinations(self):
        """One source's messages to different targets serialize at its
        own NIC."""
        eng, net = self._net()
        a = net.put_timing(0, 1, 65536)
        b = net.put_timing(0, 2, 65536)
        assert b.inject_start == pytest.approx(a.inject_done)

    def test_get_data_serializes_at_target_nic(self):
        """Two ranks getting from the same target share its return path."""
        eng, net = self._net()
        a = net.get_timing(1, 0, 65536)
        b = net.get_timing(2, 0, 65536)
        assert b.inject_start >= a.inject_done

    def test_extra_occupancy_extends_injection(self):
        eng, net = self._net()
        plain = net.put_timing(0, 1, 1024)
        eng2, net2 = self._net()
        typed = net2.put_timing(0, 1, 1024, extra_occupancy=5e-6)
        assert typed.inject_done - typed.inject_start == pytest.approx(
            (plain.inject_done - plain.inject_start) + 5e-6
        )

    def test_idle_gap_resets_pipeline(self):
        """After the FIFO drains, a later message starts immediately."""
        eng, net = self._net()
        a = net.put_timing(0, 1, 65536)
        eng.schedule(a.inject_done + 1e-3, lambda _: None)
        eng.run()
        b = net.put_timing(0, 1, 1024)
        assert b.inject_start == pytest.approx(eng.now)

    def test_route_links_cached(self):
        eng, net = self._net(link_contention=True)
        net.put_timing(0, 2, 1024)
        net.put_timing(0, 2, 1024)
        # (0->1), (1->2) reserved twice each.
        assert net.trace.count("net.link_reservations") == 4

    def test_hops_cache_consistent_with_mapping(self):
        eng, net = self._net()
        for src in range(4):
            for dst in range(4):
                assert net.hops(src, dst) == net.mapping.hops(src, dst)


class TestAsyncProgressAccounting:
    def test_async_thread_counts_serviced_items(self):
        from repro.armci import ArmciConfig, ArmciJob

        job = ArmciJob(2, procs_per_node=1, config=ArmciConfig.async_thread_mode())
        job.init()

        def body(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            if rt.rank == 0:
                for _ in range(5):
                    yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
                yield from rt.barrier()
                return
            # Rank 1 computes: only its async thread can service.
            yield from rt.compute(500e-6)
            yield from rt.barrier()

        job.run(body)
        assert job.trace.count("armci.async_threads_started") == 2
        assert job.trace.count("armci.async_thread_serviced") >= 5
        assert job.world.space(1).read_i64(
            job.directory.allocation(0).addr(1)
        ) == 5

    def test_context_busy_time_accumulates(self):
        world = build_world(num_procs=1, procs_per_node=1)
        ctx = world.clients[0].context(0)
        from repro.pami.context import CompletionItem

        for _ in range(10):
            ctx.post(CompletionItem(world.engine.event()))

        def body():
            yield from ctx.advance()

        world.engine.run_until_complete([world.engine.spawn(body(), name="a")])
        assert ctx.busy_time > 0
