"""Unit tests for the sharded parallel-PDES runtime building blocks."""

import pickle

import pytest

from repro.errors import PdesError, SimulationError
from repro.machine.bgq import BGQParams
from repro.machine.network import TorusNetwork
from repro.obs.metrics import MetricsRegistry
from repro.sim.engine import Engine
from repro.sim.parallel import (
    ChaosSpec,
    LocalRing,
    ShmRing,
    make_factory,
    plan_shards,
    rank_weights_from_critical_path,
    run_program,
)
from repro.sim.parallel.partition import LOOKAHEAD_SAFETY
from repro.sim.parallel.runner import mapping_for_ranks
from repro.sim.parallel.shard import ShardWorker
from repro.topology.mapping import abcdet_mapping
from repro.topology.partitions import partition_shape


# ------------------------------------------------------------ engine hooks


class TestEngineHooks:
    def test_schedule_at_absolute_time(self):
        eng = Engine()
        order = []
        eng.schedule_at(3e-6, order.append, "late")
        eng.schedule_at(1e-6, order.append, "early")
        eng.run()
        assert order == ["early", "late"]
        assert eng.now == 3e-6

    def test_schedule_at_key_orders_equal_timestamps(self):
        eng = Engine()
        order = []
        # Submission order says "b" first; content keys say "a" first.
        eng.schedule_at(1e-6, order.append, "b", key=(7, 0))
        eng.schedule_at(1e-6, order.append, "a", key=(2, 5))
        eng.run()
        assert order == ["a", "b"]

    def test_schedule_at_rejects_past(self):
        eng = Engine()
        eng.schedule(1e-6, lambda _: None)
        eng.run()
        with pytest.raises(SimulationError):
            eng.schedule_at(0.5e-6, lambda _: None)

    def test_next_event_time(self):
        eng = Engine()
        assert eng.next_event_time() is None
        eng.schedule(2e-6, lambda _: None)
        assert eng.next_event_time() == 2e-6

    def test_next_event_time_skips_cancelled_timers(self):
        eng = Engine()
        timer = eng.schedule_timer(1e-6, lambda _: None)
        eng.schedule(5e-6, lambda _: None)
        timer.cancel()
        assert eng.next_event_time() == 5e-6

    def test_exclusive_run_stops_before_horizon(self):
        eng = Engine()
        hits = []
        eng.schedule(1e-6, hits.append, "in")
        eng.schedule(2e-6, hits.append, "at")
        eng.run(until=2e-6, exclusive=True)
        assert hits == ["in"]
        assert eng.now == 2e-6
        eng.run()  # the horizon event still executes later
        assert hits == ["in", "at"]

    def test_inclusive_run_unchanged(self):
        eng = Engine()
        hits = []
        eng.schedule(2e-6, hits.append, "at")
        eng.run(until=2e-6)
        assert hits == ["at"]


# ------------------------------------------------------------------ rings


@pytest.mark.parametrize("ring_cls", [ShmRing, LocalRing])
class TestRings:
    def test_roundtrip(self, ring_cls):
        ring = ring_cls(capacity=4096)
        try:
            ring.push(b"alpha")
            ring.push(b"beta")
            assert ring.pop_all() == [b"alpha", b"beta"]
            assert ring.pop_all() == []
        finally:
            ring.close()
            ring.unlink()

    def test_overflow_raises(self, ring_cls):
        ring = ring_cls(capacity=64)
        try:
            with pytest.raises(PdesError, match="ring overflow"):
                for _ in range(8):
                    ring.push(b"x" * 24)
        finally:
            ring.close()
            ring.unlink()


def test_shm_ring_wraparound():
    ring = ShmRing(capacity=128)
    try:
        # Cursors are monotone byte counts; repeated fill/drain cycles
        # force records to straddle the physical end of the buffer.
        for i in range(64):
            payload = bytes([i]) * (20 + i % 31)
            ring.push(payload)
            assert ring.pop_all() == [payload]
    finally:
        ring.close()
        ring.unlink()


# -------------------------------------------------------------- partition


class TestPartition:
    def setup_method(self):
        self.params = BGQParams()
        self.mapping = abcdet_mapping(partition_shape(8), 16)  # 128 ranks

    def test_plan_invariants(self):
        plan = plan_shards(self.mapping, 4, self.params)
        assert plan.bounds[0] == 0 and plan.bounds[-1] == 128
        assert list(plan.bounds) == sorted(set(plan.bounds))
        for shard in range(plan.shards):
            for rank in plan.ranks_of(shard):
                assert plan.shard_of(rank) == shard

    def test_node_aligned_boundaries(self):
        plan = plan_shards(self.mapping, 4, self.params)
        assert plan.node_aligned
        assert all(b % 16 == 0 for b in plan.bounds)
        expected = (
            self.params.am_send_overhead + self.params.hop_latency
        ) * LOOKAHEAD_SAFETY
        assert plan.lookahead == pytest.approx(expected)

    def test_node_split_shrinks_lookahead(self):
        # 4 shards over 32 ranks on 2 nodes must split nodes.
        plan = plan_shards(self.mapping, 4, self.params, num_ranks=32)
        assert not plan.node_aligned
        assert plan.lookahead == pytest.approx(
            self.params.shm_latency * LOOKAHEAD_SAFETY
        )

    def test_weights_bias_boundaries(self):
        # Pile all the weight on the first quarter of the ranks: shard 0
        # should shrink well below the uniform 64-rank split.
        weights = [10.0] * 32 + [1.0] * 96
        plan = plan_shards(self.mapping, 2, self.params, rank_weights=weights)
        assert plan.bounds[1] < 64

    def test_every_shard_nonempty(self):
        plan = plan_shards(self.mapping, 7, self.params, num_ranks=9)
        sizes = [len(plan.ranks_of(s)) for s in range(7)]
        assert all(size >= 1 for size in sizes)
        assert sum(sizes) == 9

    def test_rejects_bad_inputs(self):
        with pytest.raises(PdesError):
            plan_shards(self.mapping, 0, self.params)
        with pytest.raises(PdesError):
            plan_shards(self.mapping, 5, self.params, num_ranks=4)
        with pytest.raises(PdesError):
            plan_shards(self.mapping, 2, self.params, rank_weights=[1.0])

    def test_critical_path_weights(self):
        class Seg:
            def __init__(self, rank, duration):
                self.rank = rank
                self.duration = duration

        class Report:
            segments = [Seg(0, 3e-6), Seg(0, 1e-6), Seg(2, 8e-6), Seg(99, 1.0)]

        weights = rank_weights_from_critical_path(Report(), 4)
        assert len(weights) == 4
        assert weights[2] > weights[0] > weights[1] == weights[3] == 1.0

    def test_mapping_for_ranks_rounds_up(self):
        mapping = mapping_for_ranks(10_000, 16)
        assert mapping.num_ranks >= 10_000
        with pytest.raises(PdesError):
            mapping_for_ranks(0)


# ------------------------------------------------- network shard safety


class TestNetworkShardSafety:
    def setup_method(self):
        self.mapping = abcdet_mapping(partition_shape(8), 16)
        self.params = BGQParams()

    def _net(self):
        return TorusNetwork(Engine(), self.mapping, self.params, MetricsRegistry())

    def _traffic(self, net):
        net.put_timing(0, 20, 4096)
        net.get_timing(0, 40, 512)
        net.packet_arrival(3, 90)

    def _shard_networks(self):
        """The networks two shard workers of one run build."""
        n = self.mapping.num_ranks
        plan = plan_shards(self.mapping, 2, self.params, num_ranks=n)
        factory = make_factory("clique", n, ops=1, seed=1)
        return [
            ShardWorker(s, plan, factory, self.mapping, self.params).rt.network
            for s in range(2)
        ]

    def test_clones_share_no_cache_state(self):
        a, b = self._shard_networks()
        self._traffic(a)
        # a's FIFO clocks and memo caches moved; b's must be untouched.
        assert a._inject_free and a._hops_cache and a._node_cache
        for name in TorusNetwork._MUTABLE_CACHES:
            assert getattr(b, name) == {}, f"{name} leaked between shards"
        # Each shard counts into its own registry (merged by the runner).
        assert a.trace.count("net.put.messages") == 1
        assert a.trace is not b.trace and not b.trace.counters
        # Immutable inputs are genuinely shared, not copied.
        assert a.mapping is b.mapping is self.mapping
        assert a.params is b.params is self.params

    def test_clone_timing_matches_fresh_instance(self):
        a = self._net()
        b = self._shard_networks()[1]
        ta = a.put_timing(0, 20, 4096)
        tb = b.put_timing(0, 20, 4096)
        assert ta == tb

    def test_pickle_drops_engine_and_caches(self):
        net = self._net()
        self._traffic(net)
        clone = pickle.loads(pickle.dumps(net))
        assert clone.engine is None
        for name in TorusNetwork._MUTABLE_CACHES:
            assert getattr(clone, name) == {}
        # The original keeps its state: pickling is a read-only export.
        assert net._inject_free


# ----------------------------------------------------- runner / job knob


class TestRunner:
    def test_single_matches_inline(self):
        n = 32
        base = run_program(make_factory("clique", n, ops=4, seed=1), n, shards=1)
        alt = run_program(
            make_factory("clique", n, ops=4, seed=1), n, shards=2, mode="inline"
        )
        assert alt.schedule_digest == base.schedule_digest
        assert alt.results == base.results
        assert alt.delivered == base.delivered

    def test_seed_changes_digest(self):
        n = 32
        a = run_program(make_factory("clique", n, ops=4, seed=1), n)
        b = run_program(make_factory("clique", n, ops=4, seed=2), n)
        assert a.schedule_digest != b.schedule_digest

    def test_metrics_merged_across_shards(self):
        n = 32
        r = run_program(
            make_factory("clique", n, ops=4, seed=1), n, shards=2, mode="inline"
        )
        snap = r.metrics.snapshot(per_rank=True)
        assert snap["counters"]["pdes.delivered"] == r.delivered
        assert len(snap["per_rank"]["counters"]["pdes.delivered"]) == n

    @pytest.mark.parametrize("workload", ["clique", "halo", "scf_lite"])
    def test_network_counters_equal_at_every_shard_count(self, workload):
        # net.* is counted where a message is injected (the source
        # rank's shard), so the merged totals cannot depend on the cut.
        n = 64
        names = ("net.put.messages", "net.put.bytes", "net.control.messages")
        totals = []
        for shards in (1, 2, 4):
            r = run_program(
                make_factory(workload, n, seed=3), n, shards=shards,
                mode="single" if shards == 1 else "inline",
            )
            totals.append({name: r.metrics.count(name) for name in names})
        assert totals[0] == totals[1] == totals[2]
        assert sum(totals[0].values()) > 0

    def test_chaos_requires_valid_spec(self):
        with pytest.raises(PdesError):
            ChaosSpec(drop_mod=1)

    def test_mode_validation(self):
        with pytest.raises(PdesError):
            run_program(make_factory("clique", 8, ops=1), 8, mode="warp")
        with pytest.raises(PdesError):
            run_program(make_factory("clique", 8, ops=1), 8, shards=2, mode="single")

    def test_unknown_workload(self):
        with pytest.raises(PdesError):
            make_factory("nope", 8)
