"""Unit tests for the BG/Q machine model and torus network timing."""

import pytest

from repro.machine import BGQParams, TorusNetwork
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine
from repro.topology import RankMapping, Torus, abcdet_mapping


@pytest.fixture
def params():
    return BGQParams()


def make_network(dims=(2, 2, 4, 4, 2), ppn=16):
    eng = Engine()
    mapping = abcdet_mapping(dims, ppn)
    return eng, TorusNetwork(eng, mapping, BGQParams(), MetricsRegistry())


class TestBGQParams:
    def test_context_create_times_match_table_ii_range(self, params):
        assert params.context_create_time(0) == pytest.approx(3821e-6)
        assert params.context_create_time(1) == pytest.approx(4271e-6)

    def test_context_create_negative_index_rejected(self, params):
        with pytest.raises(ValueError):
            params.context_create_time(-1)

    def test_wire_time_linear(self, params):
        assert params.wire_time(0) == 0.0
        assert params.wire_time(1775) == pytest.approx(1e-6, rel=1e-3)

    def test_wire_time_negative_rejected(self, params):
        with pytest.raises(ValueError):
            params.wire_time(-1)

    def test_alignment_penalty_only_below_256(self, params):
        assert params.alignment_penalty(16) == params.unaligned_penalty
        assert params.alignment_penalty(255) == params.unaligned_penalty
        assert params.alignment_penalty(256) == 0.0
        assert params.alignment_penalty(0) == 0.0

    def test_peak_bandwidth_efficiency_is_99_percent(self, params):
        """1/byte_time vs 1.8 GB/s available: the paper's ~99%."""
        achieved = 1.0 / params.byte_time
        assert achieved / params.link_bandwidth_peak == pytest.approx(0.986, abs=0.01)


class TestTorusNetworkCalibration:
    """The headline calibration points from Section IV-B."""

    def test_adjacent_get_16b_raw_path(self):
        """Raw network get = 2.74 us; the ARMCI completion dispatch adds
        ~0.15 us to reach the paper's 2.89 us (checked at ARMCI level in
        the protocol tests)."""
        eng, net = make_network()
        # Rank 16 is one hop away in E from rank 0 (ABCDET, 16 procs/node).
        t = net.get_timing(0, 16, 16)
        assert t.complete == pytest.approx(2.74e-6, rel=0.005)

    def test_put_16b_local_completion_raw_path(self):
        eng, net = make_network()
        t = net.put_timing(0, 16, 16)
        assert t.complete == pytest.approx(2.55e-6, rel=0.005)

    def test_put_remote_delivery_after_injection(self):
        eng, net = make_network()
        t = net.put_timing(0, 16, 1024)
        assert t.deliver > t.inject_done
        assert t.deliver - t.inject_done == pytest.approx(35e-9)

    def test_get_latency_grows_35ns_per_round_trip_hop(self):
        eng, net = make_network()
        base = net.get_timing(0, 16, 16).complete - eng.now
        # Find a rank several hops away and compare.
        far = None
        for r in range(16, net.mapping.num_ranks, 16):
            if net.hops(0, r) == 5:
                far = r
                break
        assert far is not None
        t_far = net.get_timing(0, far, 16).complete - eng.now
        assert t_far - base == pytest.approx((5 - 1) * 2 * 35e-9, rel=1e-6)

    def test_max_get_latency_on_paper_partition(self):
        """Min 2.89us at 1 hop, max ~3.38us at diameter 7 (Fig. 7)."""
        eng, net = make_network()
        worst = max(net.hops(0, r) for r in range(0, 2048))
        assert worst == 7
        t = net.get_timing(0, 16, 16).complete  # 1 hop
        # Reconstruct a 7-hop get time via a rank at distance 7.
        far = next(r for r in range(2048) if net.hops(0, r) == 7)
        eng2, net2 = make_network()
        t7 = net2.get_timing(0, far, 16).complete
        assert t7 - t == pytest.approx(6 * 2 * 35e-9, rel=1e-6)
        # +0.15 us ARMCI dispatch puts this at ~3.31 us end to end,
        # inside the paper's 2.89-3.38 us band.
        assert t7 == pytest.approx(3.16e-6, rel=0.02)

    def test_alignment_drop_at_256_bytes(self):
        """Fig. 3: 256 B latency is *lower* than 128 B latency."""
        eng, net = make_network()
        t128 = net.get_timing(0, 16, 128).complete
        eng2, net2 = make_network()
        t256 = net2.get_timing(0, 16, 256).complete
        assert t256 < t128

    def test_injection_fifo_serializes_messages(self):
        eng, net = make_network()
        a = net.put_timing(0, 16, 65536)
        b = net.put_timing(0, 16, 65536)
        assert b.inject_start == pytest.approx(a.inject_done)

    def test_pipelined_bandwidth_approaches_1775_mbps(self):
        eng, net = make_network()
        n, size = 100, 1024 * 1024
        last = None
        for _ in range(n):
            last = net.put_timing(0, 16, size)
        bw = n * size / last.inject_done / 1e6
        assert bw == pytest.approx(1775, rel=0.01)

    def test_n_half_is_about_2kb(self):
        """Fig. 6: half of 1.8 GB/s peak reached near 2 KB messages."""
        eng, net = make_network()
        size = 2048
        n = 50
        last = None
        for _ in range(n):
            last = net.put_timing(0, 16, size)
        bw = n * size / last.inject_done
        assert bw == pytest.approx(0.5 * 1.8e9, rel=0.1)

    def test_intranode_transfer_bypasses_torus(self):
        eng, net = make_network()
        t = net.put_timing(0, 1, 1024)  # ranks 0,1 share a node
        assert t.inject_start == t.inject_done == eng.now
        assert t.deliver < 1e-6  # well under internode latency

    def test_get_local_roundtrip(self):
        eng, net = make_network()
        t = net.get_timing(0, 1, 64)
        assert t.complete > t.deliver > 0

    def test_control_packet_latency(self):
        eng, net = make_network()
        t = net.packet_arrival(0, 16)
        p = BGQParams()
        assert t == pytest.approx(p.am_send_overhead + p.hop_latency)

    def test_trace_counters_accumulate(self):
        eng, net = make_network()
        net.put_timing(0, 16, 100)
        net.get_timing(0, 16, 200)
        net.packet_arrival(0, 16)
        assert net.trace.count("net.put.messages") == 1
        assert net.trace.count("net.put.bytes") == 100
        assert net.trace.count("net.get.bytes") == 200
        assert net.trace.count("net.control.messages") == 1

    def test_am_payload_serializes_like_put(self):
        eng, net = make_network()
        t1 = net.am_payload_timing(0, 16, 4096)
        t2 = net.am_payload_timing(0, 16, 4096)
        assert t2.inject_start == pytest.approx(t1.inject_done)
        assert t1.deliver == t1.complete
