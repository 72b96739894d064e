"""Tests for the communication-pattern workload suite."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.armci import ArmciConfig
from repro.errors import ReproError
from repro.workloads import PATTERNS, PatternConfig, destinations, patterns, run_workload
from repro.workloads.patterns import op_kinds


class TestPatternGenerators:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(ReproError, match="unknown pattern"):
            PatternConfig("zigzag")

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ReproError):
            PatternConfig("uniform", num_ops=0)
        with pytest.raises(ReproError):
            PatternConfig("uniform", msg_size=100)  # not multiple of 8

    def test_needs_two_procs(self):
        with pytest.raises(ReproError):
            destinations(PatternConfig("uniform"), 0, 1)

    @given(
        pattern=st.sampled_from(sorted(PATTERNS)),
        p=st.integers(2, 32),
        rank=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_destinations_valid_and_never_self(self, pattern, p, rank):
        r = rank.draw(st.integers(0, p - 1))
        cfg = PatternConfig(pattern, num_ops=12)
        dsts = destinations(cfg, r, p)
        assert len(dsts) == 12
        assert all(0 <= d < p for d in dsts)
        assert all(d != r for d in dsts)

    def test_deterministic(self, monkeypatch):
        cfg = PatternConfig("uniform", num_ops=20)
        monkeypatch.setattr(patterns, "SEED", 7)
        seven = destinations(cfg, 3, 16)
        assert seven == destinations(cfg, 3, 16)
        monkeypatch.setattr(patterns, "SEED", 8)
        assert seven != destinations(cfg, 3, 16)

    def test_hotspot_concentrates_on_rank0(self):
        cfg = PatternConfig("hotspot", num_ops=100)
        dsts = destinations(cfg, 5, 16)
        assert dsts.count(0) > 50

    def test_neighbor_alternates(self):
        cfg = PatternConfig("neighbor", num_ops=4)
        assert destinations(cfg, 5, 16) == [6, 4, 6, 4]

    def test_nwchem_mix_has_both_kinds(self, monkeypatch):
        monkeypatch.setattr(patterns, "ACC_FRACTION", 0.4)
        cfg = PatternConfig("nwchem", num_ops=60)
        kinds = op_kinds(cfg, 2)
        assert "get" in kinds and "acc" in kinds

    def test_pure_patterns_are_all_gets(self):
        cfg = PatternConfig("uniform", num_ops=10)
        assert op_kinds(cfg, 0) == ["get"] * 10


class TestRunner:
    def test_uniform_workload_end_to_end(self):
        cfg = PatternConfig("uniform", num_ops=6, msg_size=512)
        result = run_workload(8, cfg, ArmciConfig.async_thread_mode())
        assert result.total_ops == 48
        assert result.total_bytes == 48 * 512
        assert result.throughput_mbps > 0
        assert result.comm_time_total > 0

    def test_nwchem_mix_issues_accumulates(self, monkeypatch):
        from repro.armci import ArmciJob  # noqa: F401 - import check

        monkeypatch.setattr(patterns, "ACC_FRACTION", 0.5)
        cfg = PatternConfig("nwchem", num_ops=20, msg_size=256)
        result = run_workload(4, cfg, ArmciConfig.async_thread_mode())
        assert result.total_ops == 80

    def test_hotspot_slower_than_neighbor(self):
        """The hot server's queue (and its injection FIFO for get replies)
        serializes the hotspot pattern."""
        neighbor = run_workload(
            8, PatternConfig("neighbor", num_ops=8, msg_size=4096),
            ArmciConfig.async_thread_mode(), procs_per_node=1,
        )
        hotspot = run_workload(
            8, PatternConfig("hotspot", num_ops=8, msg_size=4096),
            ArmciConfig.async_thread_mode(), procs_per_node=1,
        )
        assert hotspot.simulated_time > neighbor.simulated_time

    def test_deterministic_results(self):
        cfg = PatternConfig("transpose", num_ops=5, msg_size=256)
        a = run_workload(4, cfg, ArmciConfig.default_mode())
        b = run_workload(4, cfg, ArmciConfig.default_mode())
        assert a == b
