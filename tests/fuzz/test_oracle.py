"""Unit tests for the happens-before oracle itself.

The oracle is driven directly with synthetic event streams here — no
simulation — so every classification rule (race vs sync-ordered, missed
vs false-positive fence, unfenced-sync hazards) is pinned down in
isolation before the fuzz targets rely on it.
"""

import pytest

from repro.armci.config import ArmciConfig
from repro.armci.runtime import ArmciJob
from repro.verify import HappensBeforeOracle, attach_oracle


def make_oracle(n=2):
    return HappensBeforeOracle(n)


class TestRaceDetection:
    def test_concurrent_overlapping_writes_race(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 100, 64, "put")
        o.on_write(1, 1, (1, 0), 120, 64, "put")
        assert o.report.data_races == 1
        assert o.report.violations[0].kind == "data_race"

    def test_disjoint_writes_do_not_race(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "put")
        o.on_write(1, 1, (1, 0), 64, 64, "put")
        assert o.report.data_races == 0

    def test_concurrent_write_read_race(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "put")
        o.on_read(1, 1, (1, 0), 32, 8, "get")
        assert o.report.data_races == 1

    def test_reads_never_race(self):
        o = make_oracle()
        o.on_read(0, 1, (1, 0), 0, 64, "get")
        o.on_read(1, 1, (1, 0), 0, 64, "get")
        assert o.report.data_races == 0

    def test_accumulates_commute(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "acc")
        o.on_write(1, 1, (1, 0), 0, 64, "acc")
        assert o.report.data_races == 0

    def test_acc_vs_read_races(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "acc")
        o.on_read(1, 1, (1, 0), 0, 8, "get")
        assert o.report.data_races == 1

    def test_same_rank_accesses_never_race(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "put")
        o.on_read(0, 1, (1, 0), 0, 64, "get")
        assert o.report.data_races == 0

    def test_duplicate_race_deduplicated(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "put")
        o.on_read(1, 1, (1, 0), 0, 8, "get")
        o.on_read(1, 1, (1, 0), 0, 8, "get")
        # Two distinct read accesses against the same write: two races
        # with distinct access pairs, but re-observing the same pair
        # never double-counts.
        assert o.report.data_races == 2


class TestSyncEdges:
    def test_barrier_orders_accesses(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "put")
        o.on_fence(0, 1)
        for r in (0, 1):
            o.on_barrier_enter(r)
        for r in (0, 1):
            o.on_barrier_exit(r)
        o.on_read(1, 1, (1, 0), 0, 64, "get")
        assert o.report.data_races == 0

    def test_rmw_chain_orders(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "put")
        o.on_fence(0, 1)
        o.on_rmw(0, 0, 4096)
        o.on_rmw(1, 0, 4096)
        o.on_read(1, 1, (1, 0), 0, 64, "get")
        assert o.report.data_races == 0

    def test_rmw_different_cells_do_not_order(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "put")
        o.on_rmw(0, 0, 4096)
        o.on_rmw(1, 0, 8192)
        o.on_read(1, 1, (1, 0), 0, 64, "get")
        assert o.report.data_races == 1

    def test_barrier_prunes_access_history(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "put")
        o.on_fence(0, 1)
        for r in (0, 1):
            o.on_barrier_enter(r)
        for r in (0, 1):
            o.on_barrier_exit(r)
        assert not o._accesses.get(1)


class TestFenceClassification:
    def test_required_fence(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 4096), 0, 64, "put")
        o.on_fence_decision(0, 1, (1, 4096), fenced=True)
        assert o.report.required_fences == 1
        assert o.report.ok

    def test_missed_fence_flagged(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 4096), 0, 64, "put")
        o.on_fence_decision(0, 1, (1, 4096), fenced=False)
        assert o.report.missed_fences == 1
        assert not o.report.ok

    def test_false_positive_fence_counted_not_flagged(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 4096), 0, 64, "put")
        o.on_fence_decision(0, 1, (1, 8192), fenced=True)
        assert o.report.false_positive_fences == 1
        assert o.report.ok  # overhead, not a violation

    def test_clean_skip(self):
        o = make_oracle()
        o.on_fence_decision(0, 1, (1, 4096), fenced=False)
        assert o.report.clean_skips == 1

    def test_fence_clears_golden_model(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 4096), 0, 64, "put")
        o.on_fence(0, 1)
        o.on_fence_decision(0, 1, (1, 4096), fenced=False)
        assert o.report.clean_skips == 1
        assert o.report.missed_fences == 0


class TestStrictSync:
    def test_unfenced_barrier_ordered_conflict_flagged(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "put")  # never fenced
        for r in (0, 1):
            o.on_barrier_enter(r)
        for r in (0, 1):
            o.on_barrier_exit(r)
        o.on_read(1, 1, (1, 0), 0, 64, "get")
        assert o.report.unfenced_syncs == 1

    def test_fence_certified_write_not_flagged(self):
        o = make_oracle()
        o.on_write(0, 1, (1, 0), 0, 64, "put")
        o.on_fence(0, 1)
        for r in (0, 1):
            o.on_barrier_enter(r)
        for r in (0, 1):
            o.on_barrier_exit(r)
        o.on_read(1, 1, (1, 0), 0, 64, "get")
        assert o.report.unfenced_syncs == 0


class TestAttach:
    def test_attach_sets_every_rank(self):
        job = ArmciJob(2, config=ArmciConfig(), procs_per_node=2)
        oracle = attach_oracle(job)
        assert all(rt.observer is oracle for rt in job.processes)

    def test_am_service_log_records_dispatch_names(self):
        job = ArmciJob(2, config=ArmciConfig(), procs_per_node=2)
        job.init()
        oracle = attach_oracle(job)

        def body(rt):
            yield from rt.group_allreduce(rt.group((0, 1)), 1.0)

        job.run(body)
        assert (1, "group_message", 0) in oracle.report.service_log

    def test_observed_job_flags_nothing_on_clean_workload(self):
        job = ArmciJob(2, config=ArmciConfig(), procs_per_node=2)
        job.init()
        oracle = attach_oracle(job)

        def body(rt):
            alloc = yield from rt.malloc(256)
            scratch = yield from rt.malloc(256)
            src = scratch.addr(rt.rank)
            dst = 1 - rt.rank
            yield from rt.put(dst, src, alloc.addr(dst) + rt.rank * 128, 64)
            yield from rt.fence(dst)
            yield from rt.barrier()
            yield from rt.get(dst, src + 128, alloc.addr(dst), 64)
            yield from rt.barrier()

        job.run(body)
        assert oracle.report.ok, oracle.report.summary()
        assert oracle.report.missed_fences == 0
