"""What a job builds per rank is O(1) in the number of ranks.

The gates are byte counts (``tracemalloc``) and object identity, never
wall-clock, so they hold on a loaded host: a structure that grows with
the rank count *per rank* makes a job quadratic, and shows up here as a
peak that grows faster than the rank count.
"""

import gc
import tracemalloc

import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.armci import dispatch as disp
from repro.armci.runtime import ACK_PRUNE_FLOOR, AM_HANDLERS, AllocationDirectory
from repro.chaos import FaultPlan
from repro.errors import ArmciError
from repro.sim.event import Event
from repro.verify.oracle import attach_oracle

from .test_recovery import (
    make_job as make_recovery_job,
    neighbor_epoch,
    neighbor_setup,
    probe_run,
)


def _traced(fn):
    """``(result, peak_bytes, retained_bytes)`` of ``fn()`` under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, current - before


def _ready_job(ranks):
    job = ArmciJob(ranks, config=ArmciConfig(), procs_per_node=16)
    job.init()
    return job


def _malloc_barrier(ranks):
    job = _ready_job(ranks)

    def body(rt):
        alloc = yield from rt.malloc(1024)
        yield from rt.barrier()
        return alloc

    return job.run(body)


class TestSharedAllocation:
    def test_every_rank_gets_the_identical_allocation(self):
        allocs = _malloc_barrier(64)
        assert all(a is allocs[0] for a in allocs)
        assert sorted(allocs[0].addresses) == list(range(64))
        assert all(allocs[0].registered[r] for r in range(64))

    def test_the_shared_tables_are_read_only(self):
        alloc = _malloc_barrier(16)[0]
        with pytest.raises(TypeError):
            alloc.addresses[0] = 0
        with pytest.raises(TypeError):
            alloc.registered[0] = False

    def test_directory_completes_on_the_last_record(self):
        directory = AllocationDirectory(3)
        directory.record(0, 0, 100, 64, True)
        directory.record(0, 2, 300, 64, False)
        with pytest.raises(ArmciError, match="incomplete: 2/3"):
            directory.allocation(0)
        with pytest.raises(ArmciError, match="mismatch"):
            directory.record(0, 1, 200, 65, True)
        directory.record(0, 1, 200, 64, True)
        alloc = directory.allocation(0)
        assert alloc is directory.allocation(0)
        assert dict(alloc.addresses) == {0: 100, 2: 300, 1: 200}
        assert dict(alloc.registered) == {0: True, 2: False, 1: True}
        with pytest.raises(ArmciError, match="twice"):
            directory.record(0, 1, 200, 64, True)

    def test_replayed_malloc_returns_the_shared_allocation(self):
        seen = []

        def setup(rt):
            resources, state = yield from neighbor_setup(rt)
            seen.append((rt.rank, resources))
            return resources, state

        _clean, _job, _w, commits = probe_run(neighbor_setup, neighbor_epoch)
        crash_at = commits[0] + 0.5 * (commits[1] - commits[0])
        job = make_recovery_job(fault_plan=FaultPlan().crash(1, at=crash_at))
        job.recovery.run(setup, neighbor_epoch, epochs=3)
        assert job.trace.count("armci.mallocs_replayed") == 1
        # Four first-run setups plus rank 1's replay after its respawn.
        assert [rank for rank, _ in seen].count(1) == 2
        assert all(alloc is job.directory.allocation(0) for _, alloc in seen)


class TestBytesPerRank:
    def test_malloc_barrier_peak_grows_linearly_with_ranks(self):
        _, small, _ = _traced(lambda: _malloc_barrier(512))
        _, large, _ = _traced(lambda: _malloc_barrier(2048))
        # Linear is 4x. Per-rank copies of the address table (O(ranks)
        # each) made this 16x.
        assert large <= 6 * small, (small, large)

    def test_ready_job_holds_at_most_8kb_per_rank(self):
        ranks = 1024
        _ready_job(16)  # imports and one-time caches out of the count
        job, _, retained = _traced(lambda: _ready_job(ranks))
        assert job.num_procs == ranks
        assert retained / ranks <= 8 * 1024, retained / ranks

    def test_one_dispatch_table_serves_every_rank(self):
        job = _ready_job(32)
        for rt in job.processes:
            client = rt.client
            assert client._dispatcher_ids is AM_HANDLERS
            assert not client._dispatch
            for dispatch_id in AM_HANDLERS:
                assert client.handler_for(dispatch_id) == rt._dispatch_am

    def test_idle_context_holds_no_waiter_deques(self):
        ctx = _ready_job(16).rt(3).main_context
        assert ctx.lock._waiters is None
        assert ctx.queue._getters is None


class TestAllreduceOnce:
    def test_sum_max_min_over_64_ranks_reduce_once_per_round(self):
        ranks = 64
        job = _ready_job(ranks)

        def body(rt):
            s = yield from rt.allreduce(float(rt.rank + 1), "sum")
            mx = yield from rt.allreduce(float(rt.rank), "max")
            mn = yield from rt.allreduce(float(rt.rank) - 5.0, "min")
            return s, mx, mn

        results = job.run(body)
        expect = (float(ranks * (ranks + 1) // 2), float(ranks - 1), -5.0)
        assert all(r == expect for r in results)
        board = job.reduction_board
        assert board.rounds_reduced == 3
        # Every round was reclaimed after its last collector.
        assert not board._rounds and not board._reduced

    def test_incomplete_round_still_refused(self):
        job = _ready_job(16)
        board = job.reduction_board
        rnd = board.deposit(0, 1.0)
        with pytest.raises(ArmciError, match="incomplete: 1/16"):
            board.collect(rnd, "sum")

    def test_mismatched_ops_in_one_round_are_refused(self):
        job = _ready_job(16)
        board = job.reduction_board
        for rank in range(16):
            rnd = board.deposit(rank, float(rank))
        assert board.collect(rnd, "max") == 15.0
        with pytest.raises(ArmciError, match="mismatch"):
            board.collect(rnd, "sum")

    def test_unknown_op_is_refused_by_every_collector(self):
        board = _ready_job(16).reduction_board
        for rank in range(16):
            rnd = board.deposit(rank, float(rank))
        for _ in range(2):
            with pytest.raises(ArmciError, match="unknown reduction"):
                board.collect(rnd, "median")


class TestObserverThroughSharedDispatcher:
    def test_observer_attached_after_init_sees_am_service(self):
        job = ArmciJob(4, config=ArmciConfig(), procs_per_node=2)
        job.init()
        oracle = attach_oracle(job)

        def body(rt):
            alloc = yield from rt.malloc(256)
            if rt.rank == 0:
                src = rt.world.space(0).allocate(64)
                yield from rt.acc(3, src, alloc.addr(3), 64)
                yield from rt.fence(3)
                yield from rt.lock(2)
                yield from rt.unlock(2)
            yield from rt.barrier()

        job.run(body)
        log = oracle.report.service_log
        assert (3, disp.DISPATCH_NAMES[disp.ACC_REQUEST], 0) in log
        assert (2, disp.DISPATCH_NAMES[disp.LOCK_REQUEST], 0) in log
        assert (2, disp.DISPATCH_NAMES[disp.UNLOCK_REQUEST], 0) in log


class _ProbedEvent(Event):
    """An event that counts how often its completion is inspected."""

    __slots__ = ("probes",)

    def __init__(self, engine, probes):
        super().__init__(engine, name="probed")
        self.probes = probes

    @property
    def triggered(self):
        self.probes.append(self)
        return super().triggered


class TestAmortisedPruning:
    N = 2000

    def test_outstanding_acks_cost_constant_work_each(self):
        job = _ready_job(16)
        rt = job.rt(0)
        probes = []
        for _ in range(self.N):
            rt.track_write_ack(1, _ProbedEvent(job.engine, probes))
        # Nothing completed, so every ack is kept; the prunes ran at 129,
        # 259, 519 and 1039 entries, not on each of the ~1900 appends
        # past the floor (1.9 M inspections).
        assert len(rt._pending_acks[1]) == self.N
        assert len(probes) <= 2 * self.N
        assert rt.has_pending_writes(1)

    def test_completed_acks_are_still_pruned(self):
        job = _ready_job(16)
        rt = job.rt(0)
        for i in range(300):
            ack = job.engine.event(f"ack{i}")
            ack.succeed()
            rt.track_write_ack(1, ack)
        assert len(rt._pending_acks[1]) <= ACK_PRUNE_FLOOR + 1

    def test_fence_restarts_the_prune_schedule(self):
        job = _ready_job(16)

        def body(rt):
            if rt.rank == 0:
                for i in range(ACK_PRUNE_FLOOR * 3):
                    rt.track_write_ack(1, job.engine.event(f"ack{i}"))
                assert rt._ack_prune_at[1] > ACK_PRUNE_FLOOR
                for ack in rt._pending_acks[1]:
                    ack.succeed()
                yield from rt.fence(1)
                assert not rt.has_pending_writes(1)
                assert 1 not in rt._ack_prune_at
            yield from rt.barrier()

        job.run(body)

    def test_live_watches_cost_constant_work_each(self):
        job = _ready_job(16)
        detector = job.failure_detector
        probes = []
        live = [_ProbedEvent(job.engine, probes) for _ in range(self.N)]
        for ev in live:
            detector.watch(ev, [1])
        assert len(detector._watches) == self.N
        assert len(probes) <= 2 * self.N
        # Once they trigger, the next prune drops them all.
        for ev in live:
            ev.succeed()
        for i in range(self.N):
            detector.watch(job.engine.event(f"w{i}"), [2])
        assert not any(ev.triggered for ev, _ in detector._watches[: self.N // 2])
        assert len(detector._watches) < 2 * self.N
