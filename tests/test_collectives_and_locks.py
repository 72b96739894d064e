"""Unit tests for collective structures, mutex tables, ordering checker."""

import pytest

from repro.armci.collectives import HardwareBarrier, ReductionBoard
from repro.armci.locks import MutexTable, mutex_owner
from repro.errors import ArmciError, PamiError
from repro.pami.ordering import OrderingChecker
from repro.sim import Delay, Engine

#: Conformance suite: every test in this module runs once per backend
#: (the ``backend`` fixture re-points ``repro.transport.DEFAULT_BACKEND``).
pytestmark = pytest.mark.usefixtures("backend")


class TestHardwareBarrier:
    def test_releases_after_all_arrive(self):
        eng = Engine()
        bar = HardwareBarrier(eng, 3, latency=1e-6)
        times = []

        def body(i):
            yield Delay(i * 1e-6)
            release = bar.arrive()
            yield release
            times.append(eng.now)

        procs = [eng.spawn(body(i), name=f"p{i}") for i in range(3)]
        eng.run_until_complete(procs)
        # All released 1 us after the last (slowest) arrival at 2 us.
        assert times == [3e-6] * 3
        assert bar.rounds_completed == 1

    def test_multiple_rounds(self):
        eng = Engine()
        bar = HardwareBarrier(eng, 2, latency=0.0)

        def body():
            for _ in range(5):
                yield bar.arrive()

        procs = [eng.spawn(body(), name=f"p{i}") for i in range(2)]
        eng.run_until_complete(procs)
        assert bar.rounds_completed == 5

    def test_double_arrival_in_round_detected(self):
        eng = Engine()
        bar = HardwareBarrier(eng, 3, latency=0.0)
        bar.arrive(0)
        bar.arrive(1)
        with pytest.raises(ArmciError, match="twice"):
            bar.arrive(0)

    def test_zero_participants_rejected(self):
        with pytest.raises(ArmciError):
            HardwareBarrier(Engine(), 0, latency=0.0)


class TestReductionBoard:
    def test_rounds_are_independent(self):
        board = ReductionBoard(2)
        r0 = board.deposit(0, 1.0)
        r1 = board.deposit(1, 2.0)
        assert r0 == r1 == 0
        # Rank 0 races ahead into round 1 before rank 1 collects round 0.
        board.deposit(0, 10.0)
        assert board.collect(0, "sum") == 3.0
        assert board.collect(0, "sum") == 3.0  # second collector
        board.deposit(1, 20.0)
        assert board.collect(1, "max") == 20.0

    def test_incomplete_round_rejected(self):
        board = ReductionBoard(2)
        board.deposit(0, 1.0)
        with pytest.raises(ArmciError, match="incomplete"):
            board.collect(0, "sum")

    def test_double_deposit_rejected(self):
        board = ReductionBoard(2)

        class Fake:
            pass

        board.deposit(0, 1.0)
        # Same rank depositing again advances to its round 1 (legal);
        # a direct duplicate within a round is impossible through the
        # API, so check the guard via internal state instead.
        board._rank_round[0] = 0
        with pytest.raises(ArmciError, match="twice"):
            board.deposit(0, 2.0)

    def test_unknown_op_rejected(self):
        board = ReductionBoard(1)
        rnd = board.deposit(0, 1.0)
        with pytest.raises(ArmciError, match="unknown"):
            board.collect(rnd, "median")

    def test_storage_reclaimed_after_all_collect(self):
        board = ReductionBoard(2)
        rnd = board.deposit(0, 1.0)
        board.deposit(1, 2.0)
        board.collect(rnd, "sum")
        board.collect(rnd, "sum")
        assert rnd not in board._rounds


class TestMutexTable:
    def test_owner_mapping_round_robin(self):
        assert mutex_owner(0, 4) == 0
        assert mutex_owner(5, 4) == 1
        with pytest.raises(ArmciError):
            mutex_owner(-1, 4)

    def test_acquire_release_cycle(self):
        table = MutexTable()
        table.host(3)
        assert table.holder(3) is None
        assert table.try_acquire(3, requester=7, grant="g7", reply_ctx=None)
        assert table.holder(3) == 7
        # Second requester queues.
        assert not table.try_acquire(3, requester=8, grant="g8", reply_ctx=None)
        nxt = table.release(3, releaser=7)
        assert nxt[0] == 8
        assert table.holder(3) == 8
        assert table.release(3, releaser=8) is None
        assert table.holder(3) is None

    def test_release_by_non_holder_rejected(self):
        table = MutexTable()
        table.host(0)
        table.try_acquire(0, 1, "g", None)
        with pytest.raises(ArmciError, match="held by"):
            table.release(0, releaser=2)

    def test_unhosted_mutex_rejected(self):
        table = MutexTable()
        with pytest.raises(ArmciError, match="not hosted"):
            table.holder(9)

    def test_fifo_handoff_order(self):
        table = MutexTable()
        table.host(0)
        table.try_acquire(0, 1, "g1", None)
        table.try_acquire(0, 2, "g2", None)
        table.try_acquire(0, 3, "g3", None)
        assert table.release(0, 1)[0] == 2
        assert table.release(0, 2)[0] == 3


class TestOrderingChecker:
    def test_monotone_deliveries_accepted(self):
        checker = OrderingChecker()
        checker.record(0, 1, 1.0)
        checker.record(0, 1, 1.0)  # equal is fine
        checker.record(0, 1, 2.0)
        assert checker.checked == 3

    def test_reordering_detected(self):
        checker = OrderingChecker()
        checker.record(0, 1, 2.0)
        with pytest.raises(PamiError, match="ordering violated"):
            checker.record(0, 1, 1.0)

    def test_pairs_are_independent(self):
        checker = OrderingChecker()
        checker.record(0, 1, 5.0)
        checker.record(1, 0, 1.0)  # reverse direction, fresh
        checker.record(0, 2, 1.0)  # different target, fresh
        assert checker.checked == 3
