"""Unit tests for collective structures and the ordering checker."""

import pytest

from repro.armci.collectives import HardwareBarrier, ReductionBoard
from repro.errors import ArmciError, PamiError
from repro.pami.ordering import OrderingChecker
from repro.sim import Delay, Engine

from .conftest import ordered_delivery

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
        assert board.collect(0) == 3.0
        assert board.collect(0) == 3.0  # second collector
        board.deposit(1, 20.0)
        assert board.collect(1) == 30.0

    def test_incomplete_round_rejected(self):
        board = ReductionBoard(2)
        board.deposit(0, 1.0)
        with pytest.raises(ArmciError, match="incomplete"):
            board.collect(0)

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

    def test_storage_reclaimed_after_all_collect(self):
        board = ReductionBoard(2)
        rnd = board.deposit(0, 1.0)
        board.deposit(1, 2.0)
        board.collect(rnd)
        board.collect(rnd)
        assert rnd not in board._rounds


class _Jitter:
    """A chaos stand-in whose jitter draws are scripted."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def jitter(self, src, dst):
        return self.draws.pop(0)


class TestOrderingChecker:
    def test_monotone_deliveries_accepted(self):
        checker, pair = OrderingChecker(), ordered_delivery(0, 1)
        assert checker.deliver(pair, 1.0) == 1.0
        assert checker.deliver(pair, 1.0) == 1.0  # equal is fine
        assert checker.deliver(pair, 2.0) == 2.0
        assert checker.checked == 3

    def test_reordering_detected(self):
        checker = OrderingChecker()
        checker.deliver(ordered_delivery(0, 1), 2.0)
        with pytest.raises(PamiError, match="ordering violated"):
            checker.deliver(ordered_delivery(0, 1), 1.0)

    def test_pairs_are_independent(self):
        checker = OrderingChecker()
        checker.deliver(ordered_delivery(0, 1), 5.0)
        checker.deliver(ordered_delivery(1, 0), 1.0)  # reverse direction, fresh
        checker.deliver(ordered_delivery(0, 2), 1.0)  # different target, fresh
        assert checker.checked == 3

    def test_chaos_jitter_is_added_then_clamped(self):
        checker, chaos = OrderingChecker(), _Jitter(3.0, 0.0, 0.5)
        jittered = ordered_delivery(0, 1, chaos)
        assert checker.deliver(jittered, 1.0) == 4.0
        # Unjittered, the next message would overtake: head-of-line blocked.
        assert checker.deliver(jittered, 2.0) == 4.0
        assert checker.deliver(jittered, 5.0) == 5.5
        assert checker.deliver(ordered_delivery(1, 0), 2.0) == 2.0  # the other direction
        assert checker.checked == 4

    def test_link_mode_clamps_instead_of_raising(self):
        checker = OrderingChecker()
        checker.deliver(ordered_delivery(0, 1, link_mode=True), 3.0)
        # A reroute onto a shorter path: held behind the earlier message.
        assert checker.deliver(ordered_delivery(0, 1, link_mode=True), 2.0) == 3.0
        with pytest.raises(PamiError, match="ordering violated"):
            checker.deliver(ordered_delivery(0, 1), 2.5)  # knobs off, the same map raises
