"""Tests for processor groups and software tree collectives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.armci import ArmciConfig, ArmciJob
from repro.armci.groups import ProcessGroup
from repro.errors import ArmciError


def make_job(num_procs=8, config=None):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig.async_thread_mode(),
        procs_per_node=min(num_procs, 16),
    )
    job.init()
    return job


class TestProcessGroup:
    def test_membership(self):
        g = ProcessGroup((3, 1, 5))
        assert g.size == 3
        assert g.index_of(1) == 1
        assert 5 in g.members
        assert 0 not in g.members
        with pytest.raises(ArmciError):
            g.index_of(0)

    def test_validation(self):
        with pytest.raises(ArmciError):
            ProcessGroup(())
        with pytest.raises(ArmciError):
            ProcessGroup((1, 1))


class TestGroupCollectives:
    def test_allreduce_sum_over_subset(self):
        job = make_job(8)
        members = (1, 3, 4, 6)

        def body(rt):
            group = rt.group(members)
            if rt.rank in members:
                result = yield from rt.group_allreduce(group, float(rt.rank))
                return result
            yield from rt.compute(1e-3)  # non-members do unrelated work

        results = job.run(body)
        expected = float(sum(members))
        for r in members:
            assert results[r] == expected
        assert results[0] is None

    def test_allreduce_max_min(self):
        job = make_job(4)
        members = (0, 1, 2, 3)

        def body(rt):
            group = rt.group(members)
            mx = yield from rt.group_allreduce(group, float(rt.rank), "max")
            mn = yield from rt.group_allreduce(group, float(rt.rank), "min")
            return (mx, mn)

        assert all(r == (3.0, 0.0) for r in job.run(body))

    def test_unknown_op_rejected(self):
        job = make_job(2)

        def body(rt):
            group = rt.group((0, 1))
            yield from rt.group_allreduce(group, 1.0, "median")

        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="unknown reduction"):
            job.run(body)

    def test_broadcast_from_default_root(self):
        job = make_job(8)
        members = (2, 5, 7)

        def body(rt):
            group = rt.group(members)
            if rt.rank in members:
                value = f"payload-from-2" if rt.rank == 2 else None
                return (yield from rt.group_broadcast(group, value))
            return None
            yield  # pragma: no cover

        results = job.run(body)
        for r in members:
            assert results[r] == "payload-from-2"

    def test_broadcast_from_explicit_root(self):
        job = make_job(4)
        members = (0, 1, 2, 3)

        def body(rt):
            group = rt.group(members)
            value = rt.rank * 100
            return (yield from rt.group_broadcast(group, value, root_rank=2))

        assert job.run(body) == [200, 200, 200, 200]

    def test_group_barrier_synchronizes_members_only(self):
        job = make_job(6)
        members = (0, 2, 4)
        times = {}

        def body(rt):
            group = rt.group(members)
            if rt.rank in members:
                yield from rt.compute(rt.rank * 10e-6)
                yield from rt.group_barrier(group)
                times[rt.rank] = rt.engine.now
            else:
                yield from rt.compute(1e-6)

        job.run(body)
        latest_arrival = 4 * 10e-6
        for r in members:
            assert times[r] >= latest_arrival

    def test_consecutive_collectives_do_not_crosstalk(self):
        job = make_job(4)
        members = (0, 1, 2, 3)

        def body(rt):
            group = rt.group(members)
            first = yield from rt.group_allreduce(group, 1.0)
            second = yield from rt.group_allreduce(group, 2.0)
            third = yield from rt.group_allreduce(group, float(rt.rank))
            return (first, second, third)

        assert all(r == (4.0, 8.0, 6.0) for r in job.run(body))

    def test_two_disjoint_groups_run_concurrently(self):
        job = make_job(8)
        g_a, g_b = (0, 1, 2, 3), (4, 5, 6, 7)

        def body(rt):
            members = g_a if rt.rank < 4 else g_b
            group = rt.group(members)
            return (yield from rt.group_allreduce(group, float(rt.rank)))

        results = job.run(body)
        assert results[:4] == [6.0] * 4
        assert results[4:] == [22.0] * 4

    def test_singleton_group(self):
        job = make_job(2)

        def body(rt):
            group = rt.group((rt.rank,))
            return (yield from rt.group_allreduce(group, float(rt.rank + 1)))

        assert job.run(body) == [1.0, 2.0]

    @given(n=st.integers(2, 8), seed=st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_allreduce_any_group_size(self, n, seed):
        import random

        rng = random.Random(seed)
        members = tuple(sorted(rng.sample(range(8), n)))
        job = make_job(8)

        def body(rt):
            group = rt.group(members)
            if rt.rank in members:
                return (yield from rt.group_allreduce(group, float(rt.rank)))
            return None
            yield  # pragma: no cover

        results = job.run(body)
        for r in members:
            assert results[r] == float(sum(members))
