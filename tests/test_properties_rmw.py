"""Property-based tests of AMO semantics and accumulate associativity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.armci import ArmciConfig, ArmciJob

#: Conformance suite: every test in this module runs once per backend
#: (the ``backend`` fixture re-points ``repro.transport.DEFAULT_BACKEND``).
pytestmark = pytest.mark.usefixtures("backend")


def make_job(num_procs=2, **kwargs):
    job = ArmciJob(
        num_procs,
        config=kwargs.pop("config", ArmciConfig()),
        procs_per_node=kwargs.pop("procs_per_node", min(num_procs, 16)),
        **kwargs,
    )
    job.init()
    return job


RMW_OP = st.sampled_from(["fetch_add", "swap", "compare_swap", "fetch"])


class TestRmwStateMachine:
    @given(
        ops=st.lists(
            st.tuples(
                RMW_OP,
                st.integers(-1000, 1000),
                st.integers(-1000, 1000),
            ),
            min_size=1,
            max_size=12,
        ),
        initial=st.integers(-1000, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_sequential_rmw_matches_reference_model(self, ops, initial):
        """A single initiator's op sequence returns exactly the values a
        sequential reference interpreter produces (AMO atomicity +
        per-initiator ordering)."""
        job = make_job()
        results = {}

        def body(rt):
            alloc = yield from rt.malloc(8)
            if rt.rank == 1:
                rt.world.space(1).write_i64(alloc.addr(1), initial)
            yield from rt.barrier()
            if rt.rank == 0:
                observed = []
                for op, a, b in ops:
                    old = yield from rt.rmw(1, alloc.addr(1), op, a, b)
                    observed.append(old)
                results["observed"] = observed
            yield from rt.barrier()
            if rt.rank == 1:
                results["final"] = rt.world.space(1).read_i64(alloc.addr(1))

        job.run(body)

        # Reference interpreter.
        value = initial
        expected = []
        for op, a, b in ops:
            expected.append(value)
            if op == "fetch_add":
                value += a
            elif op == "swap":
                value = a
            elif op == "compare_swap":
                value = b if value == a else value
        assert results["observed"] == expected
        assert results["final"] == value

    @given(
        increments=st.lists(st.integers(1, 50), min_size=2, max_size=6),
    )
    @settings(max_examples=15, deadline=None)
    def test_concurrent_fetch_add_conserves_sum(self, increments):
        """Concurrent fetch_adds from many ranks: the final value equals
        the sum and the returned old values are consistent with *some*
        serialization (distinct partial sums)."""
        p = len(increments) + 1
        job = make_job(num_procs=p, procs_per_node=min(p, 16))
        olds = {}

        def body(rt):
            alloc = yield from rt.malloc(8)
            yield from rt.barrier()
            if rt.rank > 0:
                old = yield from rt.rmw(
                    0, alloc.addr(0), "fetch_add", increments[rt.rank - 1]
                )
                olds[rt.rank] = old
            yield from rt.barrier()
            if rt.rank == 0:
                return rt.world.space(0).read_i64(alloc.addr(0))

        results = job.run(body)
        assert results[0] == sum(increments)
        # Old values must be distinct prefix-sums of some permutation.
        observed = sorted(olds.values())
        assert observed[0] == 0
        assert len(set(observed)) == len(observed)


class TestAccumulateProperties:
    @given(
        seed=st.integers(0, 2**16),
        n_accs=st.integers(2, 5),
    )
    @settings(max_examples=10, deadline=None)
    def test_accumulate_order_independent_sum(self, seed, n_accs):
        """Accumulates are associative/commutative: any arrival order
        yields the same target values (Section III-E's rationale for not
        ordering them)."""
        rng = np.random.default_rng(seed)
        contributions = rng.integers(-5, 6, size=(n_accs, 8)).astype(float)
        p = n_accs + 1
        job = make_job(num_procs=p, procs_per_node=min(p, 16))

        def body(rt):
            alloc = yield from rt.malloc(64)
            yield from rt.barrier()
            if rt.rank > 0:
                i = rt.rank - 1
                src = rt.world.space(rt.rank).allocate(64)
                rt.world.space(rt.rank).write_f64(src, contributions[i])
                # Stagger posting order pseudo-randomly.
                yield from rt.compute(float(rng.integers(0, 50)) * 1e-6)
                yield from rt.acc(0, src, alloc.addr(0), 64)
                yield from rt.fence(0)
            yield from rt.barrier()
            if rt.rank == 0:
                return rt.world.space(0).read_f64(alloc.addr(0), 8)

        results = job.run(body)
        expected = contributions.sum(axis=0)
        np.testing.assert_allclose(results[0], expected)
