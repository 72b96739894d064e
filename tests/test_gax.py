"""Tests for the mini Global Arrays layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.armci import ArmciConfig, ArmciJob
from repro.errors import GlobalArrayError
from repro.gax import BlockDistribution, GlobalArray, Patch, SharedCounter
from repro.gax.dgemm import dgemm_task_list, parallel_dgemm
from repro.gax.distribution import default_process_grid


def make_job(num_procs=4, config=None, **kwargs):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig(),
        procs_per_node=kwargs.pop("procs_per_node", min(num_procs, 16)),
        **kwargs,
    )
    job.init()
    return job


class TestDistribution:
    def test_default_grid_is_near_square(self):
        assert default_process_grid(4) == (2, 2)
        assert default_process_grid(6) == (2, 3)
        assert default_process_grid(1) == (1, 1)
        assert default_process_grid(7) == (1, 7)

    def test_patch_validation(self):
        with pytest.raises(GlobalArrayError):
            Patch(2, 2, 0, 1)  # empty rows
        with pytest.raises(GlobalArrayError):
            Patch(-1, 2, 0, 1)

    def test_patch_intersection(self):
        a = Patch(0, 4, 0, 4)
        b = Patch(2, 6, 3, 8)
        assert a.intersect(b) == Patch(2, 4, 3, 4)
        assert a.intersect(Patch(4, 8, 0, 4)) is None

    def test_owner_blocks_partition_the_array(self):
        dist = BlockDistribution(10, 10, 2, 2)
        covered = np.zeros((10, 10), dtype=int)
        for rank in range(4):
            blk = dist.owner_block(rank)
            covered[blk.row_lo : blk.row_hi, blk.col_lo : blk.col_hi] += 1
        assert (covered == 1).all()

    def test_owners_of_patch_covers_exactly(self):
        dist = BlockDistribution(8, 8, 2, 2)
        patch = Patch(1, 7, 2, 6)
        covered = np.zeros((8, 8), dtype=int)
        for _rank, sub in dist.owners_of_patch(patch):
            covered[sub.row_lo : sub.row_hi, sub.col_lo : sub.col_hi] += 1
        inside = covered[1:7, 2:6]
        assert (inside == 1).all()
        assert covered.sum() == inside.size

    def test_out_of_bounds_rejected(self):
        dist = BlockDistribution(8, 8, 2, 2)
        with pytest.raises(GlobalArrayError):
            list(dist.owners_of_patch(Patch(0, 9, 0, 4)))
        with pytest.raises(GlobalArrayError):
            dist.owner_block(4)

    @given(
        rows=st.integers(4, 30),
        cols=st.integers(4, 30),
        gr=st.integers(1, 4),
        gc=st.integers(1, 4),
        data=st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_patch_decomposition_property(self, rows, cols, gr, gc, data):
        if gr > rows or gc > cols:
            return
        dist = BlockDistribution(rows, cols, gr, gc)
        r0 = data.draw(st.integers(0, rows - 1))
        r1 = data.draw(st.integers(r0 + 1, rows))
        c0 = data.draw(st.integers(0, cols - 1))
        c1 = data.draw(st.integers(c0 + 1, cols))
        patch = Patch(r0, r1, c0, c1)
        total = 0
        for rank, sub in dist.owners_of_patch(patch):
            blk = dist.owner_block(rank)
            assert blk.intersect(sub) == sub  # sub inside owner's block
            total += sub.shape[0] * sub.shape[1]
        assert total == patch.shape[0] * patch.shape[1]


class TestGlobalArray:
    def test_put_get_roundtrip_whole_array(self):
        job = make_job(4)
        expected = np.arange(64, dtype=np.float64).reshape(8, 8)

        def body(rt):
            ga = yield from GlobalArray.create(rt, (8, 8))
            yield from rt.barrier()
            result = None
            if rt.rank == 0:
                yield from ga.put(rt, Patch(0, 8, 0, 8), expected)
                yield from rt.fence_all()
                result = yield from ga.to_numpy(rt)
            yield from rt.barrier()
            return result

        results = job.run(body)
        np.testing.assert_array_equal(results[0], expected)

    def test_cross_block_patch_get(self):
        job = make_job(4)
        data = np.random.default_rng(42).random((8, 8))

        def body(rt):
            ga = yield from GlobalArray.create(rt, (8, 8))
            yield from rt.barrier()
            result = None
            if rt.rank == 1:
                yield from ga.put(rt, Patch(0, 8, 0, 8), data)
                yield from rt.fence_all()
                # Patch spanning all four blocks.
                result = yield from ga.get(rt, Patch(2, 6, 2, 6))
            yield from rt.barrier()
            return result

        results = job.run(body)
        np.testing.assert_allclose(results[1], data[2:6, 2:6])

    def test_acc_sums_contributions_from_all_ranks(self):
        job = make_job(4)

        def body(rt):
            ga = yield from GlobalArray.create(rt, (8, 8))
            ga.fill(rt, 0.0)
            yield from rt.barrier()
            contribution = np.full((4, 4), float(rt.rank + 1))
            yield from ga.acc(rt, Patch(2, 6, 2, 6), contribution)
            yield from rt.fence_all()
            yield from rt.barrier()
            result = None
            if rt.rank == 0:
                result = yield from ga.to_numpy(rt)
            yield from rt.barrier()
            return result

        results = job.run(body)
        expected = np.zeros((8, 8))
        expected[2:6, 2:6] = 1 + 2 + 3 + 4
        np.testing.assert_allclose(results[0], expected)

    def test_local_block_view_is_writable(self):
        job = make_job(4)

        def body(rt):
            ga = yield from GlobalArray.create(rt, (8, 8))
            ga.local_block(rt)[:] = float(rt.rank)
            yield from rt.barrier()
            result = None
            if rt.rank == 0:
                result = yield from ga.to_numpy(rt)
            yield from rt.barrier()
            return result

        results = job.run(body)
        full = results[0]
        assert full[0, 0] == 0.0
        assert full[0, 7] == 1.0
        assert full[7, 0] == 2.0
        assert full[7, 7] == 3.0

    def test_shape_mismatch_rejected(self):
        job = make_job(4)

        def body(rt):
            ga = yield from GlobalArray.create(rt, (8, 8))
            if rt.rank == 0:
                yield from ga.put(rt, Patch(0, 2, 0, 2), np.zeros((3, 3)))
            yield from rt.barrier()

        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="shape"):
            job.run(body)

    def test_patch_out_of_bounds_rejected(self):
        job = make_job(4)

        def body(rt):
            ga = yield from GlobalArray.create(rt, (8, 8))
            if rt.rank == 0:
                yield from ga.get(rt, Patch(0, 9, 0, 8))
            yield from rt.barrier()

        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="exceeds"):
            job.run(body)


class TestSharedCounter:
    def test_all_draws_distinct_and_dense(self):
        p = 6
        job = make_job(p, procs_per_node=3)

        def body(rt):
            counter = yield from SharedCounter.create(rt)
            yield from rt.barrier()
            draws = []
            for _ in range(4):
                draws.append((yield from counter.next(rt)))
            yield from rt.barrier()
            return draws

        results = job.run(body)
        all_draws = sorted(d for ds in results for d in ds)
        assert all_draws == list(range(4 * p))

    def test_read_and_reset(self):
        job = make_job(2, procs_per_node=2)

        def body(rt):
            counter = yield from SharedCounter.create(rt)
            yield from rt.barrier()
            out = None
            if rt.rank == 1:
                yield from counter.next(rt)
                value = yield from rt.rmw(counter.host, counter.addr, "fetch")
                old = yield from counter.reset(rt)
                after = yield from rt.rmw(counter.host, counter.addr, "fetch")
                out = (value, old, after)
            yield from rt.barrier()
            return out

        results = job.run(body)
        assert results[1] == (1, 1, 0)

    def test_invalid_host_rejected(self):
        job = make_job(2, procs_per_node=2)

        def body(rt):
            yield from SharedCounter.create(rt, host=5)

        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            job.run(body)


class TestDgemm:
    def test_task_list_covers_all_blocks(self):
        tasks = dgemm_task_list(8, 4)
        assert len(tasks) == 2 * 2 * 2

    def test_parallel_dgemm_matches_numpy(self):
        p = 4
        job = make_job(p)
        rng = np.random.default_rng(7)
        a = rng.random((8, 8))
        b = rng.random((8, 8))

        def body(rt):
            ga_a = yield from GlobalArray.create(rt, (8, 8), name="A")
            ga_b = yield from GlobalArray.create(rt, (8, 8), name="B")
            ga_c = yield from GlobalArray.create(rt, (8, 8), name="C")
            counter = yield from SharedCounter.create(rt)
            ga_c.fill(rt, 0.0)
            yield from rt.barrier()
            if rt.rank == 0:
                yield from ga_a.put(rt, Patch(0, 8, 0, 8), a)
                yield from ga_b.put(rt, Patch(0, 8, 0, 8), b)
                yield from rt.fence_all()
            yield from rt.barrier()
            done = yield from parallel_dgemm(rt, ga_a, ga_b, ga_c, counter, block=4)
            result = None
            if rt.rank == 0:
                result = yield from ga_c.to_numpy(rt)
            yield from rt.barrier()
            return (done, result)

        results = job.run(body)
        total_tasks = sum(r[0] for r in results)
        assert total_tasks == len(dgemm_task_list(8, 4))
        np.testing.assert_allclose(results[0][1], a @ b, rtol=1e-12)

    def test_dgemm_under_both_trackers_same_result(self):
        rng = np.random.default_rng(3)
        a = rng.random((8, 8))
        b = rng.random((8, 8))
        outputs = {}
        fences = {}
        for tracker in ("cs_tgt", "cs_mr"):
            job = make_job(4, config=ArmciConfig(consistency_tracker=tracker))

            def body(rt):
                ga_a = yield from GlobalArray.create(rt, (8, 8))
                ga_b = yield from GlobalArray.create(rt, (8, 8))
                ga_c = yield from GlobalArray.create(rt, (8, 8))
                counter = yield from SharedCounter.create(rt)
                ga_c.fill(rt, 0.0)
                yield from rt.barrier()
                if rt.rank == 0:
                    yield from ga_a.put(rt, Patch(0, 8, 0, 8), a)
                    yield from ga_b.put(rt, Patch(0, 8, 0, 8), b)
                    yield from rt.fence_all()
                yield from rt.barrier()
                yield from parallel_dgemm(rt, ga_a, ga_b, ga_c, counter, block=4)
                result = None
                if rt.rank == 0:
                    result = yield from ga_c.to_numpy(rt)
                yield from rt.barrier()
                return result

            outputs[tracker] = job.run(body)[0]
            fences[tracker] = job.trace.count("armci.fences_forced")
        np.testing.assert_allclose(outputs["cs_tgt"], outputs["cs_mr"])
        # The proposed tracker issues strictly fewer forced fences.
        assert fences["cs_mr"] < fences["cs_tgt"]


class TestCollectiveAlgebra:
    def test_dot_matches_numpy(self):
        import numpy as np

        job = make_job(4)
        rng = np.random.default_rng(11)
        a = rng.random((8, 8))
        b = rng.random((8, 8))

        def body(rt):
            ga_a = yield from GlobalArray.create(rt, (8, 8))
            ga_b = yield from GlobalArray.create(rt, (8, 8))
            yield from rt.barrier()
            if rt.rank == 0:
                yield from ga_a.put(rt, Patch(0, 8, 0, 8), a)
                yield from ga_b.put(rt, Patch(0, 8, 0, 8), b)
                yield from rt.fence_all()
            yield from rt.barrier()
            return (yield from ga_a.dot(rt, ga_b))

        results = job.run(body)
        assert all(r == pytest.approx(float((a * b).sum())) for r in results)

    def test_dot_distribution_mismatch_rejected(self):
        job = make_job(4)

        def body(rt):
            ga_a = yield from GlobalArray.create(rt, (8, 8))
            ga_b = yield from GlobalArray.create(rt, (8, 4))
            yield from ga_a.dot(rt, ga_b)

        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="distributions"):
            job.run(body)
