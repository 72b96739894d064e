"""Tests for the NWChem SCF proxy application."""

import pytest

from repro.armci import ArmciConfig
from repro.apps.nwchem import (
    ScfConfig,
    WaterCluster,
    basis_function_count,
    fock_task_list,
    run_scf,
)
from repro.errors import ReproError


class TestMolecule:
    def test_cluster_atom_counts(self):
        w = WaterCluster(6)
        assert w.n_atoms == 18
        assert w.n_electrons == 60
        atoms = w.atoms
        assert len(atoms) == 18
        assert sum(1 for a in atoms if a.symbol == "O") == 6
        assert sum(1 for a in atoms if a.symbol == "H") == 12

    def test_cluster_geometry_is_physical(self):
        import numpy as np

        w = WaterCluster(2)
        atoms = w.atoms
        o = np.array(atoms[0].position)
        h1 = np.array(atoms[1].position)
        h2 = np.array(atoms[2].position)
        assert np.linalg.norm(h1 - o) == pytest.approx(0.9572, abs=1e-4)
        assert np.linalg.norm(h2 - o) == pytest.approx(0.9572, abs=1e-4)
        # Molecules don't overlap.
        o2 = np.array(atoms[3].position)
        assert np.linalg.norm(o2 - o) > 2.0

    def test_basis_counts(self):
        w = WaterCluster(6)
        assert w.nbf("aug-cc-pVDZ") == 6 * (23 + 2 * 9)  # 246
        assert w.nbf("6-31G**") == 6 * 25
        assert w.nbf("cc-pVTZ") == 6 * 58

    def test_unknown_basis_rejected(self):
        with pytest.raises(ReproError, match="unknown basis"):
            WaterCluster(1).nbf("nope")

    def test_empty_cluster_rejected(self):
        with pytest.raises(ReproError):
            WaterCluster(0)

    def test_paper_nbf_override(self):
        assert ScfConfig().nbf == 644
        assert ScfConfig(nbf_override=None).nbf == 246


class TestTasks:
    def test_task_count_is_nblocks_squared(self):
        tasks = fock_task_list(64, 8, 1e-3)
        assert len(tasks) == 64
        assert [t.task_id for t in tasks] == list(range(64))

    def test_blocks_partition_nbf(self):
        tasks = fock_task_list(13, 4, 1e-3)
        diag = [t for t in tasks if t.i_blk == t.j_blk]
        covered = []
        for t in diag:
            covered.extend(range(t.row_lo, t.row_hi))
        assert sorted(covered) == list(range(13))

    def test_costs_vary_but_bounded(self):
        tasks = fock_task_list(64, 8, 1e-3)
        costs = [t.cost for t in tasks]
        assert min(costs) >= 0.5e-3
        assert max(costs) <= 1.5e-3
        assert len(set(costs)) > 10  # actual variation

    def test_costs_deterministic(self):
        a = fock_task_list(64, 8, 1e-3)
        b = fock_task_list(64, 8, 1e-3)
        assert [t.cost for t in a] == [t.cost for t in b]

    def test_invalid_params_rejected(self):
        with pytest.raises(ReproError):
            fock_task_list(0, 1, 1e-3)
        with pytest.raises(ReproError):
            fock_task_list(8, 9, 1e-3)
        with pytest.raises(ReproError):
            fock_task_list(8, 2, 0.0)


SMALL = ScfConfig(nbf_override=32, nblocks=4, task_time=200e-6, iterations=1)


class TestScf:
    def test_all_tasks_executed_exactly_once(self):
        res = run_scf(4, ArmciConfig.default_mode(), SMALL, procs_per_node=4)
        assert res.tasks_done == 16

    def test_async_thread_reduces_counter_time(self):
        d = run_scf(8, ArmciConfig.default_mode(), SMALL, procs_per_node=8)
        at = run_scf(8, ArmciConfig.async_thread_mode(), SMALL, procs_per_node=8)
        assert at.counter_time_total < d.counter_time_total / 2
        assert at.total_time < d.total_time

    def test_result_labels(self):
        d = run_scf(2, ArmciConfig.default_mode(), SMALL, procs_per_node=2)
        at = run_scf(2, ArmciConfig.async_thread_mode(), SMALL, procs_per_node=2)
        assert d.config_label == "D"
        assert at.config_label == "AT"

    def test_total_time_bounded_below_by_ideal(self):
        res = run_scf(4, ArmciConfig.async_thread_mode(), SMALL, procs_per_node=4)
        tasks = fock_task_list(SMALL.nbf, SMALL.nblocks, SMALL.task_time)
        assert res.total_time > sum(t.cost for t in tasks) / 4

    def test_multiple_iterations(self):
        cfg = ScfConfig(nbf_override=16, nblocks=2, task_time=100e-6, iterations=3)
        res = run_scf(2, ArmciConfig.async_thread_mode(), cfg, procs_per_node=2)
        assert res.tasks_done == 4 * 3

    def test_counter_fraction_in_unit_range(self):
        res = run_scf(4, ArmciConfig.default_mode(), SMALL, procs_per_node=4)
        assert 0.0 <= res.counter_fraction < 1.0

    def test_strong_scaling_reduces_total_time(self):
        cfg = ScfConfig(nbf_override=64, nblocks=8, task_time=300e-6, iterations=1)
        small = run_scf(2, ArmciConfig.async_thread_mode(), cfg, procs_per_node=2)
        large = run_scf(16, ArmciConfig.async_thread_mode(), cfg, procs_per_node=16)
        assert large.total_time < small.total_time


class TestScfConvergence:
    def test_energy_series_recorded(self):
        cfg = ScfConfig(nbf_override=16, nblocks=2, task_time=100e-6, iterations=3)
        res = run_scf(2, ArmciConfig.async_thread_mode(), cfg, procs_per_node=2)
        assert len(res.energies) == 3
        assert res.iterations_run == 3
        assert not res.converged

    def test_converges_early_with_loose_tolerance(self):
        cfg = ScfConfig(
            nbf_override=16, nblocks=2, task_time=100e-6, iterations=10,
            converge_tol=1e6,  # any delta passes after two iterations
        )
        res = run_scf(2, ArmciConfig.async_thread_mode(), cfg, procs_per_node=2)
        assert res.converged
        assert res.iterations_run == 2
        assert res.tasks_done == 4 * 2

    def test_damped_density_evolves_energy(self):
        cfg = ScfConfig(nbf_override=16, nblocks=2, task_time=100e-6, iterations=3)
        res = run_scf(2, ArmciConfig.async_thread_mode(), cfg, procs_per_node=2)
        assert len(set(res.energies)) > 1  # density update changes D.F


class TestScreening:
    def test_screening_drops_distant_block_pairs(self):
        dense = fock_task_list(64, 8, 1e-3)
        screened = fock_task_list(64, 8, 1e-3, screening_threshold=0.1)
        assert 0 < len(screened) < len(dense)
        # Diagonal (|i-j| = 0) pairs always survive.
        diag = [t for t in screened if t.i_blk == t.j_blk]
        assert len(diag) == 8
        # Surviving ids stay dense for the shared counter.
        assert [t.task_id for t in screened] == list(range(len(screened)))

    def test_no_screening_keeps_full_square(self):
        assert len(fock_task_list(64, 8, 1e-3, screening_threshold=0.0)) == 64

    def test_screened_tasks_are_cheaper_off_diagonal(self):
        screened = fock_task_list(64, 8, 1e-3, screening_threshold=0.01)
        diag = {t.cost for t in screened if t.i_blk == t.j_blk}
        far = {t.cost for t in screened if abs(t.i_blk - t.j_blk) >= 2}
        if far:
            assert max(far) < max(diag)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ReproError):
            fock_task_list(64, 8, 1e-3, screening_threshold=1.5)

    def test_scf_runs_with_screening(self):
        cfg = ScfConfig(
            nbf_override=32, nblocks=4, task_time=200e-6, iterations=1,
            screening_threshold=0.1,
        )
        res = run_scf(4, ArmciConfig.async_thread_mode(), cfg, procs_per_node=4)
        assert 0 < res.tasks_done < 16


class TestScfDeterminism:
    def test_identical_runs_identical_results(self):
        cfg = ScfConfig(nbf_override=32, nblocks=4, task_time=200e-6, iterations=2)
        a = run_scf(4, ArmciConfig.async_thread_mode(), cfg, procs_per_node=4)
        b = run_scf(4, ArmciConfig.async_thread_mode(), cfg, procs_per_node=4)
        assert a.total_time == b.total_time
        assert a.energies == b.energies
        assert a.counter_time_total == b.counter_time_total
