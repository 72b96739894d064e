"""Cross-backend schedule fuzzing: the mpi3 transport under exploration.

The conformance suite proves each ARMCI operation behaves over mpi3;
this file proves the *composition* holds under adversarial scheduling:
the strided dgemm pattern and the SCF application proxy run over
``backend="mpi3"`` across 25 seeds with the
:class:`~repro.verify.oracle.HappensBeforeOracle` attached, and every
schedule must stay violation-free with exact semantics. The mpi3
overheads (origin occupancy, flush round-trips, AM emulation cost)
shift every timing in the schedule, so this explores a genuinely
different schedule space than the PAMI runs in
``test_fuzz_targets.py``.
"""

import os

import pytest

from repro.verify import target_scf, target_strided, target_vector

#: The issue's acceptance gate is 25 seeds; CI can widen or narrow it.
SEEDS = int(os.environ.get("REPRO_BACKEND_FUZZ_SEEDS", "25"))

MPI3 = {"backend": "mpi3"}


class TestMpi3Fuzz:
    def test_strided_25_seeds_zero_violations(self):
        digests = set()
        for seed in range(SEEDS):
            r = target_strided(seed, config_overrides=MPI3)
            assert r.ok, f"strided/mpi3 seed {seed}: {r.failures[:3]}"
            assert not r.oracle.report.violations
            digests.add(r.digest)
        # The exploration must actually explore, not replay one schedule.
        assert len(digests) == SEEDS

    def test_scf_25_seeds_zero_violations(self):
        digests = set()
        for seed in range(SEEDS):
            r = target_scf(seed, config_overrides=MPI3)
            assert r.ok, f"scf/mpi3 seed {seed}: {r.failures[:3]}"
            assert not r.oracle.report.violations
            digests.add(r.digest)
        assert len(digests) == SEEDS

    def test_backend_shifts_schedule_space(self):
        # Same seed, same policy: the mpi3 overheads must perturb the
        # explored schedule (different digest) while staying clean.
        pami = target_strided(0, config_overrides={"backend": "pami"})
        mpi3 = target_strided(0, config_overrides=MPI3)
        assert pami.ok and mpi3.ok
        assert pami.digest != mpi3.digest

    def test_mpi3_counters_reach_fuzz_workloads(self):
        r = target_vector(1, config_overrides=MPI3)
        assert r.ok, r.failures[:3]
        assert r.counters.get("transport.am_emulations", 0) > 0
        assert r.counters.get("transport.flush_syncs", 0) > 0
