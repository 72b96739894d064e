"""Crash-recovery subsystem tests (:mod:`repro.recover`).

Covers the full stack: buddy placement, replication bookkeeping, the
coordinated checkpoint/commit protocol, the fault-tolerant recovery
rendezvous, and the epoch driver surviving repeated rank deaths —
including mid-transfer and mid-checkpoint crashes — with numerics
identical to the fault-free run.

Crash times are placed *inside* a measured run: the simulator is
deterministic, so a clean probe run (same program, same seed) shares an
identical prefix with the crashy run up to the kill, which lets tests
aim a crash at "mid epoch 1" or "2 us before epoch 2's commit" exactly.
"""

import numpy as np
import pytest

from repro.armci import ArmciConfig, ArmciJob, ObsConfig
from repro.armci.config import RetryPolicy
from repro.chaos import ChaosConfig, FaultPlan
from repro.errors import (
    ProcessFailedError,
    ReproError,
    SimulationError,
    UnrecoverableError,
)
from repro.gax import DistributedTaskPool, GlobalArray, Patch
from repro.pami import PamiWorld
from repro.recover import RecoveryConfig, RecoveryManager, choose_buddy
from repro.recover.barrier import RESTART, RecoveryRendezvous
from repro.recover.manager import _dirty_fragments
from repro.sim.engine import Engine
from repro.obs.metrics import MetricsRegistry
from repro.types import StridedDescriptor, StridedShape
from repro.armci.vector import IoVector

P = 4
NBYTES = 512
EPOCHS = 3


def make_job(fault_plan=None, chaos=None, num_procs=P, obs=None, **rkw):
    rkw.setdefault("chunk_bytes", 64)
    overrides = {} if obs is None else {"obs": obs}
    cfg = ArmciConfig.async_thread_mode(
        retry=RetryPolicy(),
        default_deadline=2.0,
        recovery=RecoveryConfig(**rkw),
        **overrides,
    )
    job = ArmciJob(
        num_procs, config=cfg, procs_per_node=1,
        fault_plan=fault_plan, chaos=chaos,
    )
    job.init()
    return job


def probe_run(setup_fn, epoch_fn, epochs=EPOCHS, **jobkw):
    """Clean run capturing commit instants, for aiming crashes.

    Returns ``(results, job, window, commits)`` where ``commits`` are
    the successful commit times relative to run start (baseline first)
    and ``window`` is the whole run's duration.
    """
    job = make_job(**jobkw)
    commits = []
    orig = RecoveryManager._finalize_commit

    def recording(self, epoch):
        pc = self._pending_commit
        fresh = pc is not None and pc["epoch"] == epoch and not pc["done"]
        orig(self, epoch)
        if fresh and pc["done"]:
            commits.append(self.engine.now)

    RecoveryManager._finalize_commit = recording
    t0 = job.engine.now
    try:
        results = job.recovery.run(setup_fn, epoch_fn, epochs=epochs)
    finally:
        RecoveryManager._finalize_commit = orig
    window = job.engine.now - t0
    return results, job, window, [t - t0 for t in commits]


def mid_after(commits, t):
    """Midpoint of the first full inter-commit gap after time ``t`` —
    i.e. squarely inside the epoch that follows the first commit to
    land after ``t`` (all times relative to run start)."""
    post = [c for c in commits if c > t]
    return post[0] + 0.5 * (post[1] - post[0])


# --------------------------------------------------------- epoch apps


def neighbor_setup(rt):
    alloc = yield from rt.malloc(NBYTES)
    yield from rt.job.recovery.protect(rt, alloc)
    rt.world.space(rt.rank).view(alloc.addr(rt.rank), NBYTES)[:] = rt.rank
    return alloc, {"sum": 0.0, "epochs_run": []}


def neighbor_epoch(rt, alloc, state, epoch):
    """Contiguous put/get ring: each rank stamps a slice of the next
    rank's protected region, then reads a slice back into its state."""
    dst = (rt.rank + 1) % P
    space = rt.world.space(rt.rank)
    scratch = space.allocate(64)
    space.view(scratch, 64)[:] = epoch + 1
    yield from rt.put(dst, scratch, alloc.addr(dst) + 64 * (epoch % 4), 64)
    yield from rt.fence(dst)
    yield from rt.get(dst, scratch, alloc.addr(dst), 64)
    state["sum"] += float(space.view(scratch, 64).sum())
    state["epochs_run"] = state["epochs_run"] + [epoch]


def strided_setup(rt):
    alloc = yield from rt.malloc(NBYTES)
    yield from rt.job.recovery.protect(rt, alloc)
    rt.world.space(rt.rank).view(alloc.addr(rt.rank), NBYTES)[:] = 7
    return alloc, {"sum": 0.0}


def strided_epoch(rt, alloc, state, epoch):
    """2D-patch traffic: strided put into the neighbor's protected
    region, strided get back (what was just fenced is deterministic)."""
    dst = (rt.rank + 1) % P
    space = rt.world.space(rt.rank)
    desc = StridedDescriptor(StridedShape(16, (4,)), (32,), (128,))
    local = space.allocate(4 * 32)
    space.view(local, 4 * 32)[:] = 10 * (epoch + 1) + rt.rank
    remote = alloc.addr(dst) + 16 * (epoch % 2)
    yield from rt.puts(dst, local, remote, desc)
    yield from rt.fence(dst)
    back = space.allocate(4 * 32)
    yield from rt.gets(dst, back, remote, desc)
    got = sum(
        float(space.view(back + r * 32, 16).sum()) for r in range(4)
    )
    state["sum"] += got


def vector_setup(rt):
    alloc = yield from rt.malloc(NBYTES)
    yield from rt.job.recovery.protect(rt, alloc)
    rt.world.space(rt.rank).view(alloc.addr(rt.rank), NBYTES)[:] = 0
    return alloc, {"sum": 0.0}


def vector_epoch(rt, alloc, state, epoch):
    """I/O-vector traffic: three scattered segments per epoch."""
    dst = (rt.rank + 1) % P
    space = rt.world.space(rt.rank)
    lengths = (16, 32, 8)
    locals_, remotes = [], []
    off = 0
    for i, ln in enumerate(lengths):
        seg = space.allocate(ln)
        space.view(seg, ln)[:] = epoch + i + 1
        locals_.append(seg)
        remotes.append(alloc.addr(dst) + 96 * (epoch % 3) + off)
        off += 2 * ln
    vec = IoVector(tuple(locals_), tuple(remotes), lengths)
    yield from rt.putv(dst, vec)
    yield from rt.fence(dst)
    back = space.allocate(sum(lengths))
    back_vec = IoVector(
        tuple(back + sum(lengths[:i]) for i in range(len(lengths))),
        tuple(remotes), lengths,
    )
    yield from rt.getv(dst, back_vec)
    state["sum"] += float(space.view(back, sum(lengths)).sum())


NBF = 16
NTASKS = 8


def scf_setup(rt):
    """SCF-shaped resources: density/Fock global arrays plus a sharded
    load-balance pool, all protected (pool counters roll back with the
    data they gated)."""
    mgr = rt.job.recovery
    ga_d = yield from GlobalArray.create(rt, (NBF, NBF), name="density")
    ga_f = yield from GlobalArray.create(rt, (NBF, NBF), name="fock")
    pool = yield from DistributedTaskPool.create(rt, NTASKS, 2, chunk=1)
    yield from mgr.protect(rt, ga_d.alloc)
    yield from mgr.protect(rt, ga_f.alloc)
    for alloc in pool.allocations:
        yield from mgr.protect(rt, alloc)
    ga_d.local_block(rt)[:] = 0.01 * (rt.rank + 1)
    ga_f.fill(rt, 0.0)
    yield from rt.barrier()
    return (ga_d, ga_f, pool), {"energies": []}


def scf_epoch(rt, res, state, epoch):
    """One SCF iteration: zero Fock, dynamically load-balanced 'Fock
    build' (each task accumulates into a disjoint row band, so float
    order cannot differ between runs), energy contraction, damped
    density update, pool reset."""
    ga_d, ga_f, pool = res
    ga_f.fill(rt, 0.0)
    yield from rt.barrier()
    rows_per_task = NBF // NTASKS
    while True:
        rng = yield from pool.next_range(rt)
        if rng is None:
            break
        for t in range(*rng):
            patch = Patch(t * rows_per_task, (t + 1) * rows_per_task, 0, NBF)
            values = np.full(patch.shape, 0.01 * (t + 1) * (epoch + 1))
            yield from ga_f.acc(rt, patch, values)
    yield from rt.fence_all()
    yield from rt.barrier()
    energy = yield from ga_d.dot(rt, ga_f)
    state["energies"] = state["energies"] + [energy]
    d = ga_d.local_block(rt)
    d[:] = 0.5 * d + 0.5 * 0.01 * ga_f.local_block(rt)
    if rt.rank == 0:
        yield from pool.reset(rt)
    else:
        pool.reset_local(rt)
    yield from rt.barrier()


# ------------------------------------------------------------- config


class TestRecoveryConfig:
    def test_plain_job_builds_no_manager(self):
        job = ArmciJob(2, config=ArmciConfig(), procs_per_node=1)
        assert job.recovery is None
        assert job.trace.count("recover.regions_protected") == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"chunk_bytes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ReproError):
            RecoveryConfig(**kwargs)

    def test_armci_config_rejects_wrong_type(self):
        with pytest.raises(ReproError):
            ArmciConfig(recovery=42)


class TestChooseBuddy:
    def test_never_self_and_respects_hops(self):
        world = PamiWorld(8, procs_per_node=1)
        for rank in range(8):
            buddy = choose_buddy(world, rank, min_hops=1)
            assert buddy != rank
            assert world.network.hops(rank, buddy) >= 1

    def test_exclude_failed_ranks(self):
        world = PamiWorld(4, procs_per_node=1)
        preferred = choose_buddy(world, 0, min_hops=1)
        rebound = choose_buddy(world, 0, min_hops=1, exclude={preferred})
        assert rebound not in (0, preferred)

    def test_no_candidate_raises(self):
        world = PamiWorld(2, procs_per_node=1)
        with pytest.raises(ReproError):
            choose_buddy(world, 0, min_hops=1, exclude={1})

    def test_deterministic(self):
        world = PamiWorld(8, procs_per_node=1)
        assert choose_buddy(world, 3, 1) == choose_buddy(world, 3, 1)


class TestDirtyFragments:
    def test_clean_region_ships_nothing(self):
        a = np.zeros(256, dtype=np.uint8)
        assert _dirty_fragments(a, a.copy(), 64) == []

    def test_single_chunk(self):
        live = np.zeros(256, dtype=np.uint8)
        committed = live.copy()
        live[70] = 1
        assert _dirty_fragments(live, committed, 64) == [(64, 64)]

    def test_adjacent_chunks_merge_into_one_run(self):
        live = np.zeros(256, dtype=np.uint8)
        committed = live.copy()
        live[10] = 1
        live[100] = 1
        assert _dirty_fragments(live, committed, 64) == [(0, 128)]

    def test_disjoint_runs_stay_split(self):
        live = np.zeros(256, dtype=np.uint8)
        committed = live.copy()
        live[0] = 1
        live[200] = 1
        assert _dirty_fragments(live, committed, 64) == [(0, 64), (192, 64)]

    def test_tail_chunk_clamped(self):
        live = np.zeros(100, dtype=np.uint8)
        committed = live.copy()
        live[99] = 1
        assert _dirty_fragments(live, committed, 64) == [(64, 36)]


class TestRendezvous:
    def _fresh(self, n=2):
        engine = Engine()
        return engine, RecoveryRendezvous(engine, n, 1e-6, MetricsRegistry())

    def test_release_hands_out_generation(self):
        engine, rv = self._fresh()
        e0 = rv.arrive("gather", 0)
        e1 = rv.arrive("gather", 1)
        engine.run()
        assert e0.value == 0 and e1.value == 0

    def test_death_mid_round_restarts_waiters(self):
        engine, rv = self._fresh()
        e0 = rv.arrive("gather", 0)
        rv.note_rank_failure(1)
        engine.run()
        assert e0.value is RESTART
        assert rv.generation == 1

    def test_stale_generation_bounces_immediately(self):
        engine, rv = self._fresh()
        rv.note_rank_failure(1)  # generation -> 1
        ev = rv.arrive("resume", 0, generation=0)
        assert ev.triggered and ev.value is RESTART

    def test_resume_release_counts_round(self):
        engine, rv = self._fresh()
        rv.arrive("resume", 0)
        rv.arrive("resume", 1)
        engine.run()
        assert rv.rounds_completed == 1


class TestProcessFailedErrorAttrs:
    def test_barrier_crash_carries_rank_and_op(self):
        job = ArmciJob(
            4, config=ArmciConfig.async_thread_mode(), procs_per_node=1,
            fault_plan=FaultPlan().crash(2, at=150e-6),
        )
        job.init()
        seen = {}

        def body(rt):
            if rt.rank == 2:
                yield from rt.compute(10.0)
                return
            yield from rt.compute(200e-6)
            try:
                yield from rt.barrier()
            except ProcessFailedError as exc:
                seen[rt.rank] = (exc.rank, exc.op)

        job.run(body)
        assert set(seen) == {0, 1, 3}
        for failed_rank, op in seen.values():
            assert failed_rank == 2
            assert isinstance(op, str) and op

    def test_put_to_failed_rank_carries_attrs(self):
        job = ArmciJob(
            2, config=ArmciConfig.async_thread_mode(), procs_per_node=1,
            fault_plan=FaultPlan().crash(1, at=100e-6),
        )
        job.init()
        caught = {}

        def body(rt):
            alloc = yield from rt.malloc(256)
            yield from rt.barrier()
            if rt.rank == 1:
                yield from rt.compute(10.0)
                return
            yield from rt.compute(300e-6)
            try:
                yield from rt.put(1, alloc.addr(0), alloc.addr(1), 64)
                yield from rt.fence(1)
            except ProcessFailedError as exc:
                caught["err"] = exc

        job.run(body)
        exc = caught["err"]
        assert exc.rank == 1
        assert exc.op is not None


# --------------------------------------------------------- replication


class TestReplication:
    def test_protect_is_idempotent(self):
        job = make_job()

        def body(rt):
            alloc = yield from rt.malloc(NBYTES)
            r1 = yield from rt.job.recovery.protect(rt, alloc)
            r2 = yield from rt.job.recovery.protect(rt, alloc)
            assert r1 is r2

        job.run(body)
        assert job.trace.count("recover.regions_protected") == P

    def test_checkpoints_are_incremental(self):
        """Epoch deltas ship only dirty chunks, not the full image."""
        _results, job, _window, commits = probe_run(
            neighbor_setup, neighbor_epoch
        )
        assert len(commits) == EPOCHS + 1  # baseline + one per epoch
        total = job.trace.count("recover.bytes_replicated")
        full_every_epoch = P * NBYTES * (EPOCHS + 1)
        assert total < full_every_epoch
        assert job.trace.count("recover.epochs_committed") == EPOCHS + 1

    def test_disabled_recovery_run_has_no_replication_traffic(self):
        job = ArmciJob(
            P, config=ArmciConfig.async_thread_mode(), procs_per_node=1
        )
        job.init()

        def body(rt):
            alloc = yield from rt.malloc(NBYTES)
            yield from rt.barrier()
            yield from rt.put(
                (rt.rank + 1) % P, alloc.addr(rt.rank),
                alloc.addr((rt.rank + 1) % P), 64,
            )
            yield from rt.fence_all()

        job.run(body)
        snapshot = dict(job.trace.counters)
        assert not any(k.startswith("recover.") for k in snapshot)


# ----------------------------------------------------------- recovery


class TestRespawnRecovery:
    def test_three_crashes_with_repeated_death_match_clean_run(self):
        """Ranks 1, 3, then 1 *again* die — one death per epoch, each
        placed by probing the previous crashy run's commit times — and
        the results match the fault-free run exactly."""
        clean, _job, _w, commits = probe_run(neighbor_setup, neighbor_epoch)
        t1 = commits[0] + 0.25 * (commits[1] - commits[0])
        _r, _j, _w, c1 = probe_run(
            neighbor_setup, neighbor_epoch,
            fault_plan=FaultPlan().crash(1, at=t1),
        )
        t2 = mid_after(c1, t1)
        _r, _j, _w, c2 = probe_run(
            neighbor_setup, neighbor_epoch,
            fault_plan=FaultPlan().crash(1, at=t1).crash(3, at=t2),
        )
        t3 = mid_after(c2, t2)
        plan = (
            FaultPlan().crash(1, at=t1).crash(3, at=t2).crash(1, at=t3)
        )
        job = make_job(fault_plan=plan)
        crashy = job.recovery.run(neighbor_setup, neighbor_epoch, epochs=EPOCHS)
        assert crashy == clean
        assert job.trace.count("pami.ranks_respawned") == 3
        assert job.trace.count("recover.recoveries_completed") == 3
        assert job.trace.count("recover.bytes_restored") > 0
        assert job.trace.count("recover.bytes_rereplicated") > 0
        assert job.trace.time("recover.mttr") > 0

    def test_crashes_in_distinct_epochs_recover_repeatedly(self):
        """Two deaths separated by a full recovery: two rounds complete
        and each replays exactly the aborted epoch."""
        clean, _job, _w, commits = probe_run(neighbor_setup, neighbor_epoch)
        t1 = commits[0] + 0.5 * (commits[1] - commits[0])
        _r, _j, _w, c1 = probe_run(
            neighbor_setup, neighbor_epoch,
            fault_plan=FaultPlan().crash(1, at=t1),
        )
        t2 = mid_after(c1, t1)
        plan = FaultPlan().crash(1, at=t1).crash(2, at=t2)
        job = make_job(fault_plan=plan)
        crashy = job.recovery.run(neighbor_setup, neighbor_epoch, epochs=EPOCHS)
        assert crashy == clean
        assert job.trace.count("recover.recoveries_completed") == 2
        assert job.trace.count("recover.epochs_replayed") == 2
        assert job.trace.count("pami.ranks_respawned") == 2

    def test_crash_mid_checkpoint_commit_stays_atomic(self):
        """A death 2 us before an epoch's commit lands mid-protocol
        (ship or commit barrier); the staged epoch is either discarded
        or atomically committed — never half-applied."""
        clean, _job, _window, commits = probe_run(neighbor_setup, neighbor_epoch)
        plan = FaultPlan().crash(2, at=commits[1] - 2e-6)
        job = make_job(fault_plan=plan)
        crashy = job.recovery.run(neighbor_setup, neighbor_epoch, epochs=EPOCHS)
        assert crashy == clean
        assert job.trace.count("recover.recoveries_completed") >= 1
        # No epoch ran twice and none was skipped.
        for state in crashy.values():
            assert state["epochs_run"] == list(range(EPOCHS))

    def test_crash_mid_transfer_under_chaos(self):
        """Drops + duplicates + a hard mid-epoch crash at once: the
        retry layer absorbs the transient faults, the recovery manager
        the permanent one, and the numerics still match."""
        chaos = dict(seed=11, drop_prob=0.1, dup_prob=0.1)
        clean, _job, _window, commits = probe_run(
            neighbor_setup, neighbor_epoch, chaos=ChaosConfig(**chaos)
        )
        mid_epoch = commits[0] + 0.4 * (commits[1] - commits[0])
        job = make_job(
            chaos=ChaosConfig(**chaos),
            fault_plan=FaultPlan().crash(3, at=mid_epoch),
        )
        crashy = job.recovery.run(neighbor_setup, neighbor_epoch, epochs=EPOCHS)
        assert crashy == clean
        assert job.trace.count("recover.recoveries_completed") >= 1

    def test_strided_epoch_app_survives_crash(self):
        clean, _job, _window, commits = probe_run(strided_setup, strided_epoch)
        mid = commits[0] + 0.5 * (commits[1] - commits[0])
        job = make_job(fault_plan=FaultPlan().crash(1, at=mid))
        crashy = job.recovery.run(strided_setup, strided_epoch, epochs=EPOCHS)
        assert crashy == clean
        assert job.trace.count("recover.recoveries_completed") >= 1

    def test_vector_epoch_app_survives_crash(self):
        clean, _job, _window, commits = probe_run(vector_setup, vector_epoch)
        mid = commits[0] + 0.5 * (commits[1] - commits[0])
        job = make_job(fault_plan=FaultPlan().crash(2, at=mid))
        crashy = job.recovery.run(vector_setup, vector_epoch, epochs=EPOCHS)
        assert crashy == clean
        assert job.trace.count("recover.recoveries_completed") >= 1

    def test_scf_shaped_app_with_taskpool_survives_crashes(self):
        """Global-arrays SCF proxy under dynamic load balancing: two
        deaths, energies bit-identical to the fault-free run."""
        clean, _job, _w, commits = probe_run(
            scf_setup, scf_epoch, epochs=EPOCHS
        )
        t1 = commits[0] + 0.5 * (commits[1] - commits[0])
        _r, _j, _w, c1 = probe_run(
            scf_setup, scf_epoch, fault_plan=FaultPlan().crash(1, at=t1)
        )
        t2 = mid_after(c1, t1)
        plan = FaultPlan().crash(1, at=t1).crash(3, at=t2)
        job = make_job(fault_plan=plan)
        crashy = job.recovery.run(scf_setup, scf_epoch, epochs=EPOCHS)
        assert crashy == clean
        for state in clean.values():
            assert len(state["energies"]) == EPOCHS
        assert job.trace.count("recover.recoveries_completed") >= 1

    def test_death_before_first_checkpoint_is_unrecoverable(self):
        job = make_job(fault_plan=FaultPlan().crash(1, at=20e-6))
        with pytest.raises((UnrecoverableError, SimulationError)):
            job.recovery.run(neighbor_setup, neighbor_epoch, epochs=EPOCHS)


# ------------------------------------------------------ observability


class TestRecoveryObservability:
    def test_spans_and_report(self):
        clean, _job, _window, commits = probe_run(neighbor_setup, neighbor_epoch)
        mid = commits[0] + 0.5 * (commits[1] - commits[0])
        job = make_job(
            fault_plan=FaultPlan().crash(1, at=mid),
            obs=ObsConfig(enabled=True),
        )
        job.recovery.run(neighbor_setup, neighbor_epoch, epochs=EPOCHS)
        categories = {s.category for s in job.obs.spans}
        assert "recovery" in categories
        names = {s.name for s in job.obs.spans if s.category == "recovery"}
        assert {"checkpoint", "recover"} <= names
        report = job.report()
        assert "resilience" in report
        assert "recoveries completed" in report
        assert "mean time to recovery" in report
        assert "bytes re-replicated" in report

    def test_clean_report_has_no_recovery_time_row(self):
        job = ArmciJob(
            2, config=ArmciConfig.async_thread_mode(), procs_per_node=1
        )
        job.init()

        def body(rt):
            yield from rt.barrier()

        job.run(body)
        assert "mean time to recovery" not in job.report()
