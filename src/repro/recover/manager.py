"""The recovery manager: buddy replication, epoch checkpoints, recovery.

One :class:`RecoveryManager` per :class:`~repro.armci.runtime.ArmciJob`
(constructed only when the job's ``config.recovery`` is set). It is
a *host-side* service — the analogue of the job manager's recovery
daemon — whose metadata (replica placement, committed epochs, committed
state pickles) survives rank deaths. The *data* plane is fully
simulated: dirty chunks travel to the buddy through the ARMCI
aggregation layer, restores are real ``get``\\ s from the buddy's shadow
segments, and every synchronization rides the fault-tolerant collective
machinery.

Checkpoint protocol (per epoch, all ranks)
------------------------------------------
1. *Quiesce*: ``wait_all`` + ``fence_all`` — the epoch's communication
   is remotely complete, so the memory image is a consistent cut.
2. *Ship*: diff each protected region against its committed image at
   ``chunk_bytes`` granularity; aggregate the dirty fragments into the
   buddy-side **stage** segments (journal records the fragment list);
   pickle the application state dict and ship it too; fence the buddy.
3. *Commit barrier*: an FT :meth:`~repro.armci.runtime.ArmciProcess.barrier`.
   A death anywhere breaks it, and the staged epoch is discarded —
   shadows stay at epoch N.
4. *Atomic commit*: after the barrier releases, the **first** rank to
   resume promotes *every* registered rank's staged epoch (pending
   images -> committed, stage -> shadow). All ranks resume at the same
   simulated instant, so even a rank killed in that instant has its
   epoch committed by a survivor — the commit point is atomic across
   the job, closing the classic two-phase-commit window.

Recovery protocol (on ``ProcessFailedError``)
---------------------------------------------
Survivors: tolerant quiesce -> ``gather`` rendezvous -> roll back
protected memory and state to the committed epoch -> re-replicate if
their buddy died -> ``resume`` rendezvous -> replay from the committed
epoch. Respawned ranks: re-init contexts, replay the (deterministic)
setup under ``_replay_mode``, restore memory from the buddy's shadow
with real ``get`` traffic, then join the same rendezvous. New deaths at
any point restart the round (:class:`.barrier.RecoveryRendezvous`).
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from ..errors import (
    DeadlineExceededError,
    HandleError,
    ProcessFailedError,
    ReproError,
    ResourceExhaustedError,
    TransientFaultError,
    UnrecoverableError,
)
from ..sim.primitives import Delay
from .barrier import RESTART, RecoveryRendezvous
from .buddy import choose_buddy
from .config import RecoveryConfig
from .replica import ProtectedRegion, ReplicationStore

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.runtime import ArmciJob, ArmciProcess

#: Buddy placement: the replica partner must be at least this many torus
#: hops away, so a localized failure (a node, a midplane-ish
#: neighborhood) does not take out a region and its replica together.
MIN_BUDDY_HOPS = 1
#: One-way latency of recovery control messages (rendezvous release,
#: restart notifications).
CONTROL_LATENCY = 5e-6
#: Delay between a rank's death and its respawned incarnation starting
#: re-initialization (models job-manager restart time).
RESPAWN_DELAY = 100e-6

#: Exceptions a tolerant quiesce abandons an operation over: the peer is
#: dead (or the retry/deadline machinery gave up because it is).
_QUIESCE_ERRORS = (
    ProcessFailedError,
    TransientFaultError,  # includes RetryExhaustedError
    DeadlineExceededError,
    HandleError,
)


def _dirty_fragments(
    live: np.ndarray, committed: np.ndarray, chunk_bytes: int
) -> list[tuple[int, int]]:
    """Merged ``(offset, nbytes)`` runs of chunks that changed."""
    n = len(live)
    changed = live != committed
    if not changed.any():
        return []
    fragments: list[tuple[int, int]] = []
    run_start = None
    for lo in range(0, n, chunk_bytes):
        hi = min(lo + chunk_bytes, n)
        if changed[lo:hi].any():
            if run_start is None:
                run_start = lo
        elif run_start is not None:
            fragments.append((run_start, lo - run_start))
            run_start = None
    if run_start is not None:
        fragments.append((run_start, n - run_start))
    return fragments


class RecoveryManager:
    """Job-level crash-recovery service (see module docstring)."""

    def __init__(self, job: "ArmciJob", config: RecoveryConfig) -> None:
        self.job = job
        self.config = config
        self.engine = job.engine
        self.trace = job.trace
        self.rendezvous = RecoveryRendezvous(
            self.engine, job.num_procs, CONTROL_LATENCY, self.trace
        )
        self._stores: dict[int, ReplicationStore] = {}
        #: (setup_fn, epoch_fn, epochs) while :meth:`run` is active —
        #: what a respawned incarnation replays. Recovery only works
        #: under :meth:`run`.
        self._run_ctx: tuple | None = None
        #: Epoch commit staged behind the checkpoint barrier:
        #: ``{"epoch": e, "ranks": set, "done": bool}``.
        self._pending_commit: dict | None = None
        #: Ranks that died since the last completed recovery round.
        self._recent_deaths: set[int] = set()
        #: Recovery rounds already counted (resume-release serials).
        self._noted_rounds: set[int] = set()
        self._first_failure_time: float | None = None
        #: Per-rank local staging segment for state-pickle shipping,
        #: keyed by incarnation (a respawn voids the old address).
        self._scratch_segs: dict[int, tuple[int, int, int]] = {}
        job.world.on_rank_failed(self._on_rank_failed)

    # ------------------------------------------------------- bookkeeping

    def _store(self, rank: int) -> ReplicationStore:
        store = self._stores.get(rank)
        if store is None:
            store = self._stores[rank] = ReplicationStore(rank)
        return store

    def _scratch(self, rt: "ArmciProcess", need: int) -> int:
        """Local staging segment (grown geometrically, per incarnation)."""
        world = self.job.world
        inc = world.incarnation(rt.rank)
        entry = self._scratch_segs.get(rt.rank)
        if entry is None or entry[0] != inc or entry[2] < need:
            space = world.space(rt.rank)
            if entry is not None and entry[0] == inc:
                space.free(entry[1])
            cap = max(4096, 2 * need)
            entry = (inc, space.allocate(cap), cap)
            self._scratch_segs[rt.rank] = entry
        return entry[1]

    # ------------------------------------------------------- protection

    def protect(self, rt: "ArmciProcess", alloc) -> Generator[Any, Any, ProtectedRegion]:
        """Protect this rank's segment of a collective allocation."""
        return (
            yield from self.protect_region(rt, alloc.addr(rt.rank), alloc.nbytes)
        )

    def protect_region(
        self, rt: "ArmciProcess", addr: int, nbytes: int
    ) -> Generator[Any, Any, ProtectedRegion]:
        """Shadow ``[addr, addr+nbytes)`` on this rank's buddy.

        Chooses the buddy on first use (all of a rank's regions share
        one partner), allocates the buddy-side shadow and stage
        segments, and registers them for RDMA. Idempotent per
        ``(addr, nbytes)`` — a replayed setup re-binds the existing
        replica instead of allocating a second one.
        """
        if nbytes <= 0:
            raise ReproError(f"protected size must be positive, got {nbytes}")
        store = self._store(rt.rank)
        for region in store.regions:
            if region.addr == addr and region.nbytes == nbytes:
                return region
        world = self.job.world
        buddy = store.buddy
        if buddy is None:
            buddy = choose_buddy(
                world, rt.rank, MIN_BUDDY_HOPS, exclude=world.failed_ranks
            )
        region = ProtectedRegion(rt.rank, addr, nbytes, buddy, 0, 0)
        yield from self._alloc_replica_segments(region)
        # Control handshake with the recovery service (placement record
        # plus buddy-side buffer setup acknowledgement).
        yield Delay(2 * CONTROL_LATENCY)
        store.regions.append(region)
        self.trace.incr("recover.regions_protected")
        self.trace.incr("recover.protected_bytes", nbytes)
        return region

    def _alloc_replica_segments(
        self, region: ProtectedRegion
    ) -> Generator[Any, Any, None]:
        """Allocate + register shadow/stage segments in the buddy space."""
        world = self.job.world
        bspace = world.space(region.buddy)
        region.shadow_addr = bspace.allocate(region.nbytes)
        region.stage_addr = bspace.allocate(region.nbytes)
        registry = world.regions[region.buddy]
        for seg_addr in (region.shadow_addr, region.stage_addr):
            try:
                yield from registry.create(seg_addr, region.nbytes)
            except ResourceExhaustedError:
                # Replication falls back to active messages — correct,
                # just slower (Fig. 3's AM-vs-RDMA gap).
                self.trace.incr("recover.replica_regions_unregistered")

    # ------------------------------------------------------- checkpoint

    def checkpoint(
        self, rt: "ArmciProcess", state: dict
    ) -> Generator[Any, Any, None]:
        """One coordinated in-memory checkpoint epoch (collective)."""
        store = self._store(rt.rank)
        epoch = store.committed_epoch + 1
        with rt.span("recovery", "checkpoint", epoch=epoch):
            # Phase 0: local quiesce — the cut must include every write
            # this rank issued during the epoch.
            yield from rt.wait_all()
            yield from rt.fence_all()
            # Phase 1: ship dirty chunks + state to the buddy's stage.
            yield from self._ship_epoch(rt, store, state)
            # Phase 2: commit barrier (FT: breaks on any death).
            self._register_commit(rt.rank, epoch)
            yield from rt.barrier()
            self._finalize_commit(epoch)
            rt.trace.incr("recover.checkpoints")

    def _ship_epoch(
        self, rt: "ArmciProcess", store: ReplicationStore, state: dict
    ) -> Generator[Any, Any, int]:
        world = self.job.world
        space = world.space(rt.rank)
        chunk = self.config.chunk_bytes
        agg = None
        shipped = 0
        for region in store.regions:
            live = space.view(region.addr, region.nbytes)
            fragments = _dirty_fragments(live, region.committed, chunk)
            region.pending = live.copy()
            region.journal = []
            for off, ln in fragments:
                if agg is None:
                    agg = rt.aggregate(store.buddy)
                # Stage offsets mirror region offsets (the stage segment
                # is region-sized), so the commit copy is a straight
                # stage[off:off+ln] -> shadow[off:off+ln].
                agg.put(region.addr + off, region.stage_addr + off, ln)
                region.journal.append((off, ln, off))
                shipped += ln
        blob = pickle.dumps(state)
        store.pending_state = blob
        if store.buddy is not None:
            yield from self._ensure_state_stage(store, len(blob))
            scratch = self._scratch(rt, len(blob))
            space.write_into(scratch, np.frombuffer(blob, dtype=np.uint8))
            if agg is None:
                agg = rt.aggregate(store.buddy)
            agg.put(scratch, store.state_stage_addr, len(blob))
            shipped += len(blob)
        if agg is not None:
            yield from agg.flush_if_pending()
            yield from rt.fence(store.buddy)
        self.trace.incr("recover.bytes_replicated", shipped)
        return shipped

    def _ensure_state_stage(
        self, store: ReplicationStore, need: int
    ) -> Generator[Any, Any, None]:
        """Buddy-side staging segment for the state pickle (grown as
        needed; the shadow only grows inside the atomic commit, so a
        crash mid-ship never loses the previous committed pickle)."""
        if store.state_stage_addr is not None and store.state_stage_cap >= need:
            return
        bspace = self.job.world.space(store.buddy)
        if store.state_stage_addr is not None:
            bspace.free(store.state_stage_addr)
        cap = max(4096, 2 * need)
        store.state_stage_addr = bspace.allocate(cap)
        store.state_stage_cap = cap
        try:
            yield from self.job.world.regions[store.buddy].create(
                store.state_stage_addr, cap
            )
        except ResourceExhaustedError:
            self.trace.incr("recover.replica_regions_unregistered")

    def _register_commit(self, rank: int, epoch: int) -> None:
        pc = self._pending_commit
        if pc is None or pc["epoch"] != epoch or pc["done"]:
            pc = self._pending_commit = {
                "epoch": epoch, "ranks": set(), "done": False,
            }
        pc["ranks"].add(rank)

    def _finalize_commit(self, epoch: int) -> None:
        """Atomically promote the staged epoch for every registered rank.

        Runs after the commit barrier returns; the first rank to resume
        commits the whole job (all ranks resume at the same simulated
        instant, so a rank killed in that instant is still committed).
        """
        pc = self._pending_commit
        if pc is None or pc["epoch"] != epoch or pc["done"]:
            return
        pc["done"] = True
        for rank in sorted(pc["ranks"]):
            self._commit_store(self._stores[rank])
        self.trace.incr("recover.epochs_committed")

    def _commit_store(self, store: ReplicationStore) -> None:
        world = self.job.world
        for region in store.regions:
            if region.pending is not None:
                region.committed = region.pending
                region.pending = None
            if region.journal:
                bspace = world.space(region.buddy)
                for off, ln, stage_off in region.journal:
                    bspace.view(region.shadow_addr + off, ln)[:] = bspace.view(
                        region.stage_addr + stage_off, ln
                    )
                region.journal = []
        if store.pending_state is not None:
            store.state_pickle = store.pending_state
            store.pending_state = None
            if store.buddy is not None and store.state_stage_addr is not None:
                need = len(store.state_pickle)
                bspace = world.space(store.buddy)
                if (
                    store.state_shadow_addr is None
                    or store.state_shadow_cap < need
                ):
                    if store.state_shadow_addr is not None:
                        bspace.free(store.state_shadow_addr)
                    store.state_shadow_cap = max(4096, 2 * need)
                    store.state_shadow_addr = bspace.allocate(
                        store.state_shadow_cap
                    )
                bspace.view(store.state_shadow_addr, need)[:] = bspace.view(
                    store.state_stage_addr, need
                )
        store.committed_epoch += 1

    # ---------------------------------------------------------- failure

    def _on_rank_failed(self, rank: int) -> None:
        """World failure listener (runs after the job's own listener, so
        collectives are already broken when recovery reacts)."""
        if self._first_failure_time is None:
            self._first_failure_time = self.engine.now
        self._recent_deaths.add(rank)
        self.trace.incr("recover.failures_detected")
        # Replicas hosted on the dead rank are gone until re-replicated.
        for store in self._stores.values():
            if store.buddy == rank:
                store.replica_valid = False
                store.state_shadow_addr = None
                store.state_shadow_cap = 0
                store.state_stage_addr = None
                store.state_stage_cap = 0
        self.rendezvous.note_rank_failure(rank)
        self.engine.schedule(
            RESPAWN_DELAY,
            lambda _a, r=rank: self._do_respawn(r),
        )

    def _do_respawn(self, rank: int) -> None:
        if not self.job.world.is_failed(rank):
            return  # an earlier callback already brought it back
        if self._run_ctx is None:
            # Manual (non-run) use: nothing to replay. Survivors waiting
            # at the gather will deadlock loudly rather than corrupt.
            return
        self.job.respawn_rank(rank)
        proc = self.engine.spawn(
            self._respawned_body(rank),
            name=f"recover.respawn.r{rank}.i{self.job.world.incarnation(rank)}",
        )
        # Tracked like a main thread: a re-death fail-stops it too.
        self.job._rank_procs.setdefault(rank, []).append(proc)

    # --------------------------------------------------------- recovery

    def recover(
        self, rt: "ArmciProcess", state: dict
    ) -> Generator[Any, Any, dict]:
        """Survivor-side recovery; returns the rolled-back state dict.

        Loops gather -> rollback -> re-replicate -> resume until a round
        completes without a new death (the rendezvous releases aborted
        rounds with a restart token).
        """
        store = self._store(rt.rank)
        if store.committed_epoch < 0:
            raise UnrecoverableError(
                f"rank {rt.rank}: a rank died before the first checkpoint "
                "committed; there is no epoch to recover to"
            )
        with rt.span("recovery", "recover"):
            while True:
                try:
                    yield from self._tolerant_quiesce(rt)
                    event = self.rendezvous.arrive("gather", rt.rank)
                    value = yield from rt.main_context.wait_with_progress(event)
                    if value is RESTART:
                        continue
                    generation = value
                    self._rollback(rt, state)
                    yield from self._rereplicate(rt)
                    event = self.rendezvous.arrive(
                        "resume", rt.rank, generation=generation
                    )
                    value = yield from rt.main_context.wait_with_progress(event)
                    if value is RESTART:
                        continue
                    self._note_recovery_complete(
                        self.rendezvous.rounds_completed
                    )
                    return state
                except ProcessFailedError:
                    # Another death mid-round; the rendezvous restarts.
                    rt.trace.incr("recover.rounds_aborted")
                    continue

    def _tolerant_quiesce(self, rt: "ArmciProcess") -> Generator[Any, Any, None]:
        """Drain outstanding communication, abandoning ops on the dead.

        Every pending handle eventually completes (possibly with a
        :class:`~repro.pami.faults.Failure` token — the detector and the
        reply-cookie machinery guarantee it), so waiting here terminates;
        the ambient deadline is a backstop.
        """
        for handle in list(rt._implicit_handles or ()):
            try:
                if not handle.complete:
                    yield from handle.wait()
            except _QUIESCE_ERRORS:
                pass
            finally:
                if rt._implicit_handles:
                    rt._implicit_handles.discard(handle)
        for dst in list(rt._pending_acks):
            try:
                yield from rt.fence(dst)
            except _QUIESCE_ERRORS:
                rt._pending_acks.pop(dst, None)
                rt.tracker.on_fence(dst)

    def _rollback(self, rt: "ArmciProcess", state: dict) -> None:
        """Roll this rank back to the committed epoch (host-side).

        Idempotent, so a freshly restored incarnation runs the same path
        (its live memory already equals the committed image).
        """
        store = self._store(rt.rank)
        world = self.job.world
        space = world.space(rt.rank)
        for region in store.regions:
            space.view(region.addr, region.nbytes)[:] = region.committed
            region.pending = None
            region.journal = []
        store.pending_state = None
        if store.state_pickle is not None:
            restored = pickle.loads(store.state_pickle)
            state.clear()
            state.update(restored)
        rt.reset_peer_state(set(self._recent_deaths) - {rt.rank})
        # Discard any half-staged epoch commit and desynchronized
        # reduction rounds (idempotent; every survivor does this inside
        # the same rendezvous window, during which no allreduce runs).
        self._pending_commit = None
        self.job.reduction_board.reset()
        rt.trace.incr("recover.rollbacks")

    def _rereplicate(self, rt: "ArmciProcess") -> Generator[Any, Any, None]:
        """Rebuild this rank's replica if its buddy died.

        The buddy is back as a fresh incarnation: ship the full
        committed images into newly allocated segments. Idempotent
        full-copy, so a restarted round simply redoes it.
        """
        store = self._store(rt.rank)
        if store.replica_valid or store.buddy is None:
            return
        world = self.job.world
        # A checkpoint attempt racing between the buddy's death and this
        # recovery may have allocated a state stage in the dead
        # incarnation's address space; drop it so the next checkpoint
        # re-allocates in the live one.
        store.state_stage_addr = None
        store.state_stage_cap = 0
        shipped = 0
        agg = rt.aggregate(store.buddy)
        for region in store.regions:
            yield from self._alloc_replica_segments(region)
            # Post-rollback the live segment equals the committed image,
            # so ship straight into the shadow (no stage/journal cycle).
            agg.put(region.addr, region.shadow_addr, region.nbytes)
            shipped += region.nbytes
        if store.state_pickle is not None:
            blob = store.state_pickle
            bspace = world.space(store.buddy)
            store.state_shadow_cap = max(4096, 2 * len(blob))
            store.state_shadow_addr = bspace.allocate(store.state_shadow_cap)
            scratch = self._scratch(rt, len(blob))
            world.space(rt.rank).write_into(
                scratch, np.frombuffer(blob, dtype=np.uint8)
            )
            agg.put(scratch, store.state_shadow_addr, len(blob))
            shipped += len(blob)
        handle = yield from agg.flush_if_pending()
        if handle is not None:
            yield from rt.fence(store.buddy)
        store.replica_valid = True
        self.trace.incr("recover.bytes_rereplicated", shipped)

    def _restore(
        self, rt: "ArmciProcess", state: dict
    ) -> Generator[Any, Any, None]:
        """Reconstruct a respawned rank from its buddy (real traffic)."""
        store = self._store(rt.rank)
        world = self.job.world
        space = world.space(rt.rank)
        restored = 0
        for region in store.regions:
            yield from rt.get(
                region.buddy, region.addr, region.shadow_addr, region.nbytes
            )
            region.committed = space.snapshot(region.addr, region.nbytes).copy()
            region.pending = None
            region.journal = []
            restored += region.nbytes
        if store.state_pickle is not None:
            blob = store.state_pickle
            if store.buddy is not None and store.state_shadow_addr is not None:
                scratch = self._scratch(rt, len(blob))
                yield from rt.get(
                    store.buddy, scratch, store.state_shadow_addr, len(blob)
                )
                blob = bytes(space.snapshot(scratch, len(blob)))
                restored += len(blob)
            fresh = pickle.loads(blob)
            state.clear()
            state.update(fresh)
        self.trace.incr("recover.bytes_restored", restored)
        self.trace.incr("recover.ranks_restored")

    def _note_recovery_complete(self, round_serial: int) -> None:
        """Once-per-round accounting (every participant calls this)."""
        if round_serial in self._noted_rounds:
            return
        self._noted_rounds.add(round_serial)
        self.trace.incr("recover.recoveries_completed")
        # We checkpoint every epoch, so each recovery replays exactly
        # the epoch that was in flight.
        self.trace.incr("recover.epochs_replayed")
        if self._first_failure_time is not None:
            self.trace.add_time(
                "recover.mttr", self.engine.now - self._first_failure_time
            )
            self._first_failure_time = None
        self._recent_deaths.clear()

    # ------------------------------------------------------ epoch driver

    def run(
        self,
        setup_fn,
        epoch_fn,
        epochs: int = 1,
        ranks=None,
    ) -> dict[int, dict]:
        """Run a checkpointed epoch application under recovery.

        Parameters
        ----------
        setup_fn:
            Generator ``setup_fn(rt) -> (resources, state)``. Must be
            deterministic (it is replayed verbatim on respawned ranks
            with ``malloc`` re-mapping recorded addresses and
            ``barrier`` a no-op) and must not use ``allreduce``.
            ``state`` is a picklable dict — the application variables
            that roll back with the data. Protect allocations here via
            :meth:`protect`.
        epoch_fn:
            Generator ``epoch_fn(rt, resources, state, epoch)`` — one
            unit of replayable work. Everything it changes must live in
            protected memory or in ``state``.
        epochs:
            Number of epochs to run.

        Returns ``{rank: final_state}`` reconstructed from the committed
        state pickles — well-defined even when a rank died after its
        last commit. A death before the first checkpoint commits is
        :class:`~repro.errors.UnrecoverableError`.
        """
        if epochs < 1:
            raise ReproError(f"need >= 1 epoch, got {epochs}")
        self._run_ctx = (setup_fn, epoch_fn, epochs)

        def driver(rt):
            yield from self._driver_body(rt, setup_fn, epoch_fn, epochs)

        try:
            self.job.run(driver, ranks=ranks)
        finally:
            self._run_ctx = None
        return self.results()

    def results(self) -> dict[int, dict]:
        """Committed final state per rank."""
        out = {}
        for rank, store in sorted(self._stores.items()):
            if store.state_pickle is not None:
                out[rank] = pickle.loads(store.state_pickle)
        return out

    def _driver_body(
        self, rt: "ArmciProcess", setup_fn, epoch_fn, epochs: int
    ) -> Generator[Any, Any, None]:
        resources, state = yield from setup_fn(rt)
        try:
            yield from self.checkpoint(rt, state)  # baseline epoch 0
        except ProcessFailedError:
            state = yield from self.recover(rt, state)
        yield from self._epoch_loop(rt, resources, state, epoch_fn, epochs)

    def _epoch_loop(
        self, rt: "ArmciProcess", resources, state: dict, epoch_fn, epochs: int
    ) -> Generator[Any, Any, None]:
        store = self._store(rt.rank)
        while True:
            # The baseline checkpoint is epoch 0's commit, so the next
            # epoch to execute is always the committed count itself.
            epoch = store.committed_epoch
            if epoch >= epochs:
                break
            try:
                yield from epoch_fn(rt, resources, state, epoch)
                yield from self.checkpoint(rt, state)
            except ProcessFailedError:
                rt.trace.incr("recover.epoch_aborts")
                state = yield from self.recover(rt, state)

    def _respawned_body(self, rank: int) -> Generator[Any, Any, None]:
        """Main thread of a respawned incarnation."""
        setup_fn, epoch_fn, epochs = self._run_ctx
        store = self._store(rank)
        if not store.replica_valid or store.committed_epoch < 0:
            raise UnrecoverableError(
                f"rank {rank} and its replica are both lost "
                "(owner died while the buddy's copy was invalid)"
            )
        rt = self.job.processes[rank]
        yield from rt._reinit_body()
        rt._replay_mode = True
        try:
            resources, state = yield from setup_fn(rt)
        finally:
            rt._replay_mode = False
        try:
            yield from self._restore(rt, state)
        except ProcessFailedError as exc:
            raise UnrecoverableError(
                f"rank {rank}'s buddy died while it was being restored"
            ) from exc
        if not store.replica_valid:
            raise UnrecoverableError(
                f"rank {rank}'s buddy died while it was being restored"
            )
        # Join the survivors' rendezvous; the rollback inside is a
        # no-op on just-restored memory.
        state = yield from self.recover(rt, state)
        yield from self._epoch_loop(rt, resources, state, epoch_fn, epochs)
