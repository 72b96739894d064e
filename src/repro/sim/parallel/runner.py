"""Orchestration of sharded PDES runs: single / inline / fork modes.

``run_program`` is the one entry point. Three execution modes share the
shard protocol code in :mod:`repro.sim.parallel.shard`:

``single``
    One shard on one engine, no epochs — the bit-exact reference oracle
    (``shards=1``). Identical to running the programs on a plain
    :class:`~repro.sim.engine.Engine`.
``inline``
    N shard objects stepped sequentially in this process, exchanging
    pickled batches through :class:`LocalRing`. Same protocol, same
    serialization, no processes — the mode the equivalence fuzz leans
    on for speed and debuggability.
``fork``
    N forked worker processes with :class:`ShmRing` pairs, two
    ``multiprocessing`` barriers per epoch and a lock-free next-times
    array — the mode that actually scales across host cores.

All three produce identical schedule digests and workload results for
conforming programs; the fuzz suite enforces exactly that.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import queue as queue_mod
import time as time_mod
from dataclasses import dataclass, field
from typing import Any, Callable

from ...errors import PdesError
from ...machine.bgq import BGQParams
from ...obs.metrics import MetricsRegistry
from ...topology.mapping import RankMapping, abcdet_mapping
from ...topology.partitions import KNOWN_PARTITIONS
from .partition import ShardPlan, plan_shards
from .program import ChaosSpec, combine_digests
from .rings import DEFAULT_RING_CAPACITY, LocalRing, ShmRing
from .shard import INFINITY, ShardWorker

#: Wall-clock ceiling for one forked worker's end-of-run report.
_WORKER_REPORT_TIMEOUT = 600.0

MODES = ("auto", "single", "inline", "fork")


def mapping_for_ranks(num_ranks: int, procs_per_node: int = 16) -> RankMapping:
    """Smallest standard BG/Q partition hosting ``num_ranks``.

    Rounds the node count up to the next known partition size (the same
    convention :class:`repro.pami.world.PamiWorld` uses: a job may use
    fewer ranks than the partition offers).
    """
    if num_ranks < 1:
        raise PdesError(f"need >= 1 rank, got {num_ranks}")
    nodes = max(1, math.ceil(num_ranks / procs_per_node))
    for size in sorted(KNOWN_PARTITIONS):
        if size >= nodes:
            return abcdet_mapping(KNOWN_PARTITIONS[size], procs_per_node)
    raise PdesError(
        f"{num_ranks} ranks at {procs_per_node}/node exceed the largest "
        f"known partition ({max(KNOWN_PARTITIONS)} nodes)"
    )


@dataclass
class PdesResult:
    """Merged outcome of one parallel (or oracle) run."""

    num_ranks: int
    shards: int
    mode: str
    lookahead: float
    node_aligned: bool
    schedule_digest: int
    delivered: int
    dropped: int
    events_executed: int
    epochs: int
    sim_time: float
    wall_seconds: float
    results: dict[int, Any] = field(default_factory=dict)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    @property
    def events_per_sec(self) -> float:
        return self.events_executed / self.wall_seconds if self.wall_seconds > 0 else 0.0


# ------------------------------------------------------------- ring I/O


def _flush_to_rings(worker: ShardWorker, horizon: float, rings: dict) -> None:
    """Pickle each target's batch and push it onto the pair ring."""
    for target, msgs in worker.flush(horizon).items():
        rings[(worker.shard_id, target)].push(
            pickle.dumps(msgs, protocol=pickle.HIGHEST_PROTOCOL)
        )


def _drain_rings(worker: ShardWorker, rings: dict, shards: int) -> None:
    for src in range(shards):
        if src == worker.shard_id:
            continue
        for blob in rings[(src, worker.shard_id)].pop_all():
            worker.inject_blob(blob)


# ----------------------------------------------------------- fork mode


def _worker_main(
    shard_id: int,
    plan: ShardPlan,
    factory: Callable[[int], Any],
    mapping: RankMapping,
    params: BGQParams,
    chaos: ChaosSpec | None,
    rings: dict,
    barrier_a,
    barrier_b,
    next_times,
    out_queue,
) -> None:
    """Forked shard worker: the epoch loop against shared-memory rings.

    Phase safety of the lock-free ``next_times`` array: a shard writes
    its slot only between draining (after barrier A) and barrier B, and
    reads the array only after barrier B; no peer can reach its next
    write (which lies beyond barrier A of the following epoch) before
    every reader has passed barrier B of this one.
    """
    try:
        worker = ShardWorker(
            shard_id, plan, factory, mapping, params, chaos=chaos
        )
        worker.bootstrap()
        _flush_to_rings(worker, plan.lookahead, rings)
        barrier_a.wait()
        _drain_rings(worker, rings, plan.shards)
        while True:
            next_times[shard_id] = worker.next_time()
            barrier_b.wait()
            gvt = min(next_times)
            if gvt == INFINITY:
                break
            horizon = gvt + plan.lookahead
            worker.process_window(horizon)
            _flush_to_rings(worker, horizon, rings)
            barrier_a.wait()
            _drain_rings(worker, rings, plan.shards)
        out_queue.put(("ok", worker.summary()))
    except Exception as exc:  # report, then release any parked peers
        barrier_a.abort()
        barrier_b.abort()
        out_queue.put(("error", f"shard {shard_id}: {type(exc).__name__}: {exc}"))
    finally:
        out_queue.close()
        out_queue.join_thread()


def _run_fork(
    plan: ShardPlan,
    factory: Callable[[int], Any],
    mapping: RankMapping,
    params: BGQParams,
    chaos: ChaosSpec | None,
    ring_capacity: int,
) -> list[dict]:
    ctx = multiprocessing.get_context("fork")
    shards = plan.shards
    rings = {
        (i, j): ShmRing(ring_capacity)
        for i in range(shards)
        for j in range(shards)
        if i != j
    }
    barrier_a = ctx.Barrier(shards)
    barrier_b = ctx.Barrier(shards)
    next_times = multiprocessing.Array("d", shards, lock=False)
    out_queue = ctx.Queue()
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(
                s, plan, factory, mapping, params, chaos,
                rings, barrier_a, barrier_b, next_times, out_queue,
            ),
            daemon=True,
        )
        for s in range(shards)
    ]
    try:
        for p in procs:
            p.start()
        reports: list[dict] = []
        errors: list[str] = []
        for _ in range(shards):
            try:
                status, payload = out_queue.get(timeout=_WORKER_REPORT_TIMEOUT)
            except queue_mod.Empty:
                dead = [p.pid for p in procs if p.exitcode not in (None, 0)]
                raise PdesError(
                    f"shard worker(s) died without reporting (exitcodes "
                    f"{[p.exitcode for p in procs]}, dead pids {dead})"
                ) from None
            if status == "ok":
                reports.append(payload)
            else:
                errors.append(payload)
        for p in procs:
            p.join(timeout=30.0)
        if errors:
            raise PdesError("; ".join(sorted(errors)))
        return reports
    finally:
        for p in procs:
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for ring in rings.values():
            ring.close()
            ring.unlink()


# --------------------------------------------------------- inline mode


def _run_inline(
    plan: ShardPlan,
    factory: Callable[[int], Any],
    mapping: RankMapping,
    params: BGQParams,
    chaos: ChaosSpec | None,
    ring_capacity: int,
) -> list[dict]:
    shards = plan.shards
    rings = {
        (i, j): LocalRing(ring_capacity)
        for i in range(shards)
        for j in range(shards)
        if i != j
    }
    workers = [
        ShardWorker(s, plan, factory, mapping, params, chaos=chaos)
        for s in range(shards)
    ]
    for w in workers:
        w.bootstrap()
    for w in workers:
        _flush_to_rings(w, plan.lookahead, rings)
    for w in workers:
        _drain_rings(w, rings, shards)
    while True:
        gvt = min(w.next_time() for w in workers)
        if gvt == INFINITY:
            break
        horizon = gvt + plan.lookahead
        for w in workers:
            w.process_window(horizon)
        for w in workers:
            _flush_to_rings(w, horizon, rings)
        for w in workers:
            _drain_rings(w, rings, shards)
    return [w.summary() for w in workers]


# -------------------------------------------------------------- driver


def run_program(
    factory: Callable[[int], Any],
    num_ranks: int,
    *,
    shards: int = 1,
    procs_per_node: int = 16,
    params: BGQParams | None = None,
    chaos: ChaosSpec | None = None,
    mode: str = "auto",
    ring_capacity: int = DEFAULT_RING_CAPACITY,
    rank_weights: list[float] | None = None,
    mapping: RankMapping | None = None,
) -> PdesResult:
    """Run ``factory(rank)`` programs for every rank; return the merged result.

    ``mode="auto"`` picks ``single`` for one shard and ``fork`` for
    several. Pass ``mode="inline"`` to run a multi-shard configuration
    in-process (same protocol, no worker processes).
    """
    if mode not in MODES:
        raise PdesError(f"unknown mode {mode!r}; choose from {MODES}")
    if params is None:
        params = BGQParams()
    if mapping is None:
        mapping = mapping_for_ranks(num_ranks, procs_per_node)
    plan = plan_shards(
        mapping, shards, params, rank_weights=rank_weights, num_ranks=num_ranks
    )
    if mode == "auto":
        mode = "single" if shards == 1 else "fork"
    if mode == "single" and shards != 1:
        raise PdesError(f"mode 'single' requires shards=1, got {shards}")

    start = time_mod.perf_counter()
    if mode == "single":
        worker = ShardWorker(0, plan, factory, mapping, params, chaos=chaos)
        worker.bootstrap()
        worker.run_to_completion()
        reports = [worker.summary()]
    elif mode == "inline":
        reports = _run_inline(plan, factory, mapping, params, chaos, ring_capacity)
    else:
        reports = _run_fork(plan, factory, mapping, params, chaos, ring_capacity)
    wall = time_mod.perf_counter() - start

    digests: dict[int, int] = {}
    results: dict[int, Any] = {}
    metrics = MetricsRegistry()
    delivered = dropped = events = 0
    epochs = 0
    sim_time = 0.0
    for rep in reports:
        digests.update(rep["digests"])
        results.update(rep["results"])
        metrics.merge(rep["metrics"])
        delivered += rep["delivered"]
        dropped += rep["dropped"]
        events += rep["events_executed"]
        epochs = max(epochs, rep["epochs"])
        sim_time = max(sim_time, rep["sim_time"])
    return PdesResult(
        num_ranks=num_ranks,
        shards=shards,
        mode=mode,
        lookahead=plan.lookahead,
        node_aligned=plan.node_aligned,
        schedule_digest=combine_digests(digests, delivered),
        delivered=delivered,
        dropped=dropped,
        events_executed=events,
        epochs=epochs,
        sim_time=sim_time,
        wall_seconds=wall,
        results=results,
        metrics=metrics,
    )
