"""Fault-recovery extension: retry overhead and crash-detection latency.

The chaos layer (:mod:`repro.chaos`) injects transient transport faults
that the ARMCI retry/backoff layer absorbs. Two questions matter for a
production runtime:

- **Retry overhead**: how much wall time does a lossy network cost a
  fixed communication workload, as a function of the drop probability?
  (Expected: modest — each retry pays one detection delay plus backoff,
  and losses are rare events on real networks.)
- **Recovery time**: after a rank crashes mid-collective, how quickly do
  survivors observe ``ProcessFailedError`` instead of hanging? And how
  quickly does the distributed task pool resume drawing from a shard
  whose counter host died?
- **Degradation under exhaustion**: how do message rate and the
  AM-fallback fraction move as the injection-FIFO depth and the
  memory-region budget shrink? (The resource-resilience layer's
  saturation sweep: backpressure should throttle, not deadlock, and a
  starved registration budget should shift traffic to Eq. 8.)
- **Full recovery (MTTR)**: with buddy replication and coordinated
  checkpoints on (:mod:`repro.recover`), how long from a rank's death
  to the job resuming — and how many bytes does each epoch replicate
  vs. how many a recovery re-replicates? Emits a JSON artifact next to
  the rendered table.
- **Network faults**: when a torus link dies mid-transfer, how long
  until traffic flows again (link-kill MTTR) — routing on ground truth
  vs. on the health monitor's observed state? And what does end-to-end
  integrity cost on a corrupting link, in checksum failures caught and
  retransmit bytes? Emits a JSON artifact next to the rendered tables.

Set ``REPRO_BENCH_SMOKE=1`` to run a reduced sweep (CI smoke mode).
"""

import json
import os

from _report import save

from repro.armci import ArmciConfig, ArmciJob
from repro.armci.config import RetryPolicy
from repro.chaos import ChaosConfig, FaultPlan, LinkFault
from repro.errors import ProcessFailedError
from repro.machine.health import LinkHealthConfig
from repro.pami.integrity import IntegrityConfig
from repro.recover import RecoveryConfig
from repro.util import render_table, us

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

DROP_PROBS = (0.0, 0.01) if SMOKE else (0.0, 0.01, 0.05, 0.10)
TRANSFERS = 16 if SMOKE else 64
NBYTES = 4096


def _run_put_get_workload(drop_prob: float):
    """Fixed put/get/fence workload between two ranks under injection."""
    chaos = ChaosConfig(seed=42, drop_prob=drop_prob) if drop_prob else None
    job = ArmciJob(
        2, config=ArmciConfig.async_thread_mode(), procs_per_node=1,
        chaos=chaos,
    )
    job.init()
    t0 = job.engine.now

    def body(rt):
        alloc = yield from rt.malloc(NBYTES)
        yield from rt.barrier()
        if rt.rank == 0:
            src = rt.world.space(0).allocate(NBYTES)
            for _i in range(TRANSFERS):
                yield from rt.put(1, src, alloc.addr(1), NBYTES)
                yield from rt.get(1, src, alloc.addr(1), NBYTES)
            yield from rt.fence(1)
        yield from rt.barrier()

    job.run(body)
    return job.engine.now - t0, job.trace


def test_retry_overhead_vs_drop_probability(benchmark):
    def run():
        return {p: _run_put_get_workload(p) for p in DROP_PROBS}

    out = benchmark.pedantic(run, rounds=1, iterations=1)

    base_time, _ = out[0.0]
    rows = []
    for p, (elapsed, trace) in out.items():
        retries = trace.count("armci.transient_retries")
        rows.append([
            f"{p:.2f}",
            f"{elapsed * 1e3:.3f}",
            f"{elapsed / base_time:.2f}x",
            retries,
            f"{us(trace.time('armci.retry_backoff_time')):.1f}",
        ])
        # Every injected loss was recovered: the run completed, and with
        # injection on, retries actually happened.
        if p > 0:
            assert retries > 0, p
    # Rare losses must stay cheap: 1% drop under 25% overhead.
    assert out[0.01][0] < 1.25 * base_time

    save(
        "fault_recovery_overhead",
        render_table(
            ["drop prob", "workload (ms)", "slowdown", "retries",
             "backoff (us)"],
            rows,
            title=(
                f"Retry overhead vs drop probability: {TRANSFERS} x "
                f"{NBYTES} B put+get between 2 ranks (AT mode)"
            ),
        ),
    )


def test_crash_recovery_time(benchmark):
    """Detection latency at survivors for a mid-barrier crash, and the
    task pool's counter-failover latency."""
    crash_at = 200e-6

    def run():
        # --- survivors of a mid-barrier crash -------------------------
        job = ArmciJob(
            8, config=ArmciConfig.async_thread_mode(), procs_per_node=1,
            fault_plan=FaultPlan().crash(7, at=crash_at),
        )
        job.init()
        detect = {}

        def body(rt):
            start = rt.engine.now
            yield from rt.barrier()
            if rt.rank == 7:
                yield from rt.compute(10.0)
                return
            yield from rt.compute(50e-6)
            try:
                yield from rt.barrier()
            except ProcessFailedError:
                detect[rt.rank] = rt.engine.now - start - crash_at

        job.run(body)

        # --- task-pool failover ---------------------------------------
        from repro.gax import DistributedTaskPool

        pool_job = ArmciJob(
            4, config=ArmciConfig.async_thread_mode(), procs_per_node=1,
        )
        pool_job.init()
        failover = {}

        def pool_body(rt):
            pool = yield from DistributedTaskPool.create(rt, 64, 4, chunk=1)
            yield from rt.barrier()
            if rt.rank == 2:
                rt.world.fail_rank(2)
                return
            t_fail = rt.engine.now
            while True:
                try:
                    claimed = yield from pool.next_range(rt)
                except ProcessFailedError:
                    break
                if claimed is None:
                    break
                yield from rt.compute(10e-6)
            if rt.trace.count("gax.pool_shards_failed_over"):
                failover.setdefault("latency", rt.engine.now - t_fail)

        pool_job.run(pool_body)
        return detect, failover, pool_job.trace

    detect, failover, pool_trace = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    assert len(detect) == 7, "every survivor must observe the crash"
    assert pool_trace.count("gax.pool_shards_failed_over") >= 1
    assert pool_trace.count("gax.pool_shards_lost") == 0

    rows = [
        ["barrier crash detection (min over survivors)",
         f"{us(min(detect.values())):.1f}"],
        ["barrier crash detection (max over survivors)",
         f"{us(max(detect.values())):.1f}"],
        ["pool drain incl. counter failover",
         f"{us(failover['latency']):.1f}"],
    ]
    save(
        "fault_recovery_latency",
        render_table(
            ["recovery metric", "time (us)"],
            rows,
            title=(
                "Crash recovery: mid-barrier detection at 7 survivors "
                "(8 procs) and sharded-pool counter failover (4 procs)"
            ),
        ),
    )


# ------------------------------------------- full recovery (MTTR)


RECOVERY_KB = (4,) if SMOKE else (4, 16, 64)
RECOVERY_EPOCHS = 3 if SMOKE else 4
RECOVERY_PROCS = 4


def _recovery_job(protected_kb, fault_plan=None):
    cfg = ArmciConfig.async_thread_mode(
        retry=RetryPolicy(),
        default_deadline=2.0,
        recovery=RecoveryConfig(enabled=True, chunk_bytes=256),
    )
    job = ArmciJob(
        RECOVERY_PROCS, config=cfg, procs_per_node=1, fault_plan=fault_plan,
    )
    job.init()
    nbytes = protected_kb * 1024

    def setup(rt):
        alloc = yield from rt.malloc(nbytes)
        yield from rt.job.recovery.protect(rt, alloc)
        rt.world.space(rt.rank).view(alloc.addr(rt.rank), nbytes)[:] = rt.rank
        return alloc, {"sum": 0.0}

    def epoch_fn(rt, alloc, state, epoch):
        # Dirty a quarter of the protected region, then one remote
        # touch so the epoch exercises the data plane too.
        space = rt.world.space(rt.rank)
        lo = (epoch % 4) * (nbytes // 4)
        space.view(alloc.addr(rt.rank) + lo, nbytes // 4)[:] = epoch + 1
        dst = (rt.rank + 1) % RECOVERY_PROCS
        scratch = space.allocate(256)
        yield from rt.put(dst, scratch, alloc.addr(dst) + lo, 256)
        yield from rt.fence(dst)
        state["sum"] += float(epoch)

    return job, setup, epoch_fn


def test_recovery_mttr(benchmark):
    """Crash mid-epoch with replication on: MTTR and replication bytes."""

    def run():
        out = {}
        for kb in RECOVERY_KB:
            # Clean run measures the epoch window so the crash in the
            # crashy run lands mid-epoch (the simulator is deterministic,
            # so both runs share the same prefix up to the crash).
            job, setup, epoch_fn = _recovery_job(kb)
            t0 = job.engine.now
            job.recovery.run(setup, epoch_fn, epochs=RECOVERY_EPOCHS)
            window = job.engine.now - t0
            clean_bytes = job.trace.count("recover.bytes_replicated")

            crash_at = 0.75 * window
            plan = FaultPlan().crash(1, at=crash_at)
            job2, setup2, epoch_fn2 = _recovery_job(kb, fault_plan=plan)
            t0 = job2.engine.now
            job2.recovery.run(setup2, epoch_fn2, epochs=RECOVERY_EPOCHS)
            out[kb] = {
                "clean_window_s": window,
                "crashy_window_s": job2.engine.now - t0,
                "bytes_replicated_clean": clean_bytes,
                "bytes_replicated": job2.trace.count("recover.bytes_replicated"),
                "bytes_rereplicated": job2.trace.count(
                    "recover.bytes_rereplicated"
                ),
                "bytes_restored": job2.trace.count("recover.bytes_restored"),
                "recoveries": job2.trace.count("recover.recoveries_completed"),
                "epochs_replayed": job2.trace.count("recover.epochs_replayed"),
                "mttr_s": job2.trace.time("recover.mttr"),
            }
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for kb, m in out.items():
        assert m["recoveries"] >= 1, f"{kb} KB run never recovered"
        # Incremental checkpoints: replication traffic must not balloon
        # past one full image per epoch per rank.
        assert m["bytes_replicated_clean"] < (
            RECOVERY_PROCS * (RECOVERY_EPOCHS + 1) * kb * 1024 * 1.5
        )
        mttr = m["mttr_s"] / m["recoveries"]
        rows.append([
            kb,
            f"{us(mttr):.1f}",
            m["bytes_replicated"],
            m["bytes_rereplicated"],
            m["bytes_restored"],
            m["epochs_replayed"],
            f"{m['crashy_window_s'] / m['clean_window_s']:.2f}x",
        ])

    save(
        "fault_recovery_mttr",
        json.dumps({str(kb): m for kb, m in out.items()}, indent=2, sort_keys=True),
        ".json",
    )
    save(
        "fault_recovery_mttr",
        render_table(
            ["protected KB/rank", "MTTR (us)", "bytes replicated",
             "bytes re-replicated", "bytes restored", "epochs replayed",
             "slowdown"],
            rows,
            title=(
                f"Crash recovery MTTR: {RECOVERY_PROCS} procs, "
                f"{RECOVERY_EPOCHS} epochs, 1 mid-epoch crash, buddy "
                "replication + coordinated checkpoints"
            ),
        ),
    )


# ------------------------------------------------- saturation sweep


FIFO_DEPTHS = (None, 4) if SMOKE else (None, 2, 4, 8, 16, 64)
MEMREGION_BUDGETS = (None, 2) if SMOKE else (None, 1, 2, 3, 4, 8)
BURST = 8 if SMOKE else 32
SWEEP_NBYTES = 1024
SRC_SEGMENTS = 2 if SMOKE else 6


def _run_fifo_sweep(depth):
    """Burst of non-blocking AM puts against a bounded reception FIFO.

    All traffic takes the credited AM path (``use_rdma=False``), so a
    shallow FIFO forces the sender into backpressure mid-burst.
    """
    cfg = ArmciConfig.async_thread_mode(use_rdma=False, fifo_depth=depth)
    job = ArmciJob(2, config=cfg, procs_per_node=1)
    job.init()
    elapsed = {}

    def body(rt):
        alloc = yield from rt.malloc(SWEEP_NBYTES)
        yield from rt.barrier()
        if rt.rank == 0:
            src = rt.world.space(0).allocate(SWEEP_NBYTES)
            t0 = rt.engine.now
            for _i in range(BURST):
                yield from rt.nbput(1, src, alloc.addr(1), SWEEP_NBYTES)
            yield from rt.wait_all()
            yield from rt.fence(1)
            elapsed["t"] = rt.engine.now - t0
        yield from rt.barrier()

    job.run(body)
    rate = BURST / elapsed["t"]
    return rate, job.trace


def _run_budget_sweep(budget):
    """Round-robin puts from many source segments under a region budget.

    Each distinct segment wants its own registration; once the budget is
    spent, further segments degrade to the AM fall-back (Eq. 8).
    """
    cfg = ArmciConfig.async_thread_mode(memregion_budget=budget)
    job = ArmciJob(2, config=cfg, procs_per_node=1)
    job.init()
    elapsed = {}

    def body(rt):
        alloc = yield from rt.malloc(SWEEP_NBYTES)
        yield from rt.barrier()
        if rt.rank == 0:
            srcs = [
                rt.world.space(0).allocate(SWEEP_NBYTES)
                for _i in range(SRC_SEGMENTS)
            ]
            t0 = rt.engine.now
            for i in range(BURST):
                src = srcs[i % SRC_SEGMENTS]
                yield from rt.put(1, src, alloc.addr(1), SWEEP_NBYTES)
            yield from rt.fence(1)
            elapsed["t"] = rt.engine.now - t0
        yield from rt.barrier()

    job.run(body)
    rate = BURST / elapsed["t"]
    return rate, job.trace


def test_saturation_sweep(benchmark):
    """Message rate and AM-fallback fraction vs FIFO depth and budget."""

    def run():
        fifo = {d: _run_fifo_sweep(d) for d in FIFO_DEPTHS}
        budget = {b: _run_budget_sweep(b) for b in MEMREGION_BUDGETS}
        return fifo, budget

    fifo, budget = benchmark.pedantic(run, rounds=1, iterations=1)

    fifo_rows = []
    base_rate, _ = fifo[None]
    for depth, (rate, trace) in fifo.items():
        fifo_rows.append([
            "unbounded" if depth is None else depth,
            f"{rate / 1e6:.3f}",
            f"{rate / base_rate:.2f}x",
            trace.count("armci.backpressure_stalls"),
            f"{us(trace.time('armci.backpressure_time')):.1f}",
        ])
    # Bounded FIFOs throttle but never deadlock: every sweep completed,
    # and shallow depths actually exercised backpressure.
    shallowest = min(d for d in FIFO_DEPTHS if d is not None)
    assert fifo[shallowest][1].count("armci.backpressure_stalls") > 0
    assert fifo[None][1].count("armci.backpressure_stalls") == 0

    budget_rows = []
    base_rate, _ = budget[None]
    for b, (rate, trace) in budget.items():
        rdma = trace.count("armci.put_rdma")
        fallback = trace.count("armci.put_fallback")
        frac = fallback / (rdma + fallback) if rdma + fallback else 0.0
        budget_rows.append([
            "unbounded" if b is None else b,
            f"{rate / 1e6:.3f}",
            f"{rate / base_rate:.2f}x",
            f"{frac:.2f}",
            trace.count("armci.region_budget_reclaims"),
        ])
    # An unbounded budget never falls back; a starved one must.
    assert budget_rows[0][3] == "0.00"
    tightest = min(b for b in MEMREGION_BUDGETS if b is not None)
    t_rdma = budget[tightest][1].count("armci.put_rdma")
    t_fb = budget[tightest][1].count("armci.put_fallback")
    assert t_fb > 0 and t_fb / (t_rdma + t_fb) >= 0.5

    save(
        "fault_recovery_fifo_saturation",
        render_table(
            ["fifo depth", "rate (Mmsg/s)", "vs unbounded",
             "backpressure stalls", "stall time (us)"],
            fifo_rows,
            title=(
                f"Message rate vs injection-FIFO depth: burst of {BURST} x "
                f"{SWEEP_NBYTES} B AM puts (AT mode, RDMA off)"
            ),
        ),
    )
    save(
        "fault_recovery_budget_degradation",
        render_table(
            ["memregion budget", "rate (Mmsg/s)", "vs unbounded",
             "AM-fallback fraction", "cache reclaims"],
            budget_rows,
            title=(
                f"Protocol degradation vs memory-region budget: {BURST} "
                f"puts round-robin over {SRC_SEGMENTS} source segments"
            ),
        ),
    )


# ------------------------------------------------- network faults


CORRUPT_PROBS = (0.0, 0.2) if SMOKE else (0.0, 0.05, 0.2, 0.5)
NET_TRANSFERS = 8 if SMOKE else 32
NET_NBYTES = 4096


def _run_corrupt_sweep(prob):
    """Fenced puts across a silently-corrupting wire with integrity on."""
    chaos = (
        ChaosConfig(seed=7, corrupt_prob=prob, corrupt_mode="payload")
        if prob else None
    )
    cfg = ArmciConfig.async_thread_mode(
        retry=RetryPolicy(max_retries=20, max_delay=50e-6),
        integrity=IntegrityConfig(),
    )
    job = ArmciJob(2, config=cfg, procs_per_node=1, chaos=chaos)
    job.init()
    t0 = job.engine.now

    def body(rt):
        alloc = yield from rt.malloc(NET_NBYTES)
        yield from rt.barrier()
        if rt.rank == 0:
            src = rt.world.space(0).allocate(NET_NBYTES)
            for _i in range(NET_TRANSFERS):
                yield from rt.put(1, src, alloc.addr(1), NET_NBYTES)
                yield from rt.fence(1)
        yield from rt.barrier()

    job.run(body)
    return job.engine.now - t0, job.trace


def _run_link_kill(monitored):
    """Kill the dim-order first-hop link mid-run; measure time to flow.

    Link-kill MTTR = latency of the first fenced put that straddles the
    kill, minus the steady-state pre-kill put latency. Routing on ground
    truth reroutes at post time (MTTR ~ the detour's extra hops); the
    health monitor pays its detection hysteresis in dropped transfers
    and retries first.
    """
    cfg = ArmciConfig.async_thread_mode(
        retry=RetryPolicy(max_retries=30, max_delay=50e-6),
        integrity=IntegrityConfig(),
        health=LinkHealthConfig() if monitored else None,
    )
    job = ArmciJob(8, config=cfg, procs_per_node=1)
    job.init()
    job.world.enable_link_faults()
    lat = {"pre": [], "post": None}

    def body(rt):
        alloc = yield from rt.malloc(NET_NBYTES)
        yield from rt.barrier()
        if rt.rank == 0:
            src = rt.world.space(0).allocate(NET_NBYTES)
            killed = False
            for i in range(NET_TRANSFERS):
                if i == NET_TRANSFERS // 2 and not killed:
                    rt.world.apply_link_fault(LinkFault(
                        "kill", (0, 0, 0, 0, 0), (0, 0, 1, 0, 0), at=0.0,
                    ))
                    killed = True
                t0 = rt.engine.now
                yield from rt.put(7, src, alloc.addr(7), NET_NBYTES)
                yield from rt.fence(7)
                dt = rt.engine.now - t0
                if not killed:
                    lat["pre"].append(dt)
                elif lat["post"] is None:
                    lat["post"] = dt
        yield from rt.barrier()

    job.run(body)
    # The first pre-kill put pays one-time region-query setup; the
    # steady-state floor is the honest baseline.
    steady = min(lat["pre"])
    return lat["post"] - steady, job.trace


def test_network_fault_recovery(benchmark):
    """Link-kill MTTR and end-to-end integrity retransmit cost."""

    def run():
        corrupt = {p: _run_corrupt_sweep(p) for p in CORRUPT_PROBS}
        kills = {
            mode: _run_link_kill(mode == "monitored")
            for mode in ("ground-truth", "monitored")
        }
        return corrupt, kills

    corrupt, kills = benchmark.pedantic(run, rounds=1, iterations=1)

    base_time, _ = corrupt[0.0]
    corrupt_rows = []
    for p, (elapsed, trace) in corrupt.items():
        corrupt_rows.append([
            f"{p:.2f}",
            f"{elapsed * 1e3:.3f}",
            f"{elapsed / base_time:.2f}x",
            trace.count("armci.integrity.checksum_failures"),
            trace.count("armci.integrity.retransmits"),
            trace.count("armci.integrity.retransmit_bytes"),
        ])
        # Integrity never lets a corruption land, and actually worked.
        assert trace.count("pami.silent_corruptions") == 0, p
        if p > 0:
            assert trace.count("armci.integrity.checksum_failures") > 0, p
            assert trace.count("armci.integrity.retransmit_bytes") > 0, p

    kill_rows = []
    for mode, (mttr, trace) in kills.items():
        assert trace.count("net.reroutes") > 0, mode
        kill_rows.append([
            mode,
            f"{us(mttr):.1f}",
            trace.count("net.reroutes"),
            trace.count("net.link_drops"),
            trace.count("net.links_dead"),
        ])
    # Ground-truth routing reroutes at post time: nothing is dropped.
    assert kills["ground-truth"][1].count("net.link_drops") == 0
    # The monitor only learns from losses: detection costs dropped
    # transfers before the detour kicks in.
    assert kills["monitored"][1].count("net.link_drops") > 0

    save(
        "fault_recovery_network",
        json.dumps(
            {
                "corruption": {
                    str(p): {
                        "elapsed_s": elapsed,
                        "checksum_failures": trace.count(
                            "armci.integrity.checksum_failures"
                        ),
                        "retransmits": trace.count(
                            "armci.integrity.retransmits"
                        ),
                        "retransmit_bytes": trace.count(
                            "armci.integrity.retransmit_bytes"
                        ),
                    }
                    for p, (elapsed, trace) in corrupt.items()
                },
                "link_kill": {
                    mode: {
                        "mttr_s": mttr,
                        "reroutes": trace.count("net.reroutes"),
                        "link_drops": trace.count("net.link_drops"),
                        "links_dead": trace.count("net.links_dead"),
                    }
                    for mode, (mttr, trace) in kills.items()
                },
            },
            indent=2, sort_keys=True,
        ),
        ".json",
    )
    save(
        "fault_recovery_network_integrity",
        render_table(
            ["corrupt prob", "workload (ms)", "slowdown",
             "checksum failures", "retransmits", "retransmit bytes"],
            corrupt_rows,
            title=(
                f"End-to-end integrity cost on a corrupting wire: "
                f"{NET_TRANSFERS} x {NET_NBYTES} B fenced puts, 2 ranks "
                "(AT mode, CRC32 + seq)"
            ),
        ),
    )
    save(
        "fault_recovery_link_kill_mttr",
        render_table(
            ["routing view", "link-kill MTTR (us)", "reroutes",
             "transfers dropped", "links declared dead"],
            kill_rows,
            title=(
                "Link-kill MTTR: dim-order first-hop link killed "
                f"mid-run, {NET_TRANSFERS} x {NET_NBYTES} B fenced puts "
                "rank 0 -> 7 (8 procs, 1/node)"
            ),
        ),
    )
