"""The rest of the evidence: Eqs. 7-9, the Section III ablations, and the
extension, fault-recovery and transport tables.

:data:`SUPPLEMENTARY` maps a result-file stem to a
:class:`repro.bench.artifacts.Artifact`, exactly as
:data:`repro.bench.artifacts.ARTIFACTS` does for the paper's Section IV:
``run`` is the sweep (its docstring says what the table is for),
``check`` asserts the claims on its data, ``table`` renders the text.
``bench_paper.py::test_artifact`` runs both registries and saves every
table to ``benchmarks/results/<stem>.txt``. ``REPRO_BENCH_SMOKE=1``
shrinks the fault-recovery sweeps (CI smoke mode).
"""

import math
from typing import NamedTuple

import numpy as np
import pytest

from repro.apps.nwchem import ScfConfig, run_scf
from repro.armci import ArmciConfig, ArmciJob
from repro.armci.config import RetryPolicy
from repro.armci.vector import IoVector
from repro.bench import contiguous_latency_sweep, strided_bandwidth_sweep
from repro.bench.artifacts import Artifact, smoke_or_full
from repro.bench.harness import rank0
from repro.chaos import ChaosConfig, FaultPlan, LinkFault, apply_link_fault
from repro.errors import ProcessFailedError
from repro.gax import (
    DistributedTaskPool,
    GlobalArray,
    Patch,
    SharedCounter,
    parallel_dgemm,
)
from repro.machine import BGQParams
from repro.machine.health import LinkHealthConfig
from repro.model import LogGPModel
from repro.pami import PamiWorld
from repro.pami.integrity import IntegrityConfig
from repro.recover import RecoveryConfig
from repro.topology import RankMapping, Torus
from repro.util import MB, bytes_fmt, render_table, us
from repro.verify import attach_oracle
from repro.workloads import PatternConfig, run_workload


def _table(headers: list[str], title):
    """Decorator: a generator of an artifact's table rows becomes its
    ``table``, the rows rendered under ``headers`` and ``title`` (a
    string, or a function of no arguments for a title that names the
    sweep's size)."""

    def decorate(rows):
        def table(data) -> str:
            text = title() if callable(title) else title
            return render_table(headers, list(rows(data)), title=text)

        return table

    return decorate


# -- Eqs. 7-9: LogGP protocol models vs simulated protocol latencies --------

LOGGP_SIZES = tuple(2**k for k in range(8, 21, 2))
EQ9_CHUNKS = tuple(2**k for k in range(11, 21, 2))


def _loggp() -> LogGPModel:
    p = BGQParams()
    # o: per-message processor/injection overhead; L: fixed latency of the
    # adjacent-node get path (request + completion + dispatch); G: wire.
    o = p.message_pipeline_overhead
    dispatch = p.advance_poll_time + p.context_lock_overhead
    L = p.get_request_overhead + 2 * p.hop_latency + p.get_completion_delay + dispatch
    return LogGPModel(o=o, L=L, G=p.byte_time)


def _against_model(measured, predict):
    """``(x, simulated, predicted, relative error)`` per sweep point."""
    rows = []
    for x, simulated in measured:
        predicted = predict(x)
        rows.append((x, simulated, predicted, abs(simulated - predicted) / simulated))
    return rows


def _eq7_run():
    """Equations 7-9: the paper models contiguous RDMA (Eq. 7), the AM
    fall-back (Eq. 8), and strided zero-copy (Eq. 9) in LogGP terms. This
    fits the model's constants from the machine parameters and checks the
    simulated protocols track the closed forms."""
    rows = contiguous_latency_sweep(sizes=LOGGP_SIZES, op="get")
    return _against_model(rows, _loggp().t_rdma)


def _eq7_check(rows):
    for size, simulated, predicted, error in rows:
        assert error < 0.10, (size, simulated, predicted)


@_table(
    ["msg size", "simulated (us)", "Eq.7 model (us)", "error"],
    "Eq. 7: T_rdma ~ o + L + (m-1)G vs simulated RDMA get",
)
def _eq7_table(rows):
    for size, simulated, predicted, error in rows:
        yield [bytes_fmt(size), f"{us(simulated):.2f}", f"{us(predicted):.2f}",
               f"{error * 100:.1f}%"]


def _eq8_run():
    """Eq. 8: the AM fall-back is Eq. 7 plus the remote progress engine's
    handler time."""
    rdma = contiguous_latency_sweep(sizes=LOGGP_SIZES, op="get")
    no_rdma = ArmciConfig(use_rdma=False)
    fallback = contiguous_latency_sweep(sizes=LOGGP_SIZES, op="get", config=no_rdma)
    return dict(rdma), dict(fallback)


def _eq8_check(data):
    rdma_by, fb_by = data
    for size in LOGGP_SIZES:
        # Eq. 8's extra o: the remote progress engine's handler time, a
        # positive, roughly size-independent cost at small m.
        assert fb_by[size] - rdma_by[size] > 0, size
    small_extras = [fb_by[s] - rdma_by[s] for s in LOGGP_SIZES[:3]]
    assert max(small_extras) - min(small_extras) < 1e-6


@_table(
    ["msg size", "RDMA get (us)", "fall-back get (us)", "extra o (us)"],
    "Eq. 8: the AM fall-back pays an extra remote o over Eq. 7",
)
def _eq8_table(data):
    rdma_by, fb_by = data
    for size in LOGGP_SIZES:
        yield [bytes_fmt(size), f"{us(rdma_by[size]):.2f}",
               f"{us(fb_by[size]):.2f}", f"{us(fb_by[size] - rdma_by[size]):.2f}"]


def _eq9_run():
    """Eq. 9: zero-copy strided put time against ``o*m/l0 + mG`` (1 MB)."""
    model = _loggp()
    rows = strided_bandwidth_sweep(total_bytes=MB, chunk_sizes=EQ9_CHUNKS, op="put")
    return _against_model(
        [(l0, MB / (bw * 1e6)) for l0, bw in rows],
        lambda l0: model.t_strided(MB, l0),
    )


def _eq9_check(rows):
    for l0, simulated_t, predicted_t, error in rows:
        assert error < 0.15, (l0, simulated_t, predicted_t)


@_table(
    ["chunk l0", "simulated (us)", "Eq.9 model (us)", "error"],
    "Eq. 9: T_strided ~ o*m/l0 + mG vs simulated zero-copy put (1 MB)",
)
def _eq9_table(rows):
    for l0, simulated_t, predicted_t, error in rows:
        yield [bytes_fmt(l0), f"{us(simulated_t):.1f}", f"{us(predicted_t):.1f}",
               f"{error * 100:.1f}%"]


# -- Section III-E: cs_mr vs cs_tgt conflicting-access tracking -------------

DGEMM_N, DGEMM_BLOCK, DGEMM_PROCS = 32, 8, 4


def _dgemm(tracker: str, a: np.ndarray, b: np.ndarray):
    N = DGEMM_N
    config = ArmciConfig(consistency_tracker=tracker)
    job = ArmciJob(DGEMM_PROCS, procs_per_node=DGEMM_PROCS, config=config)
    job.init()
    oracle = attach_oracle(job)
    t0 = job.engine.now

    def body(rt):
        ga_a = yield from GlobalArray.create(rt, (N, N))
        ga_b = yield from GlobalArray.create(rt, (N, N))
        ga_c = yield from GlobalArray.create(rt, (N, N))
        counter = yield from SharedCounter.create(rt)
        ga_c.fill(rt, 0.0)
        yield from rt.barrier()
        if rt.rank == 0:
            yield from ga_a.put(rt, Patch(0, N, 0, N), a)
            yield from ga_b.put(rt, Patch(0, N, 0, N), b)
            yield from rt.fence_all()
        yield from rt.barrier()
        yield from parallel_dgemm(rt, ga_a, ga_b, ga_c, counter, DGEMM_BLOCK)
        result = None
        if rt.rank == 0:
            result = yield from ga_c.to_numpy(rt)
        yield from rt.barrier()
        return result

    c = job.run(body)[0]
    return c, job.engine.now - t0, job.trace, oracle.report


def _consistency_run():
    """Ablation (Section III-E): cs_mr vs cs_tgt conflicting-access tracking.

    Distributed dgemm (reads A/B, accumulates C) under both trackers: the
    naive per-target tracker fences reads of A/B because of outstanding C
    updates; the proposed per-region tracker never does. Results must be
    bit-identical.

    The happens-before oracle (``repro.verify``) observes both runs and
    classifies every fence decision against its golden conflict model, so
    the table reports the paper's claim directly: cs_tgt's extra fences are
    *false positives* (no real conflict), cs_mr takes only *required*
    fences, and neither tracker ever misses one.
    """
    rng = np.random.default_rng(2013)
    a = rng.standard_normal((DGEMM_N, DGEMM_N))
    b = rng.standard_normal((DGEMM_N, DGEMM_N))
    return a, b, {t: _dgemm(t, a, b) for t in ("cs_tgt", "cs_mr")}


def _consistency_check(data):
    a, b, out = data
    c_tgt, t_tgt, tr_tgt, rep_tgt = out["cs_tgt"]
    c_mr, t_mr, tr_mr, rep_mr = out["cs_mr"]

    # Identical numerics; fewer forced fences; no slower.
    np.testing.assert_allclose(c_tgt, a @ b, rtol=1e-12)
    np.testing.assert_allclose(c_mr, c_tgt)
    assert tr_mr.count("armci.fences_forced") == 0
    assert tr_tgt.count("armci.fences_forced") > 10
    assert tr_mr.count("armci.fences_avoided") > 10
    assert t_mr <= t_tgt
    # Oracle verdict: both trackers are *correct* (zero missed fences);
    # only cs_tgt pays for it with false positives, and cs_mr strictly
    # fewer fences overall.
    assert rep_tgt.missed_fences == 0
    assert rep_mr.missed_fences == 0
    assert rep_mr.false_positive_fences == 0
    assert rep_tgt.false_positive_fences > 10
    assert tr_mr.count("armci.fences_forced") < tr_tgt.count("armci.fences_forced")


@_table(
    ["tracker", "dgemm time (us)", "forced fences", "avoided fences",
     "oracle: false-pos", "oracle: required", "oracle: missed"],
    "Section III-E ablation: dgemm under cs_tgt vs cs_mr "
    "(identical results; oracle-audited fence decisions — "
    "cs_tgt's extra fences are all false positives)",
)
def _consistency_table(data):
    for name, (_c, t, tr, rep) in data[2].items():
        yield [name, f"{us(t):.1f}", tr.count("armci.fences_forced"),
               tr.count("armci.fences_avoided"), rep.false_positive_fences,
               rep.required_fences, rep.missed_fences]


# -- Section III-B: bounded LFU memory-region cache -------------------------

SIGMA = 4       # remote structures
ROUNDS = 6      # round-robin passes over the structures


def _region_cache(capacity):
    config = ArmciConfig(region_cache_capacity=capacity)
    job = ArmciJob(2, procs_per_node=1, config=config)
    job.init()
    t0 = job.engine.now

    def body(rt):
        allocs = []
        for _ in range(SIGMA):
            allocs.append((yield from rt.malloc(4096)))
        if rt.rank == 0:
            local = rt.world.space(0).allocate(4096)
            for _ in range(ROUNDS):
                for alloc in allocs:
                    yield from rt.get(1, local, alloc.addr(1), 256)
        yield from rt.barrier()

    job.run(body)
    gamma = job.world.params.memregion_space
    return {
        "time": job.engine.now - t0,
        "misses": job.trace.count("armci.region_cache_misses"),
        "evictions": job.trace.count("armci.region_cache_evictions"),
        "space": job.rt(0).region_cache.space_bytes(gamma),
    }


def _regioncache_run():
    """Ablation (Section III-B): bounded LFU memory-region cache.

    At strong scaling, caching every (structure, peer) region handle costs
    sigma*zeta*gamma bytes (Eq. 5); the design bounds the cache and serves
    misses with an AM to the owner. This sweeps the cache capacity
    while a rank reads round-robin from sigma = 4 remote structures and
    reports miss/eviction counts, the space bound, and total time.
    """
    return {c: _region_cache(c) for c in (1, 2, SIGMA, None)}


def _regioncache_check(out):
    # Thrashing at capacity 1: every access misses (except repeats within
    # one resolution); a cache >= sigma takes exactly one miss per
    # structure and never evicts.
    assert out[1]["misses"] == SIGMA * ROUNDS
    assert out[1]["evictions"] >= SIGMA * ROUNDS - 1
    assert out[SIGMA]["misses"] == SIGMA
    assert out[SIGMA]["evictions"] == 0
    assert out[None]["misses"] == SIGMA
    # Misses cost real time (an AM round trip to the owner).
    assert out[1]["time"] > out[SIGMA]["time"]
    # The space bound holds: capacity * gamma.
    assert out[1]["space"] == 8
    assert out[SIGMA]["space"] == SIGMA * 8


@_table(
    ["capacity", "time (us)", "misses", "evictions", "space (B)"],
    "Section III-B ablation: LFU region cache, sigma=4 remote "
    f"structures x {ROUNDS} round-robin reads",
)
def _regioncache_table(out):
    for c, r in out.items():
        capacity = "unbounded" if c is None else c
        yield [capacity, f"{us(r['time']):.1f}", r["misses"], r["evictions"],
               r["space"]]


# -- Section III-D: one vs two PAMI contexts under contention ---------------

CONTEXT_PROCS = 32
#: The latency-probe target lives on the *other* node (ranks 0-15 share
#: rank 0's node under ABCDET at 16 procs/node).
PROBE = 16
PROBE_GETS = 30


def _contended_gets(num_contexts: int) -> dict:
    config = ArmciConfig(async_thread=True, num_contexts=num_contexts)
    job = ArmciJob(CONTEXT_PROCS, procs_per_node=16, config=config)
    job.init()
    get_latencies: list[float] = []
    stop = {"flag": False}

    def body(rt):
        counter = yield from SharedCounter.create(rt, host=0)
        alloc = yield from rt.malloc(4096)
        yield from rt.barrier()
        if rt.rank == 0:
            local = rt.world.space(0).allocate(4096)
            yield from rt.get(PROBE, local, alloc.addr(PROBE), 16)  # warm
            for _ in range(PROBE_GETS):
                t0 = rt.engine.now
                yield from rt.get(PROBE, local, alloc.addr(PROBE), 16)
                get_latencies.append(rt.engine.now - t0)
            stop["flag"] = True
            yield from rt.barrier()
        elif rt.rank == PROBE:
            yield from rt.barrier()
        else:
            # Background AMO pressure on rank 0 until rank 0 finishes.
            while not stop["flag"]:
                yield from counter.next(rt)
            yield from rt.barrier()

    job.run(body)
    mean = sum(get_latencies) / len(get_latencies)
    return {
        "mean_get": mean,
        "worst_get": max(get_latencies),
        "amos": job.trace.count("pami.rmw_serviced"),
    }


def _contexts_run():
    """Ablation (Section III-D): one vs two PAMI contexts under contention.

    With the asynchronous thread sharing the main thread's only context
    (rho = 1), every remote AMO it services holds the context lock and queues
    ahead of the main thread's own completions. With rho = 2 the async thread
    owns its own context and the main thread's communication is undisturbed —
    the paper's recommended configuration, costing one extra epsilon of space.

    Scenario: rank 0's main thread runs a get-latency loop against rank 16
    (on the other node) while every other rank hammers rank 0 with
    fetch-and-adds.
    """
    return {rho: _contended_gets(rho) for rho in (1, 2)}


def _contexts_check(out):
    # Both configurations stay functional under pressure...
    assert out[1]["amos"] > 100
    assert out[2]["amos"] > 100
    # ...but rho=1 inflates the main thread's get latency: its completions
    # queue behind serviced AMOs on the shared context.
    assert out[1]["mean_get"] > 1.3 * out[2]["mean_get"]
    # With rho=2 the main thread sees near-quiescent latency (~2.89 us).
    assert abs(out[2]["mean_get"] - 2.89e-6) / 2.89e-6 < 0.3


@_table(
    ["contexts (rho)", "main-thread get mean (us)", "worst (us)", "AMOs serviced"],
    "Section III-D ablation: async thread on a shared (rho=1) "
    "vs dedicated (rho=2) context",
)
def _contexts_table(out):
    for rho, r in out.items():
        yield [rho, f"{us(r['mean_get']):.2f}", f"{us(r['worst_get']):.2f}", r["amos"]]


# -- Extension: torus link contention under incast traffic ------------------

RING = 8
RING_SIZE = 64 * 1024


def _makespan(pattern: str, contended: bool) -> float:
    """One put per sender on an 8-ring: ``incast`` (every rank to rank 0)
    or ``pairwise`` (disjoint neighbor pairs 2k -> 2k+1: no shared
    links)."""
    ring = RankMapping(Torus((RING, 1, 1, 1, 1)), 1, order="ABCDET")
    world = PamiWorld(RING, procs_per_node=1, mapping=ring, link_contention=contended)
    job = ArmciJob(RING, config=ArmciConfig(), world=world)
    job.init()
    incast = pattern == "incast"
    makespans = []

    def body(rt):
        alloc = yield from rt.malloc(RING * RING_SIZE if incast else RING_SIZE)
        yield from rt.barrier()
        t0 = rt.engine.now
        if incast:
            sends, dst, offset = rt.rank != 0, 0, rt.rank * RING_SIZE
        else:
            sends, dst, offset = rt.rank % 2 == 0, rt.rank + 1, 0
        if sends:
            src = rt.world.space(rt.rank).allocate(RING_SIZE)
            yield from rt.put(dst, src, alloc.addr(dst) + offset, RING_SIZE)
            yield from rt.fence(dst)
        yield from rt.barrier()
        makespans.append(rt.engine.now - t0)

    job.run(body)
    return max(makespans)


def _contention_run():
    """Ablation (extension): torus link contention under incast traffic.

    The paper's benchmarks run uncongested pairs; this extension serializes
    payloads on shared route links, showing what dimension-order routing
    does to incast (many-to-one) traffic — the hot-spot problem the same
    authors studied on InfiniBand (Vishnu et al., CCGrid'07). Dynamic
    routing (unavailable in BG/Q software at the paper's submission,
    Section II-A) would spread these flows.
    """
    return {
        (pattern, contention): _makespan(pattern, contention)
        for pattern in ("incast", "pairwise")
        for contention in (False, True)
    }


def _contention_check(out):
    # Disjoint pairs are untouched by the contention model...
    assert out[("pairwise", True)] == out[("pairwise", False)]
    # ...incast pays for the shared last links into the target.
    assert out[("incast", True)] > 1.5 * out[("incast", False)]


@_table(
    ["traffic pattern", "link contention", "makespan (us)"],
    "Extension ablation: torus link contention — incast "
    f"({RING - 1}-to-1, {RING_SIZE // 1024} KB) vs disjoint pairs",
)
def _contention_table(out):
    for (pattern, c), t in sorted(out.items()):
        yield [pattern, "on" if c else "off", f"{us(t):.1f}"]


# -- Extension: message aggregation (Fig. 5's application guidance) ---------

N_FRAGMENTS = 32
FRAGMENTS = (32, 256, 2048, 16384)


def _aggregation_loop(rt, alloc):
    src = rt.world.space(0).allocate(max(FRAGMENTS))
    yield from rt.put(1, src, alloc.addr(1), 64)  # warm caches
    yield from rt.fence(1)
    warm = rt.aggregate(1)
    warm.put(src, alloc.addr(1), 64)
    yield from warm.flush()
    yield from rt.fence(1)
    out = {}
    for size in FRAGMENTS:
        t0 = rt.engine.now
        for i in range(N_FRAGMENTS):
            yield from rt.nbput(1, src, alloc.addr(1) + i * size, size)
        yield from rt.wait_all()
        individual = rt.engine.now - t0
        yield from rt.fence(1)
        t0 = rt.engine.now
        agg = rt.aggregate(1)
        for i in range(N_FRAGMENTS):
            agg.put(src, alloc.addr(1) + i * size, size)
        yield from agg.flush()
        aggregated = rt.engine.now - t0
        yield from rt.fence(1)
        out[size] = (individual, aggregated)
    return out


def _aggregation_run():
    """Ablation (Fig. 5's application guidance): message aggregation.

    Figure 5 identifies ~4 KB as the inflection point below which per-message
    overhead dominates; applications sending many small updates should
    aggregate. This ships N small fragments either as individual
    non-blocking puts or through one aggregate handle, across fragment sizes
    straddling the inflection point.
    """
    job = ArmciJob(2, procs_per_node=1, config=ArmciConfig())
    nbytes = N_FRAGMENTS * max(FRAGMENTS)
    return rank0(job, nbytes, _aggregation_loop, barrier=False)[0]


def _aggregation_check(out):
    # Small fragments: aggregation wins big (one o instead of N).
    assert out[32][1] < out[32][0] / 5
    assert out[256][1] < out[256][0] / 3
    # Past the inflection point the wire time dominates and the win
    # shrinks toward nothing.
    gain_small = out[32][0] / out[32][1]
    gain_large = out[16384][0] / out[16384][1]
    assert gain_large < gain_small / 4
    assert gain_large < 1.6


@_table(
    ["fragment", f"{N_FRAGMENTS} puts (us)", "aggregated (us)", "gain"],
    "Fig. 5 ablation: individual small puts vs one aggregate "
    "handle (inflection near 4 KB)",
)
def _aggregation_table(out):
    for size, (ind, agg) in out.items():
        yield [bytes_fmt(size), f"{us(ind):.1f}", f"{us(agg):.1f}", f"{ind / agg:.1f}x"]


# -- Extension: distributed load-balance counters ---------------------------

COUNTER_PROCS = 256
COUNTER_SCF = dict(nbf_override=128, nblocks=48, task_time=50e-6, iterations=1)
COUNTER_TASKS = COUNTER_SCF["nblocks"] ** 2


def _counters_run():
    """Ablation (extension): distributed load-balance counters.

    Figure 9 shows fetch-and-add latency growing linearly with p even under
    the asynchronous-thread design — one software-serviced counter is a
    serial bottleneck. Sharding the task range over multiple counters with
    work stealing (NWChem's mitigation at scale) divides both the AMO
    service load and the hot-spot traffic. This runs the SCF proxy
    near counter saturation with 1, 4, and 16 counters.
    """
    out = {}
    for g in (1, 4, 16):
        cfg = ScfConfig(**COUNTER_SCF, num_counters=g)
        out[g] = run_scf(
            COUNTER_PROCS, ArmciConfig.async_thread_mode(), cfg,
            procs_per_node=16, label=f"g={g}",
        )
    return out


def _counters_check(out):
    # All tasks complete under every configuration.
    for g, res in out.items():
        assert res.tasks_done == COUNTER_TASKS, g
    # Sharding collapses the time ranks spend blocked on counters
    # (returns diminish past the point where shards outnumber the
    # concurrent requesters per host, and end-of-pool steal probes add
    # draws of their own)...
    assert out[4].counter_time_total < 0.5 * out[1].counter_time_total
    assert out[16].counter_time_total < 1.15 * out[4].counter_time_total
    # ...without hurting the makespan. (Here the makespan is work-bound —
    # AT overlaps counter queueing with other ranks' compute — so the
    # blocked-time collapse shows up as responsiveness, not total time.)
    assert out[4].total_time < 1.1 * out[1].total_time
    assert out[16].total_time < 1.1 * out[1].total_time


@_table(
    ["counters", "SCF total (ms)", "aggregate counter (ms)", "counter/rank (us)"],
    f"Extension ablation: sharded load-balance counters, "
    f"{COUNTER_PROCS} procs, {COUNTER_TASKS} x 50 us tasks (AT mode)",
)
def _counters_table(out):
    for g, res in out.items():
        yield [g, f"{res.total_time * 1e3:.2f}", f"{res.counter_time_total * 1e3:.1f}",
               f"{us(res.counter_time_mean):.0f}"]


# -- Supplementary: small-message issue rate --------------------------------

RATE_SIZES = (8, 64, 512)
RATE_WINDOW = 256


def _issue_rate(size: int) -> float:
    def loop(rt, alloc):
        local = rt.world.space(0).allocate(max(RATE_SIZES))
        yield from rt.get(1, local, alloc.addr(1), 16)  # warm caches
        yield from rt.fence(1)
        t0 = rt.engine.now
        for i in range(RATE_WINDOW):
            yield from rt.nbput(1, local, alloc.addr(1) + i * size, size)
        yield from rt.wait_all()
        rate = RATE_WINDOW / (rt.engine.now - t0)
        yield from rt.fence(1)
        return rate

    job = ArmciJob(2, procs_per_node=1, config=ArmciConfig())
    return rank0(job, RATE_WINDOW * max(RATE_SIZES), loop, barrier=False)[0]


def _rate_run():
    """Supplementary: small-message issue rate.

    The zero-copy strided protocol's viability rests on the network's "high
    messaging rate and network concurrency" (Section III-C.2). This
    measures sustained non-blocking put issue rate for small messages — the
    reciprocal of Eq. 9's per-chunk overhead ``o``.
    """
    return {size: _issue_rate(size) for size in RATE_SIZES}


def _rate_check(rates):
    # The pipeline overhead bounds the rate near 1/o ~ 0.9 Mmsg/s for
    # sub-alignment messages (o = 1 us + unaligned penalty).
    assert rates[8] == pytest.approx(1 / 1.12e-6, rel=0.05)
    # Larger messages trade rate for bytes: monotonically decreasing.
    values = [rates[s] for s in RATE_SIZES]
    assert values == sorted(values, reverse=True)


@_table(
    ["msg size", "rate (Mmsg/s)"],
    "Supplementary: non-blocking put issue rate (the messaging "
    "rate Eq. 9's zero-copy protocol leans on)",
)
def _rate_table(rates):
    for s, r in rates.items():
        yield [bytes_fmt(s), f"{r / 1e6:.3f}"]


# -- Supplementary: intra-node vs inter-node paths --------------------------

PATH_SIZES = (16, 1024, 65536)


def _get_latencies(num_procs, procs_per_node, dst):
    def loop(rt, alloc):
        local = rt.world.space(0).allocate(max(PATH_SIZES))
        yield from rt.get(dst, local, alloc.addr(dst), 16)  # warm
        rows = {}
        for size in PATH_SIZES:
            t0 = rt.engine.now
            yield from rt.get(dst, local, alloc.addr(dst), size)
            rows[size] = rt.engine.now - t0
        return rows

    job = ArmciJob(num_procs, procs_per_node=procs_per_node, config=ArmciConfig())
    return rank0(job, max(PATH_SIZES), loop, barrier=False)[0]


def _intranode_run():
    """Supplementary: intra-node vs inter-node paths (c = 1-16, Table II).

    The paper runs 1-16 processes per node; co-located ranks communicate
    through the L2 crossbar instead of the torus. This contrasts the
    two paths and checks the shared-memory model's basic sanity.
    """
    intra = _get_latencies(16, 16, dst=1)   # same node (c=16)
    inter = _get_latencies(32, 16, dst=16)  # adjacent node
    return intra, inter


def _intranode_check(data):
    intra, inter = data
    for size in PATH_SIZES:
        # The crossbar path is always faster than the torus path...
        assert intra[size] < inter[size], size
    # ...dramatically so for small messages (no NIC round trip).
    assert intra[16] < 0.5 * inter[16]
    # Inter-node matches the Fig. 3 calibration.
    assert inter[16] == pytest.approx(2.89e-6, rel=0.05)


@_table(
    ["msg size", "same-node get (us)", "adjacent-node get (us)"],
    "Supplementary: intra-node (L2 crossbar) vs inter-node "
    "(torus) blocking get",
)
def _intranode_table(data):
    intra, inter = data
    for s in PATH_SIZES:
        yield [bytes_fmt(s), f"{us(intra[s]):.2f}", f"{us(inter[s]):.2f}"]


# -- Supplementary: on-demand endpoint creation as the clique grows ---------

CLIQUE_PROCS = 64


def _clique_loop(rt, alloc):
    """Rank 0 contacts a growing random-ish peer set; snapshot the cache."""
    local = rt.world.space(0).allocate(256)
    snapshots: list[tuple[int, int, int, float]] = []
    contacted = 0
    t_start = rt.engine.now
    # Deterministic pseudo-random peer order (LCG over 1..p-1).
    peer = 1
    for batch in (4, 12, 16, 31):
        for _ in range(batch):
            peer = (peer * 29 + 17) % (CLIQUE_PROCS - 1) + 1
            yield from rt.put(peer, local, alloc.addr(peer), 64)
            contacted += 1
        alpha = rt.world.params.endpoint_space
        zeta = rt.endpoints.clique_size
        space = rt.endpoints.space_bytes(alpha)
        snapshots.append((contacted, zeta, space, rt.engine.now - t_start))
    yield from rt.fence_all()
    return snapshots


def _clique_run():
    """Supplementary: on-demand endpoint creation as the clique grows.

    Endpoints are created lazily as the communication clique (zeta) expands
    over an application's lifetime (Section III-B; cf. the authors' earlier
    on-demand connection work on InfiniBand). With alpha = 4 B and beta =
    0.3 us per endpoint (Eqs. 3-4), even a full clique of 4096 peers costs
    16 KB and ~1.2 ms per process — the paper's scalability argument,
    reproduced by measuring the cache as a random-peers workload runs.
    """
    job = ArmciJob(CLIQUE_PROCS, procs_per_node=16, config=ArmciConfig())
    return rank0(job, 256, _clique_loop, barrier=False)[0]


def _clique_check(snapshots):
    # The clique grows monotonically and never exceeds contacted peers.
    cliques = [zeta for _c, zeta, _s, _t in snapshots]
    assert cliques == sorted(cliques)
    for contacted, zeta, space, _t in snapshots:
        assert zeta <= min(contacted, CLIQUE_PROCS - 1)
        # Eq. 3 at rho=1: M_e = zeta * alpha.
        assert space == zeta * 4


@_table(
    ["puts issued", "clique zeta", "endpoint bytes (Eq.3)", "elapsed (us)"],
    "Supplementary: on-demand endpoint creation as the "
    "communication clique grows (alpha=4 B, beta=0.3 us)",
)
def _clique_table(snapshots):
    for contacted, zeta, space, elapsed in snapshots:
        yield [contacted, zeta, space, f"{us(elapsed):.1f}"]


# -- Supplementary: rank-mapping permutations and locality ------------------

MAPPING_PROCS = 128
MAPPING_SHAPE = (2, 2, 2, 1, 1)  # 8 nodes x 16 procs
MAPPING_SIZE = 4096


def _neighbor_exchange(order: str) -> tuple[float, int]:
    """Returns (aggregate per-rank comm seconds, on-node neighbor pairs).

    Aggregate communication time is the right metric: the barrier-
    synchronized makespan is bottlenecked by the slowest (always
    off-node) pair under either mapping.
    """
    mapping = RankMapping(Torus(MAPPING_SHAPE), 16, order=order)
    world = PamiWorld(MAPPING_PROCS, mapping=mapping)
    job = ArmciJob(MAPPING_PROCS, config=ArmciConfig(), world=world)
    job.init()
    comm_time = []

    def body(rt):
        alloc = yield from rt.malloc(MAPPING_SIZE)
        yield from rt.barrier()
        right = (rt.rank + 1) % MAPPING_PROCS
        src = rt.world.space(rt.rank).allocate(MAPPING_SIZE)
        # Untimed warm-up: pay region registration/caching once.
        yield from rt.put(right, src, alloc.addr(right), MAPPING_SIZE)
        yield from rt.fence(right)
        yield from rt.barrier()
        total = 0.0
        for _ in range(4):
            t0 = rt.engine.now
            yield from rt.put(right, src, alloc.addr(right), MAPPING_SIZE)
            yield from rt.fence(right)
            total += rt.engine.now - t0
            yield from rt.barrier()
        comm_time.append(total)

    job.run(body)
    onnode = sum(
        1 for r in range(MAPPING_PROCS) if mapping.same_node(r, (r + 1) % MAPPING_PROCS)
    )
    return sum(comm_time), onnode


def _mapping_run():
    """Supplementary: rank-mapping permutations and communication locality.

    The paper's runs use the ABCDET mapping (Section IV): consecutive ranks
    fill one node's 16 slots before touching the torus. The inverse
    (TABCDE — torus dimensions fastest) scatters consecutive ranks across
    nodes. For nearest-rank communication (rank k <-> k+1, the most common
    application pattern), the mapping decides whether traffic stays on-node:
    ABCDET keeps 15/16 of neighbor pairs on the crossbar, TABCDE pushes all
    of them onto the torus.
    """
    return {order: _neighbor_exchange(order) for order in ("ABCDET", "TABCDE")}


def _mapping_check(out):
    abcdet_time, abcdet_local = out["ABCDET"]
    tabcde_time, tabcde_local = out["TABCDE"]
    # ABCDET keeps 15/16 of neighbor pairs on-node; TABCDE none.
    assert abcdet_local == MAPPING_PROCS - 8  # one off-node hop per node boundary
    assert tabcde_local == 0
    # Locality translates into aggregate communication time.
    assert abcdet_time < 0.6 * tabcde_time


@_table(
    ["mapping", "on-node pairs", "torus pairs", "aggregate comm (us)"],
    "Supplementary: rank mapping vs neighbor-exchange locality "
    f"({MAPPING_PROCS} ranks, 8 nodes, {MAPPING_SIZE} B puts)",
)
def _mapping_table(out):
    for order, (t, local) in out.items():
        yield [order, local, MAPPING_PROCS - local, f"{us(t):.1f}"]


# -- Supplementary: software tree collectives on processor groups -----------


def _allreduce_latency(group_size: int, config, members_compute: bool) -> float:
    job = ArmciJob(16, procs_per_node=16, config=config)
    job.init()
    members = tuple(range(group_size))
    out = {}

    def body(rt):
        group = rt.group(members)
        if rt.rank not in members:
            yield from rt.compute(1e-6)
            return
        yield from rt.group_allreduce(group, 1.0)  # warm-up round
        if members_compute and rt.rank != 0:
            # Members busy with application work; the tree must wait for
            # their progress engines (or their async threads).
            yield from rt.compute(200e-6)
        t0 = rt.engine.now
        result = yield from rt.group_allreduce(group, float(rt.rank))
        assert result == float(sum(members))
        if rt.rank == 0:
            out["latency"] = rt.engine.now - t0

    job.run(body)
    return out["latency"]


def _groups_run():
    """Supplementary: software tree collectives on processor groups.

    Group collectives cannot use the partition-wide hardware barrier: they
    run as binomial trees over active messages. Two results: latency grows
    ~log2(n) with group size (depth, not membership, sets the cost), and a
    late-arriving member delays the tree by its full lateness — collectives
    require participation, so asynchronous progress threads cannot mask
    stragglers (unlike the one-sided AMOs of Fig. 9).
    """
    scaling = {
        n: _allreduce_latency(n, ArmciConfig.async_thread_mode(), False)
        for n in (2, 4, 8, 16)
    }
    skewed = _allreduce_latency(8, ArmciConfig.async_thread_mode(), True)
    return scaling, skewed


def _groups_check(data):
    scaling, skewed = data
    # Tree depth: latency grows with log2(n) — the 16-member group costs
    # ~4x the 2-member group (depth 4 vs 1), not the 8x a linear scheme
    # would.
    values = [scaling[n] for n in sorted(scaling)]
    assert values == sorted(values)
    assert scaling[16] <= 4.5 * scaling[2]
    # A straggler computing 200 us delays the whole tree by ~that much:
    # participation, not progress, is the collective's critical path.
    assert skewed >= 200e-6
    assert skewed < 200e-6 + 20 * scaling[8]


@_table(
    ["group size", "tree depth", "allreduce (us)"],
    "Supplementary: software tree allreduce over process groups (AT)",
)
def _groups_rows(data):
    for n, t in sorted(data[0].items()):
        yield [n, f"{math.log2(n):.0f}", f"{us(t):.2f}"]


def _groups_table(data):
    return (
        _groups_rows(data)
        + f"\nwith a 200 us straggler (n=8): {us(data[1]):.1f} us — trees "
        "wait for participants; async threads cannot mask collective "
        "stragglers"
    )


# -- Supplementary: the pattern family under the full stack -----------------

PATTERN_PROCS = 32
PATTERN_OPS = 12
PATTERN_SIZE = 4096


def _patterns_run():
    """Supplementary: the pattern family under the full stack.

    NWChem's traffic has "little to no regularity" (Section IV-A); this
    contrasts the canonical patterns on identical op counts — and
    shows what hotspots cost once the link-contention extension is enabled.
    """
    at = ArmciConfig.async_thread_mode()
    out = {}
    for pattern in ("neighbor", "uniform", "transpose", "hotspot", "nwchem"):
        cfg = PatternConfig(pattern, num_ops=PATTERN_OPS, msg_size=PATTERN_SIZE)
        out[pattern] = run_workload(PATTERN_PROCS, cfg, at, procs_per_node=16)
    cfg = PatternConfig("hotspot", num_ops=PATTERN_OPS, msg_size=PATTERN_SIZE)
    out["hotspot+contention"] = run_workload(
        PATTERN_PROCS, cfg, at, procs_per_node=16, link_contention=True
    )
    return out


def _patterns_check(out):
    # Locality wins: neighbor (mostly same-node at 16/node) beats uniform.
    assert out["neighbor"].simulated_time < out["uniform"].simulated_time
    # The hot server serializes: hotspot is the slowest healthy pattern.
    for pattern in ("neighbor", "uniform", "transpose"):
        assert out["hotspot"].simulated_time > out[pattern].simulated_time
    # Link contention makes the hotspot strictly worse, never better.
    assert out["hotspot+contention"].simulated_time >= out["hotspot"].simulated_time


@_table(
    ["pattern", "makespan (us)", "aggregate MB/s", "comm/rank (us)"],
    f"Supplementary: communication patterns, {PATTERN_PROCS} ranks x "
    f"{PATTERN_OPS} ops x {PATTERN_SIZE} B (AT mode)",
)
def _patterns_table(out):
    for name, r in out.items():
        yield [name, f"{us(r.simulated_time):.1f}", f"{r.throughput_mbps:.0f}",
               f"{us(r.comm_time_total / PATTERN_PROCS):.1f}"]


# -- Fault recovery: retry cost, crash detection, MTTR, saturation, network --
#
# The chaos layer (repro.chaos) injects transient transport faults that
# the ARMCI retry/backoff layer absorbs; the resource-resilience,
# recovery and link-fault layers do the rest. Each table answers one
# question a production runtime must.


class FaultSweep(NamedTuple):
    """The sizes of the fault-recovery sweeps, full scale by default."""

    drop_probs: tuple = (0.0, 0.01, 0.05, 0.10)
    transfers: int = 64
    recovery_kb: tuple = (4, 16, 64)
    recovery_epochs: int = 4
    fifo_depths: tuple = (None, 2, 4, 8, 16, 64)
    memregion_budgets: tuple = (None, 1, 2, 3, 4, 8)
    burst: int = 32
    src_segments: int = 6
    corrupt_probs: tuple = (0.0, 0.05, 0.2, 0.5)
    net_transfers: int = 32


SMOKE_SWEEP = FaultSweep(
    drop_probs=(0.0, 0.01), transfers=16, recovery_kb=(4,), recovery_epochs=3,
    fifo_depths=(None, 4), memregion_budgets=(None, 2), burst=8, src_segments=2,
    corrupt_probs=(0.0, 0.2), net_transfers=8,
)


def _sweep() -> FaultSweep:
    """The sizes this run uses, read from the switch when a sweep runs."""
    return smoke_or_full(SMOKE_SWEEP, FaultSweep())


NBYTES = 4096


def _lossy_put_get(drop_prob: float):
    """Fixed put/get/fence workload between two ranks under injection."""

    def loop(rt, alloc):
        src = rt.world.space(0).allocate(NBYTES)
        for _i in range(_sweep().transfers):
            yield from rt.put(1, src, alloc.addr(1), NBYTES)
            yield from rt.get(1, src, alloc.addr(1), NBYTES)
        yield from rt.fence(1)

    chaos = ChaosConfig(seed=42, drop_prob=drop_prob) if drop_prob else None
    config = ArmciConfig.async_thread_mode()
    job = ArmciJob(2, config=config, procs_per_node=1, chaos=chaos)
    return rank0(job, NBYTES, loop)[1:]  # the loop returns nothing: (time, registry)


def _retry_run():
    """Retry overhead: how much simulated time does a lossy network cost a
    fixed communication workload, as a function of the drop probability?
    (Expected: modest — each retry pays one detection delay plus backoff,
    and losses are rare events on real networks.)"""
    return {p: _lossy_put_get(p) for p in _sweep().drop_probs}


def _retry_check(out):
    for p, (_elapsed, trace) in out.items():
        # Every injected loss was recovered: the run completed, and with
        # injection on, retries actually happened.
        if p > 0:
            assert trace.count("armci.transient_retries") > 0, p
    # Rare losses must stay cheap: 1% drop under 25% overhead.
    assert out[0.01][0] < 1.25 * out[0.0][0]


@_table(
    ["drop prob", "workload (ms)", "slowdown", "retries", "backoff (us)"],
    lambda: f"Retry overhead vs drop probability: {_sweep().transfers} x "
    f"{NBYTES} B put+get between 2 ranks (AT mode)",
)
def _retry_table(out):
    base_time, _ = out[0.0]
    for p, (elapsed, trace) in out.items():
        yield [f"{p:.2f}", f"{elapsed * 1e3:.3f}", f"{elapsed / base_time:.2f}x",
               trace.count("armci.transient_retries"),
               f"{us(trace.time('armci.retry_backoff_time')):.1f}"]


def _latency_run():
    """Recovery time: after a rank crashes mid-collective, how quickly do
    survivors observe ``ProcessFailedError`` instead of hanging? And how
    quickly does the distributed task pool resume drawing from a shard
    whose counter host died?"""
    crash_at = 200e-6
    # --- survivors of a mid-barrier crash -------------------------
    plan = FaultPlan().crash(7, at=crash_at)
    config = ArmciConfig.async_thread_mode()
    job = ArmciJob(8, config=config, procs_per_node=1, fault_plan=plan)
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
    pool_job = ArmciJob(4, config=config, procs_per_node=1)
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


def _latency_check(data):
    detect, _failover, pool_trace = data
    assert len(detect) == 7, "every survivor must observe the crash"
    assert pool_trace.count("gax.pool_shards_failed_over") >= 1
    assert pool_trace.count("gax.pool_shards_lost") == 0


@_table(
    ["recovery metric", "time (us)"],
    "Crash recovery: mid-barrier detection at 7 survivors "
    "(8 procs) and sharded-pool counter failover (4 procs)",
)
def _latency_table(data):
    detect, failover, _pool_trace = data
    yield ["barrier crash detection (min over survivors)",
           f"{us(min(detect.values())):.1f}"]
    yield ["barrier crash detection (max over survivors)",
           f"{us(max(detect.values())):.1f}"]
    yield ["pool drain incl. counter failover", f"{us(failover['latency']):.1f}"]


RECOVERY_PROCS = 4


def _recovery_job(protected_kb, fault_plan=None):
    cfg = ArmciConfig.async_thread_mode(
        retry=RetryPolicy(),
        default_deadline=2.0,
        recovery=RecoveryConfig(chunk_bytes=256),
    )
    job = ArmciJob(RECOVERY_PROCS, config=cfg, procs_per_node=1, fault_plan=fault_plan)
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


def _mttr_run():
    """Full recovery (MTTR): with buddy replication and coordinated
    checkpoints on (:mod:`repro.recover`), how long from a rank's death
    mid-epoch to the job resuming — and how many bytes does each epoch
    replicate vs. how many a recovery re-replicates?"""
    out = {}
    epochs = _sweep().recovery_epochs
    for kb in _sweep().recovery_kb:
        # Clean run measures the epoch window so the crash in the
        # crashy run lands mid-epoch (the simulator is deterministic,
        # so both runs share the same prefix up to the crash).
        job, setup, epoch_fn = _recovery_job(kb)
        t0 = job.engine.now
        job.recovery.run(setup, epoch_fn, epochs=epochs)
        window = job.engine.now - t0
        clean_bytes = job.trace.count("recover.bytes_replicated")

        crash_at = 0.75 * window
        plan = FaultPlan().crash(1, at=crash_at)
        job2, setup2, epoch_fn2 = _recovery_job(kb, fault_plan=plan)
        t0 = job2.engine.now
        job2.recovery.run(setup2, epoch_fn2, epochs=epochs)
        out[kb] = {
            "clean_window_s": window,
            "crashy_window_s": job2.engine.now - t0,
            "bytes_replicated_clean": clean_bytes,
            "bytes_replicated": job2.trace.count("recover.bytes_replicated"),
            "bytes_rereplicated": job2.trace.count("recover.bytes_rereplicated"),
            "bytes_restored": job2.trace.count("recover.bytes_restored"),
            "recoveries": job2.trace.count("recover.recoveries_completed"),
            "epochs_replayed": job2.trace.count("recover.epochs_replayed"),
            "mttr_s": job2.trace.time("recover.mttr"),
        }
    return out


def _mttr_check(out):
    epochs = _sweep().recovery_epochs
    for kb, m in out.items():
        assert m["recoveries"] >= 1, f"{kb} KB run never recovered"
        # Incremental checkpoints: replication traffic must not balloon
        # past one full image per epoch per rank.
        assert m["bytes_replicated_clean"] < (
            RECOVERY_PROCS * (epochs + 1) * kb * 1024 * 1.5
        )


@_table(
    ["protected KB/rank", "MTTR (us)", "bytes replicated", "bytes re-replicated",
     "bytes restored", "epochs replayed", "slowdown"],
    lambda: f"Crash recovery MTTR: {RECOVERY_PROCS} procs, "
    f"{_sweep().recovery_epochs} epochs, 1 mid-epoch crash, buddy "
    "replication + coordinated checkpoints",
)
def _mttr_table(out):
    for kb, m in out.items():
        mttr = m["mttr_s"] / m["recoveries"]
        yield [kb, f"{us(mttr):.1f}", m["bytes_replicated"], m["bytes_rereplicated"],
               m["bytes_restored"], m["epochs_replayed"],
               f"{m['crashy_window_s'] / m['clean_window_s']:.2f}x"]


SWEEP_NBYTES = 1024


def _fifo_burst(depth):
    """Burst of non-blocking AM puts against a bounded reception FIFO.

    All traffic takes the credited AM path (``use_rdma=False``), so a
    shallow FIFO forces the sender into backpressure mid-burst.
    """

    def loop(rt, alloc):
        src = rt.world.space(0).allocate(SWEEP_NBYTES)
        burst = _sweep().burst
        t0 = rt.engine.now
        for _i in range(burst):
            yield from rt.nbput(1, src, alloc.addr(1), SWEEP_NBYTES)
        yield from rt.wait_all()
        yield from rt.fence(1)
        return burst / (rt.engine.now - t0)

    cfg = ArmciConfig.async_thread_mode(use_rdma=False, fifo_depth=depth)
    job = ArmciJob(2, config=cfg, procs_per_node=1)
    rate, _elapsed, trace = rank0(job, SWEEP_NBYTES, loop)
    return rate, trace


def _fifo_run():
    """Degradation under exhaustion, the injection FIFO: message rate as
    its depth shrinks. Backpressure should throttle, not deadlock."""
    return {d: _fifo_burst(d) for d in _sweep().fifo_depths}


def _fifo_check(fifo):
    # Bounded FIFOs throttle but never deadlock: every sweep completed,
    # and shallow depths actually exercised backpressure.
    shallowest = min(d for d in fifo if d is not None)
    assert fifo[shallowest][1].count("armci.backpressure_stalls") > 0
    assert fifo[None][1].count("armci.backpressure_stalls") == 0


@_table(
    ["fifo depth", "rate (Mmsg/s)", "vs unbounded", "backpressure stalls",
     "stall time (us)"],
    lambda: f"Message rate vs injection-FIFO depth: burst of {_sweep().burst} x "
    f"{SWEEP_NBYTES} B AM puts (AT mode, RDMA off)",
)
def _fifo_table(fifo):
    base_rate, _ = fifo[None]
    for depth, (rate, trace) in fifo.items():
        yield ["unbounded" if depth is None else depth, f"{rate / 1e6:.3f}",
               f"{rate / base_rate:.2f}x", trace.count("armci.backpressure_stalls"),
               f"{us(trace.time('armci.backpressure_time')):.1f}"]


def _budget_round_robin(budget):
    """Round-robin puts from many source segments under a region budget.

    Each distinct segment wants its own registration; once the budget is
    spent, further segments degrade to the AM fall-back (Eq. 8).
    """

    def loop(rt, alloc):
        space = rt.world.space(0)
        sweep = _sweep()
        srcs = [space.allocate(SWEEP_NBYTES) for _i in range(sweep.src_segments)]
        t0 = rt.engine.now
        for i in range(sweep.burst):
            src = srcs[i % sweep.src_segments]
            yield from rt.put(1, src, alloc.addr(1), SWEEP_NBYTES)
        yield from rt.fence(1)
        return sweep.burst / (rt.engine.now - t0)

    cfg = ArmciConfig.async_thread_mode(memregion_budget=budget)
    job = ArmciJob(2, config=cfg, procs_per_node=1)
    rate, _elapsed, trace = rank0(job, SWEEP_NBYTES, loop)
    return rate, trace


def _fallback_share(trace) -> float:
    rdma = trace.count("armci.put_rdma")
    fallback = trace.count("armci.put_fallback")
    return fallback / (rdma + fallback) if rdma + fallback else 0.0


def _budget_run():
    """Degradation under exhaustion, the registration budget: message rate
    and the AM-fallback fraction as it shrinks. A starved registration
    budget should shift traffic to Eq. 8."""
    return {b: _budget_round_robin(b) for b in _sweep().memregion_budgets}


def _budget_check(budget):
    # An unbounded budget never falls back; a starved one must.
    assert _fallback_share(budget[None][1]) == 0.0
    tightest = min(b for b in budget if b is not None)
    assert budget[tightest][1].count("armci.put_fallback") > 0
    assert _fallback_share(budget[tightest][1]) >= 0.5


@_table(
    ["memregion budget", "rate (Mmsg/s)", "vs unbounded", "AM-fallback fraction",
     "cache reclaims"],
    lambda: f"Protocol degradation vs memory-region budget: {_sweep().burst} "
    f"puts round-robin over {_sweep().src_segments} source segments",
)
def _budget_table(budget):
    base_rate, _ = budget[None]
    for b, (rate, trace) in budget.items():
        yield ["unbounded" if b is None else b, f"{rate / 1e6:.3f}",
               f"{rate / base_rate:.2f}x", f"{_fallback_share(trace):.2f}",
               trace.count("armci.region_budget_reclaims")]


NET_NBYTES = 4096


def _corrupting_wire(prob):
    """Fenced puts across a silently-corrupting wire with integrity on."""

    def loop(rt, alloc):
        src = rt.world.space(0).allocate(NET_NBYTES)
        for _i in range(_sweep().net_transfers):
            yield from rt.put(1, src, alloc.addr(1), NET_NBYTES)
            yield from rt.fence(1)

    chaos = (ChaosConfig(seed=7, corrupt_prob=prob, corrupt_mode="payload")
             if prob else None)
    cfg = ArmciConfig.async_thread_mode(
        retry=RetryPolicy(max_retries=20, max_delay=50e-6),
        integrity=IntegrityConfig(),
    )
    job = ArmciJob(2, config=cfg, procs_per_node=1, chaos=chaos)
    return rank0(job, NET_NBYTES, loop)[1:]  # (time, registry)


def _integrity_run():
    """Network faults, a corrupting wire: what does end-to-end integrity
    cost, in checksum failures caught and retransmit bytes?"""
    return {p: _corrupting_wire(p) for p in _sweep().corrupt_probs}


def _integrity_check(corrupt):
    for p, (_elapsed, trace) in corrupt.items():
        # Integrity never lets a corruption land, and actually worked.
        assert trace.count("pami.silent_corruptions") == 0, p
        if p > 0:
            assert trace.count("armci.integrity.checksum_failures") > 0, p
            assert trace.count("armci.integrity.retransmit_bytes") > 0, p


@_table(
    ["corrupt prob", "workload (ms)", "slowdown", "checksum failures",
     "retransmits", "retransmit bytes"],
    lambda: "End-to-end integrity cost on a corrupting wire: "
    f"{_sweep().net_transfers} x {NET_NBYTES} B fenced puts, 2 ranks "
    "(AT mode, CRC32 + seq)",
)
def _integrity_table(corrupt):
    base_time, _ = corrupt[0.0]
    for p, (elapsed, trace) in corrupt.items():
        yield [f"{p:.2f}", f"{elapsed * 1e3:.3f}", f"{elapsed / base_time:.2f}x",
               trace.count("armci.integrity.checksum_failures"),
               trace.count("armci.integrity.retransmits"),
               trace.count("armci.integrity.retransmit_bytes")]


def _link_kill(monitored):
    """Kill the dim-order first-hop link mid-run; measure time to flow.

    Link-kill MTTR = latency of the first fenced put that straddles the
    kill, minus the steady-state pre-kill put latency. Routing on ground
    truth reroutes at post time (MTTR ~ the detour's extra hops); the
    health monitor pays its detection hysteresis in dropped transfers
    and retries first.
    """
    transfers = _sweep().net_transfers
    half = transfers // 2

    def loop(rt, alloc):
        src = rt.world.space(0).allocate(NET_NBYTES)
        pre, post = [], None
        for i in range(transfers):
            if i == half:
                apply_link_fault(rt.world, LinkFault(
                    "kill", (0, 0, 0, 0, 0), (0, 0, 1, 0, 0), at=0.0,
                ))
            t0 = rt.engine.now
            yield from rt.put(7, src, alloc.addr(7), NET_NBYTES)
            yield from rt.fence(7)
            dt = rt.engine.now - t0
            if i < half:
                pre.append(dt)
            elif post is None:
                post = dt
        # The first pre-kill put pays one-time region-query setup; the
        # steady-state floor is the honest baseline.
        return post - min(pre)

    cfg = ArmciConfig.async_thread_mode(
        retry=RetryPolicy(max_retries=30, max_delay=50e-6),
        integrity=IntegrityConfig(),
        health=LinkHealthConfig() if monitored else None,
    )
    job = ArmciJob(8, config=cfg, procs_per_node=1)
    job.world.enable_link_faults()
    mttr, _elapsed, trace = rank0(job, NET_NBYTES, loop)
    return mttr, trace


def _link_kill_run():
    """Network faults, a dead link: when a torus link dies mid-transfer,
    how long until traffic flows again (link-kill MTTR) — routing on
    ground truth vs. on the health monitor's observed state?"""
    modes = ("ground-truth", "monitored")
    return {mode: _link_kill(mode == "monitored") for mode in modes}


def _link_kill_check(kills):
    for mode, (_mttr, trace) in kills.items():
        assert trace.count("net.reroutes") > 0, mode
    # Ground-truth routing reroutes at post time: nothing is dropped.
    assert kills["ground-truth"][1].count("net.link_drops") == 0
    # The monitor only learns from losses: detection costs dropped
    # transfers before the detour kicks in.
    assert kills["monitored"][1].count("net.link_drops") > 0


@_table(
    ["routing view", "link-kill MTTR (us)", "reroutes", "transfers dropped",
     "links declared dead"],
    lambda: "Link-kill MTTR: dim-order first-hop link killed "
    f"mid-run, {_sweep().net_transfers} x {NET_NBYTES} B fenced puts "
    "rank 0 -> 7 (8 procs, 1/node)",
)
def _link_kill_table(kills):
    for mode, (mttr, trace) in kills.items():
        yield [mode, f"{us(mttr):.1f}", trace.count("net.reroutes"),
               trace.count("net.link_drops"), trace.count("net.links_dead")]


# -- Transport: PAMI vs MPI-3 RMA on one simulated machine ------------------

BACKENDS = ("pami", "mpi3")
CONTIG_SIZES = (16, 512, 8192, 65536)
STRIDED_CHUNKS = (128, 1024, 8192)
VECTOR_SEGMENTS = (4, 16, 64)
VECTOR_SEG_BYTES = 256
VECTOR_SAMPLES = 3
BACKEND_SCF = ScfConfig(nblocks=8, task_time=1e-4, iterations=1, tasks_per_draw=2)


def _vector_latency_sweep(config):
    """Blocking putv latency per segment count, mirroring the fig-3 rig."""
    span = max(VECTOR_SEGMENTS) * VECTOR_SEG_BYTES

    def loop(rt, alloc):
        local = rt.world.space(0).allocate(span)
        yield from rt.get(1, local, alloc.addr(1), 16)  # warm caches
        yield from rt.fence(1)
        results = []
        for nseg in VECTOR_SEGMENTS:
            vec = IoVector(
                local_addrs=tuple(local + i * VECTOR_SEG_BYTES for i in range(nseg)),
                remote_addrs=tuple(
                    alloc.addr(1) + i * VECTOR_SEG_BYTES for i in range(nseg)
                ),
                lengths=(VECTOR_SEG_BYTES,) * nseg,
            )
            elapsed = 0.0
            for _ in range(VECTOR_SAMPLES):
                t0 = rt.engine.now
                yield from rt.putv(1, vec)
                yield from rt.fence(1)
                elapsed += rt.engine.now - t0
            results.append((nseg, elapsed / VECTOR_SAMPLES))
        return results

    job = ArmciJob(2, config=config, procs_per_node=1)
    return rank0(job, span, loop, barrier=False)[0]


def _backends_run():
    """Cross-backend comparison: PAMI vs MPI-3 RMA on one simulated machine.

    The transport layer's headline table: the same contiguous, strided, and
    vector transfers — plus the SCF application proxy — run over both
    backends, timed in *simulated* seconds (deterministic, no wall-clock
    noise). The deltas quantify what the paper's native PAMI port buys over
    an MPI-3 one-sided implementation: no window bookkeeping on the RMA
    fast path, counter completion instead of flush round-trips at every
    fence, and true active messages.
    """
    data = {}
    for backend in BACKENDS:
        cfg = ArmciConfig(backend=backend)
        data[backend] = {
            "contig": dict(contiguous_latency_sweep(sizes=CONTIG_SIZES, config=cfg)),
            "strided": dict(
                strided_bandwidth_sweep(chunk_sizes=STRIDED_CHUNKS, config=cfg)
            ),
            "vector": dict(_vector_latency_sweep(cfg)),
            "scf": run_scf(
                16, ArmciConfig.async_thread_mode(backend=backend),
                scf_config=BACKEND_SCF, procs_per_node=4,
            ),
        }
    return data


def _backends_check(data):
    pami, mpi3 = data["pami"], data["mpi3"]
    # MPI-3 must cost simulated time (window + flush overheads are real)
    # but never change semantics or blow up: bounded slowdown everywhere.
    for size in CONTIG_SIZES:
        assert mpi3["contig"][size] > pami["contig"][size]
        assert mpi3["contig"][size] < pami["contig"][size] * 2.0, (
            f"mpi3 contiguous {size}B blew up"
        )
    for l0 in STRIDED_CHUNKS:
        assert mpi3["strided"][l0] < pami["strided"][l0]
    for nseg in VECTOR_SEGMENTS:
        assert mpi3["vector"][nseg] > pami["vector"][nseg]
    assert mpi3["scf"].total_time > pami["scf"].total_time
    assert mpi3["scf"].tasks_done == pami["scf"].tasks_done


@_table(
    ["operation", "pami", "mpi3", "mpi3 cost"],
    "Cross-backend: PAMI vs MPI-3 RMA (simulated time, "
    "identical semantics)",
)
def _backends_table(data):
    pami, mpi3 = data["pami"], data["mpi3"]
    for size in CONTIG_SIZES:
        p, m = pami["contig"][size], mpi3["contig"][size]
        yield [f"contiguous get {bytes_fmt(size)}", f"{us(p):.2f} us",
               f"{us(m):.2f} us", f"{m / p:.2f}x"]
    for l0 in STRIDED_CHUNKS:
        p, m = pami["strided"][l0], mpi3["strided"][l0]
        yield [f"strided put l0={bytes_fmt(l0)}", f"{p:.0f} MB/s", f"{m:.0f} MB/s",
               f"{p / m:.2f}x"]
    for nseg in VECTOR_SEGMENTS:
        p, m = pami["vector"][nseg], mpi3["vector"][nseg]
        yield [f"vector put {nseg}x{VECTOR_SEG_BYTES}B", f"{us(p):.2f} us",
               f"{us(m):.2f} us", f"{m / p:.2f}x"]
    p, m = pami["scf"].total_time, mpi3["scf"].total_time
    yield ["SCF proxy (16 procs, AT)", f"{us(p):.0f} us", f"{us(m):.0f} us",
           f"{m / p:.2f}x"]


#: Result-file stem -> artifact: the equations, the ablations, the
#: supplementaries, then the fault-recovery and transport tables.
SUPPLEMENTARY: dict[str, Artifact] = {
    "eq7_rdma_model": Artifact(_eq7_run, _eq7_check, _eq7_table),
    "eq8_fallback_model": Artifact(_eq8_run, _eq8_check, _eq8_table),
    "eq9_strided_model": Artifact(_eq9_run, _eq9_check, _eq9_table),
    "ablation_consistency": Artifact(
        _consistency_run, _consistency_check, _consistency_table
    ),
    "ablation_regioncache": Artifact(
        _regioncache_run, _regioncache_check, _regioncache_table
    ),
    "ablation_contexts": Artifact(_contexts_run, _contexts_check, _contexts_table),
    "ablation_linkcontention": Artifact(
        _contention_run, _contention_check, _contention_table
    ),
    "ablation_aggregation": Artifact(
        _aggregation_run, _aggregation_check, _aggregation_table
    ),
    "ablation_counters": Artifact(_counters_run, _counters_check, _counters_table),
    "message_rate": Artifact(_rate_run, _rate_check, _rate_table),
    "intranode": Artifact(_intranode_run, _intranode_check, _intranode_table),
    "clique_growth": Artifact(_clique_run, _clique_check, _clique_table),
    "mapping_locality": Artifact(_mapping_run, _mapping_check, _mapping_table),
    "group_collectives": Artifact(_groups_run, _groups_check, _groups_table),
    "workload_patterns": Artifact(_patterns_run, _patterns_check, _patterns_table),
    "fault_recovery_overhead": Artifact(_retry_run, _retry_check, _retry_table),
    "fault_recovery_latency": Artifact(_latency_run, _latency_check, _latency_table),
    "fault_recovery_mttr": Artifact(_mttr_run, _mttr_check, _mttr_table),
    "fault_recovery_fifo_saturation": Artifact(_fifo_run, _fifo_check, _fifo_table),
    "fault_recovery_budget_degradation": Artifact(
        _budget_run, _budget_check, _budget_table
    ),
    "fault_recovery_network_integrity": Artifact(
        _integrity_run, _integrity_check, _integrity_table
    ),
    "fault_recovery_link_kill_mttr": Artifact(
        _link_kill_run, _link_kill_check, _link_kill_table
    ),
    "backend_compare": Artifact(_backends_run, _backends_check, _backends_table),
}
