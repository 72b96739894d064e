"""Schedule-exploration fuzz targets for the consistency subsystem.

Each target builds one complete simulated job on an
:class:`~repro.sim.engine.Engine` configured with a seeded
:class:`~repro.sim.engine.SchedulePolicy`, attaches the
:class:`~repro.verify.oracle.HappensBeforeOracle` to every rank, runs a
workload whose *semantic* outcome is schedule-independent, and returns a
:class:`FuzzResult` bundling the explored schedule's digest, the
oracle's verdict, and any semantic check failures.

The workloads are engineered to be race-free: concurrent ranks write
disjoint byte ranges (or commuting accumulates) and read structures
nobody writes, with fences/barriers/locks providing exactly the ordering
location consistency requires. Any oracle flag or value mismatch on any
explored schedule is therefore a genuine defect in the runtime or the
active tracker. One modeling caveat: same-(src,dst) write-write ties at
equal delivery times can only arise from chaos jitter clamping, so the
chaos target keeps its accumulate and get traffic on disjoint segments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..armci.config import ArmciConfig
from ..armci.runtime import ArmciJob
from ..armci.vector import IoVector
from ..apps.nwchem.scf import ScfConfig, run_scf
from ..chaos import ChaosConfig
from ..errors import ReproError
from ..sim.engine import (
    Engine,
    PriorityPerturbationPolicy,
    RandomTieBreakPolicy,
    SchedulePolicy,
)
from ..types import StridedDescriptor, StridedShape
from .oracle import HappensBeforeOracle, attach_oracle


@dataclass
class FuzzResult:
    """Outcome of one fuzzed run of one target."""

    target: str
    seed: int
    policy: str
    digest: int
    decisions: int  # scheduling decisions the policy perturbed
    counters: dict[str, int]
    oracle: HappensBeforeOracle | None
    #: The job's :class:`~repro.obs.span.Obs` sink when the run was fuzzed
    #: with observability enabled (``config_overrides={"obs": ...}``).
    obs: object | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def make_policy(
    kind: str, seed: int, limit: int | None = None
) -> SchedulePolicy | None:
    """Build a tie-breaking policy by name (``fifo``/``random``/``pct``)."""
    if kind == "fifo":
        return SchedulePolicy()
    if kind == "random":
        return RandomTieBreakPolicy(seed, limit=limit)
    if kind == "pct":
        return PriorityPerturbationPolicy(seed, limit=limit)
    raise ReproError(f"unknown policy kind {kind!r}")


def _finish(
    name: str,
    seed: int,
    engine: Engine,
    oracle: HappensBeforeOracle,
    trace,
    failures: list[str],
    obs=None,
) -> FuzzResult:
    failures = list(failures)
    for v in oracle.report.violations:
        failures.append(f"oracle:{v.kind}: {v.detail}")
    policy = engine.policy
    return FuzzResult(
        target=name,
        seed=seed,
        policy=policy.describe() if policy is not None else "none",
        digest=engine.schedule_digest,
        decisions=getattr(policy, "_issued", 0),
        counters=dict(trace.counters) if trace is not None else {},
        oracle=oracle,
        obs=obs,
        failures=failures,
    )


def _make_job(
    num_procs: int,
    seed: int,
    policy: str,
    tracker: str,
    limit: int | None,
    chaos: ChaosConfig | None = None,
    config_overrides: dict | None = None,
) -> tuple[ArmciJob, HappensBeforeOracle]:
    engine = Engine(policy=make_policy(policy, seed, limit))
    cfg = dict(consistency_tracker=tracker)
    if config_overrides:
        cfg.update(config_overrides)
    job = ArmciJob(
        num_procs,
        config=ArmciConfig(**cfg),
        procs_per_node=2,
        chaos=chaos,
        engine=engine,
    )
    job.init()
    return job, attach_oracle(job)


def target_strided(
    seed: int,
    policy: str = "random",
    tracker: str = "cs_mr",
    limit: int | None = None,
    config_overrides: dict | None = None,
) -> FuzzResult:
    """Strided puts to disjoint slots of a shared matrix + gets of an
    untouched structure (the dgemm access pattern, miniaturized).

    Each rank strided-puts its own row band of ``C`` on every rank and
    strided-gets blocks of ``A`` (which nobody writes): under ``cs_mr``
    the gets must never fence; the final bands must survive every
    schedule bit-exact.
    """
    p = 4
    chunk = 64
    rows = 2
    band = rows * chunk

    def body(rt):
        a = yield from rt.malloc(p * band)
        c = yield from rt.malloc(p * band)
        space = rt.world.space(rt.rank)
        # Fill the local A segment with a rank-tagged pattern; C's band
        # staging buffer lives in a scratch allocation.
        scratch = yield from rt.malloc(2 * band)
        src = scratch.addr(rt.rank)
        pattern = np.full(band // 8, float(rt.rank + 1))
        space.write_f64(a.addr(rt.rank), np.arange(p * band // 8, dtype=float))
        space.write_f64(src, pattern)
        yield from rt.barrier()
        desc = StridedDescriptor(
            shape=StridedShape(chunk_bytes=chunk, counts=(rows,)),
            src_strides=(chunk,),
            dst_strides=(chunk,),
        )
        for step in range(p):
            dst = (rt.rank + step) % p
            # Disjoint destination: rank r owns band r of C everywhere.
            yield from rt.puts(dst, src, c.addr(dst) + rt.rank * band, desc)
            # Read A (never written): cs_mr must not fence these.
            yield from rt.gets(dst, src + band, a.addr(dst) + rt.rank * band, desc)
        # Read back the band just written: a genuine conflict the tracker
        # MUST fence (a required fence, not a false positive).
        vdst = (rt.rank + 1) % p
        yield from rt.gets(vdst, src + band, c.addr(vdst) + rt.rank * band, desc)
        got_band = space.read_f64(src + band, band // 8)
        if not np.array_equal(got_band, pattern):
            raise AssertionError(
                f"rank {rt.rank}: read-after-write returned stale band"
            )
        # Re-read after the fence: a healthy tracker skips cleanly; an
        # over-fencing one shows up as a false positive here.
        yield from rt.gets(vdst, src + band, c.addr(vdst) + rt.rank * band, desc)
        yield from rt.fence_all()
        yield from rt.barrier()
        # Every band of local C carries its writer's tag.
        got = space.read_f64(c.addr(rt.rank), p * band // 8)
        expect = np.repeat(np.arange(1.0, p + 1), band // 8)
        if not np.array_equal(got, expect):
            raise AssertionError(
                f"rank {rt.rank}: C bands corrupted under fuzzing"
            )
        yield from rt.barrier()

    job, oracle = _make_job(
        p, seed, policy, tracker, limit, config_overrides=config_overrides
    )
    failures: list[str] = []
    try:
        job.run(body)
    except (ReproError, AssertionError) as exc:
        failures.append(f"run:{type(exc).__name__}: {exc}")
    return _finish(
        "strided", seed, job.engine, oracle, job.trace, failures, obs=job.obs
    )


def target_vector(
    seed: int,
    policy: str = "random",
    tracker: str = "cs_mr",
    limit: int | None = None,
    config_overrides: dict | None = None,
) -> FuzzResult:
    """I/O-vector puts to per-rank slots + vector gets of a read-only
    structure, same disjointness discipline as the strided target."""
    p = 4
    seg = 48
    slots = 3
    span = slots * seg

    def body(rt):
        a = yield from rt.malloc(p * span)
        c = yield from rt.malloc(p * span)
        scratch = yield from rt.malloc(2 * span)
        space = rt.world.space(rt.rank)
        src = scratch.addr(rt.rank)
        space.write_f64(a.addr(rt.rank), np.arange(p * span // 8, dtype=float))
        space.write_f64(src, np.full(span // 8, float(rt.rank + 1)))
        yield from rt.barrier()
        for step in range(p):
            dst = (rt.rank + step) % p
            base = c.addr(dst) + rt.rank * span
            vec = IoVector(
                local_addrs=tuple(src + i * seg for i in range(slots)),
                remote_addrs=tuple(base + i * seg for i in range(slots)),
                lengths=(seg,) * slots,
            )
            yield from rt.putv(dst, vec)
            rbase = a.addr(dst) + rt.rank * span
            rvec = IoVector(
                local_addrs=tuple(src + span + i * seg for i in range(slots)),
                remote_addrs=tuple(rbase + i * seg for i in range(slots)),
                lengths=(seg,) * slots,
            )
            yield from rt.getv(dst, rvec)
        yield from rt.fence_all()
        yield from rt.barrier()
        got = space.read_f64(c.addr(rt.rank), p * span // 8)
        expect = np.repeat(np.arange(1.0, p + 1), span // 8)
        if not np.array_equal(got, expect):
            raise AssertionError(
                f"rank {rt.rank}: C slots corrupted under fuzzing"
            )
        yield from rt.barrier()

    job, oracle = _make_job(
        p, seed, policy, tracker, limit, config_overrides=config_overrides
    )
    failures: list[str] = []
    try:
        job.run(body)
    except (ReproError, AssertionError) as exc:
        failures.append(f"run:{type(exc).__name__}: {exc}")
    return _finish(
        "vector", seed, job.engine, oracle, job.trace, failures, obs=job.obs
    )


def target_lock(
    seed: int,
    policy: str = "random",
    tracker: str = "cs_mr",
    limit: int | None = None,
    config_overrides: dict | None = None,
) -> FuzzResult:
    """Mutex-protected shared counter: the classic fetch-update-put
    critical section, fence before unlock.

    Every rank increments a counter on rank 0 ``k`` times under mutex 0.
    The final value must be exactly ``p * k`` on every schedule — a lost
    update means mutual exclusion or the fence-before-release protocol
    broke under reordering.
    """
    p = 4
    k = 3

    def body(rt):
        cell = yield from rt.malloc(16)
        scratch = yield from rt.malloc(16)
        space = rt.world.space(rt.rank)
        if rt.rank == 0:
            space.write_i64(cell.addr(0), 0)
        yield from rt.barrier()
        local = scratch.addr(rt.rank)
        for _ in range(k):
            yield from rt.lock(0)
            yield from rt.get(0, local, cell.addr(0), 8)
            value = rt.world.space(rt.rank).read_i64(local)
            rt.world.space(rt.rank).write_i64(local, value + 1)
            yield from rt.put(0, local, cell.addr(0), 8)
            # Certify the put before releasing: the next holder's get
            # must observe it.
            yield from rt.fence(0)
            yield from rt.unlock(0)
        yield from rt.barrier()
        if rt.rank == 0:
            final = space.read_i64(cell.addr(0))
            if final != p * k:
                raise AssertionError(
                    f"lost update: counter {final}, expected {p * k}"
                )
        yield from rt.barrier()

    job, oracle = _make_job(
        p, seed, policy, tracker, limit, config_overrides=config_overrides
    )
    failures: list[str] = []
    try:
        job.run(body)
    except (ReproError, AssertionError) as exc:
        failures.append(f"run:{type(exc).__name__}: {exc}")
    return _finish("lock", seed, job.engine, oracle, job.trace, failures)


def target_chaos(
    seed: int,
    policy: str = "random",
    tracker: str = "cs_mr",
    limit: int | None = None,
    config_overrides: dict | None = None,
) -> FuzzResult:
    """Accumulates + reads under light chaos injection.

    Ranks accumulate into a shared structure ``F`` (commutative, so
    concurrent accs never conflict) and get from a read-only structure
    ``D``, with drops/dups/jitter active: schedule exploration composed
    with fault injection. The accumulated total must be exact — the
    retry layer must stay exactly-once on every schedule.
    """
    p = 4
    cell = 64

    def body(rt):
        d = yield from rt.malloc(p * cell)
        f = yield from rt.malloc(p * cell)
        scratch = yield from rt.malloc(2 * cell)
        space = rt.world.space(rt.rank)
        src = scratch.addr(rt.rank)
        space.write_f64(f.addr(rt.rank), np.zeros(p * cell // 8))
        space.write_f64(d.addr(rt.rank), np.arange(p * cell // 8, dtype=float))
        space.write_f64(src, np.ones(cell // 8))
        yield from rt.barrier()
        for step in range(p):
            dst = (rt.rank + step) % p
            yield from rt.acc(dst, src, f.addr(dst), cell, scale=1.0)
            yield from rt.get(dst, src + cell, d.addr(dst) + rt.rank * cell, cell)
        yield from rt.fence_all()
        yield from rt.barrier()
        got = space.read_f64(f.addr(rt.rank), cell // 8)
        if not np.allclose(got, float(p)):
            raise AssertionError(
                f"rank {rt.rank}: accumulate total {got[0]}, expected {p}"
            )
        yield from rt.barrier()

    job, oracle = _make_job(
        p, seed, policy, tracker, limit, chaos=ChaosConfig.light(seed),
        config_overrides=config_overrides,
    )
    failures: list[str] = []
    try:
        job.run(body)
    except (ReproError, AssertionError) as exc:
        failures.append(f"run:{type(exc).__name__}: {exc}")
    return _finish("chaos", seed, job.engine, oracle, job.trace, failures)


def target_scf(
    seed: int,
    policy: str = "random",
    tracker: str = "cs_mr",
    limit: int | None = None,
    config_overrides: dict | None = None,
) -> FuzzResult:
    """Miniature NWChem-SCF proxy under the async-thread configuration.

    The full application stack — global arrays, shared-counter load
    balancing, accumulates, fences — on a perturbed schedule. Task
    accounting must stay exact and the oracle must stay clean.
    """
    p = 4
    engine = Engine(policy=make_policy(policy, seed, limit))
    holder: dict[str, object] = {}

    def on_job(job):
        holder["job"] = job
        holder["oracle"] = attach_oracle(job)

    scf = ScfConfig(
        nbf_override=48, nblocks=4, iterations=1, tasks_per_draw=2,
        task_time=1e-6,
    )
    failures: list[str] = []
    try:
        result = run_scf(
            p,
            ArmciConfig.async_thread_mode(
                consistency_tracker=tracker, **(config_overrides or {})
            ),
            scf_config=scf,
            procs_per_node=2,
            engine=engine,
            on_job=on_job,
        )
        expected = scf.ntasks * result.iterations_run
        if result.tasks_done != expected:
            failures.append(
                f"task accounting: {result.tasks_done} done, "
                f"expected {expected}"
            )
    except ReproError as exc:
        failures.append(f"run:{type(exc).__name__}: {exc}")
    oracle = holder.get("oracle")
    if oracle is None:  # init itself failed
        oracle = HappensBeforeOracle(p)
    job = holder.get("job")
    return _finish(
        "scf", seed, engine, oracle,
        job.trace if job is not None else None, failures,
        obs=job.obs if job is not None else None,
    )


def target_kv(
    seed: int,
    policy: str = "random",
    tracker: str = "cs_mr",
    limit: int | None = None,
    config_overrides: dict | None = None,
) -> FuzzResult:
    """Sharded KV serving scenario: actors, rings, chaos, and a crash.

    The full ``repro.serve`` stack — remote-accumulate mailboxes,
    aggregation, guarded inboxes, four-counter termination — under
    transient chaos plus one hard server crash mid-traffic. On every
    explored schedule the run must terminate, the surviving authority
    of each shard must match the golden model *exactly* (the
    exactly-once accumulate audit), and the oracle must stay clean.
    """
    from ..chaos import FaultPlan
    from ..serve import ClientLoadConfig, KvConfig, run_kv

    p = 4
    engine = Engine(policy=make_policy(policy, seed, limit))
    holder: dict[str, object] = {}

    def on_job(job):
        holder["job"] = job
        holder["oracle"] = attach_oracle(job)

    load = ClientLoadConfig(
        num_clients=64, requests_per_client=2, num_keys=64,
        put_keys_per_rank=8, rate=5e4, arrival="bursty", deadline=2e-2,
        seed=seed,
    )
    # Crash rank 1 (a server) well past worst-case setup but inside the
    # ~2.6 ms traffic window, so failover runs while requests fly.
    plan = FaultPlan().crash(1, at=5.5e-3)
    failures: list[str] = []
    try:
        result = run_kv(
            p,
            load=load,
            kv_config=KvConfig(num_shards=2),
            armci_config=ArmciConfig(
                consistency_tracker=tracker, **(config_overrides or {})
            ),
            procs_per_node=2,
            chaos=ChaosConfig.light(seed),
            fault_plan=plan,
            engine=engine,
            on_job=on_job,
        )
        if not result.exact:
            failures.append(
                f"golden mismatch: {result.mismatched_keys} keys diverged"
            )
        if result.responses > result.requests:
            failures.append(
                f"duplicated responses: {result.responses} > {result.requests}"
            )
    except ReproError as exc:
        failures.append(f"run:{type(exc).__name__}: {exc}")
    oracle = holder.get("oracle")
    if oracle is None:  # init itself failed
        oracle = HappensBeforeOracle(p)
    job = holder.get("job")
    return _finish(
        "kv", seed, engine, oracle,
        job.trace if job is not None else None, failures,
        obs=job.obs if job is not None else None,
    )


#: The six fuzz targets, keyed by name.
FUZZ_TARGETS: dict[str, Callable[..., FuzzResult]] = {
    "scf": target_scf,
    "strided": target_strided,
    "vector": target_vector,
    "lock": target_lock,
    "chaos": target_chaos,
    "kv": target_kv,
}


def explore(
    targets: dict[str, Callable[..., FuzzResult]] | None = None,
    seeds: int = 10,
    policies: tuple[str, ...] = ("random", "pct"),
    tracker: str = "cs_mr",
    config_overrides: dict | None = None,
) -> list[FuzzResult]:
    """Run every target across ``seeds`` seeds per policy.

    ``config_overrides`` is forwarded to every target (e.g.
    ``{"backend": "mpi3"}`` fuzzes the whole matrix over another
    transport). Returns all results; callers assert on failures and
    count distinct schedules via ``{r.digest for r in results}``.
    """
    results = []
    for name, target in (targets or FUZZ_TARGETS).items():
        for policy in policies:
            for seed in range(seeds):
                results.append(
                    target(
                        seed, policy=policy, tracker=tracker,
                        config_overrides=config_overrides,
                    )
                )
    return results
