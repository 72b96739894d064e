"""The eight workloads of the ledger.

Each workload is a function ``(rep, seed, scale, layers) -> Outcome``
that generates its inputs from ``seed``, walks the repetition's phase
clock (``rep.enter("build" | "init" | "run" | "audit")``), checks its
own outputs and reports failures as failed operations rather than
letting a wrong number through. ``scale`` shrinks the size constants
(the self-test runs at 1/20); ``layers`` asks for the extra work only
per-layer metrics need. The size constants below — not the durations
they happen to give on some host — define the workloads.

Only the documented public surface of ``repro`` is imported; see
README.md, *What the benchmark may touch*.
"""

from __future__ import annotations

import math
import random
import time
import zlib
from typing import Any, Callable

import numpy as np

from repro.apps.nwchem import ScfConfig, run_scf
from repro.armci import ArmciConfig, ArmciJob, ObsConfig
from repro.chaos import ChaosConfig
from repro.errors import ReproError
from repro.machine.health import LinkHealthConfig
from repro.obs.metrics import MetricsRegistry
from repro.pami.integrity import IntegrityConfig
from repro.serve import ClientLoadConfig, KvConfig, run_kv
from repro.sim import Delay, Engine, Event, Queue
from repro.types import StridedDescriptor, StridedShape

from counters import total
from harness import Outcome, Rep

CLOSED = "closed loop: each issuing rank has one blocking operation outstanding"


def _scaled(full: int, scale: float, floor: int) -> int:
    return max(floor, int(full * scale))


def _crc(*arrays: Any) -> int:
    crc = 0
    for a in arrays:
        crc = zlib.crc32(np.asarray(a).tobytes(), crc)
    return crc


def _run_job(rep: Rep, job: ArmciJob, body: Callable) -> list | None:
    """``job.run(body)`` as the timed run; ``None`` when the job raised
    (the caller then counts every operation of the repetition as failed)."""
    rep.enter("run", job)
    try:
        return job.run(body)
    except ReproError:
        return None
    finally:
        rep.enter("audit")


# ------------------------------------------------------------- sim_storm

STORM_PROCS = 4096
STORM_ROUNDS = 8            # a multiple of STORM_TIMER_EVERY
STORM_TIMER_EVERY = 8
_MASK32 = 0xFFFFFFFF


def sim_storm(rep: Rep, seed: int, scale: float, layers: bool) -> Outcome:
    """Seeded ring exchange on the bare engine.

    Every process waits on one shared start ``Event``, then per round
    sleeps a seeded ``Delay`` (through the heap), hands its token to its
    ring successor's ``Queue`` and takes one from its own (zero-delay
    hand-offs through the fast lane), and arms one cancellable watchdog
    timer per ``STORM_TIMER_EVERY`` rounds that must never fire.
    """
    rep.enter("build")
    procs_n = _scaled(STORM_PROCS, scale, 64)
    rounds = STORM_ROUNDS
    rng = random.Random(seed)
    order = list(range(procs_n))
    rng.shuffle(order)
    successor = [0] * procs_n
    for k, p in enumerate(order):
        successor[p] = order[(k + 1) % procs_n]
    delays = [rng.uniform(0.1e-6, 1.0e-6) for _ in range(procs_n)]
    tokens = [rng.getrandbits(32) for _ in range(procs_n)]
    engine = Engine()
    queues = [Queue(engine) for _ in range(procs_n)]
    go = Event(engine, name="storm.go")
    final = list(tokens)
    latencies: list[float] = []
    fired: list[int] = []

    def starter():
        yield Delay(1e-6)
        go.succeed()

    def proc(i: int):
        token, inbox, outbox = tokens[i], queues[i], queues[successor[i]]
        nap = Delay(delays[i])
        timer = None
        yield go
        for r in range(rounds):
            t0 = engine.now
            if r % STORM_TIMER_EVERY == 0:
                timer = engine.schedule_timer(1.0, fired.append, i)
            yield nap
            outbox.put(token)
            got = yield inbox.get()
            token = (token * 31 + got) & _MASK32
            if r % STORM_TIMER_EVERY == STORM_TIMER_EVERY - 1:
                timer.cancel()
            latencies.append(engine.now - t0)
        final[i] = token

    rep.enter("run", engine=engine)
    errors = []
    try:
        spawned = [engine.spawn(starter(), name="storm.starter")]
        spawned += [engine.spawn(proc(i), name=f"storm.{i}") for i in range(procs_n)]
        engine.run_until_complete(spawned)
    except ReproError as exc:
        errors.append(f"sim_storm: the engine raised {exc!r}")
    rep.enter("audit")
    ops = procs_n * rounds
    if not errors and _storm_expected(tokens, successor, rounds) != final:
        errors.append("sim_storm: token checksum differs from the ring recurrence")
    if fired:
        errors.append(f"sim_storm: {len(fired)} cancelled timers fired")
    # starter: start + delay; each process: start + gate + 2 per round.
    expected_events = 2 + procs_n * (2 + 2 * rounds)
    events = rep.reader.events(engine)
    if events is not None and events != expected_events:
        errors.append(f"sim_storm: {events} events, expected {expected_events}")
    return Outcome(
        ops=ops, attempted=ops, failed=ops if errors else 0,
        latencies=latencies, inputs_crc=_crc(successor, delays, tokens),
        sizes={"ranks": 0, "processes": procs_n, "rounds": rounds,
               "timer_every": STORM_TIMER_EVERY},
        errors=errors,
        checks={"events": events, "expected_events": expected_events},
    )


def _storm_expected(tokens: list[int], successor: list[int], rounds: int) -> list[int]:
    """The ring recurrence without the engine: queues are FIFO with one
    producer, so round ``r``'s token from the predecessor is the one it
    held entering round ``r``, whatever the timing."""
    n = len(tokens)
    predecessor = np.empty(n, dtype=np.int64)
    predecessor[np.asarray(successor)] = np.arange(n)
    held = np.asarray(tokens, dtype=np.uint64)
    for _ in range(rounds):
        held = (held * np.uint64(31) + held[predecessor]) & np.uint64(_MASK32)
    return [int(v) for v in held]


# ------------------------------------------------- rma_small, rma_guarded

RMA_SMALL_STEPS = 2000
RMA_GUARDED_STEPS = 1000
RMA_RANKS = 4
RMA_PROCS_PER_NODE = 2
RMA_SLOT = 64           # bytes reserved per step; payloads are 8..64 B
RMA_RMW_EVERY = 4
CAL_BYTES = 1 << 20
PAPER_GET_US = 2.89
PAPER_PUT_US = 2.7
PAPER_GET_MBPS = 1775.0


class _RmaStream:
    """One job and the seeded put/get/fetch_add stream rank 0 issues on it.

    Step ``i`` puts ``size[i]`` bytes into slot ``i`` of ``dest[i]``,
    gets them back, and every ``RMA_RMW_EVERY``-th step draws from the
    destination's fetch_add counter. ``calibrate`` prepends the paper's
    three reference operations against the adjacent node.
    """

    def __init__(self, seed: int, steps: int, *, guarded: bool,
                 calibrate: bool, backend: str) -> None:
        rng = random.Random(seed)
        self.steps = steps
        self.calibrate = calibrate
        self.dests = [rng.randrange(1, RMA_RANKS) for _ in range(steps)]
        self.sizes = [rng.randrange(8, RMA_SLOT + 1) for _ in range(steps)]
        self.payload = np.frombuffer(rng.randbytes(steps * RMA_SLOT), dtype=np.uint8)
        self.stream_bytes = steps * RMA_SLOT
        self.counter_off = self.stream_bytes
        self.cal_off = self.stream_bytes + 64
        self.segment = self.cal_off + (CAL_BYTES if calibrate else 0)
        self.latencies: list[float] = []
        self.cal: dict[str, float] = {}
        self.bad_olds = 0
        if guarded:
            config = ArmciConfig(
                backend=backend, integrity=IntegrityConfig(),
                health=LinkHealthConfig(), obs=ObsConfig(enabled=True),
                default_deadline=1.0,
            )
            chaos = ChaosConfig.light(seed)
        else:
            config, chaos = ArmciConfig(backend=backend), None
        self.job = ArmciJob(RMA_RANKS, config=config,
                            procs_per_node=RMA_PROCS_PER_NODE, chaos=chaos)

    def body(self, rt):
        alloc = yield from rt.malloc(self.segment)
        space = rt.world.space(rt.rank)
        back = None
        if rt.rank == 0:
            clock = rt.engine
            src = space.allocate(self.stream_bytes)
            space.write(src, self.payload)
            back = space.allocate(self.stream_bytes)
            if self.calibrate:
                yield from self._calibration(rt, alloc, space)
            dests, sizes, lat = self.dests, self.sizes, self.latencies
            draws = [0] * RMA_RANKS
            for i in range(self.steps):
                d, n, off = dests[i], sizes[i], i * RMA_SLOT
                t0 = clock.now
                yield from rt.put(d, src + off, alloc.addr(d) + off, n)
                t1 = clock.now
                yield from rt.get(d, back + off, alloc.addr(d) + off, n)
                t2 = clock.now
                lat.append(t1 - t0)
                lat.append(t2 - t1)
                if i % RMA_RMW_EVERY == RMA_RMW_EVERY - 1:
                    old = yield from rt.rmw(
                        d, alloc.addr(d) + self.counter_off, "fetch_add", 1
                    )
                    lat.append(clock.now - t2)
                    self.bad_olds += old != draws[d]
                    draws[d] += 1
            yield from rt.fence_all()
        yield from rt.barrier()
        mine = alloc.addr(rt.rank)
        return (
            space.read(mine, self.stream_bytes),
            space.read_i64(mine + self.counter_off),
            None if back is None else space.read(back, self.stream_bytes),
        )

    def _calibration(self, rt, alloc, space):
        """16 B get, 16 B put and 1 MiB get against the adjacent node."""
        clock = rt.engine
        far = RMA_PROCS_PER_NODE  # first rank of the other node
        scratch = space.allocate(CAL_BYTES)
        remote = alloc.addr(far) + self.cal_off
        yield from rt.get(far, scratch, remote, 16)  # warm endpoint and caches
        yield from rt.fence(far)
        t = clock.now
        yield from rt.get(far, scratch, remote, 16)
        self.cal["get_us"] = (clock.now - t) * 1e6
        t = clock.now
        yield from rt.put(far, scratch, remote, 16)
        self.cal["put_us"] = (clock.now - t) * 1e6
        yield from rt.fence(far)
        t = clock.now
        yield from rt.get(far, scratch, remote, CAL_BYTES)
        self.cal["get_mbps"] = CAL_BYTES / (clock.now - t) / 1e6

    @property
    def ops(self) -> int:
        return 2 * self.steps + self.steps // RMA_RMW_EVERY

    def audit(self, results: list | None) -> tuple[int, list[str]]:
        """``(failed operations, error notes)``: remote bytes, bytes read
        back and the fetch_add counters against the seeded stream."""
        if results is None:
            return self.ops, ["rma: the job raised"]
        steps = self.steps
        dests = np.asarray(self.dests)
        sizes = np.asarray(self.sizes)
        rows = self.payload.reshape(steps, RMA_SLOT)
        sent = rows * (np.arange(RMA_SLOT)[None, :] < sizes[:, None])
        errors = []
        failed = self.bad_olds
        if self.bad_olds:
            errors.append(f"rma: {self.bad_olds} fetch_adds returned a wrong old value")
        read_back = np.frombuffer(results[0][2], dtype=np.uint8)
        wrong = int((read_back.reshape(steps, RMA_SLOT) != sent).any(axis=1).sum())
        if wrong:
            errors.append(f"rma: {wrong} gets returned wrong bytes")
        failed += wrong
        drew = (np.arange(steps) % RMA_RMW_EVERY) == RMA_RMW_EVERY - 1
        for rank in range(1, RMA_RANKS):
            remote, counter, _ = results[rank]
            got = np.frombuffer(remote, dtype=np.uint8).reshape(steps, RMA_SLOT)
            want = sent * (dests == rank)[:, None]
            wrong = int((got != want).any(axis=1).sum())
            if wrong:
                errors.append(f"rma: {wrong} slots wrong on rank {rank}")
            failed += wrong
            want_counter = int((drew & (dests == rank)).sum())
            if counter != want_counter:
                errors.append(
                    f"rma: fetch_add counter on rank {rank} is {counter}, "
                    f"expected {want_counter}"
                )
                failed += 1
        return min(failed, self.ops), errors

    def outcome(self, failed: int, errors: list[str], checks: dict[str, Any],
                extra: dict[str, Any] | None = None) -> Outcome:
        return Outcome(
            ops=self.ops, attempted=self.ops, failed=failed,
            latencies=self.latencies,
            inputs_crc=_crc(self.dests, self.sizes, self.payload),
            sizes={
                "ranks": RMA_RANKS, "procs_per_node": RMA_PROCS_PER_NODE,
                "steps": self.steps, "payload_bytes": [8, RMA_SLOT],
                "rmw_every": RMA_RMW_EVERY,
            },
            errors=errors, checks=checks, extra=extra or {},
        )


def rma_small(rep: Rep, seed: int, scale: float, layers: bool) -> Outcome:
    """Small blocking RMA with every optional stage off, after the three
    paper-calibration operations."""
    steps = _scaled(RMA_SMALL_STEPS, scale, 16)
    rep.enter("build")
    stream = _RmaStream(seed, steps, guarded=False, calibrate=True, backend="pami")
    rep.enter("init")
    stream.job.init()
    failed, errors = stream.audit(_run_job(rep, stream.job, stream.body))
    cal = stream.cal
    extra: dict[str, Any] = {}
    if len(cal) == 3:
        extra["paper_err_pct"] = 100.0 * max(
            abs(cal["get_us"] - PAPER_GET_US) / PAPER_GET_US,
            abs(cal["put_us"] - PAPER_PUT_US) / PAPER_PUT_US,
            abs(cal["get_mbps"] - PAPER_GET_MBPS) / PAPER_GET_MBPS,
        )
    rep.enter("aux")
    if layers:
        # The same stream over the MPI-3 backend, outside every
        # end-to-end metric: only the transport.mpi3_* ratios read it.
        other = _RmaStream(seed, steps, guarded=False, calibrate=True, backend="mpi3")
        other.job.init()
        sim0, t0 = other.job.engine.now, time.perf_counter()
        try:
            results = other.job.run(other.body)
        except ReproError:
            results = None
        extra["mpi3_wall_s"] = time.perf_counter() - t0
        extra["mpi3_sim_s"] = other.job.engine.now - sim0
        errors.extend(f"mpi3 {e}" for e in other.audit(results)[1])
    return stream.outcome(failed, errors, {"calibration": cal}, extra)


def rma_guarded(rep: Rep, seed: int, scale: float, layers: bool) -> Outcome:
    """The rma_small stream with chaos, integrity, health, obs spans and
    a default deadline on; faults must be injected and none may surface."""
    steps = _scaled(RMA_GUARDED_STEPS, scale, 16)
    rep.enter("build")
    stream = _RmaStream(seed, steps, guarded=True, calibrate=False, backend="pami")
    rep.enter("init")
    stream.job.init()
    failed, errors = stream.audit(_run_job(rep, stream.job, stream.body))
    injected = total(*(
        rep.reader.trace(stream.job, f"chaos.{kind}")
        for kind in ("drops", "duplicates", "jittered")
    ))
    if injected == 0:
        errors.append("rma_guarded: chaos injected no fault")
        failed = stream.ops
    return stream.outcome(failed, errors, {"injected": injected})


# --------------------------------------------------------- strided_patch

#: (chunk bytes, most rows, stride): many small chunks, few large ones.
#: The stride is twice the chunk, so no two chunks can be coalesced.
PATCH_SHAPES = ((256, 256, 512), (16384, 64, 32768))
PATCH_OPS_PER_SHAPE = 12


def strided_patch(rep: Rep, seed: int, scale: float, layers: bool) -> Outcome:
    """Put / fence / get round trips of non-coalescible 2-D patches.

    Each round trip takes a seeded row count (7/8 to all of the shape's
    rows); the patch read back must equal the patch sent.
    """
    rep.enter("build")
    per_shape = _scaled(PATCH_OPS_PER_SHAPE, scale, 2)
    rng = random.Random(seed)
    trips = [
        (chunk, rng.randrange(rows - rows // 8, rows + 1), stride)
        for chunk, rows, stride in PATCH_SHAPES
        for _ in range(per_shape)
    ]
    rng.shuffle(trips)
    span = max(rows * stride for _c, rows, stride in PATCH_SHAPES)
    data = np.frombuffer(rng.randbytes(span), dtype=np.uint8)
    job = ArmciJob(2, config=ArmciConfig(), procs_per_node=1)
    rep.enter("init")
    job.init()
    latencies: list[float] = []
    wrong: list[int] = []

    def body(rt):
        alloc = yield from rt.malloc(span)
        if rt.rank == 0:
            clock = rt.engine
            space = rt.world.space(0)
            src = space.allocate(span)
            space.write(src, data)
            back = space.allocate(span)
            sent, got = space.view(src, span), space.view(back, span)
            for k, (chunk, rows, stride) in enumerate(trips):
                desc = StridedDescriptor(
                    shape=StridedShape(chunk, (rows,)),
                    src_strides=(stride,), dst_strides=(stride,),
                )
                got[: rows * stride] = 0
                t0 = clock.now
                yield from rt.puts(1, src, alloc.addr(1), desc)
                latencies.append(clock.now - t0)
                yield from rt.fence(1)
                t0 = clock.now
                yield from rt.gets(1, back, alloc.addr(1), desc)
                latencies.append(clock.now - t0)
                a = sent[: rows * stride].reshape(rows, stride)[:, :chunk]
                b = got[: rows * stride].reshape(rows, stride)[:, :chunk]
                if not np.array_equal(a, b):
                    wrong.append(k)
        yield from rt.barrier()

    results = _run_job(rep, job, body)
    ops = 2 * len(trips)
    errors = []
    if results is None:
        errors.append("strided_patch: the job raised")
    if wrong:
        errors.append(f"strided_patch: {len(wrong)} patches read back differ")
    failed = ops if results is None else 2 * len(wrong)
    return Outcome(
        ops=ops, attempted=ops, failed=failed, latencies=latencies,
        inputs_crc=_crc(trips, data),
        sizes={"ranks": 2, "procs_per_node": 1, "shapes": PATCH_SHAPES,
               "round_trips_per_shape": per_shape,
               "chunks": 2 * sum(rows for _c, rows, _s in trips)},
        errors=errors,
    )


# -------------------------------------------------------------- scf_d_at

SCF_RANKS = 32
SCF_NBLOCKS = 8
SCF_NBF = 644
SCF_TASK_TIME = 2e-3


def scf_d_at(rep: Rep, seed: int, scale: float, layers: bool) -> Outcome:
    """``run_scf`` once in default (D) and once in async-thread (AT) mode.

    The seed moves the mean task time by up to 1 % — the only input
    ``run_scf`` takes that is not the paper's. One latency sample per
    rank and mode: communication time (counter + get + accumulate) per
    task, the finest grain ``ScfResult`` exposes.
    """
    rng = random.Random(seed)
    task_time = SCF_TASK_TIME * (1.0 + rng.uniform(-0.01, 0.01))
    if scale >= 1.0:
        ranks, nblocks, nbf = SCF_RANKS, SCF_NBLOCKS, SCF_NBF
    else:
        ranks, nblocks, nbf = 8, 4, 96
    scf = ScfConfig(nblocks=nblocks, nbf_override=nbf, iterations=1,
                    task_time=task_time)
    modes = (("D", ArmciConfig.default_mode()), ("AT", ArmciConfig.async_thread_mode()))
    results = {}
    errors = []
    for label, config in modes:
        rep.enter("build")
        try:
            results[label] = run_scf(
                ranks, config, scf, on_job=lambda job: rep.enter("run", job)
            )
        except ReproError as exc:
            errors.append(f"scf_d_at: {label} raised {exc!r}")
        rep.enter("audit")
    ops = 2 * scf.ntasks
    latencies: list[float] = []
    extra: dict[str, Any] = {"tasks": ops}
    checks: dict[str, Any] = {}
    done = 0
    for label, result in results.items():
        done += result.tasks_done
        if result.tasks_done != scf.ntasks:
            errors.append(
                f"scf_d_at: {label} did {result.tasks_done} of {scf.ntasks} tasks"
            )
        latencies += [
            (s.counter_time + s.get_time + s.acc_time) / s.tasks_done
            for s in result.per_rank if s.tasks_done
        ]
    if len(results) == 2:
        d, at = results["D"], results["AT"]
        # Accumulates land in another order under AT, so the energies
        # agree to rounding, not to the bit.
        if not all(math.isclose(x, y, rel_tol=1e-9)
                   for x, y in zip(d.energies, at.energies, strict=True)):
            errors.append(f"scf_d_at: energies differ, {d.energies} vs {at.energies}")
        extra["sim_at_gain_pct"] = 100.0 * (d.total_time - at.total_time) / d.total_time
        checks = {"energy_d": d.energies, "energy_at": at.energies}
    return Outcome(
        ops=ops, attempted=ops, failed=ops if errors else ops - done,
        latencies=latencies or [0.0], inputs_crc=_crc([task_time]),
        sizes={"ranks": ranks, "procs_per_node": min(16, ranks),
               "nblocks": nblocks, "nbf": nbf, "iterations": 1,
               "task_time": SCF_TASK_TIME},
        errors=errors, checks=checks, extra=extra,
    )


# ------------------------------------------------------ kv_idle, kv_busy

KV_RANKS = 6
KV_SHARDS = 2
KV_PROCS_PER_NODE = 3
KV_REQUESTS_PER_CLIENT = 2
KV_IDLE = {"clients": 512, "rate": 0.5e6}
KV_BUSY = {"clients": 4096, "rate": 8e6}


def _kv(rep: Rep, seed: int, scale: float, shape: dict[str, float]) -> Outcome:
    """``run_kv`` under an open-loop Poisson load generated up front in
    simulated time, so host-side generator lateness does not exist.
    Latency runs from each request's scheduled arrival: queueing counts."""
    rep.enter("build")
    clients = _scaled(int(shape["clients"]), scale, 64)
    load = ClientLoadConfig(
        num_clients=clients, requests_per_client=KV_REQUESTS_PER_CLIENT,
        rate=shape["rate"], arrival="poisson", seed=seed,
    )
    registries = []

    def on_job(job):
        # Exact percentiles need the raw samples; the tier adopts a
        # registry that is already on the job.
        job.serve_metrics = MetricsRegistry()
        job.serve_metrics.histogram("serve.latency", keep_raw=True)
        registries.append(job.serve_metrics)
        rep.enter("run", job)

    errors = []
    result = None
    try:
        result = run_kv(
            KV_RANKS, load=load, kv_config=KvConfig(num_shards=KV_SHARDS),
            procs_per_node=KV_PROCS_PER_NODE, on_job=on_job,
        )
    except ReproError as exc:
        errors.append(f"kv: run_kv raised {exc!r}")
    rep.enter("audit")
    requests = clients * KV_REQUESTS_PER_CLIENT
    latencies = [0.0]
    failed = requests
    on_time = 0
    if result is not None:
        failed = (result.requests - result.responses) + result.late_responses
        on_time = result.responses - result.late_responses
        if result.requests != requests:
            errors.append(f"kv: {result.requests} requests generated, not {requests}")
        if result.responses != result.requests:
            errors.append(
                f"kv: {result.requests - result.responses} requests unanswered"
            )
        if not result.exact:
            errors.append(f"kv: {result.mismatched_keys} keys differ from the golden model")
            failed = requests
        latencies = registries[0].histogram("serve.latency").raw
        if len(latencies) != result.responses:
            errors.append("kv: latency samples and responses disagree")
    return Outcome(
        ops=on_time, attempted=requests, failed=min(failed, requests),
        latencies=latencies,
        inputs_crc=_crc([seed, clients]),
        sizes={"ranks": KV_RANKS, "shards": KV_SHARDS,
               "procs_per_node": KV_PROCS_PER_NODE, "clients": clients,
               "requests_per_client": KV_REQUESTS_PER_CLIENT,
               "rate_per_sim_s": shape["rate"], "arrival": "poisson"},
        errors=errors,
    )


def kv_idle(rep: Rep, seed: int, scale: float, layers: bool) -> Outcome:
    """Serving at a low offered rate: idle poll ticks dominate."""
    return _kv(rep, seed, scale, KV_IDLE)


def kv_busy(rep: Rep, seed: int, scale: float, layers: bool) -> Outcome:
    """Serving at a high offered rate: request work dominates."""
    return _kv(rep, seed, scale, KV_BUSY)


# ------------------------------------------------------------- fanout_1k

FANOUT_RANKS = 1024
FANOUT_PROCS_PER_NODE = 16
FANOUT_GETS = 2
FANOUT_SEGMENT = 1024


def fanout_1k(rep: Rep, seed: int, scale: float, layers: bool) -> Outcome:
    """Every rank of a 64-node job gets 0.5-1 KiB from seeded random
    ranks, then ``fence_all`` and a barrier. Each rank's segment holds
    its own seeded byte, so a fetched block names where it came from."""
    rep.enter("build")
    ranks = FANOUT_RANKS if scale >= 1.0 else 64
    rng = random.Random(seed)
    fill = [rng.randrange(256) for _ in range(ranks)]
    plan = [
        [(rng.randrange(ranks), rng.randrange(FANOUT_SEGMENT // 2, FANOUT_SEGMENT + 1))
         for _ in range(FANOUT_GETS)]
        for _ in range(ranks)
    ]
    job = ArmciJob(ranks, config=ArmciConfig(), procs_per_node=FANOUT_PROCS_PER_NODE)
    rep.enter("init")
    job.init()
    latencies: list[float] = []

    def body(rt):
        alloc = yield from rt.malloc(FANOUT_SEGMENT)
        space = rt.world.space(rt.rank)
        space.view(alloc.addr(rt.rank), FANOUT_SEGMENT)[:] = fill[rt.rank]
        buf = space.allocate(FANOUT_SEGMENT * FANOUT_GETS)
        yield from rt.barrier()
        clock = rt.engine
        for k, (dest, nbytes) in enumerate(plan[rt.rank]):
            t0 = clock.now
            yield from rt.get(dest, buf + k * FANOUT_SEGMENT, alloc.addr(dest), nbytes)
            latencies.append(clock.now - t0)
        yield from rt.fence_all()
        yield from rt.barrier()
        return space.read(buf, FANOUT_SEGMENT * FANOUT_GETS)

    results = _run_job(rep, job, body)
    ops = ranks * FANOUT_GETS
    errors = []
    failed = 0
    if results is None:
        errors.append("fanout_1k: the job raised")
        failed = ops
    else:
        want = np.zeros((ranks, FANOUT_GETS, FANOUT_SEGMENT), dtype=np.uint8)
        for r, gets in enumerate(plan):
            for k, (dest, nbytes) in enumerate(gets):
                want[r, k, :nbytes] = fill[dest]
        got = np.frombuffer(b"".join(results), dtype=np.uint8).reshape(want.shape)
        failed = int((got != want).any(axis=2).sum())
        if failed:
            errors.append(f"fanout_1k: {failed} gets fetched wrong bytes")
    return Outcome(
        ops=ops, attempted=ops, failed=failed, latencies=latencies,
        inputs_crc=_crc(fill, plan),
        sizes={"ranks": ranks, "procs_per_node": FANOUT_PROCS_PER_NODE,
               "gets_per_rank": FANOUT_GETS,
               "get_bytes": [FANOUT_SEGMENT // 2, FANOUT_SEGMENT]},
        errors=errors,
    )


# --------------------------------------------------------------- registry

_ARMCI = ("repro.armci", "repro.types")
_KV_LOOP = "open loop: Poisson arrivals at {rate:g} requests per simulated second, {clients} clients x 2 requests"

#: name -> the function, the ``repro`` modules whose cold import is its
#: set-up cost, the fewest timed repetitions, and the loop type.
WORKLOADS: dict[str, dict[str, Any]] = {
    "sim_storm": {"fn": sim_storm, "modules": ("repro.sim",), "min_reps": 7,
                  "loop": "closed loop: 4096 processes, each waits for its ring predecessor"},
    "rma_small": {"fn": rma_small, "modules": _ARMCI, "min_reps": 7, "loop": CLOSED},
    "rma_guarded": {
        "fn": rma_guarded, "min_reps": 7, "loop": CLOSED,
        "modules": _ARMCI + ("repro.chaos", "repro.pami.integrity", "repro.machine.health"),
    },
    "strided_patch": {"fn": strided_patch, "modules": _ARMCI, "min_reps": 7, "loop": CLOSED},
    "scf_d_at": {"fn": scf_d_at, "modules": ("repro.apps.nwchem",), "min_reps": 5,
                 "loop": "closed loop: 32 ranks draw tasks from one shared counter"},
    "kv_idle": {"fn": kv_idle, "modules": ("repro.serve", "repro.obs.metrics"),
                "min_reps": 7, "loop": _KV_LOOP.format(**KV_IDLE)},
    "kv_busy": {"fn": kv_busy, "modules": ("repro.serve", "repro.obs.metrics"),
                "min_reps": 7, "loop": _KV_LOOP.format(**KV_BUSY)},
    "fanout_1k": {"fn": fanout_1k, "modules": _ARMCI, "min_reps": 5,
                  "loop": "closed loop: 1024 ranks, one blocking get outstanding each"},
}
