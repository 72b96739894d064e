"""Tests for ``repro.serve``: mailboxes, selectors, termination, KV.

The whole module runs once per communication backend (pami + mpi3) via
the shared ``backend`` fixture — the serve layer sits strictly above
the transport, so every behaviour here must hold on both.
"""

import numpy as np
import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.chaos import ChaosConfig, FaultPlan
from repro.errors import ArmciError
from repro.gax import SharedCounter
from repro.serve import (
    Actor,
    ActorSystem,
    ClientLoadConfig,
    FourCounterTermination,
    InboxSpec,
    KIND_PUT,
    KvConfig,
    SLOT_DTYPE,
    clients,
    generate_requests,
    golden_state,
    run_kv,
    shard_of,
)

pytestmark = pytest.mark.usefixtures("backend")


def make_job(num_procs=2, **kwargs):
    job = ArmciJob(
        num_procs,
        config=kwargs.pop("config", ArmciConfig()),
        procs_per_node=min(num_procs, 16),
        **kwargs,
    )
    job.init()
    return job


def make_records(keys, kind=KIND_PUT, client=0):
    records = np.zeros(len(keys), dtype=SLOT_DTYPE)
    records["kind"] = kind
    records["client"] = client
    records["key"] = keys
    records["value"] = np.asarray(keys, dtype=np.float64)
    return records


class RecordingActor(Actor):
    """Appends every delivered (sender, keys) batch, in order."""

    def __init__(self):
        self.batches = []

    def on_batch(self, system, inbox, sender, records):
        self.batches.append((inbox, sender, records["key"].copy()))

    def keys_from(self, sender):
        chunks = [k for _, s, k in self.batches if s == sender]
        return np.concatenate(chunks) if chunks else np.empty(0, np.uint64)


def run_sink(job, capacity, per_sender, n_inboxes=1):
    """Ranks 1..P-1 each post ``per_sender`` records to a sink on rank 0."""
    sinks = {}

    def body(rt):
        system = ActorSystem(rt)
        sink = RecordingActor() if rt.rank == 0 else None
        if sink is not None:
            sinks[0] = sink
        senders = tuple(range(1, rt.world.num_procs))
        inboxes = tuple(
            InboxSpec(f"in{i}", capacity, senders=senders)
            for i in range(n_inboxes)
        )
        yield from system.register("sink", owner=0, actor=sink, inboxes=inboxes)
        detector = yield from FourCounterTermination.create(rt)
        if rt.rank > 0:
            for i in range(n_inboxes):
                system.post("sink", f"in{i}", make_records(range(per_sender)))
        yield from system.run(detector)

    job.run(body)
    return sinks[0]


class TestMailbox:
    def test_fifo_through_wrap_and_backpressure(self):
        # 100 records through an 8-slot ring: forced wrap-around and
        # head-refresh backpressure, with per-sender FIFO preserved.
        job = make_job(2)
        sink = run_sink(job, capacity=8, per_sender=100)
        np.testing.assert_array_equal(sink.keys_from(1), np.arange(100))
        assert job.trace.count("serve.backpressure_deferrals") > 0
        assert job.trace.count("serve.head_refreshes") > 0
        assert job.trace.count("serve.records_delivered") == 100

    def test_per_sender_lanes_are_independent(self):
        job = make_job(4)
        sink = run_sink(job, capacity=16, per_sender=40)
        for sender in (1, 2, 3):
            np.testing.assert_array_equal(sink.keys_from(sender), np.arange(40))

    def test_loopback_posts_never_touch_the_wire(self):
        job = make_job(2)

        def body(rt):
            system = ActorSystem(rt)
            sink = RecordingActor() if rt.rank == 0 else None
            yield from system.register(
                "sink", owner=0, actor=sink,
                inboxes=(InboxSpec("in0", 16),),
            )
            detector = yield from FourCounterTermination.create(rt)
            if rt.rank == 0:
                system.post("sink", "in0", make_records(range(7)))
            yield from system.run(detector)
            return len(sink.batches) if sink is not None else 0

        job.run(body)
        assert job.trace.count("serve.local_deliveries") == 7
        assert job.trace.count("serve.wire_flushes") == 0

    def test_post_validates_dtype_and_inbox(self):
        job = make_job(2)

        def body(rt):
            system = ActorSystem(rt)
            sink = RecordingActor() if rt.rank == 0 else None
            yield from system.register(
                "sink", owner=0, actor=sink, inboxes=(InboxSpec("in0", 16),)
            )
            detector = yield from FourCounterTermination.create(rt)
            if rt.rank == 1:
                with pytest.raises(ArmciError):
                    system.post("sink", "in0", np.zeros(3, dtype=np.float64))
                with pytest.raises(ArmciError):
                    system.post("sink", "nope", make_records([1]))
            yield from system.run(detector)

        job.run(body)


class GuardedActor(Actor):
    """Selector semantics: ``data`` inbox stays closed until a ``ctl``
    message opens it."""

    def __init__(self):
        self.open = False
        self.order = []

    def guard(self, inbox):
        return inbox != "data" or self.open

    def on_batch(self, system, inbox, sender, records):
        self.order.append(inbox)
        if inbox == "ctl":
            self.open = True


class TestSelector:
    def test_guard_defers_until_enabled(self):
        job = make_job(2)
        actors = {}

        def body(rt):
            system = ActorSystem(rt)
            actor = GuardedActor() if rt.rank == 0 else None
            if actor is not None:
                actors[0] = actor
            # "data" registered first so the poll loop hits the closed
            # guard before anything can open it.
            yield from system.register(
                "sel", owner=0, actor=actor,
                inboxes=(
                    InboxSpec("data", 16, senders=(1,)),
                    InboxSpec("ctl", 16, senders=(1,)),
                ),
            )
            detector = yield from FourCounterTermination.create(rt)
            if rt.rank == 1:
                system.post("sel", "data", make_records(range(5)))
                system.post("sel", "ctl", make_records([0]))
            yield from system.run(detector)

        job.run(body)
        actor = actors[0]
        # ctl delivered strictly before the guarded data batch.
        assert actor.order[0] == "ctl"
        assert "data" in actor.order
        assert job.trace.count("serve.guard_deferrals") > 0


class TestAggregation:
    def test_one_wire_flush_covers_multiple_inboxes(self):
        # Records queued for several inboxes of the same destination go
        # out as a single aggregated vector put.
        job = make_job(2)
        before = job.trace.count("armci.aggregate_flushes")
        sink = run_sink(job, capacity=64, per_sender=10, n_inboxes=3)
        assert sum(len(k) for _, _, k in sink.batches) == 30
        # One serve-layer flush == one armci-layer aggregate flush.
        assert job.trace.count("serve.wire_flushes") == (
            job.trace.count("armci.aggregate_flushes") - before
        )
        assert job.trace.count("serve.wire_flushes") >= 1


class TestTermination:
    def test_merge_watermark_is_fetch_max(self):
        job = make_job(2)
        seen = {}

        def body(rt):
            alloc = yield from rt.malloc(8)
            yield from rt.barrier()
            if rt.rank == 1:
                standby = SharedCounter(0, alloc.addr(0))
                assert (yield from standby.fetch_max(rt, 7))
                assert (yield from standby.fetch_max(rt, 3))
            yield from rt.barrier()
            if rt.rank == 0:
                seen[0] = rt.world.space(0).read_i64(alloc.addr(0))

        job.run(body)
        assert seen[0] == 7  # the lower merge did not regress it

    def test_merge_watermark_reports_dead_host(self):
        job = make_job(2, fault_plan=FaultPlan().crash(1, at=2e-3))
        outcomes = {}

        def body(rt):
            alloc = yield from rt.malloc(8)
            yield from rt.barrier()
            if rt.rank == 0:
                while not rt.world.is_failed(1):
                    yield from rt.progress()
                standby = SharedCounter(1, alloc.addr(1))
                outcomes[0] = yield from standby.fetch_max(rt, 5)

        job.run(body)
        assert outcomes[0] is False

    def test_quiescent_system_needs_two_waves(self):
        job = make_job(4)
        waves = {}

        def body(rt):
            detector = yield from FourCounterTermination.create(rt)
            n = 0
            while True:
                n += 1
                done = yield from detector.wave((0, 0, True))
                if done:
                    break
            waves[rt.rank] = n

        job.run(body)
        # One balanced snapshot is never enough: the verdict requires
        # two consecutive identical waves.
        assert all(n >= 2 for n in waves.values())
        assert job.trace.count("serve.waves_coordinated") >= 2


def small_load(**overrides):
    base = dict(
        num_clients=512,
        requests_per_client=2,
        num_keys=128,
        put_keys_per_rank=8,
        rate=2e5,
        arrival="poisson",
        deadline=5e-3,
        seed=42,
    )
    base.update(overrides)
    return ClientLoadConfig(**base)


class TestKv:
    def test_clean_run_is_exact(self):
        r = run_kv(4, load=small_load(), kv_config=KvConfig(num_shards=2),
                   procs_per_node=4)
        assert r.exact, f"{r.mismatched_keys} keys diverged"
        assert r.responses == r.requests
        assert r.failovers == 0

    def test_chaos_run_is_exact(self):
        r = run_kv(
            4, load=small_load(arrival="bursty"),
            kv_config=KvConfig(num_shards=2), procs_per_node=4,
            chaos=ChaosConfig.light(7),
        )
        assert r.exact
        assert r.responses == r.requests

    def test_crash_failover_preserves_exactness(self):
        # Rank 1 (shard 1 primary, shard 0 replica host) dies while
        # traffic is in flight; clients fail over to shard 1's replica
        # on rank 0 and the audit must still match the golden model.
        r = run_kv(
            4, load=small_load(num_clients=1024, rate=2e5, seed=3),
            kv_config=KvConfig(num_shards=2), procs_per_node=4,
            fault_plan=FaultPlan().crash(1, at=6e-3),
        )
        assert r.exact
        assert r.failovers >= 1
        assert r.responses <= r.requests

    def test_coordinator_crash_failover(self):
        # Rank 0 is both shard 0's primary and the termination
        # coordinator: its death exercises detector re-aiming too.
        r = run_kv(
            4, load=small_load(num_clients=1024, rate=2e5, seed=5),
            kv_config=KvConfig(num_shards=2), procs_per_node=4,
            fault_plan=FaultPlan().crash(0, at=6e-3),
        )
        assert r.exact
        assert r.failovers >= 1

    def test_without_replication_clean_run_is_exact(self):
        r = run_kv(
            3, load=small_load(num_clients=256),
            kv_config=KvConfig(num_shards=1),
            procs_per_node=3,
        )
        assert r.exact

    def test_needs_at_least_one_client_rank(self):
        with pytest.raises(ArmciError):
            run_kv(2, kv_config=KvConfig(num_shards=2))


class TestClients:
    def test_generation_is_deterministic(self):
        cfg = small_load()
        a = generate_requests(cfg, 0, 2)
        b = generate_requests(cfg, 0, 2)
        np.testing.assert_array_equal(a, b)
        c = generate_requests(cfg, 1, 2)
        assert not np.array_equal(a, c)

    def test_arrivals_sorted_and_keys_in_range(self):
        cfg = small_load(arrival="bursty")
        req = generate_requests(cfg, 0, 2)
        assert (np.diff(req["arrival"]) >= 0).all()
        assert (req["key"] < cfg.total_keys(2)).all()

    def test_golden_state_matches_serial_replay(self):
        cfg = small_load(num_clients=32, num_keys=16, put_keys_per_rank=4)
        n_ranks = 2
        golden = golden_state(cfg, n_ranks)
        state = np.zeros(cfg.total_keys(n_ranks))
        for i in range(n_ranks):
            for r in generate_requests(cfg, i, n_ranks):
                kind, key, value = int(r["kind"]), int(r["key"]), r["value"]
                if kind == 2:  # ACC
                    state[key] += value
                elif kind == 3:  # PUT
                    state[key] = value
        np.testing.assert_array_equal(golden, state)

    def test_shard_of_is_stable_partition(self):
        keys = np.arange(1000, dtype=np.uint64)
        shards = shard_of(keys, 4)
        assert ((shards >= 0) & (shards < 4)).all()
        np.testing.assert_array_equal(shards, shard_of(keys, 4))

    def test_config_validation(self):
        # The traffic mix and burst shape are module constants: a mix
        # that leaves PUTs a share, and an off phase with no negative rate.
        assert clients.GET_FRACTION + clients.ACC_FRACTION <= 1
        assert 0 < clients.DUTY_CYCLE < 1
        assert clients.BURST_FACTOR * clients.DUTY_CYCLE <= 1
        with pytest.raises(ArmciError):
            ClientLoadConfig(arrival="periodic")


class TestReport:
    def test_serving_section_present_after_run(self):
        jobs = []
        run_kv(4, load=small_load(num_clients=128), procs_per_node=4,
               kv_config=KvConfig(num_shards=2), on_job=jobs.append)
        text = jobs[0].report()
        assert "serving" in text
        assert "p99" in text
        assert "response throughput" in text

    def test_inert_by_default(self):
        # A job that never touches repro.serve renders no serving rows.
        job = make_job(2)

        def body(rt):
            yield from rt.barrier()

        job.run(body)
        assert "serving" not in job.report()
        # No second sink, and rendering the report created no instrument.
        assert job.serve_metrics is job.trace
        snap = job.trace.snapshot(per_rank=True)
        names = [n for section in ("counters", "durations", "gauges", "histograms")
                 for n in snap[section]]
        assert names and not [n for n in names if n.startswith(("serve.", "kv."))]
