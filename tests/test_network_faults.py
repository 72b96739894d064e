"""End-to-end tests for the network-robustness layer.

Covers the full tentpole: scheduled link faults (kill / revive /
degrade / lossy / corrupt), fault-aware rerouting with exact numerics
under repeated mid-run link kills, the link health monitor (suspect →
dead hysteresis, probe-driven recovery, escalation *only* when a rank is
unreachable on every path), and end-to-end payload integrity catching
silent corruption that would otherwise land — on contiguous, strided,
vector, AM fall-back, atomic, and full-SCF traffic.
"""

import dataclasses

import numpy as np
import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.armci.config import RetryPolicy
from repro.armci.vector import IoVector
from repro.chaos import ChaosConfig, ChaosError, FaultPlan, LinkFault, apply_link_fault
from repro.errors import (
    ArmciError,
    ProcessFailedError,
    RetryExhaustedError,
    SimulationError,
    TopologyError,
    TransientFaultError,
)
from repro.machine import health as health_mod
from repro.machine.health import LinkHealthConfig
from repro.pami.integrity import IntegrityConfig, IntegrityError
from repro.topology import Torus
from repro.topology.routing import dimension_order_route
from repro.types import StridedDescriptor, StridedShape


def N(a, b, c):
    """Node coordinate in the 8-rank, 1-proc/node layout (dims 1,1,2,2,2)."""
    return (0, 0, a, b, c)


NODE0 = N(0, 0, 0)  # rank 0
NODE1 = N(0, 0, 1)  # rank 1
NODE7 = N(1, 1, 1)  # rank 7

#: The two nodes of a 2-rank, 1-proc/node job (dims 1,1,1,1,2).
PAIR_A = (0, 0, 0, 0, 0)
PAIR_B = (0, 0, 0, 0, 1)

PAYLOAD = bytes(range(256)) * 4  # 1 KiB test pattern


def net_job(num_procs=8, config=None, **kw):
    job = ArmciJob(
        num_procs,
        config=config if config is not None else ArmciConfig.default_mode(),
        procs_per_node=1,
        **kw,
    )
    job.init()
    return job


def put_get_body(job, dst=1, nbytes=1024, repeat=8, epochs=None, on_iter=None):
    """Rank 0: ``repeat`` fenced puts to ``dst``, then a get-back.

    ``epochs`` (a list) samples the routing epoch after every fence;
    ``on_iter(i)`` runs before iteration ``i`` — the hook the tests use
    to inject link faults mid-run at deterministic points.
    """
    result = {}

    def body(rt):
        alloc = yield from rt.malloc(8192)
        yield from rt.barrier()
        if rt.rank == 0:
            src = rt.world.space(0).allocate(nbytes)
            rt.world.space(0).write(src, PAYLOAD[:nbytes])
            for _i in range(repeat):
                if on_iter is not None:
                    on_iter(_i)
                yield from rt.put(dst, src, alloc.addr(dst), nbytes)
                yield from rt.fence(dst)
                if epochs is not None:
                    net = rt.world.network
                    epochs.append(net.route_table.view.epoch)
            back = rt.world.space(0).allocate(nbytes)
            yield from rt.get(dst, back, alloc.addr(dst), nbytes)
            result["data"] = rt.world.space(0).read(back, nbytes)
        yield from rt.barrier()

    job.run(body)
    return result


#: Tall-skinny patch (8 chunks of 16 B, stride 32): the typed-datatype
#: transfer under ``strided_protocol="auto"``.
TYPED_DESC = StridedDescriptor(StridedShape(16, (8,)), (32,), (32,))
TYPED_BYTES = PAYLOAD[64:192]


def chunk_bytes(space, base):
    """The packed payload of the ``TYPED_DESC`` lattice at ``base``."""
    return b"".join(space.read(base + 32 * i, 16) for i in range(8))


def typed_transfer(op, config, repeat=1, on_iter=None, **job_kw):
    """Rank 0 moves ``TYPED_BYTES`` to or from rank 1 in **one** typed
    wire transfer: a strided put (``"puts"``), a strided get
    (``"gets"``), or an aggregate flush (``"agg"``) — ``repeat`` times
    over, ``on_iter(job, i)`` running before round ``i``. Returns the bytes
    that arrived and the job."""
    job = net_job(8, config=config, **job_kw)
    result = {}

    def body(rt):
        alloc = yield from rt.malloc(1024)
        space = rt.world.space(rt.rank)
        filled = 1 if op == "gets" else 0  # the rank holding the data
        if rt.rank == filled:
            base = alloc.addr(1) if filled else space.allocate(256)
            for i in range(8):
                space.write(base + 32 * i, TYPED_BYTES[16 * i : 16 * i + 16])
        yield from rt.barrier()
        for i in range(repeat if rt.rank == 0 else 0):
            if on_iter is not None:
                on_iter(job, i)
            if op == "gets":
                local = space.allocate(256)
                yield from rt.gets(1, local, alloc.addr(1), TYPED_DESC)
                result["arrived"] = chunk_bytes(space, local)
                continue
            if op == "puts":
                yield from rt.puts(1, base, alloc.addr(1), TYPED_DESC)
            else:
                agg = rt.aggregate(1)
                for j in range(8):
                    agg.put(base + 32 * j, alloc.addr(1) + 32 * j, 16)
                yield from agg.flush()
            yield from rt.fence(1)
            result["arrived"] = chunk_bytes(rt.world.space(1), alloc.addr(1))
        yield from rt.barrier()

    job.run(body)
    return result["arrived"], job


#: Four 64 B chunks at stride 128 on rank 1, packed on rank 0.
FALLBACK_DESC = StridedDescriptor(StridedShape(64, (4,)), (64,), (128,))


def fallback_get(op, config, repeat=1, **job_kw):
    """Rank 0 reads 256 B of ``PAYLOAD`` out of rank 1 ``repeat`` times —
    contiguous (``"get"``), strided (``"gets"``) or I/O-vector
    (``"getv"``). Rank 1 fills its own segment locally, so only the gets
    cross the link. Returns the bytes expected, the bytes that arrived
    and the job."""
    job = net_job(8, config=config, **job_kw)
    result = {}

    def body(rt):
        alloc = yield from rt.malloc(1024)
        if rt.rank == 1:
            rt.world.space(1).write(alloc.addr(1), PAYLOAD)
        yield from rt.barrier()
        if rt.rank == 0:
            space = rt.world.space(0)
            back = space.allocate(256)
            remote = alloc.addr(1)
            for _i in range(repeat):
                if op == "get":
                    yield from rt.get(1, back, remote, 256)
                elif op == "gets":
                    yield from rt.gets(1, back, remote, FALLBACK_DESC)
                else:
                    vec = IoVector(
                        tuple(back + 64 * i for i in range(4)),
                        tuple(remote + 128 * i for i in range(4)),
                        (64,) * 4,
                    )
                    yield from rt.getv(1, vec)
            result["arrived"] = space.read(back, 256)
        yield from rt.barrier()

    job.run(body)
    if op == "get":
        expected = PAYLOAD[:256]
    else:
        expected = b"".join(PAYLOAD[128 * i : 128 * i + 64] for i in range(4))
    return expected, result["arrived"], job


def bit_flips(a, b):
    return sum(bin(x ^ y).count("1") for x, y in zip(a, b))


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "bogus"},
            {"a": (0, -1, 0, 0, 0)},
            {"b": "not-a-coord"},
            {"at": -1e-6},
            {"kind": "degrade", "factor": 0.5},
            {"kind": "lossy", "prob": 1.5},
            {"kind": "corrupt", "prob": -0.1},
        ],
    )
    def test_link_fault_validation(self, kwargs):
        base = dict(kind="kill", a=NODE0, b=NODE1, at=0.0)
        base.update(kwargs)
        with pytest.raises(ChaosError):
            LinkFault(**base)

    def test_chaos_config_validation(self):
        with pytest.raises(ChaosError):
            ChaosConfig(corrupt_mode="sideways")

    def test_armci_config_type_checks(self):
        with pytest.raises(ArmciError):
            ArmciConfig(integrity=42)
        with pytest.raises(ArmciError):
            ArmciConfig(health="monitor")

    def test_integrity_config_validation(self):
        with pytest.raises(IntegrityError):
            IntegrityConfig(max_retransmits=-1)

    def test_health_config_validation(self):
        # The hysteresis thresholds are module constants: ordered, and
        # a probe period that advances time.
        assert 1 <= health_mod.SUSPECT_AFTER <= health_mod.DEAD_AFTER
        assert health_mod.PROBE_PERIOD > 0

    def test_fault_plan_bad_link_fails_at_construction(self):
        # (0,0,0,0,0)-(0,0,1,1,1) are not torus neighbors: the job must
        # reject the plan eagerly, not lose transfers mid-run.
        plan = FaultPlan().kill_link(NODE0, NODE7, at=1e-6)
        with pytest.raises(TopologyError):
            ArmciJob(8, ArmciConfig.default_mode(), procs_per_node=1,
                     fault_plan=plan)

    def test_fault_plan_wrong_dimensionality_rejected(self):
        plan = FaultPlan().kill_link((0, 0), (0, 1), at=1e-6)
        with pytest.raises(TopologyError):
            ArmciJob(8, ArmciConfig.default_mode(), procs_per_node=1,
                     fault_plan=plan)


class TestDefaultPathDormant:
    def test_no_knobs_means_no_link_machinery(self):
        job = net_job(2)
        put_get_body(job, dst=1, repeat=2)
        net = job.world.network
        assert net.link_state is None
        assert net.route_table is None
        assert net.health is None
        assert job.integrity is None
        assert job.health is None
        for key in (
            "net.reroutes", "net.route_recomputes", "net.link_drops",
            "net.payload_corruptions", "chaos.link_kills",
            "net.links_suspected", "net.health_probes",
            "armci.integrity.protected", "pami.silent_corruptions",
        ):
            assert job.trace.count(key) == 0

    def test_hop_cost_matches_seed_expression(self):
        job = net_job(8)
        net = job.world.network
        assert net.hop_cost(0, 7) == net.hops(0, 7) * net.params.hop_latency

    def test_healthy_link_mode_times_identically(self):
        """A link-fault-mode run over all-healthy links (and one with a
        factor-1.0 degrade) is time-identical to the seed model: the
        per-link cost sum collapses to hops * hop_latency exactly."""

        def run(plan):
            job = net_job(8, fault_plan=plan)
            result = put_get_body(job, dst=7, repeat=8)
            assert result["data"] == PAYLOAD
            return job.engine.now

        baseline = run(None)
        assert run(FaultPlan().degrade_link(NODE0, NODE1, 0.0, factor=1.0)) == baseline

    def test_integrity_alone_does_not_change_timing(self):
        """With no corruption in flight, the integrity layer verifies
        every transfer without altering completion times."""

        def run(config):
            job = net_job(8, config=config)
            result = put_get_body(job, dst=7, repeat=8)
            assert result["data"] == PAYLOAD
            return job

        baseline = run(ArmciConfig.default_mode())
        protected = run(
            ArmciConfig.default_mode(integrity=IntegrityConfig())
        )
        assert protected.engine.now == baseline.engine.now
        assert protected.trace.count("armci.integrity.protected") > 0
        assert protected.trace.count("armci.integrity.checksum_failures") == 0


class TestFaultAwareRouting:
    def test_killed_direct_link_detours(self):
        plan = FaultPlan().kill_link(NODE0, NODE1, at=2e-6)
        job = net_job(8, fault_plan=plan)
        result = put_get_body(job, dst=1, repeat=8)
        assert result["data"] == PAYLOAD
        assert job.trace.count("chaos.link_kills") == 1
        assert job.trace.count("net.reroutes") > 0
        # rank 0 -> rank 1 is one hop; every detour costs at least two more.
        assert job.trace.count("net.reroute_extra_hops") >= 2
        # Ground-truth routing reacts instantly: nothing is ever dropped.
        assert job.trace.count("net.link_drops") == 0

    def test_survives_killing_every_dim_order_link(self):
        """The acceptance scenario: every link of the 0 -> 7 dim-order
        path dies mid-run, one at a time; transfers keep completing with
        exact numerics and the route epoch only ever moves forward."""
        torus = Torus((1, 1, 2, 2, 2))
        path = dimension_order_route(torus, NODE0, NODE7)
        assert len(path) == 4  # three hops through dims 2, 3, 4
        kills = {
            6 + 6 * i: (u, v)
            for i, (u, v) in enumerate(zip(path, path[1:]))
        }
        job = net_job(8)
        job.world.enable_link_faults()  # link mode on from the start

        def on_iter(i):
            if i in kills:
                u, v = kills[i]
                apply_link_fault(job.world, LinkFault("kill", u, v, at=0.0))

        epochs = []
        result = put_get_body(
            job, dst=7, repeat=30, epochs=epochs, on_iter=on_iter
        )
        assert result["data"] == PAYLOAD
        assert job.trace.count("chaos.link_kills") == 3
        assert job.world.network.link_state.epoch == 3
        assert job.trace.count("net.reroutes") > 0
        assert job.trace.count("net.link_drops") == 0
        assert epochs == sorted(epochs)  # monotone bumps
        assert set(epochs) == {0, 1, 2, 3}  # every kill observed mid-run

    def test_unreachable_rank_exhausts_retries(self):
        plan = (
            FaultPlan()
            .kill_link(N(0, 1, 1), NODE7, at=1e-6)
            .kill_link(N(1, 0, 1), NODE7, at=1e-6)
            .kill_link(N(1, 1, 0), NODE7, at=1e-6)
        )
        job = net_job(8, fault_plan=plan)
        outcome = {}

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            if rt.rank == 0:
                src = rt.world.space(0).allocate(256)
                try:
                    yield from rt.put(7, src, alloc.addr(7), 256)
                except RetryExhaustedError:
                    outcome["exhausted"] = True
            yield from rt.barrier()

        job.run(body)
        assert outcome.get("exhausted")
        assert job.trace.count("net.link_drops") > 0
        # Without a health monitor nobody escalates: partition != death.
        assert not job.world.failed_ranks

    def test_revived_link_restores_reachability(self):
        # Revive times are measured from run() start; init's collectives
        # take ~50 us of simulated time, so 600 us lands mid-put-loop.
        plan = FaultPlan().revive_link(N(1, 1, 0), NODE7, at=600e-6)
        cfg = ArmciConfig.default_mode(
            retry=RetryPolicy(max_retries=40, max_delay=20e-6)
        )
        job = net_job(8, config=cfg, fault_plan=plan)

        def on_iter(i):
            if i == 0:  # isolate rank 7 right before the first put
                for nb in (N(0, 1, 1), N(1, 0, 1), N(1, 1, 0)):
                    apply_link_fault(job.world, LinkFault("kill", nb, NODE7, at=0.0))

        result = put_get_body(job, dst=7, repeat=4, on_iter=on_iter)
        assert result["data"] == PAYLOAD
        assert job.trace.count("chaos.link_kills") == 3
        assert job.trace.count("chaos.link_revives") == 1
        assert job.trace.count("net.link_drops") > 0
        assert job.trace.count("armci.transient_retries") > 0

    def test_degraded_link_slows_but_stays_correct(self):
        def run(plan):
            job = net_job(8, fault_plan=plan)
            result = put_get_body(job, dst=1, repeat=8)
            assert result["data"] == PAYLOAD
            return job

        clean = run(None)
        slow = run(FaultPlan().degrade_link(NODE0, NODE1, 0.0, factor=8.0))
        assert slow.engine.now > clean.engine.now
        assert slow.trace.count("chaos.link_degrades") == 1

    def test_lossy_link_absorbed_by_retries(self):
        plan = FaultPlan().lossy_link(NODE0, NODE1, at=0.0, prob=0.3)
        cfg = ArmciConfig.default_mode(retry=RetryPolicy(max_retries=10))
        job = net_job(8, config=cfg, fault_plan=plan)
        result = put_get_body(job, dst=1, repeat=16)
        assert result["data"] == PAYLOAD
        assert job.trace.count("net.link_drops") > 0
        assert job.trace.count("armci.transient_retries") > 0

    def test_a_roll_derives_no_link_key(self, monkeypatch):
        """A route's links are keyed once, with the route: four times the
        rolls on an unchanged route derive not one more ``Link``."""
        from repro.topology import links

        derived = []
        key = links.link_key
        monkeypatch.setattr(
            links, "link_key", lambda *a: derived.append(a) or key(*a)
        )
        counts = []
        for repeat in (4, 16):
            derived.clear()
            plan = FaultPlan().lossy_link(NODE0, NODE1, at=0.0, prob=0.3)
            cfg = ArmciConfig.default_mode(retry=RetryPolicy(max_retries=10))
            job = net_job(8, config=cfg, fault_plan=plan)
            assert put_get_body(job, dst=1, repeat=repeat)["data"] == PAYLOAD
            assert job.trace.count("net.link_drops") > 0
            counts.append(len(derived))
        assert counts[0] == counts[1] > 0


class TestAmWritesUnderLinkFaults:
    """A link fault alone (no chaos) can lose an AM put's or an
    accumulate's request; the writer must wait its ack cookie so the loss
    is retried, not skipped by the fence."""

    WRITES = 64

    @pytest.mark.parametrize("knob", ["lossy_link", "health_monitor"])
    @pytest.mark.parametrize("op", ["acc", "put"])
    def test_every_write_lands(self, op, knob):
        health = LinkHealthConfig() if knob == "health_monitor" else None
        plan = FaultPlan().lossy_link(PAIR_A, PAIR_B, at=0.0, prob=0.3)
        cfg = ArmciConfig.default_mode(use_rdma=False, health=health)
        job = net_job(2, config=cfg, fault_plan=plan)
        one = np.float64(1.0).tobytes()
        landed = {}

        def body(rt):
            alloc = yield from rt.malloc(8 * self.WRITES)
            yield from rt.barrier()
            if rt.rank == 0:
                buf = rt.world.space(0).allocate(8)
                rt.world.space(0).write(buf, one)
                for i in range(self.WRITES):
                    if op == "acc":
                        yield from rt.acc(1, buf, alloc.addr(1), 8)
                    else:
                        yield from rt.put(1, buf, alloc.addr(1) + 8 * i, 8)
                yield from rt.fence(1)
            yield from rt.barrier()
            if rt.rank == 1:
                got = rt.world.space(1).read(alloc.addr(1), 8 * self.WRITES)
                values = np.frombuffer(got, dtype=np.float64)
                landed["n"] = int(values[0]) if op == "acc" else int((values == 1.0).sum())

        job.run(body)
        assert landed["n"] == self.WRITES
        assert job.trace.count("net.link_drops") > 0
        assert job.trace.count("armci.transient_retries") > 0


class TestHealthMonitor:
    def test_suspect_link_detoured_without_death(self):
        """Two consecutive losses mark the link suspect; routing detours
        and the link is never declared dead — and no rank is failed
        while a path exists (partition != death)."""
        plan = FaultPlan().lossy_link(NODE0, NODE1, at=0.0, prob=1.0)
        cfg = ArmciConfig.default_mode(
            health=LinkHealthConfig(),
            retry=RetryPolicy(max_retries=10),
        )
        job = net_job(8, config=cfg, fault_plan=plan)
        result = put_get_body(job, dst=1, repeat=10)
        assert result["data"] == PAYLOAD
        assert job.trace.count("net.links_suspected") == 1
        assert job.trace.count("net.links_dead") == 0
        assert job.trace.count("net.reroutes") > 0
        assert job.trace.count("net.ranks_unreachable") == 0
        assert not job.world.failed_ranks

    def test_observed_dead_link_reroutes_without_escalation(self, monkeypatch):
        """A ground-truth-killed link walks to observed-dead through the
        loss observations; routing detours and nobody is escalated
        because alternative paths exist."""
        monkeypatch.setattr(health_mod, "SUSPECT_AFTER", 4)
        monkeypatch.setattr(health_mod, "DEAD_AFTER", 4)
        plan = FaultPlan().kill_link(NODE0, NODE1, at=0.0)
        cfg = ArmciConfig.default_mode(
            health=LinkHealthConfig(),
            retry=RetryPolicy(max_retries=10),
        )
        job = net_job(8, config=cfg, fault_plan=plan)
        result = put_get_body(job, dst=1, repeat=12)
        assert result["data"] == PAYLOAD
        assert job.trace.count("net.links_dead") == 1
        assert job.trace.count("net.reroutes") > 0
        assert job.trace.count("net.ranks_unreachable") == 0
        assert not job.world.failed_ranks

    def test_probes_revive_a_falsely_dead_link(self):
        """A fully lossy link gets declared dead (a false positive: the
        hardware is alive), the monitor's bounded probes notice ground
        truth disagrees, and the link recovers — twice over, since the
        loss mode persists until the plan revives it."""
        plan = (
            FaultPlan()
            .lossy_link(PAIR_A, PAIR_B, at=0.0, prob=1.0)
            .revive_link(PAIR_A, PAIR_B, at=900e-6)
        )
        cfg = ArmciConfig.default_mode(
            health=LinkHealthConfig(escalate=False),
            retry=RetryPolicy(max_retries=50, max_delay=20e-6),
        )
        job = net_job(2, config=cfg, fault_plan=plan)
        result = put_get_body(job, dst=1, repeat=2)
        assert result["data"] == PAYLOAD
        assert job.trace.count("net.links_suspected") >= 1
        assert job.trace.count("net.links_dead") >= 1
        assert job.trace.count("net.health_probes") >= 2
        assert job.trace.count("net.links_revived") >= 1
        assert job.trace.count("net.ranks_unreachable") == 0
        assert not job.world.failed_ranks

    def test_escalates_only_truly_unreachable_rank(self, monkeypatch):
        """All three links to rank 7's node die: once the monitor has
        observed each one dead, rank 7 (and only rank 7) is escalated to
        the failure machinery."""
        monkeypatch.setattr(health_mod, "SUSPECT_AFTER", 1)
        monkeypatch.setattr(health_mod, "DEAD_AFTER", 1)
        # AT mode: targets stay passive after the barrier (their async
        # threads service progress), so no trailing collective needs to
        # survive rank 7's death.
        cfg = ArmciConfig.async_thread_mode(
            health=LinkHealthConfig(),
            retry=RetryPolicy(max_retries=10),
        )
        job = net_job(8, config=cfg)
        outcome = {}

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            if rt.rank != 0:
                return
            src = rt.world.space(0).allocate(256)
            # Healthy warm-up put, then isolate rank 7's node.
            yield from rt.put(7, src, alloc.addr(7), 256)
            yield from rt.fence(7)
            for nb in (N(0, 1, 1), N(1, 0, 1), N(1, 1, 0)):
                apply_link_fault(rt.world, LinkFault("kill", nb, NODE7, at=0.0))
            for _i in range(30):
                try:
                    yield from rt.put(7, src, alloc.addr(7), 256)
                except (TransientFaultError, ProcessFailedError) as exc:
                    outcome.setdefault("error", type(exc).__name__)
                    if rt.world.is_failed(7):
                        break

        job.run(body)
        assert "error" in outcome
        assert job.world.failed_ranks == {7}
        assert job.trace.count("net.ranks_unreachable") == 1
        assert job.trace.count("net.links_dead") == 3


class TestEndToEndIntegrity:
    def _corrupt_put_run(self, config, chunks=4, nbytes=256):
        plan = FaultPlan().corrupt_link(NODE0, NODE1, at=0.0, prob=1.0)
        job = net_job(8, config=config, fault_plan=plan)
        result = {}

        def body(rt):
            alloc = yield from rt.malloc(chunks * nbytes)
            yield from rt.barrier()
            if rt.rank == 0:
                blob = (PAYLOAD * chunks)[: chunks * nbytes]
                src = rt.world.space(0).allocate(chunks * nbytes)
                rt.world.space(0).write(src, blob)
                for i in range(chunks):
                    yield from rt.put(
                        1, src + i * nbytes, alloc.addr(1) + i * nbytes, nbytes
                    )
                yield from rt.fence(1)
                result["expected"] = blob
                result["remote"] = rt.world.space(1).read(
                    alloc.addr(1), chunks * nbytes
                )
            yield from rt.barrier()

        job.run(body)
        return result, job

    def test_silent_corruption_lands_without_integrity(self):
        """The bug made real: a corrupting link flips one payload bit
        per transfer and — with no end-to-end protection — the damaged
        bytes land silently."""
        result, job = self._corrupt_put_run(ArmciConfig.default_mode())
        assert result["remote"] != result["expected"]
        # One silent flip per data put; control AMs crossing the same
        # link roll wire corruptions too, so the wire counter is >=.
        assert job.trace.count("pami.silent_corruptions") == 4
        assert job.trace.count("net.payload_corruptions") >= 4
        assert job.trace.count("armci.integrity.protected") == 0

    def test_integrity_catches_and_retransmits(self):
        result, job = self._corrupt_put_run(
            ArmciConfig.default_mode(integrity=IntegrityConfig())
        )
        assert result["remote"] == result["expected"]
        assert job.trace.count("pami.silent_corruptions") == 0
        assert job.trace.count("armci.integrity.checksum_failures") > 0
        assert job.trace.count("armci.integrity.retransmits") > 0
        assert job.trace.count("armci.integrity.retransmit_bytes") > 0

    def test_exhausted_retransmit_budget_fails_the_fence(self):
        """A put's local completion predates the corruption, so a spent
        retransmit budget must surface at the *fence* — certifying the
        write anyway would be silent data loss."""
        plan = FaultPlan().corrupt_link(NODE0, NODE1, at=0.0, prob=1.0)
        cfg = ArmciConfig.default_mode(
            integrity=IntegrityConfig(max_retransmits=0)
        )
        job = net_job(8, config=cfg, fault_plan=plan)
        outcome = {}

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            if rt.rank == 0:
                src = rt.world.space(0).allocate(256)
                try:
                    yield from rt.put(1, src, alloc.addr(1), 256)
                    yield from rt.fence(1)
                except TransientFaultError:
                    outcome["exhausted"] = True
            yield from rt.barrier()

        job.run(body)
        assert outcome.get("exhausted")
        assert job.trace.count("armci.integrity.aborted") > 0

    def test_get_reply_corruption_is_caught(self):
        plan = FaultPlan().corrupt_link(NODE0, NODE1, at=0.0, prob=1.0)
        cfg = ArmciConfig.default_mode(integrity=IntegrityConfig())
        job = net_job(8, config=cfg, fault_plan=plan)
        result = {}

        def body(rt):
            alloc = yield from rt.malloc(1024)
            if rt.rank == 1:
                rt.world.space(1).write(alloc.addr(1), PAYLOAD)
            yield from rt.barrier()
            if rt.rank == 0:
                back = rt.world.space(0).allocate(1024)
                yield from rt.get(1, back, alloc.addr(1), 1024)
                result["data"] = rt.world.space(0).read(back, 1024)
            yield from rt.barrier()

        job.run(body)
        assert result["data"] == PAYLOAD
        assert job.trace.count("armci.integrity.checksum_failures") > 0
        assert job.trace.count("pami.silent_corruptions") == 0

    def test_payload_chaos_mode_with_integrity(self):
        """corrupt_mode="payload" turns chaos corruption into real bit
        flips on every transfer path; integrity restores exactness."""

        def run(chaos, config):
            job = net_job(8, config=config, chaos=chaos)
            result = {}

            def body(rt):
                alloc = yield from rt.malloc(4096)
                yield from rt.barrier()
                if rt.rank == 0:
                    src = rt.world.space(0).allocate(4096)
                    rt.world.space(0).write(src, PAYLOAD * 4)
                    for i in range(16):
                        yield from rt.put(
                            1, src + i * 256, alloc.addr(1) + i * 256, 256
                        )
                    yield from rt.fence(1)
                    result["remote"] = rt.world.space(1).read(alloc.addr(1), 4096)
                yield from rt.barrier()

            job.run(body)
            return result, job

        chaos = ChaosConfig(seed=3, corrupt_prob=0.4, corrupt_mode="payload")
        silent, sjob = run(chaos, ArmciConfig.default_mode())
        assert sjob.trace.count("pami.silent_corruptions") > 0
        assert silent["remote"] != PAYLOAD * 4
        caught, cjob = run(
            chaos, ArmciConfig.default_mode(integrity=IntegrityConfig())
        )
        assert caught["remote"] == PAYLOAD * 4
        assert cjob.trace.count("armci.integrity.checksum_failures") > 0
        assert cjob.trace.count("pami.silent_corruptions") == 0

    # Typed-datatype transfers ride the same wire as contiguous ones
    # (one rdma_put/rdma_get with a layout on each side), so payload
    # corruption, integrity, link faults and incarnation checks apply.

    TYPED_CHAOS = ChaosConfig(
        corrupt_prob=1.0, corrupt_mode="payload", links=frozenset({(0, 1)})
    )

    @pytest.mark.parametrize("op", ["puts", "gets", "agg"])
    def test_typed_transfer_corruption_lands_silently(self, op):
        arrived, job = typed_transfer(
            op, ArmciConfig.default_mode(strided_protocol="auto"),
            chaos=self.TYPED_CHAOS,
        )
        # Damaged — one flipped bit — never a reported-success blank.
        assert bit_flips(arrived, TYPED_BYTES) == 1
        assert job.trace.count("pami.silent_corruptions") > 0
        assert job.trace.count("armci.transient_retries") == 0

    @pytest.mark.parametrize("op", ["puts", "gets", "agg"])
    def test_typed_transfer_corruption_caught_by_integrity(self, op):
        arrived, job = typed_transfer(
            op,
            ArmciConfig.default_mode(
                strided_protocol="auto", integrity=IntegrityConfig()
            ),
            chaos=self.TYPED_CHAOS,
        )
        assert arrived == TYPED_BYTES
        assert job.trace.count("armci.integrity.checksum_failures") > 0
        assert job.trace.count("armci.integrity.retransmits") > 0
        assert job.trace.count("pami.silent_corruptions") == 0

    def test_am_fallback_path_is_protected(self):
        plan = FaultPlan().corrupt_link(NODE0, NODE1, at=0.0, prob=1.0)
        cfg = ArmciConfig.default_mode(
            use_rdma=False, integrity=IntegrityConfig()
        )
        job = net_job(8, config=cfg, fault_plan=plan)
        result = put_get_body(job, dst=1, repeat=6)
        assert result["data"] == PAYLOAD
        assert job.trace.count("armci.put_fallback") > 0
        assert job.trace.count("armci.integrity.retransmits") > 0
        assert job.trace.count("pami.silent_corruptions") == 0

    # The AM fall-back's *get reply* carries the payload back over the
    # wire, so it meets link faults and integrity like any payload (the
    # payload-less request, and acks, stay NIC-reliable).

    FALLBACK = dict(use_rdma=False, strided_protocol="pack")

    @pytest.mark.parametrize("op", ["get", "gets", "getv"])
    def test_fallback_get_reply_corruption_lands_silently(self, op):
        plan = FaultPlan().corrupt_link(NODE0, NODE1, at=0.0, prob=1.0)
        expected, arrived, job = fallback_get(
            op, ArmciConfig.default_mode(**self.FALLBACK), fault_plan=plan
        )
        assert bit_flips(arrived, expected) == 1
        assert job.trace.count("pami.silent_corruptions") > 0
        assert job.trace.count("pami.rdma_gets") == 0

    @pytest.mark.parametrize("op", ["get", "gets", "getv"])
    def test_fallback_get_reply_corruption_caught_by_integrity(self, op):
        plan = FaultPlan().corrupt_link(NODE0, NODE1, at=0.0, prob=1.0)
        expected, arrived, job = fallback_get(
            op,
            ArmciConfig.default_mode(integrity=IntegrityConfig(), **self.FALLBACK),
            fault_plan=plan,
        )
        assert arrived == expected
        assert job.trace.count("armci.integrity.checksum_failures") > 0
        assert job.trace.count("armci.integrity.retransmits") > 0
        assert job.trace.count("pami.silent_corruptions") == 0

    def test_lost_fallback_get_reply_is_retried(self):
        plan = FaultPlan().lossy_link(NODE0, NODE1, at=0.0, prob=0.3)
        cfg = ArmciConfig.default_mode(
            retry=RetryPolicy(max_retries=10), **self.FALLBACK
        )
        expected, arrived, job = fallback_get(
            "get", cfg, repeat=16, fault_plan=plan
        )
        assert arrived == expected
        assert job.trace.count("armci.transient_retries") > 0
        # The get requests are the run's only active messages: rank 1
        # serviced more of them than gets were issued, so some of the
        # retried losses were *replies*.
        assert job.trace.count("pami.am_handled") > 16

    def test_fallback_get_reply_rejected_past_the_retransmit_budget(self):
        """With no transport retransmits left the checksum reject is
        handed to the ARMCI retry layer (get is idempotent)."""
        plan = FaultPlan().corrupt_link(NODE0, NODE1, at=0.0, prob=1.0)
        cfg = ArmciConfig.default_mode(
            integrity=IntegrityConfig(max_retransmits=0),
            retry=RetryPolicy(max_retries=2), **self.FALLBACK,
        )
        with pytest.raises(SimulationError, match="RetryExhaustedError.*integrity"):
            fallback_get("get", cfg, fault_plan=plan)

    def test_fallback_get_reply_to_a_respawned_initiator_is_dropped(
        self, monkeypatch
    ):
        from repro.armci import dispatch, runtime

        job = net_job(8, config=ArmciConfig.default_mode(**self.FALLBACK))
        serve = runtime.AM_HANDLERS[dispatch.GET_REQUEST]

        def serve_then_lose_initiator(rt, ctx, env):
            serve(rt, ctx, env)
            # The initiator dies and comes back with the reply in flight.
            rt.world.fail_rank(env.src)
            rt.world.respawn_rank(env.src)

        monkeypatch.setitem(
            runtime.AM_HANDLERS, dispatch.GET_REQUEST, serve_then_lose_initiator
        )

        def body(rt):
            alloc = yield from rt.malloc(1024)
            if rt.rank == 0:
                back = rt.world.space(0).allocate(256)
                yield from rt.get(1, back, alloc.addr(1), 256)
            elif rt.rank == 1:
                for _i in range(8):
                    yield from rt.compute(2e-6)
                    yield from rt.progress()

        job.run(body)
        assert job.trace.count("armci.get_fallback") == 1
        assert job.trace.count("pami.stale_deliveries_dropped") == 1

    def test_rmw_operand_corruption(self):
        def run(config):
            plan = FaultPlan().corrupt_link(PAIR_A, PAIR_B, at=0.0, prob=1.0)
            job = net_job(2, config=config, fault_plan=plan)
            draws = []
            out = {}

            def body(rt):
                alloc = yield from rt.malloc(8)
                yield from rt.barrier()
                if rt.rank == 0:
                    for _i in range(16):
                        old = yield from rt.rmw(1, alloc.addr(1), "fetch_add", 1)
                        draws.append(old)
                yield from rt.barrier()
                if rt.rank == 1:
                    out["cell"] = rt.world.space(1).read(alloc.addr(1), 8)

            job.run(body)
            return draws, out["cell"], job

        draws, cell, job = run(
            ArmciConfig.async_thread_mode(integrity=IntegrityConfig())
        )
        assert draws == list(range(16))
        assert job.trace.count("armci.integrity.checksum_failures") > 0
        assert job.trace.count("pami.silent_corruptions") == 0

        bad_draws, bad_cell, bad_job = run(ArmciConfig.async_thread_mode())
        assert bad_job.trace.count("pami.silent_corruptions") > 0
        assert bad_draws != list(range(16)) or bad_cell != cell


class TestStridedVectorScf:
    def test_strided_and_vector_exact_under_faults(self):
        desc = StridedDescriptor(StridedShape(16, (8,)), (32,), (32,))

        def run(chaos, plan):
            cfg = ArmciConfig.async_thread_mode(
                strided_protocol="auto",
                integrity=IntegrityConfig(),
                health=LinkHealthConfig(),
                retry=RetryPolicy(max_retries=10),
            )
            job = net_job(8, config=cfg, chaos=chaos, fault_plan=plan)
            out = {}

            def body(rt):
                alloc = yield from rt.malloc(8192)
                yield from rt.barrier()
                if rt.rank == 0:
                    local = rt.world.space(0).allocate(512)
                    rt.world.space(0).write(local, bytes(range(128)) * 4)
                    for _i in range(6):
                        yield from rt.puts(1, local, alloc.addr(1), desc)
                        yield from rt.gets(1, local, alloc.addr(1), desc)
                    vec = IoVector(
                        (local, local + 64),
                        (alloc.addr(1) + 512, alloc.addr(1) + 640),
                        (64, 64),
                    )
                    for _i in range(6):
                        yield from rt.putv(1, vec)
                        yield from rt.getv(1, vec)
                    yield from rt.fence(1)
                    out["remote"] = rt.world.space(1).read(alloc.addr(1), 1024)
                    out["local"] = rt.world.space(0).read(local, 512)
                yield from rt.barrier()

            job.run(body)
            return out, job

        clean, _cjob = run(None, None)
        chaos = ChaosConfig(seed=21, corrupt_prob=0.2, corrupt_mode="payload")
        plan = FaultPlan().kill_link(NODE0, NODE1, at=25e-6)
        faulty, job = run(chaos, plan)
        assert faulty == clean
        assert job.trace.count("net.reroutes") > 0
        assert job.trace.count("armci.integrity.checksum_failures") > 0
        assert job.trace.count("pami.silent_corruptions") == 0

    def test_typed_put_retried_across_a_killed_link(self):
        """The monitor still routes over the (ground-truth dead) direct
        link until losses are observed: the typed put is dropped on it
        like any transfer, retried, and lands exact over the detour."""
        cfg = ArmciConfig.default_mode(
            strided_protocol="auto",
            health=LinkHealthConfig(),
            retry=RetryPolicy(max_retries=10),
        )

        def kill(job, i):
            if i == 1:  # round 0 warmed the region cache over the wire
                apply_link_fault(
                    job.world, LinkFault("kill", NODE0, NODE1, at=0.0)
                )

        arrived, job = typed_transfer("puts", cfg, repeat=2, on_iter=kill)
        assert arrived == TYPED_BYTES
        assert job.trace.count("net.link_drops.put") > 0
        assert job.trace.count("armci.transient_retries.puts") > 0
        assert job.trace.count("net.reroutes") > 0

    def test_typed_put_to_a_respawned_incarnation_is_dropped(self):
        # AT mode: rank 1's body has returned by the time rank 0 asks it
        # for its region, so only an async thread can answer.
        cfg = ArmciConfig.async_thread_mode(strided_protocol="auto")
        job = net_job(8, config=cfg)

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            if rt.rank == 0:
                local = rt.world.space(0).allocate(256)
                handle = yield from rt.nbputs(1, local, alloc.addr(1), TYPED_DESC)
                # The target dies and comes back while the put is in
                # flight: the fresh incarnation has no such memory.
                rt.world.fail_rank(1)
                rt.world.respawn_rank(1)
                yield from handle.wait()
                yield from rt.compute(50e-6)

        job.run(body)
        assert job.trace.count("armci.puts_strided_typed") == 1
        assert job.trace.count("pami.stale_deliveries_dropped") == 1

    def test_scf_exact_under_link_faults(self):
        """Full-application acceptance: an SCF run over a corrupting
        link plus a mid-run link kill — with integrity and health on —
        completes the same task accounting as the fault-free run."""
        from repro.apps.nwchem import ScfConfig, run_scf

        scf = ScfConfig(
            nbf_override=32, nblocks=4, task_time=200e-6,
            iterations=2, num_counters=2,
        )
        cfg = ArmciConfig.async_thread_mode(
            integrity=IntegrityConfig(),
            health=LinkHealthConfig(),
            retry=RetryPolicy(max_retries=10),
        )
        clean = run_scf(4, cfg, scf, procs_per_node=1)
        plan = (
            FaultPlan()
            .corrupt_link((0, 0, 0, 0, 0), (0, 0, 0, 0, 1), at=0.0, prob=0.1)
            .kill_link((0, 0, 0, 0, 0), (0, 0, 0, 1, 0), at=100e-6)
        )
        chaotic = run_scf(4, cfg, scf, procs_per_node=1, fault_plan=plan)
        assert chaotic.tasks_done == clean.tasks_done == 16 * 2
        assert chaotic.iterations_run == 2


class TestReport:
    def test_report_shows_network_rows(self):
        plan = (
            FaultPlan()
            .kill_link(NODE0, NODE1, at=2e-6)
            .corrupt_link(N(0, 1, 0), N(0, 1, 1), at=0.0, prob=1.0)
        )
        cfg = ArmciConfig.default_mode(
            integrity=IntegrityConfig(), health=LinkHealthConfig()
        )
        job = net_job(8, config=cfg, fault_plan=plan)

        def body(rt):
            alloc = yield from rt.malloc(1024)
            yield from rt.barrier()
            if rt.rank == 0:
                src = rt.world.space(0).allocate(256)
                yield from rt.put(1, src, alloc.addr(1), 256)
                yield from rt.put(3, src, alloc.addr(3), 256)
                yield from rt.fence_all()
            yield from rt.barrier()

        job.run(body)
        report = job.report()
        assert "links killed" in report
        assert "routes detoured" in report
        assert "checksum failures caught" in report

    def test_clean_report_elides_network_rows(self):
        job = net_job(2)
        put_get_body(job, dst=1, repeat=2)
        report = job.report()
        assert "links killed" not in report
        assert "checksum failures caught" not in report
