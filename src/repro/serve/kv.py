"""Sharded KV-store / parameter-server workload on the actor layer.

Ranks ``[0, num_shards)`` are servers; the rest are clients. Keys are
hash-sharded (:func:`~repro.serve.clients.shard_of`); shard ``j``'s
primary actor ``kv.shard.j`` lives on rank ``j`` and — when
``replicate`` — a passive replica ``kv.shard.j.r`` lives on rank
``(j + 1) % num_shards``. Clients *dual-write* every mutation (the
authoritative copy flagged ``FLAG_RESPOND``, the other copy
``FLAG_REPLICA``), so when a server rank dies mid-run the surviving
replica already holds every mutation and clients simply flip that
shard's authority to it (failover is client-driven, triggered by the
actor system's dead-peer hook). GETs go to the current authority only.

Exactness: accumulate deltas are integer-valued (float addition is
exact in any order) and PUT key ranges are private per client rank
(last-writer-wins needs only per-lane FIFO, which the mailbox ring
guarantees) — so the post-run state of every authoritative shard must
equal :func:`~repro.serve.clients.golden_state` *exactly*, crash or no
crash, chaos or no chaos.

Latency dashboards: each client actor records response round-trip
latency (delivery time minus arrival) into ``serve.latency`` (plus
per-kind histograms) in ``job.serve_metrics`` — the p50/p99/p999
source for ``benchmarks/bench_serving.py`` and the report's serving
section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator

import numpy as np

from ..armci.config import ArmciConfig
from ..armci.runtime import ArmciJob
from ..errors import ArmciError
from ..sim.primitives import Delay
from .actor import Actor, ActorSystem
from .clients import (
    ClientLoadConfig,
    generate_requests,
    golden_state,
    requests_to_records,
    shard_of,
)
from .mailbox import (
    FLAG_LATE,
    FLAG_REPLICA,
    FLAG_RESPOND,
    KIND_ACC,
    KIND_CTL_PAUSE,
    KIND_CTL_RESUME,
    KIND_GET,
    KIND_PUT,
    RESPONSE_BIAS,
    InboxSpec,
)
from .termination import FourCounterTermination


#: Slots per request / response ring (one ring per sender lane).
INBOX_CAPACITY = 1024


@dataclass(frozen=True)
class KvConfig:
    """Shape of the serving tier."""

    num_shards: int = 2
    replicate: bool = True
    poll_interval: float = 2e-6

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ArmciError(f"need >= 1 shard, got {self.num_shards}")
        if self.replicate and self.num_shards < 2:
            raise ArmciError("replication needs >= 2 shards (distinct hosts)")


class KvShardActor(Actor):
    """One shard (primary or passive replica) of the key space.

    Two inboxes: ``req`` (the data plane) and ``ctl`` — a pause/resume
    control channel that *guards* ``req`` while paused, exercising the
    selector semantics: control traffic keeps flowing while data
    batches wait in their rings (and backpressure senders).
    """

    def __init__(self, total_keys: int) -> None:
        self.state = np.zeros(total_keys)
        self.paused = False
        self.applied = 0
        self.deadline_misses = 0

    def guard(self, inbox: str) -> bool:
        return not (self.paused and inbox == "req")

    def on_batch(self, system: ActorSystem, inbox: str, sender: int, records):
        if inbox == "ctl":
            for kind in records["kind"]:
                if kind == KIND_CTL_PAUSE:
                    self.paused = True
                elif kind == KIND_CTL_RESUME:
                    self.paused = False
            system.rt.trace.incr("kv.ctl_messages", len(records))
            return None
        now = system.rt.engine.now
        keys = records["key"].astype(np.intp)
        kinds = records["kind"]
        late = now > records["deadline"]
        misses = int(late.sum())
        if misses:
            self.deadline_misses += misses
            system.rt.trace.incr("kv.deadline_misses", misses)
        # Late requests are still applied: state exactness (vs the
        # golden model) must not depend on scheduling luck. Misses are
        # counted and flagged in the response instead.
        acc = kinds == KIND_ACC
        if acc.any():
            np.add.at(self.state, keys[acc], records["value"][acc])
        put = np.flatnonzero(kinds == KIND_PUT)
        if len(put):
            rev = records["key"][put][::-1]
            _u, first = np.unique(rev, return_index=True)
            winners = put[len(put) - 1 - first]
            self.state[keys[winners]] = records["value"][winners]
        self.applied += len(records)
        system.rt.trace.incr("kv.requests_applied", len(records))
        respond = (records["flags"] & FLAG_RESPOND) != 0
        if not respond.any():
            return None
        resp = records[respond].copy()
        resp["kind"] = resp["kind"] + RESPONSE_BIAS
        get = resp["kind"] == KIND_GET + RESPONSE_BIAS
        resp["value"][get] = self.state[resp["key"][get].astype(np.intp)]
        resp["flags"] = np.where(
            late[respond], resp["flags"] | np.uint16(FLAG_LATE), resp["flags"]
        )
        system.post(f"kv.client.{sender}", "resp", resp)
        system.rt.trace.incr("kv.responses_sent", len(resp))
        return None


class KvClientActor(Actor):
    """Receives responses and feeds the latency dashboards."""

    _KIND_HIST = {
        KIND_GET + RESPONSE_BIAS: "serve.latency.get",
        KIND_ACC + RESPONSE_BIAS: "serve.latency.acc",
        KIND_PUT + RESPONSE_BIAS: "serve.latency.put",
    }

    def __init__(self) -> None:
        self.responses = 0
        self.late = 0

    def on_batch(self, system: ActorSystem, inbox: str, sender: int, records):
        rt = system.rt
        now = rt.engine.now
        latency = now - records["arrival"]
        system.metrics.histogram("serve.latency").record_many(
            latency, rank=rt.rank
        )
        for kind, hist in self._KIND_HIST.items():
            sel = records["kind"] == kind
            if sel.any():
                system.metrics.histogram(hist).record_many(latency[sel])
        n_late = int((now > records["deadline"]).sum())
        self.responses += len(records)
        self.late += n_late
        rt.trace.incr("kv.responses_received", len(records))
        if n_late:
            rt.trace.incr("kv.responses_late", n_late)
        return None


class _ClientDriver:
    """Open-loop request injector for one client rank.

    Posts every request whose arrival time has passed (in arrival
    order, grouped by destination shard), dual-writing mutations to the
    current authority and its replica. Holds ``system.busy`` while
    future arrivals remain so termination cannot fire early, and sleeps
    toward the next arrival instead of spinning.
    """

    #: Throttle: stop posting while this much is queued locally.
    MAX_OUTBOX = 8192
    #: Longest single sleep toward the next arrival.
    MAX_SLEEP = 5e-5

    def __init__(
        self,
        system: ActorSystem,
        kv_cfg: KvConfig,
        schedule: np.ndarray,
    ) -> None:
        self.system = system
        self.kv = kv_cfg
        self.records = requests_to_records(schedule)
        # Schedules are authored relative to t=0; traffic starts when
        # setup (collective registration) ends. Shift so latency
        # measures service, not simulation setup.
        start = system.rt.engine.now
        self.records["arrival"] += start
        self.records["deadline"] += start
        self.shards = shard_of(self.records["key"], kv_cfg.num_shards)
        self.pos = 0
        # Authority map, flipped by failover: shard -> actor name.
        self.authority = {
            j: f"kv.shard.{j}" for j in range(kv_cfg.num_shards)
        }
        self.replica = {
            j: (f"kv.shard.{j}.r" if kv_cfg.replicate else None)
            for j in range(kv_cfg.num_shards)
        }
        if kv_cfg.replicate:
            system.on_peer_dead(self._on_peer_dead)
        system.busy = True

    def _on_peer_dead(self, rank: int) -> None:
        for j in range(self.kv.num_shards):
            if rank == j and self.authority[j] == f"kv.shard.{j}":
                self.authority[j] = f"kv.shard.{j}.r"
                self.replica[j] = None
                self.system.rt.trace.incr("kv.shard_failovers")
            elif rank == (j + 1) % self.kv.num_shards and self.replica[j]:
                # The replica host died: stop dual-writing that shard.
                self.replica[j] = None

    def step(self) -> Generator[Any, Any, bool]:
        system = self.system
        n = len(self.records)
        if self.pos >= n:
            system.busy = False
            return False
        now = system.rt.engine.now
        if system.outbox_pending() >= self.MAX_OUTBOX:
            return False  # let flush/backpressure drain first
        hi = self.pos + int(
            np.searchsorted(
                self.records["arrival"][self.pos:self.pos + 65536], now, "right"
            )
        )
        if hi == self.pos:
            wait = self.records["arrival"][self.pos] - now
            if wait > 0:
                yield Delay(min(wait, self.MAX_SLEEP))
                return True
            return False
        window = self.records[self.pos:hi]
        window_shards = self.shards[self.pos:hi]
        self.pos = hi
        for j in np.unique(window_shards):
            sel = window_shards == j
            batch = window[sel].copy()
            mut = batch["kind"] != KIND_GET
            batch["flags"] |= np.uint16(FLAG_RESPOND)
            system.post(self.authority[int(j)], "req", batch)
            rep = self.replica[int(j)]
            if rep is not None and mut.any():
                copies = batch[mut].copy()
                copies["flags"] = FLAG_REPLICA
                system.post(rep, "req", copies)
        if self.pos >= n:
            system.busy = False
        return True


@dataclass
class KvResult:
    """Outcome of one end-to-end serving run."""

    num_procs: int
    num_shards: int
    num_clients: int
    requests: int
    responses: int
    late_responses: int
    deadline_misses: int
    failovers: int
    duration: float
    exact: bool
    mismatched_keys: int
    shard_states: dict[int, np.ndarray] = field(repr=False, default_factory=dict)
    golden: np.ndarray | None = field(repr=False, default=None)


def run_kv(
    num_procs: int,
    load: ClientLoadConfig | None = None,
    kv_config: KvConfig | None = None,
    armci_config: ArmciConfig | None = None,
    procs_per_node: int = 16,
    chaos=None,
    fault_plan=None,
    engine=None,
    on_job=None,
) -> KvResult:
    """Run the sharded KV scenario end to end and audit it.

    Builds the job, registers shard/replica/client actors collectively,
    drives the open-loop load to quiescence under four-counter
    termination, then compares every shard's authoritative state
    against the regenerated golden model (exact equality).
    """
    load = load if load is not None else ClientLoadConfig()
    kv = kv_config if kv_config is not None else KvConfig()
    cfg = armci_config if armci_config is not None else ArmciConfig()
    S = kv.num_shards
    if num_procs <= S:
        raise ArmciError(
            f"need > {S} ranks ({S} servers + >=1 client), got {num_procs}"
        )
    n_clients = num_procs - S
    total_keys = load.total_keys(n_clients)

    job = ArmciJob(
        num_procs,
        config=cfg,
        procs_per_node=procs_per_node,
        chaos=chaos,
        fault_plan=fault_plan,
        engine=engine,
    )
    job.init()
    if on_job is not None:
        on_job(job)

    shard_actors: dict[int, KvShardActor] = {}
    replica_actors: dict[int, KvShardActor] = {}
    client_actors: dict[int, KvClientActor] = {}

    def body(rt) -> Generator[Any, Any, None]:
        system = ActorSystem(rt, poll_interval=kv.poll_interval)
        client_ranks = tuple(range(S, num_procs))
        for j in range(S):
            primary = KvShardActor(total_keys) if rt.rank == j else None
            if primary is not None:
                shard_actors[j] = primary
            yield from system.register(
                f"kv.shard.{j}", owner=j, actor=primary,
                inboxes=(
                    InboxSpec("req", INBOX_CAPACITY, senders=client_ranks),
                    InboxSpec("ctl", 16, senders=client_ranks),
                ),
            )
            if kv.replicate:
                host = (j + 1) % S
                backup = KvShardActor(total_keys) if rt.rank == host else None
                if backup is not None:
                    replica_actors[j] = backup
                yield from system.register(
                    f"kv.shard.{j}.r", owner=host, actor=backup,
                    inboxes=(
                        InboxSpec("req", INBOX_CAPACITY, senders=client_ranks),
                    ),
                )
        for c in client_ranks:
            actor = KvClientActor() if rt.rank == c else None
            if actor is not None:
                client_actors[c] = actor
            yield from system.register(
                f"kv.client.{c}", owner=c, actor=actor,
                inboxes=(
                    InboxSpec("resp", INBOX_CAPACITY, senders=tuple(range(S))),
                ),
            )
        detector = yield from FourCounterTermination.create(
            rt, poll_interval=kv.poll_interval
        )
        # No collectives beyond this point: a crashed rank would break
        # them for every survivor. Everything else is point-to-point.
        if rt.rank < S:
            yield from system.run(detector)
        else:
            schedule = generate_requests(load, rt.rank - S, n_clients)
            driver = _ClientDriver(system, kv, schedule)
            yield from system.run(detector, step=driver.step)

    job.run(body)
    duration = job.engine.now

    golden = golden_state(load, n_clients)
    key_shards = shard_of(np.arange(total_keys, dtype=np.uint64), S)
    mismatched = 0
    shard_states: dict[int, np.ndarray] = {}
    for j in range(S):
        if not job.world.is_failed(j):
            authority = shard_actors[j]
        elif kv.replicate and not job.world.is_failed((j + 1) % S):
            authority = replica_actors[j]
        else:
            raise ArmciError(
                f"shard {j}: both primary and replica hosts died"
            )
        shard_states[j] = authority.state
        mine = key_shards == j
        mismatched += int(
            (authority.state[mine] != golden[mine]).sum()
        )
    requests = sum(
        len(generate_requests(load, i, n_clients)) for i in range(n_clients)
    )
    responses = sum(a.responses for a in client_actors.values())
    late = sum(a.late for a in client_actors.values())
    misses = sum(
        a.deadline_misses
        for a in list(shard_actors.values()) + list(replica_actors.values())
    )
    job.serve_metrics.gauge("serve.duration").set(duration)
    job.serve_metrics.counter("serve.requests").incr(requests)
    return KvResult(
        num_procs=num_procs,
        num_shards=S,
        num_clients=load.num_clients,
        requests=requests,
        responses=responses,
        late_responses=late,
        deadline_misses=misses,
        failovers=job.trace.count("kv.shard_failovers"),
        duration=duration,
        exact=mismatched == 0,
        mismatched_keys=mismatched,
        shard_states=shard_states,
        golden=golden,
    )
