"""``repro.serve`` — selector/actor layer + serving workloads on ARMCI.

Layer 1 (:mod:`~repro.serve.actor`, :mod:`~repro.serve.mailbox`,
:mod:`~repro.serve.termination`): actors with guarded multi-inbox
selector semantics, per-sender remote-accumulate ring mailboxes with
automatic sender-side aggregation, and four-counter wave termination
detection — the production-traffic layer the paper's PGAS subsystem
exists to carry.

Layer 2 (:mod:`~repro.serve.clients`, :mod:`~repro.serve.kv`): a
hash-sharded KV-store / parameter-server scenario driven by an
open-loop Zipf/bursty client population (millions of simulated clients
multiplexed onto client ranks), with per-request deadlines, dual-write
replication, client-driven failover, and exact golden-model auditing.

Nothing here is constructed by default: a job that never touches
``repro.serve`` runs byte-identical to one built before the package
existed.
"""

from .actor import Actor, ActorSystem
from .clients import (
    ClientLoadConfig,
    generate_requests,
    golden_state,
    requests_to_records,
    shard_of,
)
from .kv import KvClientActor, KvConfig, KvResult, KvShardActor, run_kv
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
    Mailbox,
    SLOT_DTYPE,
)
from .termination import FourCounterTermination

__all__ = [
    "Actor",
    "ActorSystem",
    "ClientLoadConfig",
    "FLAG_LATE",
    "FLAG_REPLICA",
    "FLAG_RESPOND",
    "FourCounterTermination",
    "InboxSpec",
    "KIND_ACC",
    "KIND_CTL_PAUSE",
    "KIND_CTL_RESUME",
    "KIND_GET",
    "KIND_PUT",
    "KvClientActor",
    "KvConfig",
    "KvResult",
    "KvShardActor",
    "Mailbox",
    "RESPONSE_BIAS",
    "SLOT_DTYPE",
    "generate_requests",
    "golden_state",
    "requests_to_records",
    "run_kv",
    "shard_of",
]
