"""Figure 9 driver: fetch-and-add latency on a shared counter.

The micro-kernel of NWChem's load balancing: every rank repeatedly
fetch-and-adds a counter resident at rank 0, with four configurations —
default (D) vs asynchronous thread (AT), each with and without rank 0
performing ~300 us computation chunks. The what-if fifth configuration
models NIC-hardware AMOs (the Gemini-style support the paper's
conclusion requests for future Blue Gene hardware).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..armci.config import ArmciConfig
from ..armci.runtime import ArmciJob
from ..errors import ReproError
from ..gax.counter import SharedCounter

#: Rank 0's per-chunk computation time in the "with compute" variants.
COMPUTE_CHUNK = 300e-6


@dataclass(frozen=True)
class AmoResult:
    """Average fetch-and-add latency for one (p, configuration) cell."""

    num_procs: int
    label: str
    mean_latency: float
    max_latency: float


def _config_for(label: str) -> tuple[ArmciConfig, bool, bool]:
    """(armci config, rank0 computes, hardware AMO) per curve label."""
    table = {
        "D": (ArmciConfig.default_mode(), False, False),
        "AT": (ArmciConfig.async_thread_mode(), False, False),
        "D+compute": (ArmciConfig.default_mode(), True, False),
        "AT+compute": (ArmciConfig.async_thread_mode(), True, False),
        "HW+compute": (ArmciConfig.default_mode(), True, True),
    }
    if label not in table:
        raise ReproError(f"unknown AMO config {label!r}; valid: {sorted(table)}")
    return table[label]


def amo_latency_run(
    num_procs: int,
    label: str,
    iterations: int = 8,
    procs_per_node: int = 16,
) -> AmoResult:
    """One cell of Fig. 9: mean fetch-and-add latency seen by ranks 1..p-1."""
    config, rank0_computes, hardware = _config_for(label)
    job = ArmciJob(
        num_procs,
        config=config,
        procs_per_node=min(procs_per_node, num_procs),
        nic_amo_support=hardware,
    )
    job.init()
    latencies: list[float] = []
    # Rank 0 stops computing once every requester is done.
    done = {"count": 0}
    requesters = num_procs - 1

    def body(rt):
        counter = yield from SharedCounter.create(rt, host=0)
        yield from rt.barrier()
        if rt.rank == 0:
            if rank0_computes:
                while done["count"] < requesters:
                    yield from rt.compute(COMPUTE_CHUNK)
                    yield from rt.progress()
            yield from rt.barrier()
            return
        for _ in range(iterations):
            t0 = rt.engine.now
            yield from counter.next(rt)
            latencies.append(rt.engine.now - t0)
        done["count"] += 1
        yield from rt.barrier()

    job.run(body)
    if len(latencies) != requesters * iterations:
        raise ReproError(
            f"lost AMO samples: {len(latencies)} != {requesters * iterations}"
        )
    return AmoResult(
        num_procs,
        label,
        mean_latency=sum(latencies) / len(latencies),
        max_latency=max(latencies),
    )

