"""Figure 7 driver: get latency as a function of process rank.

2048 processes (128 nodes at 16/node, the 2*2*4*4*2 partition of Eq. 10,
ABCDET-mapped): rank 0 issues a small get to every other rank. The
pseudo-oscillatory curve is pure torus geometry — clusters of ranks at
equal network distance from rank 0 see equal latency, and each hop adds
~35 ns each way.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..armci.config import ArmciConfig
from ..armci.runtime import ArmciJob
from .harness import rank0


@dataclass(frozen=True)
class RankLatency:
    """Latency of a small get from rank 0 to ``rank``."""

    rank: int
    hops: int
    seconds: float


def rank_latency_scan(
    num_procs: int = 2048, procs_per_node: int = 16
) -> list[RankLatency]:
    """Measure 16 B get latency from rank 0 to ranks 1..p-1 (Fig. 7)."""

    def loop(rt, alloc):
        local = rt.world.space(0).allocate(64)
        results = []
        for dst in range(1, num_procs):
            # Warm the endpoint + region cache for this destination,
            # then time one get (the paper's steady-state number).
            yield from rt.get(dst, local, alloc.addr(dst), 16)
            t0 = rt.engine.now
            yield from rt.get(dst, local, alloc.addr(dst), 16)
            results.append(
                RankLatency(dst, rt.world.network.hops(0, dst), rt.engine.now - t0)
            )
        return results

    job = ArmciJob(num_procs, config=ArmciConfig(), procs_per_node=procs_per_node)
    return rank0(job, 64, loop, barrier=False)[0]


def hop_latency_estimate(results: list[RankLatency]) -> float:
    """Per-hop one-way latency from the scan (the paper derives 35 ns).

    (max - min latency) / (hop spread * 2 for the round trip).
    """
    internode = [r for r in results if r.hops > 0]
    lo = min(internode, key=lambda r: r.seconds)
    hi = max(internode, key=lambda r: r.seconds)
    hop_spread = hi.hops - lo.hops
    if hop_spread == 0:
        raise ValueError("all destinations at equal distance; need a bigger job")
    return (hi.seconds - lo.seconds) / (hop_spread * 2)
