"""Figure 3 & 5 drivers: contiguous get/put latency and latency/byte."""

from __future__ import annotations

from ..armci.config import ArmciConfig
from ..errors import ReproError
from .harness import PAPER_SIZES, rank0, two_proc_job

#: Blocking ops timed (and averaged) per message size.
SAMPLES = 3


def contiguous_latency_sweep(
    sizes: tuple[int, ...] = PAPER_SIZES,
    op: str = "get",
    config: ArmciConfig | None = None,
) -> list[tuple[int, float]]:
    """Blocking inter-node latency per message size (Fig. 3).

    Rank 0 issues blocking ops against rank 1's registered segment;
    caches are warmed before timing. Returns ``(size, seconds)`` rows.
    """
    if op not in ("get", "put"):
        raise ReproError(f"op must be 'get' or 'put', got {op!r}")

    def loop(rt, alloc):
        local = rt.world.space(0).allocate(max(sizes))
        # Warm endpoint, regions, and the remote region cache.
        yield from rt.get(1, local, alloc.addr(1), 16)
        yield from rt.fence(1)
        results = []
        for size in sizes:
            elapsed = 0.0
            for _ in range(SAMPLES):
                t0 = rt.engine.now
                if op == "get":
                    yield from rt.get(1, local, alloc.addr(1), size)
                else:
                    yield from rt.put(1, local, alloc.addr(1), size)
                elapsed += rt.engine.now - t0
                if op == "put":
                    yield from rt.fence(1)  # drain acks, untimed
            results.append((size, elapsed / SAMPLES))
        return results

    return rank0(two_proc_job(config), max(sizes), loop, barrier=False)[0]


def latency_per_byte(sizes: tuple[int, ...] = PAPER_SIZES) -> list[tuple[int, float]]:
    """Effective get latency per byte in ns (Fig. 5) — the
    message-aggregation inflection-point study. ~1 ns/byte beyond 4 KB
    in the paper."""
    rows = contiguous_latency_sweep(sizes)
    return [(size, seconds / size * 1e9) for size, seconds in rows]
