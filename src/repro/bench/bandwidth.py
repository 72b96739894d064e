"""Figure 4 & 6 drivers: windowed bandwidth and bandwidth efficiency."""

from __future__ import annotations

from ..armci.config import ArmciConfig
from ..errors import ReproError
from ..util.units import mbps
from .harness import PAPER_SIZES, rank0, two_proc_job

#: The available peak the Fig. 6 efficiency is a fraction of (B/s).
PEAK_BANDWIDTH = 1.8e9


def bandwidth_sweep(
    sizes: tuple[int, ...] = PAPER_SIZES,
    op: str = "put",
    config: ArmciConfig | None = None,
    window: int = 32,
) -> list[tuple[int, float]]:
    """Pipelined inter-node bandwidth per message size (Fig. 4).

    Rank 0 posts ``window`` non-blocking operations per size, waits for
    local completion, and reports payload MB/s. Returns ``(size, MB/s)``.
    """
    if op not in ("get", "put"):
        raise ReproError(f"op must be 'get' or 'put', got {op!r}")

    def loop(rt, alloc):
        local = rt.world.space(0).allocate(max(sizes))
        yield from rt.get(1, local, alloc.addr(1), 16)  # warm caches
        yield from rt.fence(1)
        results = []
        for size in sizes:
            t0 = rt.engine.now
            for _ in range(window):
                if op == "put":
                    yield from rt.nbput(1, local, alloc.addr(1), size)
                else:
                    yield from rt.nbget(1, local, alloc.addr(1), size)
            yield from rt.wait_all()
            elapsed = rt.engine.now - t0
            results.append((size, mbps(window * size, elapsed)))
            if op == "put":
                yield from rt.fence(1)
        return results

    return rank0(two_proc_job(config), max(sizes), loop, barrier=False)[0]


def efficiency_series(
    sizes: tuple[int, ...] = PAPER_SIZES,
) -> list[tuple[int, float]]:
    """Put bandwidth efficiency vs the 1.8 GB/s available peak (Fig. 6).

    The paper reads N1/2 = 2 KB and >= 90% efficiency beyond 16 KB off
    this curve.
    """
    rows = bandwidth_sweep(sizes)
    peak_mbps = PEAK_BANDWIDTH / 1e6
    return [(size, bw / peak_mbps) for size, bw in rows]


def n_half(
    efficiency: list[tuple[int, float]],
) -> int:
    """Smallest measured message size reaching half of peak bandwidth.

    Raises
    ------
    ReproError
        If no size in the series reaches 50% efficiency.
    """
    for size, eff in sorted(efficiency):
        if eff >= 0.5:
            return size
    raise ReproError("no message size reached 50% of peak bandwidth")
