"""Figure 8 driver: strided bandwidth vs contiguous-chunk size.

Transfers a fixed 1 MB patch whose contiguous chunk size l0 sweeps from
small to the full megabyte; the proposed zero-copy protocol posts one
non-blocking RDMA per chunk, so measured bandwidth tracks the Fig. 4
contiguous curve as l0 grows (Eq. 9 in action).
"""

from __future__ import annotations

from ..armci.config import ArmciConfig
from ..errors import ReproError
from ..types import StridedDescriptor, StridedShape
from ..util.units import MB, mbps
from .harness import rank0, two_proc_job

#: Chunk sizes from 512 B to the full 1 MB (powers of two).
DEFAULT_CHUNKS: tuple[int, ...] = tuple(2**k for k in range(9, 21))


def strided_bandwidth_sweep(
    total_bytes: int = MB,
    chunk_sizes: tuple[int, ...] = DEFAULT_CHUNKS,
    op: str = "put",
    config: ArmciConfig | None = None,
) -> list[tuple[int, float]]:
    """Strided transfer bandwidth per chunk size l0 (Fig. 8).

    Returns ``(l0, MB/s)`` rows for a ``total_bytes`` patch.
    """
    if op not in ("get", "put"):
        raise ReproError(f"op must be 'get' or 'put', got {op!r}")
    for l0 in chunk_sizes:
        if total_bytes % l0 != 0:
            raise ReproError(f"chunk {l0} does not divide total {total_bytes}")

    def loop(rt, alloc):
        local = rt.world.space(0).allocate(total_bytes)
        yield from rt.get(1, local, alloc.addr(1), 16)  # warm caches
        yield from rt.fence(1)
        results = []
        for l0 in chunk_sizes:
            nchunks = total_bytes // l0
            desc = StridedDescriptor(
                StridedShape(l0, (nchunks,) if nchunks > 1 else ()),
                (l0,) if nchunks > 1 else (),
                (l0,) if nchunks > 1 else (),
            )
            t0 = rt.engine.now
            if op == "put":
                yield from rt.puts(1, local, alloc.addr(1), desc)
            else:
                yield from rt.gets(1, local, alloc.addr(1), desc)
            elapsed = rt.engine.now - t0
            results.append((l0, mbps(total_bytes, elapsed)))
            if op == "put":
                yield from rt.fence(1)
        return results

    return rank0(two_proc_job(config), total_bytes, loop, barrier=False)[0]
