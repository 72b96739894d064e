"""Fock-build task decomposition and cost model.

The two-electron contribution to the Fock matrix is decomposed over
basis-function block pairs ``(i_blk, j_blk)``; each task contracts the
density patch with the integrals of its block pair. Task costs vary with
the integral screening of the block pair — modeled as a deterministic
pseudo-random factor so runs are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import ReproError


@dataclass(frozen=True)
class FockTask:
    """One Fock-build task.

    Attributes
    ----------
    task_id:
        Position in the global task order (matches counter draws).
    i_blk, j_blk:
        Basis-function block pair.
    row_lo, row_hi, col_lo, col_hi:
        The block pair's index patch in the nbf x nbf matrices.
    cost:
        Simulated compute seconds for this task's integrals.
    """

    task_id: int
    i_blk: int
    j_blk: int
    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int
    cost: float


def _block_ranges(nbf: int, nblocks: int) -> list[tuple[int, int]]:
    """Split ``nbf`` functions into ``nblocks`` near-even ranges."""
    base, extra = divmod(nbf, nblocks)
    ranges = []
    lo = 0
    for b in range(nblocks):
        hi = lo + base + (1 if b < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _cost_factor(i: int, j: int) -> float:
    """Deterministic per-task cost variation in [0.7, 1.3].

    Stands in for integral screening: off-diagonal distant block pairs
    are cheaper. A splitmix-style integer hash keeps it reproducible
    without touching any global RNG.
    """
    x = (i * 0x9E3779B9 + j * 0x85EBCA6B + 0xC2B2AE35) & 0xFFFFFFFF
    x ^= x >> 16
    x = (x * 0x45D9F3B) & 0xFFFFFFFF
    x ^= x >> 16
    return 0.7 + 0.6 * (x / 0xFFFFFFFF)


def fock_task_list(nbf: int, nblocks: int, base_task_time: float) -> list[FockTask]:
    """All Fock-build tasks for one SCF iteration: the full square of
    ``nblocks**2`` block pairs, as NWChem keeps it for small dense
    systems. Task ids are dense (0..n-1) so counter draws map directly.

    Raises
    ------
    ReproError
        On invalid sizes.
    """
    if nbf < 1:
        raise ReproError(f"nbf must be >= 1, got {nbf}")
    if not 1 <= nblocks <= nbf:
        raise ReproError(
            f"nblocks must be in [1, nbf]: got {nblocks} for nbf={nbf}"
        )
    if base_task_time <= 0:
        raise ReproError(
            f"base_task_time must be positive, got {base_task_time}"
        )
    ranges = _block_ranges(nbf, nblocks)
    tasks = []
    task_id = 0
    for i, (r0, r1) in enumerate(ranges):
        for j, (c0, c1) in enumerate(ranges):
            size_factor = ((r1 - r0) * (c1 - c0)) / (
                (nbf / nblocks) * (nbf / nblocks)
            )
            cost = base_task_time * size_factor * _cost_factor(i, j)
            tasks.append(FockTask(task_id, i, j, r0, r1, c0, c1, cost))
            task_id += 1
    return tasks
