"""Block distributions of dense 2D arrays over a process grid."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from ..errors import GlobalArrayError


def default_process_grid(num_procs: int) -> tuple[int, int]:
    """Near-square process grid (rows x cols) covering ``num_procs``."""
    if num_procs < 1:
        raise GlobalArrayError(f"need >= 1 process, got {num_procs}")
    rows = int(math.sqrt(num_procs))
    while num_procs % rows != 0:
        rows -= 1
    return rows, num_procs // rows


@dataclass(frozen=True)
class Patch:
    """A half-open 2D index range ``[row_lo, row_hi) x [col_lo, col_hi)``."""

    row_lo: int
    row_hi: int
    col_lo: int
    col_hi: int

    def __post_init__(self) -> None:
        if self.row_lo < 0 or self.col_lo < 0:
            raise GlobalArrayError(f"patch indices must be >= 0: {self}")
        if self.row_hi <= self.row_lo or self.col_hi <= self.col_lo:
            raise GlobalArrayError(f"patch must be non-empty: {self}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.row_hi - self.row_lo, self.col_hi - self.col_lo)

    def intersect(self, other: "Patch") -> "Patch | None":
        """Intersection with another patch, or None if disjoint."""
        r0 = max(self.row_lo, other.row_lo)
        r1 = min(self.row_hi, other.row_hi)
        c0 = max(self.col_lo, other.col_lo)
        c1 = min(self.col_hi, other.col_hi)
        if r0 >= r1 or c0 >= c1:
            return None
        return Patch(r0, r1, c0, c1)


def even_bounds(extent: int, nblocks: int) -> list[int]:
    """Boundaries splitting ``extent`` into ``nblocks`` near-even pieces.

    The first ``extent % nblocks`` pieces get one extra element, so every
    piece is non-empty whenever ``nblocks <= extent``. The one split of
    a GA dimension over the process grid and of the SCF basis into task
    blocks.
    """
    base, extra = divmod(extent, nblocks)
    bounds = [0]
    for b in range(nblocks):
        bounds.append(bounds[-1] + base + (1 if b < extra else 0))
    return bounds


def _block_index(bounds: list[int], index: int) -> int:
    """Block containing element ``index`` given ``even_bounds`` output."""
    return bisect_right(bounds, index) - 1


@dataclass(frozen=True)
class BlockDistribution:
    """Block distribution of a ``rows x cols`` array on a process grid.

    Blocks are near-even with remainders spread over the leading blocks
    (GA-style), so every grid slot owns a non-empty block whenever the
    grid fits the array. Ranks map row-major onto the grid.
    """

    rows: int
    cols: int
    grid_rows: int
    grid_cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise GlobalArrayError(
                f"array must be non-empty, got {self.rows}x{self.cols}"
            )
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise GlobalArrayError(
                f"grid must be non-empty, got {self.grid_rows}x{self.grid_cols}"
            )
        if self.grid_rows > self.rows or self.grid_cols > self.cols:
            raise GlobalArrayError(
                f"grid {self.grid_rows}x{self.grid_cols} larger than array "
                f"{self.rows}x{self.cols}"
            )

    @property
    def num_procs(self) -> int:
        return self.grid_rows * self.grid_cols

    # Built once per instance: the distribution is immutable, and the
    # bounds are read on every patch op.
    @cached_property
    def _row_bounds(self) -> list[int]:
        return even_bounds(self.rows, self.grid_rows)

    @cached_property
    def _col_bounds(self) -> list[int]:
        return even_bounds(self.cols, self.grid_cols)

    @property
    def block_rows(self) -> int:
        """Maximum rows in any block (the first block's: leading blocks
        take the remainder)."""
        return self._row_bounds[1]

    @property
    def block_cols(self) -> int:
        """Maximum cols in any block."""
        return self._col_bounds[1]

    def grid_coord(self, rank: int) -> tuple[int, int]:
        """Grid position of ``rank`` (row-major)."""
        if not 0 <= rank < self.num_procs:
            raise GlobalArrayError(
                f"rank {rank} outside grid of {self.num_procs}"
            )
        return divmod(rank, self.grid_cols)

    def owner_block(self, rank: int) -> Patch:
        """The (always non-empty) index patch owned by ``rank``."""
        pi, pj = self.grid_coord(rank)
        rb, cb = self._row_bounds, self._col_bounds
        return Patch(rb[pi], rb[pi + 1], cb[pj], cb[pj + 1])

    def owners_of_patch(self, patch: Patch) -> Iterator[tuple[int, Patch]]:
        """All ``(rank, sub_patch)`` pairs covering ``patch``."""
        if patch.row_hi > self.rows or patch.col_hi > self.cols:
            raise GlobalArrayError(
                f"patch {patch} exceeds array {self.rows}x{self.cols}"
            )
        rb, cb = self._row_bounds, self._col_bounds
        pi_lo = _block_index(rb, patch.row_lo)
        pi_hi = _block_index(rb, patch.row_hi - 1)
        pj_lo = _block_index(cb, patch.col_lo)
        pj_hi = _block_index(cb, patch.col_hi - 1)
        for pi in range(pi_lo, pi_hi + 1):
            for pj in range(pj_lo, pj_hi + 1):
                rank = pi * self.grid_cols + pj
                sub = self.owner_block(rank).intersect(patch)
                if sub is not None:
                    yield rank, sub
