"""Block-distributed dense float64 global arrays.

Patch operations decompose into per-owner ARMCI strided transfers: the
rows of a sub-patch are uniform contiguous chunks in the owner's
row-major block, exactly the uniformly non-contiguous datatype the
paper's strided protocols target (Section III-C.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

import numpy as np

from ..errors import GlobalArrayError
from ..types import StridedDescriptor, StridedShape
from .distribution import BlockDistribution, Patch, default_process_grid

if TYPE_CHECKING:  # pragma: no cover
    from ..armci.aggregate import Scratch
    from ..armci.runtime import Allocation, ArmciProcess

_F64 = 8  # bytes per element


class GlobalArray:
    """One rank's view of a collectively created global 2D array.

    Create with :meth:`create` from inside a simulated process::

        ga = yield from GlobalArray.create(rt, (n, n))
        block = yield from ga.get(rt, Patch(0, 16, 0, 16))
        yield from ga.acc(rt, patch, contribution)
    """

    def __init__(
        self, dist: BlockDistribution, alloc: "Allocation", name: str
    ) -> None:
        self.dist = dist
        self.alloc = alloc
        self.name = name

    # ------------------------------------------------------------ create

    @classmethod
    def create(
        cls,
        rt: "ArmciProcess",
        shape: tuple[int, int],
        name: str = "ga",
    ) -> Generator[Any, Any, "GlobalArray"]:
        """Collective creation (all ranks must call with equal arguments),
        blocked over the near-square process grid of the job."""
        rows, cols = shape
        dist = BlockDistribution(rows, cols, *default_process_grid(rt.world.num_procs))
        block_bytes = dist.block_rows * dist.block_cols * _F64
        alloc = yield from rt.malloc(block_bytes)
        rt.trace.incr("gax.arrays_created")
        return cls(dist, alloc, name)

    # ----------------------------------------------------------- helpers

    def _owner_layout(self, rank: int, sub: Patch) -> tuple[int, StridedShape, int]:
        """(remote base addr, strided shape, remote row stride) of ``sub``
        inside ``rank``'s block."""
        block = self.dist.owner_block(rank)
        block_cols = block.col_hi - block.col_lo
        row_off = sub.row_lo - block.row_lo
        col_off = sub.col_lo - block.col_lo
        base = self.alloc.addr(rank) + (row_off * block_cols + col_off) * _F64
        nrows, ncols = sub.shape
        shape = (
            StridedShape(ncols * _F64, (nrows,))
            if nrows > 1
            else StridedShape(ncols * _F64)
        )
        return base, shape, block_cols * _F64

    def _descriptor(
        self, shape: StridedShape, local_stride: int, remote_stride: int
    ) -> StridedDescriptor:
        if not shape.counts:
            return StridedDescriptor(shape, (), ())
        return StridedDescriptor(shape, (local_stride,), (remote_stride,))

    def _scratch(self, rt: "ArmciProcess") -> "Scratch":
        """The rank's patch-staging buffer, shared by every array."""
        scratch = getattr(rt, "_gax_scratch", None)
        if scratch is None:
            # Imported here: ``import repro.gax`` loads no armci module.
            from ..armci.aggregate import Scratch

            scratch = rt._gax_scratch = Scratch(4096)
        return scratch

    def _windows(self, rt: "ArmciProcess", patch: Patch, values: np.ndarray):
        """Stage ``patch`` owner by owner — the one per-owner loop of
        every patch op, whatever it moves.

        ``values`` is the ``patch``-shaped local array. Yields, per
        owner's sub-patch, ``(rank, local, base, shape, remote_stride,
        window)``: the ``window`` of ``values`` it covers, the scratch
        buffer at ``local`` that stages it, and where it sits in the
        owner's block. A patch past the array's edge raises from
        ``owners_of_patch``.
        """
        if values.shape != patch.shape:
            raise GlobalArrayError(
                f"values shape {values.shape} != patch shape {patch.shape}"
            )
        scratch = self._scratch(rt)
        for rank, sub in self.dist.owners_of_patch(patch):
            base, shape, remote_stride = self._owner_layout(rank, sub)
            window = values[
                sub.row_lo - patch.row_lo : sub.row_hi - patch.row_lo,
                sub.col_lo - patch.col_lo : sub.col_hi - patch.col_lo,
            ]
            yield rank, scratch.reserve(rt, window.nbytes), base, shape, remote_stride, window

    # --------------------------------------------------------------- ops

    def get(
        self, rt: "ArmciProcess", patch: Patch
    ) -> Generator[Any, Any, np.ndarray]:
        """Blocking one-sided read of ``patch`` into a numpy array."""
        out = np.empty(patch.shape, dtype=np.float64)
        space = rt.world.space(rt.rank)
        for rank, local, base, shape, stride, window in self._windows(rt, patch, out):
            desc = self._descriptor(shape, window.shape[1] * _F64, stride)
            yield from rt.gets(rank, local, base, desc)
            window[:] = space.read_f64(local, window.size).reshape(window.shape)
        rt.trace.incr("gax.gets")
        return out

    def put(
        self, rt: "ArmciProcess", patch: Patch, values: np.ndarray
    ) -> Generator[Any, Any, None]:
        """Blocking one-sided write of ``values`` into ``patch``."""
        values = np.ascontiguousarray(values, dtype=np.float64)
        space = rt.world.space(rt.rank)
        for rank, local, base, shape, stride, window in self._windows(rt, patch, values):
            space.write_f64(local, window)
            desc = self._descriptor(shape, window.shape[1] * _F64, stride)
            yield from rt.puts(rank, local, base, desc)
        rt.trace.incr("gax.puts")

    def acc(
        self,
        rt: "ArmciProcess",
        patch: Patch,
        values: np.ndarray,
    ) -> Generator[Any, Any, None]:
        """Blocking atomic accumulate ``A[patch] += values``.

        Row-by-row ARMCI accumulates (each row of the sub-patch is
        contiguous at the owner).
        """
        values = np.ascontiguousarray(values, dtype=np.float64)
        space = rt.world.space(rt.rank)
        for rank, local, base, _shape, stride, window in self._windows(rt, patch, values):
            space.write_f64(local, window)
            srows, scols = window.shape
            for r in range(srows):
                yield from rt.acc(
                    rank, local + r * scols * _F64, base + r * stride, scols * _F64
                )
        rt.trace.incr("gax.accs")

    # ------------------------------------------------- collective algebra

    def dot(
        self, rt: "ArmciProcess", other: "GlobalArray"
    ) -> Generator[Any, Any, float]:
        """Collective element-wise dot product ``sum(A * B)``.

        Both arrays must share a distribution; each rank reduces its own
        block locally, then the hardware collective network combines.
        """
        if other.dist != self.dist:
            raise GlobalArrayError(
                f"dot requires identical distributions: {self.dist} vs "
                f"{other.dist}"
            )
        local = float(
            (self.local_block(rt) * other.local_block(rt)).sum()
        )
        # Local reduction cost: one multiply-add per element.
        nrows, ncols = self.dist.owner_block(rt.rank).shape
        yield from rt.compute(nrows * ncols * rt.world.params.acc_flop_time)
        result = yield from rt.allreduce(local)
        rt.trace.incr("gax.dots")
        return result

    # ------------------------------------------------------- local views

    def local_block(self, rt: "ArmciProcess") -> np.ndarray:
        """Writable view of this rank's own block (no communication)."""
        block = self.dist.owner_block(rt.rank)
        nrows, ncols = block.shape
        view = rt.world.space(rt.rank).view(
            self.alloc.addr(rt.rank), nrows * ncols * _F64
        )
        return view.view(np.float64).reshape(nrows, ncols)

    def fill(self, rt: "ArmciProcess", value: float) -> None:
        """Set this rank's block to ``value`` (local, collective by usage)."""
        self.local_block(rt)[:] = value

    def to_numpy(self, rt: "ArmciProcess") -> Generator[Any, Any, np.ndarray]:
        """Gather the whole array (test/verification helper)."""
        full = Patch(0, self.dist.rows, 0, self.dist.cols)
        return (yield from self.get(rt, full))
