"""Shared small value types used across layers.

These are deliberately tiny, immutable records: ranks, byte extents, and the
strided-transfer descriptor ARMCI uses for uniformly non-contiguous data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArmciError

#: Type alias for a process rank.
Rank = int


@dataclass(frozen=True)
class StridedShape:
    """Shape of a uniformly non-contiguous (strided) transfer.

    ARMCI describes an ``s``-dimensional patch by the size of the contiguous
    chunk (``l0`` bytes, the innermost dimension) and per-dimension counts
    for the outer dimensions, matching the paper's ``m = prod(l_i)`` with
    ``l_0`` the contiguous chunk size (Section III-C.2).

    Parameters
    ----------
    chunk_bytes:
        Size in bytes of each contiguous chunk (``l_0``).
    counts:
        Number of chunks along each outer dimension, innermost-first.
        An empty tuple denotes a plain contiguous transfer.
    """

    chunk_bytes: int
    counts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.chunk_bytes <= 0:
            raise ArmciError(f"chunk_bytes must be positive, got {self.chunk_bytes}")
        if any(c <= 0 for c in self.counts):
            raise ArmciError(f"all chunk counts must be positive, got {self.counts}")

    @property
    def num_chunks(self) -> int:
        """Total number of contiguous chunks (``m / l_0``)."""
        return math.prod(self.counts) if self.counts else 1

    @property
    def total_bytes(self) -> int:
        """Total message size ``m`` in bytes."""
        return self.chunk_bytes * self.num_chunks


@dataclass(frozen=True)
class StridedDescriptor:
    """Full strided-transfer descriptor: shape plus per-side strides.

    ``src_strides``/``dst_strides`` give the byte distance between the start
    of consecutive chunks along each outer dimension (innermost-first), in
    the source and destination address spaces respectively.
    """

    shape: StridedShape
    src_strides: tuple[int, ...]
    dst_strides: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.shape.counts)
        if len(self.src_strides) != n or len(self.dst_strides) != n:
            raise ArmciError(
                "stride arity mismatch: shape has "
                f"{n} outer dims, strides are {self.src_strides}/{self.dst_strides}"
            )
        for strides in (self.src_strides, self.dst_strides):
            if any(s <= 0 for s in strides):
                raise ArmciError(f"strides must be positive, got {strides}")
            if strides and strides[0] < self.shape.chunk_bytes:
                # Innermost stride must at least cover a chunk, otherwise
                # chunks overlap and the transfer is ill-formed.
                raise ArmciError(
                    f"innermost stride {strides[0]} smaller than chunk "
                    f"{self.shape.chunk_bytes}"
                )

    def metadata_bytes(self) -> int:
        """Descriptor size: one word for the chunk, three per outer dim.

        The paper's Section III-C.2 point: a uniformly-strided patch needs
        "very little memory" compared to the general I/O vector, whose
        metadata grows with the *chunk count* (3 words per segment).
        """
        return 8 * (1 + 3 * len(self.shape.counts))

    def chunk_offsets(self, side: str) -> list[int]:
        """Byte offsets of every chunk, in deterministic row-major order.

        Parameters
        ----------
        side:
            ``"src"`` or ``"dst"``.
        """
        strides = self.src_strides if side == "src" else self.dst_strides
        offsets = [0]
        # Build the offset lattice dimension by dimension (innermost first).
        for count, stride in zip(self.shape.counts, strides):
            offsets = [base + i * stride for i in range(count) for base in offsets]
        return offsets

    def coalesced_runs(self) -> list[tuple[int, int, int]]:
        """Merge chunks contiguous on *both* sides into maximal runs
        (:func:`coalesce` over the chunk lattice in posting order).

        Returns ``(src_offset, dst_offset, nbytes)`` triples; a fully
        contiguous descriptor (``stride == chunk_bytes`` on both sides)
        collapses to a single run, so the transfer becomes one RDMA
        instead of ``m / l0`` ops (the DART-style blocked-strided
        optimization).
        """
        chunk = self.shape.chunk_bytes
        offsets = zip(self.chunk_offsets("src"), self.chunk_offsets("dst"))
        return coalesce((src_off, dst_off, chunk) for src_off, dst_off in offsets)


def coalesce(pieces) -> list[tuple[int, int, int]]:
    """Merge two-sided ``(a, b, nbytes)`` pieces into maximal runs.

    Walks ``pieces`` in posting order and extends the current run
    whenever the next piece starts exactly where the run ends on side
    ``a`` *and* side ``b`` (a one-sided gap forces a break — the NIC
    cannot fold it into one op). The one merger of the strided and the
    I/O-vector transfers.
    """
    runs: list[list[int]] = []
    for a, b, nbytes in pieces:
        if (
            runs
            and runs[-1][0] + runs[-1][2] == a
            and runs[-1][1] + runs[-1][2] == b
        ):
            runs[-1][2] += nbytes
        else:
            runs.append([a, b, nbytes])
    return [(a, b, n) for a, b, n in runs]
