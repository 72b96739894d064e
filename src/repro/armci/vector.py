"""General I/O-vector datatype (ARMCI_PutV / ARMCI_GetV).

ARMCI's third datatype class (Section II-B): an explicit list of
(source address, destination address, length) segments, used when the
transfer pattern has no uniform stride. The paper notes strided
descriptors cost far less metadata *when applicable*; the vector
interface is the general fall-back.

The protocols of :mod:`~repro.armci.transfer` apply as for a strided
patch: one non-blocking RDMA per segment run when regions are available
(or one typed transfer for an aggregated batch), a packed active message
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ArmciError
from ..pami.memory import as_u8
from ..types import coalesce
from .transfer import Transfer

_COUNTERS = {
    "put_rdma": "armci.putv_zero_copy",
    "get_rdma": "armci.getv_zero_copy",
    "put_typed": "armci.putv_typed",
    "put_am": "armci.putv_pack",
    "get_am": "armci.getv_pack",
    "runs": "armci.vector_rdma_ops",
    "merged": "armci.vector_segments_coalesced",
}


@dataclass(frozen=True)
class IoVector:
    """One I/O-vector: parallel lists of segment addresses and lengths."""

    local_addrs: tuple[int, ...]
    remote_addrs: tuple[int, ...]
    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.lengths)
        if n == 0:
            raise ArmciError("I/O vector must have at least one segment")
        if len(self.local_addrs) != n or len(self.remote_addrs) != n:
            raise ArmciError(
                f"I/O vector arity mismatch: {len(self.local_addrs)} local, "
                f"{len(self.remote_addrs)} remote, {n} lengths"
            )
        if any(length <= 0 for length in self.lengths):
            raise ArmciError(f"segment lengths must be positive: {self.lengths}")

    @property
    def total_bytes(self) -> int:
        """Total payload across all segments."""
        return sum(self.lengths)

    @property
    def num_segments(self) -> int:
        return len(self.lengths)

    def metadata_bytes(self) -> int:
        """Descriptor size: 3 words per segment (vs 2 ints + strides for
        the uniformly-strided descriptor — the paper's 'very little
        memory' comparison)."""
        return 24 * self.num_segments

    def remote_extent(self) -> tuple[int, int]:
        """(min address, bytes) covering all remote segments."""
        lo = min(self.remote_addrs)
        hi = max(a + n for a, n in zip(self.remote_addrs, self.lengths))
        return lo, hi - lo

    def coalesced_segments(self) -> list[tuple[int, int, int]]:
        """Merge segments adjacent on *both* sides into maximal runs
        (:func:`~repro.types.coalesce` in posting order). Returns
        ``(local_addr, remote_addr, nbytes)`` triples; a vector of
        back-to-back segments collapses to one RDMA.
        """
        return coalesce(zip(self.local_addrs, self.remote_addrs, self.lengths))


def _gather_segments(space, addrs, lengths, total: int) -> np.ndarray:
    """Pack segments into one private staging buffer via view-assigns."""
    out = np.empty(total, dtype=np.uint8)
    offset = 0
    for addr, length in zip(addrs, lengths):
        out[offset : offset + length] = space.view(addr, length)
        offset += length
    return out


def _scatter_segments(space, addrs, lengths, data) -> None:
    """Unpack a contiguous buffer into segments, one view-assign each."""
    buf = as_u8(data)
    offset = 0
    for addr, length in zip(addrs, lengths):
        space.write_into(addr, buf[offset : offset + length])
        offset += length


class SegmentLayout:
    """One side of an I/O-vector transfer, as the RDMA primitives'
    layout (the NIC walks the segment list; the wire carries it packed)."""

    __slots__ = ("addrs", "lengths", "total")

    def __init__(self, addrs, lengths, total: int) -> None:
        self.addrs = addrs
        self.lengths = lengths
        self.total = total

    def gather(self, space) -> np.ndarray:
        return _gather_segments(space, self.addrs, self.lengths, self.total)

    def scatter(self, space, data) -> None:
        _scatter_segments(space, self.addrs, self.lengths, data)


def vector_transfer(vec: IoVector) -> Transfer:
    """Describe an I/O-vector transfer: a segment list on each side."""
    total = vec.total_bytes

    def runs(config) -> list[tuple[int, int, int]]:
        if config.strided_protocol == "auto":
            return vec.coalesced_segments()
        return list(zip(vec.local_addrs, vec.remote_addrs, vec.lengths))

    return Transfer(
        SegmentLayout(vec.local_addrs, vec.lengths, total),
        SegmentLayout(vec.remote_addrs, vec.lengths, total),
        total, runs, vec.num_segments, vec.remote_extent(),
        vec.local_addrs, 0.0, _COUNTERS,
    )
