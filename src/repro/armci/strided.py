"""Uniformly non-contiguous (strided) datatype (Section III-C.2).

A strided transfer is a chunk lattice on each side
(:class:`StridedLayout`) and one run per chunk. Which protocol of
:mod:`~repro.armci.transfer` moves it is a configuration and shape
choice (:func:`select_strided_protocol`):

- **zero_copy** (proposed): one non-blocking RDMA per contiguous chunk,
  exploiting the network's messaging rate — Eq. 9.
- **pack** (legacy baseline): pack chunks into a contiguous bounce
  buffer, ship one active message, unpack in the target's progress
  engine. Requires remote progress and double-copies every byte.
- **typed** (for tall-skinny patches under ``strided_protocol="auto"``):
  a single PAMI typed-datatype transfer whose NIC walks the chunk list.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ArmciError
from ..machine.bgq import BGQParams
from ..pami.memory import as_u8
from ..types import StridedDescriptor
from .transfer import Transfer

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess

_COUNTERS = {
    "put_rdma": "armci.puts_strided_zero_copy",
    "get_rdma": "armci.gets_strided_zero_copy",
    "put_typed": "armci.puts_strided_typed",
    "get_typed": "armci.gets_strided_typed",
    "put_am": "armci.puts_strided_pack",
    "get_am": "armci.gets_strided_pack",
    "runs": "armci.strided_rdma_ops",
    "merged": "armci.strided_chunks_coalesced",
}


def _gather(space, base: int, desc: StridedDescriptor, side: str) -> np.ndarray:
    """Pack all chunks of one side into one private contiguous buffer.

    Staging buffer is allocated once and filled by view-assigns — no
    per-chunk ``bytes`` objects, no ``b"".join`` reallocation.
    """
    chunk = desc.shape.chunk_bytes
    out = np.empty(desc.shape.total_bytes, dtype=np.uint8)
    pos = 0
    for off in desc.chunk_offsets(side):
        out[pos : pos + chunk] = space.view(base + off, chunk)
        pos += chunk
    return out


def _scatter(space, base: int, desc: StridedDescriptor, side: str, data) -> None:
    """Unpack a contiguous buffer into the chunk lattice of one side.

    ``data`` may be bytes or a uint8 ndarray; each chunk lands via a
    single view-assign from a zero-copy slice of the packed buffer.
    """
    chunk = desc.shape.chunk_bytes
    buf = as_u8(data)
    for i, off in enumerate(desc.chunk_offsets(side)):
        space.write_into(base + off, buf[i * chunk : (i + 1) * chunk])


class StridedLayout:
    """One side of a strided transfer, as the RDMA primitives' layout
    (the NIC walks the chunk lattice; the wire carries it packed)."""

    __slots__ = ("base", "desc", "side")

    def __init__(self, base: int, desc: StridedDescriptor, side: str) -> None:
        self.base = base
        self.desc = desc
        self.side = side

    def gather(self, space) -> np.ndarray:
        return _gather(space, self.base, self.desc, self.side)

    def scatter(self, space, data) -> None:
        _scatter(space, self.base, self.desc, self.side, data)


def strided_transfer(
    params: BGQParams, local_base: int, remote_base: int, desc: StridedDescriptor
) -> Transfer:
    """Describe a strided transfer: a chunk lattice on each side."""
    shape = desc.shape
    chunk = shape.chunk_bytes
    total = shape.total_bytes

    def runs(config) -> list[tuple[int, int, int]]:
        if config.coalesce_effective:
            return [
                (local_base + s, remote_base + d, n)
                for s, d, n in desc.coalesced_runs()
            ]
        return [
            (local_base + s, remote_base + d, chunk)
            for s, d in zip(desc.chunk_offsets("src"), desc.chunk_offsets("dst"))
        ]

    # Strides are positive, so the last chunk of the lattice is the
    # farthest one.
    last = sum((c - 1) * s for c, s in zip(shape.counts, desc.dst_strides))
    return Transfer(
        StridedLayout(local_base, desc, "src"),
        StridedLayout(remote_base, desc, "dst"),
        total, runs, shape.num_chunks, (remote_base, last + chunk),
        (local_base,), total * params.pack_byte_time, _COUNTERS,
    )


# -------------------------------------------------------------- selection


def select_strided_protocol(rt: "ArmciProcess", desc: StridedDescriptor) -> str:
    """Pick the protocol per config and patch shape.

    ``auto`` uses the typed path for tall-skinny patches (many chunks,
    each below the threshold), matching the paper's remedy for
    ``T_strided``'s inverse dependence on l0.
    """
    mode = rt.config.strided_protocol
    if mode == "pack":
        return "pack"
    if mode == "auto":
        if (
            desc.shape.num_chunks > 1
            and desc.shape.chunk_bytes < rt.config.tall_skinny_threshold
        ):
            return "typed"
        return "zero_copy"
    if mode == "zero_copy":
        return "zero_copy"
    raise ArmciError(f"unknown strided protocol {mode!r}")
