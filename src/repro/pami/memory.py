"""Per-process virtual address space backed by numpy arrays.

Every simulated process owns an :class:`AddressSpace`. Segments are
allocated at increasing, page-aligned virtual addresses; reads and writes
move real bytes, so tests can assert end-to-end data integrity of every
communication protocol, not just its timing.
"""

from __future__ import annotations

import bisect
import errno
import mmap
import struct

import numpy as np

from ..errors import PamiError

#: Alignment of segment base addresses.
PAGE = 4096
#: First valid virtual address (0 stays invalid, like NULL).
BASE_ADDRESS = 0x1000
#: A little-endian signed 64-bit word, packed straight into a segment.
_I64 = struct.Struct("<q")
#: Copy-on-write memory of this process alone, backed by no file.
_PRIVATE_ANONYMOUS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS


def as_u8(data) -> np.ndarray:
    """View any buffer (bytes/bytearray/memoryview/ndarray) as flat uint8.

    No copy is made: ndarrays are reinterpreted in place and bytes-likes
    are wrapped read-only, so slicing the result stays zero-copy. The hot
    data path uses this to normalize payloads without materializing
    intermediate ``bytes``.
    """
    if isinstance(data, np.ndarray):
        if data.dtype == np.uint8 and data.ndim == 1:
            return data
        return data.reshape(-1).view(np.uint8)
    return np.frombuffer(data, dtype=np.uint8)


def _segment(nbytes: int, fill: int) -> np.ndarray:
    """A fresh segment of ``nbytes``, every byte ``fill``.

    A zero-filled segment of at least one page is a private anonymous
    mapping: a page costs no resident memory until it is first written,
    and a read of an untouched page maps the kernel's zero page. The
    mapping is unmapped once the last view of the segment is dropped.
    ``np.zeros`` would not do: below glibc's dynamic mmap threshold
    (128 KiB, rising to the largest mmapped block freed since) ``calloc``
    clears heap memory, which makes every page resident at once. Private,
    not shared, so that reads stay free, adjacent segments merge into one
    kernel mapping and a forked child gets a copy-on-write image.
    Sub-page and ``fill != 0`` segments are plain numpy arrays.
    """
    if fill:
        return np.full(nbytes, fill, np.uint8)
    if nbytes < PAGE:
        return np.zeros(nbytes, np.uint8)
    try:
        pages = mmap.mmap(-1, nbytes, flags=_PRIVATE_ANONYMOUS)
    except OSError as exc:
        if exc.errno == errno.ENOMEM:  # what np.zeros raises out of memory
            raise MemoryError(f"cannot map a {nbytes}-byte segment") from exc
        raise
    return np.frombuffer(pages, np.uint8)


class AddressSpace:
    """A flat per-process virtual address space.

    Addresses are plain integers; each allocation creates a contiguous
    numpy-backed segment. Accesses must fall entirely inside one segment
    (matching real RDMA, where a transfer targets one registered region).
    """

    __slots__ = ("_bases", "_segments", "_next")

    def __init__(self) -> None:
        self._bases: list[int] = []
        self._segments: dict[int, np.ndarray] = {}
        self._next = BASE_ADDRESS

    def allocate(self, nbytes: int, fill: int = 0) -> int:
        """Allocate a segment of ``nbytes`` and return its base address."""
        if nbytes <= 0:
            raise PamiError(f"allocation size must be positive, got {nbytes}")
        base = self._next
        self._segments[base] = _segment(nbytes, fill)
        bisect.insort(self._bases, base)
        # Advance past this segment, page-aligned, keeping a guard page.
        self._next = base + ((nbytes + PAGE - 1) // PAGE + 1) * PAGE
        return base

    def map_at(self, addr: int, nbytes: int) -> int:
        """Create a segment at a *fixed* base address and return it.

        Recovery uses this to rebuild a respawned rank's address space with
        the same layout the dead incarnation had: allocations replayed from
        the allocation directory must land at their recorded addresses so
        that remote ranks' cached pointers stay valid. The segment is
        zero-filled, like a fresh :meth:`allocate`.
        """
        if nbytes <= 0:
            raise PamiError(f"allocation size must be positive, got {nbytes}")
        if addr < BASE_ADDRESS or addr % PAGE:
            raise PamiError(f"map_at address {addr:#x} must be page-aligned")
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx >= 0:
            prev = self._bases[idx]
            if prev + self._segments[prev].size > addr:
                raise PamiError(
                    f"map_at [{addr:#x}, +{nbytes}) overlaps segment at {prev:#x}"
                )
        if idx + 1 < len(self._bases) and addr + nbytes > self._bases[idx + 1]:
            raise PamiError(
                f"map_at [{addr:#x}, +{nbytes}) overlaps segment at "
                f"{self._bases[idx + 1]:#x}"
            )
        self._segments[addr] = _segment(nbytes, 0)
        bisect.insort(self._bases, addr)
        self._next = max(
            self._next, addr + ((nbytes + PAGE - 1) // PAGE + 1) * PAGE
        )
        return addr

    def free(self, base: int) -> None:
        """Release a segment previously returned by :meth:`allocate`."""
        if base not in self._segments:
            raise PamiError(f"free of unknown segment base {base:#x}")
        del self._segments[base]
        # _bases is sorted (allocate uses insort), so the entry can be
        # located by bisection instead of a linear list.remove scan.
        idx = bisect.bisect_left(self._bases, base)
        del self._bases[idx]

    def _locate(self, addr: int, nbytes: int) -> tuple[np.ndarray, int]:
        """Find (segment, offset) containing [addr, addr+nbytes)."""
        if nbytes < 0:
            raise PamiError(f"access size must be >= 0, got {nbytes}")
        idx = bisect.bisect_right(self._bases, addr) - 1
        if idx < 0:
            raise PamiError(f"address {addr:#x} not mapped")
        base = self._bases[idx]
        seg = self._segments[base]
        offset = addr - base
        if offset + nbytes > seg.size:
            raise PamiError(
                f"access [{addr:#x}, +{nbytes}) overruns segment "
                f"[{base:#x}, +{seg.size})"
            )
        return seg, offset

    def segment_bounds(self, addr: int) -> tuple[int, int]:
        """``(base, nbytes)`` of the segment containing ``addr``.

        Used by ARMCI to register *whole* segments with the NIC (regions
        always cover a full allocation, never a sub-range).
        """
        seg, offset = self._locate(addr, 0)
        return addr - offset, seg.size

    def view(self, addr: int, nbytes: int) -> np.ndarray:
        """Writable uint8 view of ``[addr, addr+nbytes)`` (no copy).

        Finds the segment in this frame; :meth:`_locate` reports an
        access it rejects.
        """
        bases = self._bases
        idx = bisect.bisect_right(bases, addr) - 1
        if idx >= 0 and nbytes >= 0:
            base = bases[idx]
            seg = self._segments[base]
            end = addr - base + nbytes
            if end <= seg.size:
                return seg[addr - base : end]
        seg, offset = self._locate(addr, nbytes)
        return seg[offset : offset + nbytes]

    def snapshot(self, addr: int, nbytes: int) -> np.ndarray:
        """Private uint8 copy of ``[addr, addr+nbytes)``.

        The one copy the data plane is allowed: protocols that must
        capture data at post time (ARMCI put buffer-reuse semantics) or
        at NIC-read time (get) snapshot here and later land the bytes
        with a single :meth:`write_into` — no ``bytes`` round-trips.
        """
        return self.view(addr, nbytes).copy()

    def read(self, addr: int, nbytes: int) -> bytes:
        """Copy ``nbytes`` out of memory."""
        return self.view(addr, nbytes).tobytes()

    def write_into(self, addr: int, data) -> None:
        """Copy any buffer into memory at ``addr`` with exactly one copy.

        ``data`` may be ``bytes``, a ``memoryview``, or a numpy array
        (any dtype, reinterpreted as uint8); the destination view-assign
        is the only byte movement.
        """
        buf = as_u8(data)
        self.view(addr, buf.size)[:] = buf

    def write(self, addr: int, data: bytes | np.ndarray) -> None:
        """Copy ``data`` into memory at ``addr``."""
        self.write_into(addr, data)

    # Convenience accessors for 64-bit counters (AMO targets).

    def i64_view(self, addr: int) -> np.ndarray:
        """Writable length-1 int64 view of the 8 bytes at ``addr``.

        One segment lookup serves a whole read-modify-write cycle,
        halving the ``_locate`` work of a read + write pair.
        """
        return self.view(addr, 8).view(np.int64)

    def read_i64(self, addr: int) -> int:
        """Read a little-endian signed 64-bit integer."""
        return _I64.unpack_from(*self._locate(addr, 8))[0]

    def write_i64(self, addr: int, value: int) -> None:
        """Write a little-endian signed 64-bit integer (``struct.error``
        outside the int64 range)."""
        seg, offset = self._locate(addr, 8)
        _I64.pack_into(seg, offset, value)

    def read_f64(self, addr: int, count: int = 1) -> np.ndarray:
        """Read ``count`` float64 values starting at ``addr``."""
        return self.view(addr, 8 * count).view(np.float64).copy()

    def write_f64(self, addr: int, values: np.ndarray) -> None:
        """Write float64 values starting at ``addr``."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        self.view(addr, 8 * arr.size).view(np.float64)[:] = arr
