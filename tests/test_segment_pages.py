"""Zero-filled segments cost resident memory only where they are written.

A segment of at least one page is a private anonymous mapping
(``repro.pami.memory._segment``). These tests read the kernel's own
accounts of this process, ``/proc/self/statm`` (resident pages) and
``/proc/self/maps`` (one line per mapping), so they hold whatever
allocator sits under numpy; ``tracemalloc`` cannot see a mapping at all.
"""

import gc
import mmap
import os
from pathlib import Path

import numpy as np
import pytest

from repro.pami import memory
from repro.pami.memory import PAGE, AddressSpace

MIB = 1 << 20

pytestmark = pytest.mark.skipif(
    not Path("/proc/self/statm").exists(), reason="needs Linux /proc"
)


def resident() -> int:
    """Resident bytes of this process."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


def maps_lines() -> list[str]:
    return Path("/proc/self/maps").read_text().splitlines()


def mapping_of(addr: int) -> str:
    """The ``/proc/self/maps`` line whose range holds ``addr``."""
    for line in maps_lines():
        lo, hi = (int(x, 16) for x in line.split()[0].split("-"))
        if lo <= addr < hi:
            return line
    raise AssertionError(f"{addr:#x} is not mapped")


def segment(space: AddressSpace, base: int) -> np.ndarray:
    return space._segments[base]


class TestDemandZero:
    def test_an_untouched_segment_stays_out_of_the_resident_set(self):
        space = AddressSpace()
        gc.collect()
        before = resident()
        base = space.allocate(64 * MIB)
        assert resident() - before < 4 * MIB
        # Reading every byte maps the kernel's zero page, nothing more.
        assert len(space.read(base, 64 * MIB)) == 64 * MIB
        assert not space.view(base, 64 * MIB).any()
        assert resident() - before < 4 * MIB

    def test_small_segments_stay_out_after_heap_churn(self):
        # Below glibc's mmap threshold (128 KiB and up) np.zeros takes
        # reused heap memory and clears it: 256 x 64 KiB cost ~11 MiB
        # resident there, here they cost nothing.
        churn = [bytearray(b"x" * 60_000) for _ in range(400)]
        del churn
        space = AddressSpace()
        gc.collect()
        before = resident()
        for _ in range(256):
            space.allocate(64 * 1024)
        assert resident() - before < 4 * MIB

    def test_written_pages_are_resident_until_free(self):
        space = AddressSpace()
        gc.collect()
        before = resident()
        base = space.allocate(16 * MIB)
        space.view(base, 16 * MIB)[::PAGE] = 1
        written = resident()
        assert written - before >= 12 * MIB
        space.free(base)
        assert written - resident() >= 12 * MIB

    def test_the_mapping_is_private(self):
        space = AddressSpace()
        base = space.allocate(PAGE)
        seg = segment(space, base)
        assert not seg.flags.owndata
        perms = mapping_of(seg.ctypes.data).split()[1]
        assert perms.endswith("p"), perms

    def test_the_recovery_path_maps_the_same_way(self):
        space = AddressSpace()
        base = space.map_at(0x10_0000, 3 * PAGE)
        seg = segment(space, base)
        assert not seg.flags.owndata and seg.size == 3 * PAGE
        assert mapping_of(seg.ctypes.data).split()[1].endswith("p")

    def test_adjacent_segments_share_kernel_mappings(self):
        space = AddressSpace()
        gc.collect()
        before = len(maps_lines())
        bases = [space.allocate(PAGE) for _ in range(4096)]
        assert len(maps_lines()) - before <= 64
        assert len(bases) == len(space._segments) == 4096


class TestOneSegmentPath:
    def test_out_of_address_space_is_memory_error(self):
        # No address space has room for 2**60 bytes: mmap fails with
        # ENOMEM, which surfaces as np.zeros's error type.
        space = AddressSpace()
        with pytest.raises(MemoryError):
            space.allocate(1 << 60)
        assert not space._segments

    def test_other_mmap_errors_pass_through(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise PermissionError(1, "refused")

        monkeypatch.setattr(memory.mmap, "mmap", refuse)
        with pytest.raises(PermissionError):
            AddressSpace().allocate(PAGE)

    @pytest.mark.parametrize(
        "nbytes, fill", [(1, 0), (PAGE - 1, 0), (PAGE, 7), (4 * PAGE, 255)]
    )
    def test_sub_page_and_filled_segments_stay_numpy_owned(self, nbytes, fill):
        space = AddressSpace()
        seg = segment(space, space.allocate(nbytes, fill=fill))
        assert seg.flags.owndata
        assert seg.size == nbytes and (seg == fill).all()

    def test_words_and_views_work_on_a_mapped_segment(self):
        space = AddressSpace()
        base = space.allocate(2 * PAGE)
        assert isinstance(segment(space, base).base.obj, mmap.mmap)
        space.write_i64(base + PAGE, -(1 << 62))
        assert space.read_i64(base + PAGE) == -(1 << 62)
        word = space.i64_view(base + 8)
        word[0] += 41
        word[0] += 1
        assert space.read_i64(base + 8) == 42
        space.write_f64(base + 16, np.array([1.5, -2.0]))
        np.testing.assert_array_equal(space.read_f64(base + 16, 2), [1.5, -2.0])
        assert space.read(base, 8) == bytes(8)
