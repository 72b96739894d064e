"""Unit tests for per-process address spaces and memory regions."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PamiError, ResourceExhaustedError
from repro.pami.memory import AddressSpace, BASE_ADDRESS
from repro.pami.memregion import MemoryRegionRegistry
from repro.sim import Engine


class TestAddressSpace:
    def test_allocate_returns_distinct_page_aligned_bases(self):
        space = AddressSpace()
        a = space.allocate(100)
        b = space.allocate(100)
        assert a >= BASE_ADDRESS
        assert a % 4096 == 0 and b % 4096 == 0
        assert b > a + 100

    def test_allocate_rejects_nonpositive(self):
        with pytest.raises(PamiError):
            AddressSpace().allocate(0)

    def test_write_read_roundtrip(self):
        space = AddressSpace()
        base = space.allocate(64)
        space.write(base + 8, b"hello world")
        assert space.read(base + 8, 11) == b"hello world"

    def test_view_is_writable_no_copy(self):
        space = AddressSpace()
        base = space.allocate(16)
        view = space.view(base, 16)
        view[0] = 99
        assert space.read(base, 1) == bytes([99])

    def test_fill_value(self):
        space = AddressSpace()
        base = space.allocate(4, fill=7)
        assert space.read(base, 4) == bytes([7, 7, 7, 7])

    def test_unmapped_address_rejected(self):
        space = AddressSpace()
        with pytest.raises(PamiError, match="not mapped"):
            space.read(0x10, 1)

    def test_overrun_rejected(self):
        space = AddressSpace()
        base = space.allocate(16)
        with pytest.raises(PamiError, match="overruns"):
            space.read(base + 8, 16)

    def test_cross_segment_access_rejected(self):
        space = AddressSpace()
        a = space.allocate(4096)
        space.allocate(4096)
        with pytest.raises(PamiError):
            space.read(a, 2 * 4096 + 8192)

    def test_free_then_access_rejected(self):
        space = AddressSpace()
        base = space.allocate(16)
        space.free(base)
        with pytest.raises(PamiError):
            space.read(base, 1)

    def test_free_unknown_rejected(self):
        with pytest.raises(PamiError):
            AddressSpace().free(12345)

    def test_i64_roundtrip_including_negative(self):
        space = AddressSpace()
        base = space.allocate(16)
        space.write_i64(base, -123456789)
        assert space.read_i64(base) == -123456789

    def test_i64_is_little_endian_and_range_checked(self):
        space = AddressSpace()
        base = space.allocate(16)
        for value in (2**63 - 1, -(2**63), 5):
            space.write_i64(base + 8, value)
            assert space.read_i64(base + 8) == value
            assert space.read(base + 8, 8) == value.to_bytes(8, "little", signed=True)
        with pytest.raises(struct.error):
            space.write_i64(base, 2**63)
        assert space.read_i64(base) == 0  # nothing written
        with pytest.raises(PamiError):
            space.write_i64(base + 12, 1)  # overruns the segment
        with pytest.raises(PamiError):
            space.read_i64(base + 12)

    def test_f64_roundtrip(self):
        space = AddressSpace()
        base = space.allocate(64)
        values = np.array([1.5, -2.25, 3.125])
        space.write_f64(base + 8, values)
        np.testing.assert_array_equal(space.read_f64(base + 8, 3), values)

    @given(st.binary(min_size=1, max_size=256), st.integers(0, 64))
    @settings(max_examples=50, deadline=None)
    def test_write_read_any_bytes_at_any_offset(self, data, offset):
        space = AddressSpace()
        base = space.allocate(512)
        space.write(base + offset, data)
        assert space.read(base + offset, len(data)) == data


class TestMemoryRegionRegistry:
    def _create(self, registry, base, nbytes):
        eng = Engine()
        proc = eng.spawn(registry.create(base, nbytes), name="create")
        results = eng.run_until_complete([proc])
        return results[0], eng.now

    def test_create_costs_delta(self):
        reg = MemoryRegionRegistry(rank=0, create_time=43e-6)
        region, elapsed = self._create(reg, 0x1000, 4096)
        assert elapsed == pytest.approx(43e-6)
        assert region.covers(0x1000, 4096)
        assert region.covers(0x1100, 16)
        assert not region.covers(0x1100, 8192)

    def test_budget_exhaustion_raises_before_time_charged(self):
        reg = MemoryRegionRegistry(rank=0, create_time=43e-6, max_regions=1)
        self._create(reg, 0x1000, 4096)
        with pytest.raises(ResourceExhaustedError):
            # The generator raises at construction-time validation.
            list(reg.create(0x10000, 4096))

    def test_overlap_rejected(self):
        reg = MemoryRegionRegistry(rank=0, create_time=0.0)
        self._create(reg, 0x1000, 4096)
        with pytest.raises(PamiError, match="overlaps"):
            list(reg.create(0x1800, 4096))
        with pytest.raises(PamiError, match="overlaps"):
            list(reg.create(0x800, 4096))

    def test_adjacent_regions_allowed(self):
        reg = MemoryRegionRegistry(rank=0, create_time=0.0)
        self._create(reg, 0x1000, 4096)
        region, _ = self._create(reg, 0x2000, 4096)
        assert len(reg) == 2
        assert region.region_id == 1

    def test_find_exact_and_inner(self):
        reg = MemoryRegionRegistry(rank=0, create_time=0.0)
        self._create(reg, 0x1000, 4096)
        assert reg.find(0x1000, 4096) is not None
        assert reg.find(0x1800, 100) is not None
        assert reg.find(0x1800, 4096) is None
        assert reg.find(0x100, 8) is None

    def test_destroy_frees_slot(self):
        reg = MemoryRegionRegistry(rank=0, create_time=0.0, max_regions=1)
        region, _ = self._create(reg, 0x1000, 4096)
        reg.destroy(region)
        assert len(reg) == 0
        self._create(reg, 0x9000, 128)  # budget available again

    def test_destroy_unknown_rejected(self):
        reg = MemoryRegionRegistry(rank=0, create_time=0.0)
        region, _ = self._create(reg, 0x1000, 4096)
        reg.destroy(region)
        with pytest.raises(PamiError):
            reg.destroy(region)

    def test_nonpositive_size_rejected(self):
        reg = MemoryRegionRegistry(rank=0, create_time=0.0)
        with pytest.raises(PamiError):
            list(reg.create(0x1000, 0))

    def test_negative_budget_rejected(self):
        with pytest.raises(PamiError):
            MemoryRegionRegistry(rank=0, create_time=0.0, max_regions=-1)
