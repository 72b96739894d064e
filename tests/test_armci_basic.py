"""Unit tests for ARMCI building blocks: config, handles, caches, trackers."""

import pytest

from repro.errors import ArmciError, HandleError
from repro.armci import ArmciConfig, ArmciJob
from repro.armci.consistency import CsMrTracker, CsTgtTracker, make_tracker
from repro.armci.endpoints import EndpointCache
from repro.armci.region_cache import RegionCache
from repro.armci.handles import Handle
from repro.pami.memregion import MemoryRegion
from repro.obs.metrics import MetricsRegistry
from repro.sim import Engine

#: Conformance suite: every test in this module runs once per backend
#: (the ``backend`` fixture re-points ``repro.transport.DEFAULT_BACKEND``).
pytestmark = pytest.mark.usefixtures("backend")


class TestConfig:
    def test_defaults(self):
        cfg = ArmciConfig()
        assert not cfg.async_thread
        assert cfg.num_contexts == 1
        assert cfg.use_rdma
        assert cfg.consistency_tracker == "cs_mr"

    def test_paper_modes(self):
        d = ArmciConfig.default_mode()
        at = ArmciConfig.async_thread_mode()
        assert not d.async_thread and d.num_contexts == 1
        assert at.async_thread and at.num_contexts == 2

    def test_invalid_values_rejected(self):
        with pytest.raises(ArmciError):
            ArmciConfig(num_contexts=0)
        with pytest.raises(ArmciError):
            ArmciConfig(consistency_tracker="bogus")
        with pytest.raises(ArmciError):
            ArmciConfig(strided_protocol="bogus")
        with pytest.raises(ArmciError):
            ArmciConfig(region_cache_capacity=0)
        with pytest.raises(ArmciError):
            ArmciConfig(tall_skinny_threshold=-1)


class TestConsistencyTrackers:
    def test_factory(self):
        assert isinstance(make_tracker("cs_tgt"), CsTgtTracker)
        assert isinstance(make_tracker("cs_mr"), CsMrTracker)
        with pytest.raises(ArmciError):
            make_tracker("nope")

    def test_cs_tgt_false_positive_on_other_region(self):
        """The paper's dgemm complaint: cs_tgt fences reads of A because
        of outstanding writes to C."""
        t = CsTgtTracker()
        key_a, key_c = (3, 0x1000), (3, 0x9000)
        t.on_write(3, key_c)
        assert t.needs_fence(3, key_a)  # false positive
        assert t.needs_fence(3, key_c)  # true positive

    def test_cs_mr_no_false_positive(self):
        t = CsMrTracker()
        key_a, key_c = (3, 0x1000), (3, 0x9000)
        t.on_write(3, key_c)
        assert not t.needs_fence(3, key_a)
        assert t.needs_fence(3, key_c)

    def test_fence_clears_write_status(self):
        for t in (CsTgtTracker(), CsMrTracker()):
            key = (1, 0x1000)
            t.on_write(1, key)
            assert t.needs_fence(1, key)
            t.on_fence(1)
            assert not t.needs_fence(1, key)

    def test_cs_mr_fence_scoped_to_target(self):
        t = CsMrTracker()
        t.on_write(1, (1, 0x1000))
        t.on_write(2, (2, 0x1000))
        t.on_fence(1)
        assert not t.needs_fence(1, (1, 0x1000))
        assert t.needs_fence(2, (2, 0x1000))

    def test_reads_never_force_fences(self):
        for t in (CsTgtTracker(), CsMrTracker()):
            key = (1, 0x1000)
            t.on_get(1, key)
            assert not t.needs_fence(1, key)

    def test_space_entries_scale_differently(self):
        """cs_tgt: Theta(zeta); cs_mr: Theta(sigma * zeta)."""
        tgt, mr = CsTgtTracker(), CsMrTracker()
        sigma, zeta = 4, 10
        for dst in range(zeta):
            for s in range(sigma):
                key = (dst, 0x1000 * (s + 1))
                tgt.on_write(dst, key)
                mr.on_write(dst, key)
        assert tgt.space_entries == zeta
        assert mr.space_entries == sigma * zeta

    def test_cs_mr_requires_key(self):
        t = CsMrTracker()
        with pytest.raises(ArmciError):
            t.on_write(1, None)  # type: ignore[arg-type]


class TestEndpointCache:
    def test_creation_cost_charged_once_per_destination(self):
        eng = Engine()
        cache = EndpointCache(0, create_time=0.3e-6, trace=MetricsRegistry())

        def body():
            yield from cache.get(5)
            t1 = eng.now
            yield from cache.get(5)
            return t1, eng.now

        proc = eng.spawn(body(), name="b")
        [(t1, t2)] = eng.run_until_complete([proc])
        assert t1 == pytest.approx(0.3e-6)
        assert t2 == t1  # cache hit is free
        assert len(cache) == 1
        assert cache.clique_size == 1

    def test_space_matches_eq3(self):
        eng = Engine()
        cache = EndpointCache(0, create_time=0.0, trace=MetricsRegistry())

        def body():
            for dst in range(100):
                yield from cache.get(dst)

        eng.run_until_complete([eng.spawn(body(), name="b")])
        assert cache.space_bytes(alpha=4) == 400
        assert cache.clique_size == 100


class TestRegionCache:
    def _region(self, rank, base, nbytes=4096, rid=0):
        return MemoryRegion(rank, base, nbytes, rid)

    def test_lookup_hit_and_miss(self):
        cache = RegionCache(capacity=4, trace=MetricsRegistry())
        cache.insert(self._region(1, 0x1000))
        assert cache.lookup(1, 0x1800, 64) is not None
        assert cache.lookup(1, 0x9000, 64) is None
        assert cache.lookup(2, 0x1800, 64) is None

    def test_lfu_evicts_least_frequently_used(self):
        cache = RegionCache(capacity=2, trace=MetricsRegistry())
        hot = self._region(1, 0x1000)
        cold = self._region(2, 0x1000)
        cache.insert(hot)
        cache.insert(cold)
        for _ in range(5):
            assert cache.lookup(1, 0x1000, 8) is not None
        cache.insert(self._region(3, 0x1000))  # evicts cold (freq 1)
        assert len(cache) == 2
        assert cache.lookup(1, 0x1000, 8) is not None
        assert cache.lookup(2, 0x1000, 8) is None

    def test_lfu_tie_breaks_by_age(self):
        cache = RegionCache(capacity=2, trace=MetricsRegistry())
        first = self._region(1, 0x1000)
        second = self._region(2, 0x1000)
        cache.insert(first)
        cache.insert(second)
        cache.insert(self._region(3, 0x1000))  # tie: evict older (first)
        assert cache.lookup(2, 0x1000, 8) is not None
        assert cache.lookup(1, 0x1000, 8) is None

    def test_duplicate_insert_counts_frequency(self):
        cache = RegionCache(capacity=2, trace=MetricsRegistry())
        r = self._region(1, 0x1000)
        cache.insert(r)
        cache.insert(r)
        assert len(cache) == 1
        # The second insert counted as an access: LFU eviction now takes
        # the once-inserted entry, not this one.
        cache.insert(self._region(2, 0x1000))
        cache.insert(self._region(3, 0x1000))
        assert cache.lookup(1, 0x1000, 8) is not None
        assert cache.lookup(2, 0x1000, 8) is None

    def test_unbounded_cache_never_evicts(self):
        trace = MetricsRegistry()
        cache = RegionCache(capacity=None, trace=trace)
        for i in range(100):
            cache.insert(self._region(i, 0x1000))
        assert len(cache) == 100
        assert trace.count("armci.region_cache_evictions") == 0

    def test_space_matches_eq5_term(self):
        cache = RegionCache(capacity=None, trace=MetricsRegistry())
        for i in range(10):
            cache.insert(self._region(i, 0x1000))
        assert cache.space_bytes(gamma=8) == 80

    def test_invalid_capacity(self):
        with pytest.raises(ArmciError):
            RegionCache(capacity=0, trace=MetricsRegistry())


class TestHandles:
    def _job(self):
        job = ArmciJob(num_procs=1, procs_per_node=1)
        job.init()
        return job

    def test_handle_completes_when_all_events_fire(self):
        job = self._job()
        rt = job.rt(0)
        h = Handle(rt, "test")
        evs = [job.engine.event() for _ in range(3)]
        for ev in evs:
            h.add_event(ev)
        assert not h.complete
        for ev in evs:
            ev.succeed()
        assert h.complete

    def test_double_wait_rejected(self):
        job = self._job()
        rt = job.rt(0)
        h = Handle(rt, "test")

        def body(r):
            yield from h.wait()
            yield from h.wait()

        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="double wait"):
            job.run(body)

    def test_extend_after_wait_rejected(self):
        job = self._job()
        rt = job.rt(0)
        h = Handle(rt, "test")

        def body(r):
            yield from h.wait()
            return None

        job.run(body)
        with pytest.raises(HandleError, match="extended"):
            h.add_event(job.engine.event())
