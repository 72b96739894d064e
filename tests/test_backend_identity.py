"""Byte-identity regression gate for the default (PAMI) backend.

The transport refactor's hard promise: routing every ARMCI wire
operation through :class:`repro.transport.pami.PamiTransport` changes
*nothing* — same events, same timings, same counters — for the paper
figures. These tests pin that promise three ways:

1. the fig 3/4/8/11 result tables, rendered in the test by the bench
   scripts' own code, carry the seed md5s,
2. the raw figure sweeps reproduce seed-identical data, and
3. a mixed workload (contiguous/strided/vector/acc/rmw/locks/fences)
   reproduces the seed's exact finish time and counter set in both D
   and AT modes.

All golden constants were captured on the pre-refactor seed tree.
"""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.armci.vector import IoVector
from repro.types import StridedDescriptor, StridedShape

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

#: md5 of each figure table as the seed tree's bench scripts write it.
#: Figure 11 is the ``REPRO_FIG11_SMALL`` grid (64/128/256 ranks); the
#: paper grid (1024/2048/4096 ranks, minutes of host time) digests to
#: 0c54ab709faf44042f276828279761a7 — check it by hand with
#: ``pytest benchmarks/bench_fig11_scf.py --benchmark-only`` and
#: ``md5sum benchmarks/results/fig11_scf.txt``.
SEED_FIG_MD5 = {
    "fig3_latency.txt": "e5ae856594441ddbf3ab62d0f693867e",
    "fig4_bandwidth.txt": "4d4fb290a764d69c360592e5cf1843cd",
    "fig8_strided.txt": "85846dcb46b3876d63a1d17daac1b7ff",
    "fig11_scf.txt": "2dea1d47b681f4c1c390ba9ce20436ec",
}

#: md5 of ``repr()`` of the raw sweep data feeding each figure.
SEED_SWEEP_MD5 = {
    "fig3": "e6ada42ba7b729198eb0639d8d2501a8",
    "fig4": "d974e91dffb233f58e23bd40f7a3ee56",
    "fig8": "86872ae400de4da368cf06d5d6df69a5",
    "fig11_small": "0485bf6a9bc22aec7f5ae56b55ebc7a4",
}

#: md5 of the mixed workload's (finish time, counters) under each mode.
SEED_WORKLOAD_MD5 = {
    "D": "b9ac0fb0b0aeb3ae4f3cc20d6dac8c66",
    "AT": "72ff5a377e0585f6f68cfad0d901d88f",
}


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def _bench_module(name: str):
    """Import ``benchmarks/<name>.py`` the way ``pytest benchmarks`` does
    (its directory on ``sys.path``, for the shared ``_report`` writer)."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCHMARKS))


# Each figure's sweep runs once per session and feeds both gates: the
# raw-data digest and the digest of the table rendered from it.


@pytest.fixture(scope="module")
def fig3_data():
    from repro.bench import contiguous_latency_sweep

    return (
        contiguous_latency_sweep(op="get"),
        contiguous_latency_sweep(op="put"),
    )


@pytest.fixture(scope="module")
def fig4_data():
    from repro.bench import bandwidth_sweep

    return (bandwidth_sweep(op="put"), bandwidth_sweep(op="get"))


@pytest.fixture(scope="module")
def fig8_data():
    from repro.bench import strided_bandwidth_sweep

    return (
        strided_bandwidth_sweep(op="put"),
        strided_bandwidth_sweep(op="get"),
    )


@pytest.fixture(scope="module")
def fig11_data():
    from repro.bench.scf import scf_comparison

    proc_counts, scf = _bench_module("bench_fig11_scf").SMALL_GRID
    return scf_comparison(proc_counts=proc_counts, scf=scf), scf


#: table -> (bench script, its renderer, the fixture holding its sweep).
FIG_TABLES = {
    "fig3_latency.txt": ("bench_fig3_latency", "fig3_table", "fig3_data"),
    "fig4_bandwidth.txt": ("bench_fig4_bandwidth", "fig4_table", "fig4_data"),
    "fig8_strided.txt": ("bench_fig8_strided", "fig8_table", "fig8_data"),
    "fig11_scf.txt": ("bench_fig11_scf", "fig11_table", "fig11_data"),
}


class TestCommittedFigureFiles:
    """Each table is rendered here, by the bench script's own renderer
    and the shared ``_report.save`` writer, into ``tmp_path`` — never
    read from the git-ignored ``benchmarks/results/``, so the gate holds
    on a fresh clone and is independent of benchmark run order."""

    @pytest.mark.parametrize("name", sorted(SEED_FIG_MD5))
    def test_committed_table_is_seed_identical(self, name, tmp_path, request):
        script, renderer, fixture = FIG_TABLES[name]
        table = getattr(_bench_module(script), renderer)(
            *request.getfixturevalue(fixture)
        )
        path = _bench_module("_report").save(Path(name).stem, table, tmp_path)
        assert _md5(path.read_bytes()) == SEED_FIG_MD5[name], (
            f"{name} drifted from the seed output: the default backend "
            f"must stay byte-identical on the paper figures"
        )


class TestFigureSweeps:
    def test_fig3_latency_sweep(self, fig3_data):
        assert _md5(repr(fig3_data).encode()) == SEED_SWEEP_MD5["fig3"]

    def test_fig4_bandwidth_sweep(self, fig4_data):
        assert _md5(repr(fig4_data).encode()) == SEED_SWEEP_MD5["fig4"]

    def test_fig8_strided_sweep(self, fig8_data):
        assert _md5(repr(fig8_data).encode()) == SEED_SWEEP_MD5["fig8"]

    def test_fig11_scf_comparison(self, fig11_data):
        # The golden digest is of the grid's first (64-rank) row alone.
        rows, _scf = fig11_data
        assert _md5(repr(rows[:1]).encode()) == SEED_SWEEP_MD5["fig11_small"]


def _workload_digest(config: ArmciConfig) -> str:
    """Finish-time + counter digest of a mixed ARMCI workload."""
    job = ArmciJob(4, config=config, procs_per_node=2)
    job.init()

    def main(rt):
        alloc = yield from rt.malloc(8192)
        right = (rt.rank + 1) % 4
        space = rt.world.space(rt.rank)
        src = space.allocate(4096)
        space.write(src, bytes([rt.rank + 1]) * 4096)
        local = space.allocate(4096)
        yield from rt.put(right, src, alloc.addr(right), 1024)
        yield from rt.fence(right)
        yield from rt.get(right, local, alloc.addr(right), 512)
        desc = StridedDescriptor(
            StridedShape(128, (4,)), src_strides=(256,), dst_strides=(256,)
        )
        yield from rt.puts(right, src, alloc.addr(right) + 1024, desc)
        vec = IoVector(
            (src, src + 512),
            (alloc.addr(right) + 4096, alloc.addr(right) + 5120),
            (256, 256),
        )
        yield from rt.putv(right, vec)
        yield from rt.acc(right, src, alloc.addr(right) + 2048, 64)
        yield from rt.rmw(0, alloc.addr(0), "fetch_add", 1)
        yield from rt.lock(3)
        yield from rt.unlock(3)
        yield from rt.fence_all()
        yield from rt.barrier()

    job.run(main)
    lines = [f"t={job.engine.now:.15e}"]
    for key in sorted(job.trace.counters):
        lines.append(f"{key}={job.trace.counters[key]}")
    return _md5("\n".join(lines).encode())


class TestWorkloadDigest:
    def test_default_mode_byte_identical(self):
        cfg = ArmciConfig(backend="pami", strided_protocol="auto")
        assert _workload_digest(cfg) == SEED_WORKLOAD_MD5["D"]

    def test_async_thread_mode_byte_identical(self):
        cfg = ArmciConfig.async_thread_mode(
            backend="pami", strided_protocol="auto"
        )
        assert _workload_digest(cfg) == SEED_WORKLOAD_MD5["AT"]

    def test_default_backend_resolves_to_pami(self):
        job = ArmciJob(2, procs_per_node=2)
        assert job.transport.capabilities.name == "pami"
