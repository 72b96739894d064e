"""Byte-identity regression gate for the default (PAMI) backend.

The transport refactor's hard promise: routing every ARMCI wire
operation through :class:`repro.transport.pami.PamiTransport` changes
*nothing* — same events, same timings, same counters — for the paper
figures. These tests pin that promise three ways:

1. the fig 3/4/8/11 result tables, rendered in the test by the one
   renderer (``repro.bench.artifacts.ARTIFACTS[stem].table``), carry
   the seed md5s,
2. the raw figure sweeps reproduce seed-identical data, and
3. a mixed workload (contiguous/strided/vector/acc/rmw/locks/fences)
   reproduces the seed's exact finish time and counter set in both D
   and AT modes.

All golden constants were captured on the pre-refactor seed tree.
"""

import functools
import hashlib
from pathlib import Path

import pytest

from repro.armci import ArmciConfig, ArmciJob
from repro.armci.vector import IoVector
from repro.bench.artifacts import ARTIFACTS
from repro.types import StridedDescriptor, StridedShape

#: md5 of each figure table as the seed tree's bench scripts write it.
#: Figure 11 is the ``REPRO_BENCH_SMOKE=1`` grid (64/128/256 ranks); the
#: paper grid (1024/2048/4096 ranks, minutes of host time) digests to
#: 0c54ab709faf44042f276828279761a7 — check it by hand with
#: ``pytest benchmarks/bench_paper.py -k fig11_scf`` and
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


@functools.cache
def figure_data(stem):
    """Each figure's sweep runs once per session, is held to the paper's
    claims, and feeds both gates: the raw-data digest and the digest of
    the table rendered from it. Figure 11 runs the smoke grid."""
    data = ARTIFACTS[stem].run((64, 128, 256) if stem == "fig11_scf" else None)
    ARTIFACTS[stem].check(data)
    return data


class TestCommittedFigureFiles:
    """Each table is rendered here by the registry's renderer, with the
    newline ``benchmarks/_report.save`` ends a result file with — never
    read from the git-ignored ``benchmarks/results/``, so the gate holds
    on a fresh clone and is independent of benchmark run order."""

    @pytest.mark.parametrize("name", sorted(SEED_FIG_MD5))
    def test_committed_table_is_seed_identical(self, name):
        stem = Path(name).stem
        table = ARTIFACTS[stem].table(figure_data(stem))
        assert _md5((table + "\n").encode()) == SEED_FIG_MD5[name], (
            f"{name} drifted from the seed output: the default backend "
            f"must stay byte-identical on the paper figures"
        )


class TestFigureSweeps:
    def test_fig3_latency_sweep(self):
        data = figure_data("fig3_latency")
        assert _md5(repr(data).encode()) == SEED_SWEEP_MD5["fig3"]

    def test_fig4_bandwidth_sweep(self):
        data = figure_data("fig4_bandwidth")
        assert _md5(repr(data).encode()) == SEED_SWEEP_MD5["fig4"]

    def test_fig8_strided_sweep(self):
        data = figure_data("fig8_strided")
        assert _md5(repr(data).encode()) == SEED_SWEEP_MD5["fig8"]

    def test_fig11_scf_comparison(self):
        # The golden digest is of the grid's first (64-rank) row alone.
        rows, _scf = figure_data("fig11_scf")
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
