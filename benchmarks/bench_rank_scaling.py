"""Supplementary: host cost of a many-rank job as the rank count grows.

The simulator's own space complexity (DESIGN.md §6.1): everything an
``ArmciJob`` builds and hands to a rank is O(1) in the number of ranks,
so host wall time and peak RSS of a fixed per-rank body grow linearly
with the rank count. The body is the ledger's ``fanout_1k`` one —
collective ``malloc``, barrier, two blocking gets of a seeded 0.5-1 KiB
block from seeded random ranks, ``fence_all``, barrier — at any rank
count.

Run as a script; every rank count runs in its own child interpreter so
peak RSS is that job's alone::

    python benchmarks/bench_rank_scaling.py --ranks 1024,4096,16384
    python benchmarks/bench_rank_scaling.py --ranks 4096 --rlimit-as-gib 1

``--rlimit-as-gib`` caps the child's address space: a reintroduced
per-rank O(ranks) structure dies with ``MemoryError`` instead of
swapping (the CI ``perf`` suite's gate).
"""

import argparse
import json
import random
import resource
import subprocess
import sys
import time

from _report import save

from repro.armci import ArmciConfig, ArmciJob
from repro.util import render_table

PROCS_PER_NODE = 16
GETS = 2
SEGMENT = 1024
SEED = 2013


def _rss_kb() -> int:
    """Resident set size now (``/proc``; 0 where there is none)."""
    try:
        with open("/proc/self/statm") as statm:
            pages = int(statm.read().split()[1])
    except OSError:
        return 0
    return pages * resource.getpagesize() // 1024


def run_body(ranks: int) -> dict:
    """Build, init and run the fan-out body on ``ranks`` ranks."""
    rng = random.Random(SEED)
    fill = [rng.randrange(256) for _ in range(ranks)]
    plan = [
        [(rng.randrange(ranks), rng.randrange(SEGMENT // 2, SEGMENT + 1))
         for _ in range(GETS)]
        for _ in range(ranks)
    ]
    rss_before = _rss_kb()
    t0 = time.perf_counter()
    job = ArmciJob(ranks, config=ArmciConfig(), procs_per_node=PROCS_PER_NODE)
    job.init()
    ready_kb = (_rss_kb() - rss_before) / ranks

    def body(rt):
        alloc = yield from rt.malloc(SEGMENT)
        space = rt.world.space(rt.rank)
        space.view(alloc.addr(rt.rank), SEGMENT)[:] = fill[rt.rank]
        buf = space.allocate(SEGMENT * GETS)
        yield from rt.barrier()
        for k, (dest, nbytes) in enumerate(plan[rt.rank]):
            yield from rt.get(dest, buf + k * SEGMENT, alloc.addr(dest), nbytes)
        yield from rt.fence_all()
        yield from rt.barrier()
        return space.read(buf, SEGMENT * GETS)

    results = job.run(body)
    wall = time.perf_counter() - t0
    for r, gets in enumerate(plan):
        for k, (dest, nbytes) in enumerate(gets):
            block = results[r][k * SEGMENT:k * SEGMENT + nbytes]
            assert block == bytes([fill[dest]]) * nbytes, (r, k, dest)
    return {
        "ranks": ranks,
        "wall_s": wall,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ready_kb_per_rank": ready_kb,
        "sim_makespan_us": job.engine.now * 1e6,
        "events": job.engine.events_executed,
    }


def _child(ranks: int, rlimit_as_gib: float | None) -> dict:
    """One rank count in a fresh interpreter (clean RSS, optional cap)."""
    cmd = [sys.executable, __file__, "--child", str(ranks)]
    if rlimit_as_gib is not None:
        cmd += ["--rlimit-as-gib", str(rlimit_as_gib)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"{ranks}-rank run failed (exit {proc.returncode})"
            + (f" under RLIMIT_AS={rlimit_as_gib} GiB" if rlimit_as_gib else "")
        )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ranks", default="1024,4096",
                        help="comma-separated rank counts (multiples of 16)")
    parser.add_argument("--rlimit-as-gib", type=float, default=None,
                        help="cap each run's address space (RLIMIT_AS)")
    parser.add_argument("--child", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child is not None:
        if args.rlimit_as_gib is not None:
            cap = int(args.rlimit_as_gib * (1 << 30))
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        print(json.dumps(run_body(args.child)))
        return 0

    rows = [_child(int(n), args.rlimit_as_gib) for n in args.ranks.split(",")]
    table = render_table(
        ["ranks", "wall (s)", "peak RSS (MB)", "ready KB/rank", "us wall/rank",
         "sim makespan (us)", "events"],
        [
            [r["ranks"], f"{r['wall_s']:.2f}", f"{r['peak_rss_mb']:.0f}",
             f"{r['ready_kb_per_rank']:.1f}",
             f"{r['wall_s'] / r['ranks'] * 1e6:.0f}",
             f"{r['sim_makespan_us']:.1f}", r["events"]]
            for r in rows
        ],
        title="Rank scaling of the fan-out body (host cost; linear = flat us/rank)",
    )
    print(table)
    save("rank_scaling", table)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
