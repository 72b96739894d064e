"""Supplementary: on-demand endpoint creation as the clique grows.

Endpoints are created lazily as the communication clique (zeta) expands
over an application's lifetime (Section III-B; cf. the authors' earlier
on-demand connection work on InfiniBand). With alpha = 4 B and beta =
0.3 us per endpoint (Eqs. 3-4), even a full clique of 4096 peers costs
16 KB and ~1.2 ms per process — the paper's scalability argument,
reproduced by measuring the cache as a random-peers workload runs.

Run as a script for the **sharded-PDES scaling harness**: a clique
workload at 10^4+ simulated ranks swept over ``--shards``, in strong-
(fixed ranks) or weak-scaling mode (``--weak-scaling``: ranks grow with
shards). Emits ``benchmarks/results/clique_growth_scaling.json`` and
asserts sharded runs match the single-engine oracle digest::

    python benchmarks/bench_clique_growth.py --shards 1,2,4 --ranks 10000
"""

import argparse
import json
import os
import sys

from _report import save

from repro.armci import ArmciConfig, ArmciJob
from repro.util import render_table, us

PROCS = 64

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def _run() -> list[tuple[int, int, int, float]]:
    """Rank 0 contacts a growing random-ish peer set; snapshot the cache."""
    job = ArmciJob(PROCS, procs_per_node=16, config=ArmciConfig())
    job.init()
    snapshots: list[tuple[int, int, int, float]] = []

    def body(rt):
        alloc = yield from rt.malloc(256)
        if rt.rank == 0:
            local = rt.world.space(0).allocate(256)
            contacted = 0
            t_start = rt.engine.now
            # Deterministic pseudo-random peer order (LCG over 1..p-1).
            peer = 1
            for phase, batch in enumerate((4, 12, 16, 31)):
                for _ in range(batch):
                    peer = (peer * 29 + 17) % (PROCS - 1) + 1
                    yield from rt.put(peer, local, alloc.addr(peer), 64)
                    contacted += 1
                alpha = rt.world.params.endpoint_space
                snapshots.append(
                    (
                        contacted,
                        rt.endpoints.clique_size,
                        rt.endpoints.space_bytes(alpha),
                        rt.engine.now - t_start,
                    )
                )
            yield from rt.fence_all()
        yield from rt.barrier()

    job.run(body)
    return snapshots


def test_clique_growth(benchmark):
    snapshots = benchmark.pedantic(_run, rounds=1, iterations=1)

    # The clique grows monotonically and never exceeds contacted peers.
    cliques = [zeta for _c, zeta, _s, _t in snapshots]
    assert cliques == sorted(cliques)
    for contacted, zeta, space, _t in snapshots:
        assert zeta <= min(contacted, PROCS - 1)
        # Eq. 3 at rho=1: M_e = zeta * alpha.
        assert space == zeta * 4

    rows = [
        [contacted, zeta, space, f"{us(elapsed):.1f}"]
        for contacted, zeta, space, elapsed in snapshots
    ]
    save(
        "clique_growth",
        render_table(
            ["puts issued", "clique zeta", "endpoint bytes (Eq.3)", "elapsed (us)"],
            rows,
            title=(
                "Supplementary: on-demand endpoint creation as the "
                "communication clique grows (alpha=4 B, beta=0.3 us)"
            ),
        ),
    )


# ----------------------------------------------- sharded-PDES scaling CLI


def run_pdes_scaling(
    shards_list: list[int],
    ranks: int,
    ops: int,
    weak_scaling: bool,
    mode: str,
    seed: int,
) -> dict:
    """Sweep the PDES clique workload over shard counts.

    Strong scaling keeps the rank count fixed, so every row must
    reproduce the single-engine oracle's schedule digest and workload
    results exactly (asserted). Weak scaling grows ranks linearly with
    shards; each row records its own digest.
    """
    from repro.sim.parallel import make_factory, run_program

    rows = []
    reference = {}  # rank count -> (digest, results) of the first run
    for shards in shards_list:
        n = ranks * shards if weak_scaling else ranks
        run_mode = "single" if shards == 1 else mode
        result = run_program(
            make_factory("clique", n, ops=ops, seed=seed),
            n,
            shards=shards,
            mode=run_mode,
        )
        ref = reference.get(n)
        if ref is None:
            reference[n] = (result.schedule_digest, result.results)
        else:
            assert result.schedule_digest == ref[0], (
                f"shards={shards} diverged from the oracle digest "
                f"({result.schedule_digest:#x} vs {ref[0]:#x})"
            )
            assert result.results == ref[1], (
                f"shards={shards} diverged from the oracle workload results"
            )
        rows.append(
            {
                "shards": shards,
                "ranks": n,
                "mode": result.mode,
                "events": result.events_executed,
                "delivered": result.delivered,
                "epochs": result.epochs,
                "lookahead_us": result.lookahead * 1e6,
                "wall_seconds": round(result.wall_seconds, 4),
                "events_per_sec": round(result.events_per_sec, 1),
            }
        )
    base = rows[0]["events_per_sec"]
    for row in rows:
        row["speedup_vs_1shard"] = round(row["events_per_sec"] / base, 3)
    return {
        "workload": "clique",
        "scaling": "weak" if weak_scaling else "strong",
        "ranks_base": ranks,
        "ops_per_rank": ops,
        "seed": seed,
        "host_cores": os.cpu_count(),
        "smoke": SMOKE,
        "rows": rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--shards", default="1,2,4",
        help="comma-separated shard counts to sweep (default 1,2,4)",
    )
    parser.add_argument(
        "--ranks", type=int, default=512 if SMOKE else 10_000,
        help="simulated ranks (per shard in weak-scaling mode)",
    )
    parser.add_argument(
        "--ops", type=int, default=4 if SMOKE else 8,
        help="clique operations per rank",
    )
    parser.add_argument(
        "--weak-scaling", action="store_true",
        help="grow ranks linearly with shards instead of fixing them",
    )
    parser.add_argument(
        "--mode", default="fork", choices=("fork", "inline"),
        help="multi-shard execution mode (default fork)",
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    shards_list = [int(s) for s in args.shards.split(",") if s]

    payload = run_pdes_scaling(
        shards_list, args.ranks, args.ops, args.weak_scaling, args.mode, args.seed
    )
    path = save("clique_growth_scaling", json.dumps(payload, indent=2), ".json")

    table_rows = [
        [
            row["shards"], row["ranks"], row["mode"], row["events"],
            row["epochs"], f"{row['wall_seconds']:.3f}",
            f"{row['events_per_sec']:,.0f}", f"{row['speedup_vs_1shard']:.2f}x",
        ]
        for row in payload["rows"]
    ]
    table = render_table(
        ["shards", "ranks", "mode", "events", "epochs", "wall (s)",
         "events/s", "speedup"],
        table_rows,
        title=(
            f"Sharded-PDES clique {payload['scaling']} scaling "
            f"({payload['host_cores']} host core(s)"
            f"{', smoke' if SMOKE else ''})"
        ),
    )
    print(table)
    save("clique_growth_scaling", table)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
