"""Sharded-PDES scaling harness: a clique workload at 10^4+ simulated
ranks swept over ``--shards``, in strong- (fixed ranks) or weak-scaling
mode (``--weak-scaling``: ranks grow with shards). The first shard count
must be 1: that row is the single-engine oracle, and every sharded run
at the same rank count must match its schedule digest and results
(asserted). Emits ``benchmarks/results/clique_growth_scaling.json``::

    python benchmarks/bench_clique_growth.py --shards 1,2,4 --ranks 10000

(The on-demand endpoint table ``clique_growth`` is an entry of
``supplementary.SUPPLEMENTARY``, run by ``bench_paper.py``.)
"""

import argparse
import json
import os
import sys

from _report import save

from repro.util import render_table

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


def run_pdes_scaling(
    shards_list: list[int],
    ranks: int,
    ops: int,
    weak_scaling: bool,
    mode: str,
    seed: int,
) -> dict:
    """Sweep the PDES clique workload over shard counts.

    ``shards_list[0]`` is 1 (``main`` rejects any other list): that row
    runs the single engine and is the oracle and the speedup base.
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
        help="comma-separated shard counts to sweep, starting at 1 (default 1,2,4)",
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
    if shards_list[:1] != [1]:
        parser.error(
            f"--shards {args.shards}: the first entry must be 1, the "
            "single-engine oracle every sharded row is checked against"
        )

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
