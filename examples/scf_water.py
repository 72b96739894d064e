#!/usr/bin/env python3
"""NWChem SCF on a water cluster — the paper's application study at
example scale (Fig. 11 shrunk to run in seconds).

Builds density/Fock global arrays for a 6-water cluster, runs a
shared-counter load-balanced Fock construction (Fig. 10's algorithm),
and compares the default (D) and asynchronous-thread (AT) runtimes.

Run:  python examples/scf_water.py
"""

from repro.armci import ArmciConfig
from repro.apps.nwchem import ScfConfig, WaterCluster, run_scf
from repro.util import render_table
from repro.util.units import us

#: Example scale: 64 ranks, 256 tasks, ~1 ms integrals per task.
PROCS = 64
SCF = ScfConfig(
    n_molecules=6,
    basis="aug-cc-pVDZ",
    nbf_override=None,  # derive 246 bf from the molecule + basis tables
    nblocks=16,
    task_time=1e-3,
    iterations=2,
)


def main() -> None:
    cluster = WaterCluster(SCF.n_molecules)
    print(
        f"SCF proxy: {SCF.n_molecules} H2O ({cluster.n_atoms} atoms, "
        f"{cluster.n_electrons} electrons), {SCF.nbf} basis functions "
        f"({SCF.basis}), {SCF.ntasks} tasks/iter x {SCF.iterations} iters, "
        f"{PROCS} processes\n"
    )

    d = run_scf(PROCS, ArmciConfig.default_mode(), SCF, label="D")
    at = run_scf(PROCS, ArmciConfig.async_thread_mode(), SCF, label="AT")

    rows = []
    for res in (d, at):
        rows.append(
            [
                res.config_label,
                f"{res.total_time * 1e3:.2f}",
                f"{us(res.counter_time_mean):.1f}",
                f"{res.counter_fraction * 100:.1f}%",
                res.tasks_done,
            ]
        )
    print(
        render_table(
            ["config", "SCF time (ms)", "counter wait/rank (us)",
             "counter share", "tasks"],
            rows,
        )
    )
    print(
        f"\nasynchronous threads cut SCF time by "
        f"{(1 - at.total_time / d.total_time) * 100:.0f}% "
        f"(paper: up to 30% on 4096 processes) and shrink load-balance\n"
        f"counter time by {d.counter_time_total / at.counter_time_total:.1f}x "
        "- run `pytest benchmarks/bench_paper.py -k fig11_scf` for the full-scale grid"
    )


if __name__ == "__main__":
    main()
