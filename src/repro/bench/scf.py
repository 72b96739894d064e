"""Figure 11 driver: NWChem SCF, default vs asynchronous thread."""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.nwchem.scf import ScfConfig, ScfResult, run_scf
from ..armci.config import ArmciConfig


@dataclass(frozen=True)
class ScfComparison:
    """One process count's D-vs-AT cell of Fig. 11."""

    num_procs: int
    default: ScfResult
    async_thread: ScfResult

    @property
    def improvement(self) -> float:
        """Fractional execution-time reduction from the AT design."""
        return 1.0 - self.async_thread.total_time / self.default.total_time

    @property
    def counter_time_reduction(self) -> float:
        """Factor by which AT shrinks aggregate counter time."""
        at = self.async_thread.counter_time_total
        return self.default.counter_time_total / at if at > 0 else float("inf")


def scf_comparison(
    proc_counts: tuple[int, ...],
    scf: ScfConfig,
    procs_per_node: int = 16,
) -> list[ScfComparison]:
    """Run a Fig. 11 grid: D and AT at each process count."""
    rows = []
    for p in proc_counts:
        d = run_scf(p, ArmciConfig.default_mode(), scf, procs_per_node, "D")
        at = run_scf(
            p, ArmciConfig.async_thread_mode(), scf, procs_per_node, "AT"
        )
        rows.append(ScfComparison(p, d, at))
    return rows
