"""Benchmark drivers regenerating the paper's tables and figures.

Each driver module produces the rows/series of one evaluation artifact
(Section IV); :mod:`repro.bench.artifacts` is the registry that pairs
every driver with its paper-claim check and its table renderer, read by
``python -m repro.bench``, ``benchmarks/bench_paper.py`` and the
byte-identity gate. All results are *simulated* measurements produced
by running the actual protocols — see DESIGN.md for the calibration
story.
"""

from .latency import contiguous_latency_sweep, latency_per_byte
from .bandwidth import bandwidth_sweep, efficiency_series, n_half
from .rankscan import rank_latency_scan
from .strided import strided_bandwidth_sweep
from .scf import scf_comparison
from .tables import table_i_rows, table_ii_rows

__all__ = [
    "bandwidth_sweep",
    "contiguous_latency_sweep",
    "efficiency_series",
    "latency_per_byte",
    "n_half",
    "rank_latency_scan",
    "scf_comparison",
    "strided_bandwidth_sweep",
    "table_i_rows",
    "table_ii_rows",
]
