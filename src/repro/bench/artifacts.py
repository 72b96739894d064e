"""The registry of paper artifacts: Section IV's tables and figures.

One :class:`Artifact` per result file, in paper order. ``run`` is the
sweep driver, ``check`` asserts what the paper claims of its data,
``table`` renders the text whose bytes the identity gate pins, and
``chart`` (Figs. 4 and 6) is an ASCII plot printed after the table.
Nothing else renders a figure: ``python -m repro.bench``,
``benchmarks/bench_paper.py`` and ``tests/test_backend_identity.py``
all read :data:`ARTIFACTS`. The rest of the evidence (Eqs. 7-9, the
ablations, the fault and transport tables) is ``SUPPLEMENTARY`` in
``benchmarks/supplementary.py``, built from this :class:`Artifact`;
``bench_paper.py::test_artifact`` runs both registries.

``REPRO_BENCH_SMOKE=1`` is the one small-scale switch: Figs. 7, 9 and
11 shrink to grids that finish in seconds; an explicit ``procs``
overrides both grids.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from ..apps.nwchem import ScfConfig
from ..model import ComplexityModel, table_ii_attributes
from ..util import ascii_chart, bytes_fmt, render_table, us
from .amo import amo_latency_run
from .bandwidth import bandwidth_sweep, efficiency_series, n_half
from .latency import contiguous_latency_sweep, latency_per_byte
from .rankscan import hop_latency_estimate, rank_latency_scan
from .scf import scf_comparison
from .strided import strided_bandwidth_sweep
from .tables import table_i_rows, table_ii_rows


@dataclass(frozen=True)
class Artifact:
    """One paper table or figure: how to run, check and render it."""

    run: Callable[..., Any]
    check: Callable[[Any], None]
    table: Callable[[Any], str]
    chart: Callable[[Any], str] | None = None


def _grid(procs, smoke: tuple[int, ...], paper: tuple[int, ...]) -> tuple[int, ...]:
    """The caller's process counts, else the smoke or the paper grid."""
    if procs:
        return tuple(procs)
    return smoke if os.environ.get("REPRO_BENCH_SMOKE") == "1" else paper


def _claim(holds: bool, *context) -> None:
    """Fail like ``assert``, but also under ``python -O``."""
    if not holds:
        raise AssertionError(f"paper claim does not hold: {context}")


def _near(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected)


def _two_column(title: str, headers: list[str], first, second, fmt) -> str:
    """A size-keyed table of two sweeps (Figs. 3, 4 and 8)."""
    other = dict(second)
    rows = [[bytes_fmt(s), fmt(v), fmt(other[s])] for s, v in first]
    return render_table(headers, rows, title=title)


# -- Tables I and II, Eqs. 1-6 ----------------------------------------------


def _table1_table(rows) -> str:
    return render_table(
        ["#", "Property", "Symbol"], rows,
        title="Table I: PAMI time and space attributes",
    )


def _table2_check(rows) -> None:
    # The measured simulation values must match the paper's Table II.
    measured = {r[1]: r[3] for r in rows}
    for symbol, value in [
        ("alpha", "4 B"), ("beta", "0.30 us"), ("gamma", "8 B"),
        ("delta", "43.0 us"), ("t_ctx", "3821 - 4271 us"),
    ]:
        _claim(measured[symbol] == value, symbol, measured[symbol])


def _table2_table(rows) -> str:
    return render_table(
        ["Property", "Symbol", "Paper", "Measured (sim)"], rows,
        title="Table II: empirical values of time and space attributes",
    )


def _eqs_run(procs=None) -> list[list]:
    """Eqs. 1-6 evaluated at the paper's attribute ranges."""
    rows = []
    for zeta, sigma, tau, rho in [(1, 1, 1, 1), (1024, 3, 2, 1), (4096, 7, 3, 2)]:
        m = ComplexityModel(
            table_ii_attributes(zeta=zeta, sigma=sigma, tau=tau, rho=rho)
        )
        rows.append(
            [
                f"zeta={zeta} sigma={sigma} tau={tau} rho={rho}",
                m.context_space(),
                f"{us(m.context_time()):.0f}",
                m.endpoint_space(),
                f"{us(m.endpoint_time()):.1f}",
                m.memregion_space(),
                f"{us(m.memregion_time()):.0f}",
            ]
        )
    return rows


def _eqs_check(rows) -> None:
    # Strong-scaling point: region cache space grows to ~229 KB/proc at
    # zeta=4096, sigma=7 — the motivation for the bounded LFU cache.
    _claim(rows[2][5] == 7 * 4096 * 8 + 3 * 8, rows[2])


def _eqs_table(rows) -> str:
    return render_table(
        ["attributes", "M_c (B)", "T_c (us)", "M_e (B)", "T_e (us)",
         "M_r (B)", "T_r (us)"],
        rows,
        title="Eqs. 1-6: per-process setup space/time at paper attribute points",
    )


# -- Figs. 3-6: contiguous latency and bandwidth ----------------------------


def _fig3_check(data) -> None:
    gets, puts = dict(data[0]), dict(data[1])
    # Paper anchor points: 2.89 us get / 2.7 us put at 16 B.
    _claim(_near(gets[16], 2.89e-6, 0.02), gets[16])
    _claim(_near(puts[16], 2.7e-6, 0.02), puts[16])
    # The 256 B cache-alignment drop: 256 B is *faster* than 128 B.
    _claim(gets[256] < gets[128] and puts[256] < puts[128])
    # Get carries the round trip; put completes locally.
    _claim(all(gets[s] > puts[s] for s in gets))


def _fig3_table(data) -> str:
    return _two_column(
        "Figure 3: inter-node latency (paper: get 2.89 us / put "
        "2.7 us @16 B, drop at 256 B)",
        ["msg size", "get (us)", "put (us)"], *data, lambda t: f"{us(t):.2f}",
    )


def _fig4_check(data) -> None:
    puts, gets = dict(data[0]), dict(data[1])
    # Paper anchors: peak ~1775 MB/s (~99% of the 1.8 GB/s available).
    peak = max(puts.values())
    _claim(_near(peak, 1775, 0.01) and peak / 1800 > 0.97, peak)
    # Get's round-trip overhead is visible at small/medium sizes but the
    # curves converge by ~8 KB (within 10%).
    _claim(gets[1024] < puts[1024])
    _claim(_near(gets[8192], puts[8192], 0.1), gets[8192], puts[8192])


def _fig4_table(data) -> str:
    return _two_column(
        "Figure 4: inter-node bandwidth (paper: peak 1775 MB/s, "
        "get RTT visible to ~8 KB)",
        ["msg size", "put (MB/s)", "get (MB/s)"], *data, lambda b: f"{b:.0f}",
    )


def _fig4_chart(data) -> str:
    return ascii_chart(
        {"put": data[0], "get": data[1]},
        log_x=True, x_label="msg size (B)", y_label="MB/s",
    )


def _fig5_check(rows) -> None:
    by_size = dict(rows)
    # Paper: beyond 4 KB the latency/byte is ~1 ns (aggregation pays off
    # up to there).
    _claim(by_size[4096] < 1.5 and by_size[16384] < 1.0 and by_size[1 << 20] < 0.7)
    # Small messages pay two orders of magnitude more per byte.
    _claim(by_size[16] > 100 * by_size[1 << 20])


def _fig5_table(rows) -> str:
    return render_table(
        ["msg size", "latency/byte (ns)"],
        [[bytes_fmt(s), f"{v:.3f}"] for s, v in rows],
        title="Figure 5: effective latency/byte (paper: ~1 ns beyond "
        "4 KB; aggregate small messages)",
    )


def _fig6_check(rows) -> None:
    by_size = dict(rows)
    # Paper anchors: N1/2 = 2 KB; >= 90% efficiency beyond 16 KB
    # (our model reads 88-90% at 16 KB and is well past 90% at 64 KB).
    _claim(n_half(rows) == 2048, n_half(rows))
    _claim(by_size[16384] > 0.85 and by_size[65536] > 0.90)
    _claim(by_size[1 << 20] > 0.97)


def _fig6_table(rows) -> str:
    return render_table(
        ["msg size", "efficiency"],
        [[bytes_fmt(s), f"{v * 100:.1f}%"] for s, v in rows],
        title="Figure 6: bandwidth efficiency vs 1.8 GB/s "
        "(paper: N1/2 = 2 KB, >=90% beyond 16 KB)",
    )


def _fig6_chart(rows) -> str:
    return f"N1/2 = {bytes_fmt(n_half(rows))}\n\n" + ascii_chart(
        {"efficiency": rows},
        log_x=True, x_label="msg size (B)", y_label="fraction of 1.8 GB/s",
    )


# -- Fig. 7: get latency vs rank ---------------------------------------------


def _fig7_run(procs=None):
    return rank_latency_scan(num_procs=_grid(procs, (128,), (2048,))[0])


def _fig7_by_hops(results) -> dict[int, list[float]]:
    by_hops: dict[int, list[float]] = {}
    for r in results:
        if r.hops > 0:
            by_hops.setdefault(r.hops, []).append(r.seconds)
    return dict(sorted(by_hops.items()))


def _fig7_check(results) -> None:
    by_hops = _fig7_by_hops(results)
    diameter = max(by_hops)
    lo, hi = by_hops[min(by_hops)][0], by_hops[diameter][0]
    # Paper anchors: min 2.89 us, ~35 ns added per hop each way; on the
    # 2048-process 2*2*4*4*2 partition, diameter 7 and max 3.38 us.
    _claim(_near(lo, 2.89e-6, 0.02), lo)
    _claim(_near(hop_latency_estimate(results), 35e-9, 0.05))
    if len(results) + 1 == 2048:
        _claim(diameter == 7 and _near(hi, 3.38e-6, 0.05), diameter, hi)
    # Ranks at equal distance see equal latency (the oscillation's cause).
    for hops, values in by_hops.items():
        _claim(len({round(v * 1e12) for v in values}) == 1, hops)


def _fig7_table(results) -> str:
    by_hops = _fig7_by_hops(results)
    same_node = [r for r in results if r.hops == 0]
    return (
        render_table(
            ["hops", "ranks", "get latency (us)"],
            [[h, len(v), f"{us(v[0]):.3f}"] for h, v in by_hops.items()],
            title=(
                f"Figure 7: 16 B get latency vs rank, {len(results) + 1} procs "
                "(paper: 2048 procs on 2x2x4x4x2, 2.89-3.38 us, 35 ns/hop; "
                f"{len(same_node)} same-node ranks excluded)"
            ),
        )
        + f"\nderived per-hop latency: {hop_latency_estimate(results) * 1e9:.1f} ns"
        + f"\nsame-node (shared-memory) latency: {us(same_node[0].seconds):.3f} us"
    )


# -- Fig. 8: strided bandwidth -----------------------------------------------


def _fig8_check(data) -> None:
    puts = dict(data[0])
    # Bandwidth rises monotonically with l0 (Eq. 9: T ~ o*m/l0 + mG) ...
    values = [bw for _, bw in data[0]]
    _claim(values == sorted(values), values)
    # ... and approaches the contiguous Fig. 4 curve at large chunks.
    contiguous = dict(bandwidth_sweep(sizes=(1 << 20,), op="put"))[1 << 20]
    _claim(_near(puts[1 << 20], contiguous, 0.15), puts[1 << 20], contiguous)
    # Small chunks are message-rate bound: ~l0/(o + l0 G).
    _claim(puts[512] < 0.35 * puts[1 << 20])


def _fig8_table(data) -> str:
    return _two_column(
        "Figure 8: strided bandwidth, 1 MB total, vs chunk size "
        "(paper: tracks Fig. 4 as l0 grows)",
        ["chunk l0", "put (MB/s)", "get (MB/s)"], *data, lambda b: f"{b:.0f}",
    )


# -- Fig. 9: fetch-and-add on a rank-0 counter --------------------------------

#: D / AT with and without rank 0 computing, plus the hardware-AMO
#: what-if the paper's conclusion asks for.
FIG9_LABELS = ("D", "AT", "D+compute", "AT+compute", "HW+compute")


def _fig9_run(procs=None) -> dict:
    procs = _grid(procs, (4, 16, 64), (4, 16, 64, 256, 1024, 4096))
    return {
        (label, p): amo_latency_run(p, label, iterations=8).mean_latency
        for label in FIG9_LABELS
        for p in procs
    }


def _fig9_procs(grid) -> list[int]:
    return sorted({p for _, p in grid})


def _fig9_check(grid) -> None:
    procs = _fig9_procs(grid)
    for p in procs:
        d, at, dc, atc, hw = (grid[(label, p)] for label in FIG9_LABELS)
        # Paper: D and AT comparable when rank 0 is not computing.
        _claim(abs(d - at) / at < 0.25, p, d, at)
        # Computation at rank 0 inflates default-mode latency by roughly
        # the 300 us compute window requesters must wait out...
        _claim(dc > d + 250e-6, p, dc, d)
        # ...but the asynchronous thread is unaffected by it.
        _claim(atc < 1.5 * at, p, atc, at)
        # Hardware AMOs beat software progress outright (the NIC's 50 ns
        # service vs 600 ns software, and no thread needed at all).
        _claim(hw < atc / (10 if p >= 64 else 2), p, hw, atc)
    # Even with AT, latency grows (linearly) with system size — the
    # paper's contrast with Gemini's sublinear hardware curve.
    at_curve = [grid[("AT", p)] for p in procs]
    _claim(at_curve == sorted(at_curve) and at_curve[-1] > 10 * at_curve[0], at_curve)


def _fig9_table(grid) -> str:
    return render_table(
        ["procs"] + [f"{label} (us)" for label in FIG9_LABELS],
        [
            [p] + [f"{us(grid[(label, p)]):.2f}" for label in FIG9_LABELS]
            for p in _fig9_procs(grid)
        ],
        title=(
            "Figure 9: mean fetch-and-add latency on a rank-0 counter "
            "(paper: AT ~ D when idle; D+compute blows up; AT linear "
            "in p; hardware AMOs would fix it)"
        ),
    )


# -- Fig. 11: SCF, default vs asynchronous thread ---------------------------

#: The paper's 644 basis functions; the task grain is sized to the rank
#: count so the shared counter is exercised hard but not saturated.
FIG11_PAPER = ScfConfig(nblocks=128, task_time=6e-3, iterations=1, tasks_per_draw=2)
FIG11_SMALL = ScfConfig(nblocks=24, task_time=2e-3, iterations=1, tasks_per_draw=2)


def _fig11_run(procs=None):
    """``(rows, scf)``: the D-vs-AT cells and the input they ran."""
    procs = _grid(procs, (64, 128, 256), (1024, 2048, 4096))
    scf = FIG11_PAPER if min(procs) >= 1024 else FIG11_SMALL
    return scf_comparison(procs, scf), scf


def _fig11_check(data) -> None:
    rows, scf = data
    for cell in rows:
        # AT always wins, with a meaningful (>=10%) reduction bounded by
        # roughly the paper's band (not a 10x blowout).
        _claim(0.10 < cell.improvement < 0.55, cell.num_procs, cell.improvement)
        # The counter time collapses under AT (the paper's "reduces
        # sharply").
        _claim(cell.counter_time_reduction > 2.5, cell.num_procs)
        # All tasks executed exactly once in both runs.
        _claim(cell.default.tasks_done == scf.ntasks, cell.num_procs)
        _claim(cell.async_thread.tasks_done == scf.ntasks, cell.num_procs)
    # Strong scaling: total time drops as processes increase.
    at_times = [c.async_thread.total_time for c in rows]
    _claim(at_times == sorted(at_times, reverse=True), at_times)


def _fig11_table(data) -> str:
    rows, scf = data
    return render_table(
        ["procs", "D total (ms)", "AT total (ms)", "AT gain",
         "D counter/rank (us)", "AT counter/rank (us)"],
        [
            [
                c.num_procs,
                f"{c.default.total_time * 1e3:.1f}",
                f"{c.async_thread.total_time * 1e3:.1f}",
                f"{c.improvement * 100:.0f}%",
                f"{us(c.default.counter_time_mean):.0f}",
                f"{us(c.async_thread.counter_time_mean):.0f}",
            ]
            for c in rows
        ],
        title=(
            "Figure 11: SCF, 6 H2O / 644 bf "
            f"({scf.ntasks} tasks x {scf.iterations} iter) — paper: "
            "AT cuts execution time up to 30%, counter time collapses"
        ),
    )


def _sweeps(driver, first: str, second: str) -> Callable[..., tuple]:
    """``run`` for a figure that plots one driver's put and get curves."""
    return lambda procs=None: (driver(op=first), driver(op=second))


#: Result-file stem -> artifact, in paper order.
ARTIFACTS: dict[str, Artifact] = {
    "table1_attributes": Artifact(
        lambda procs=None: table_i_rows(),
        lambda rows: _claim(len(rows) == 13, len(rows)),
        _table1_table,
    ),
    "table2_empirical": Artifact(
        lambda procs=None: table_ii_rows(), _table2_check, _table2_table
    ),
    "eqs1_6_complexity": Artifact(_eqs_run, _eqs_check, _eqs_table),
    "fig3_latency": Artifact(
        _sweeps(contiguous_latency_sweep, "get", "put"), _fig3_check, _fig3_table
    ),
    "fig4_bandwidth": Artifact(
        _sweeps(bandwidth_sweep, "put", "get"), _fig4_check, _fig4_table, _fig4_chart
    ),
    "fig5_latency_per_byte": Artifact(
        lambda procs=None: latency_per_byte(), _fig5_check, _fig5_table
    ),
    "fig6_efficiency": Artifact(
        lambda procs=None: efficiency_series(), _fig6_check, _fig6_table, _fig6_chart
    ),
    "fig7_rank_latency": Artifact(_fig7_run, _fig7_check, _fig7_table),
    "fig8_strided": Artifact(
        _sweeps(strided_bandwidth_sweep, "put", "get"), _fig8_check, _fig8_table
    ),
    "fig9_amo": Artifact(_fig9_run, _fig9_check, _fig9_table),
    "fig11_scf": Artifact(_fig11_run, _fig11_check, _fig11_table),
}
