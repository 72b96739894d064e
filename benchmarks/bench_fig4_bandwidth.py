"""Figure 4: put/get bandwidth, two processes, inter-node."""

import pytest

from _report import save

from repro.bench import bandwidth_sweep
from repro.util import bytes_fmt, render_table


def fig4_table(puts, gets) -> str:
    """The Figure 4 table from the two bandwidth sweeps."""
    get_by_size = dict(gets)
    rows = [
        [bytes_fmt(size), f"{p:.0f}", f"{get_by_size[size]:.0f}"]
        for size, p in puts
    ]
    return render_table(
        ["msg size", "put (MB/s)", "get (MB/s)"],
        rows,
        title=(
            "Figure 4: inter-node bandwidth (paper: peak 1775 MB/s, "
            "get RTT visible to ~8 KB)"
        ),
    )


def test_fig4_bandwidth(benchmark):
    def run():
        puts = bandwidth_sweep(op="put")
        gets = bandwidth_sweep(op="get")
        return puts, gets

    puts, gets = benchmark.pedantic(run, rounds=1, iterations=1)
    put_by_size = dict(puts)
    get_by_size = dict(gets)

    # Paper anchors: peak ~1775 MB/s (~99% of the 1.8 GB/s available).
    peak = max(put_by_size.values())
    assert peak == pytest.approx(1775, rel=0.01)
    assert peak / 1800 > 0.97
    # Get's round-trip overhead is visible at small/medium sizes but the
    # curves converge by ~8 KB (within 10%).
    assert get_by_size[1024] < put_by_size[1024]
    assert get_by_size[8192] == pytest.approx(put_by_size[8192], rel=0.1)

    save("fig4_bandwidth", fig4_table(puts, gets))
