"""Figure 3: contiguous get/put latency, 16 B - 1 MB, adjacent nodes."""

import pytest

from _report import save

from repro.bench import contiguous_latency_sweep
from repro.util import bytes_fmt, render_table, us


def fig3_table(gets, puts) -> str:
    """The Figure 3 table from the two latency sweeps."""
    put_by_size = dict(puts)
    rows = [
        [bytes_fmt(size), f"{us(g):.2f}", f"{us(put_by_size[size]):.2f}"]
        for size, g in gets
    ]
    return render_table(
        ["msg size", "get (us)", "put (us)"],
        rows,
        title=(
            "Figure 3: inter-node latency (paper: get 2.89 us / put "
            "2.7 us @16 B, drop at 256 B)"
        ),
    )


def test_fig3_contiguous_latency(benchmark):
    def run():
        gets = contiguous_latency_sweep(op="get")
        puts = contiguous_latency_sweep(op="put")
        return gets, puts

    gets, puts = benchmark.pedantic(run, rounds=1, iterations=1)
    get_by_size = dict(gets)
    put_by_size = dict(puts)

    # Paper anchor points: 2.89 us get / 2.7 us put at 16 B.
    assert get_by_size[16] == pytest.approx(2.89e-6, rel=0.02)
    assert put_by_size[16] == pytest.approx(2.7e-6, rel=0.02)
    # The 256 B cache-alignment drop: 256 B is *faster* than 128 B.
    assert get_by_size[256] < get_by_size[128]
    assert put_by_size[256] < put_by_size[128]
    # Get carries the round trip; put completes locally.
    assert all(get_by_size[s] > put_by_size[s] for s in get_by_size)

    save("fig3_latency", fig3_table(gets, puts))
