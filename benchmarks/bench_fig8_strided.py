"""Figure 8: strided put/get bandwidth vs contiguous-chunk size (1 MB)."""

import pytest

from _report import save

from repro.bench import bandwidth_sweep, strided_bandwidth_sweep
from repro.util import bytes_fmt, render_table


def fig8_table(puts, gets) -> str:
    """The Figure 8 table from the two strided-bandwidth sweeps."""
    get_by_l0 = dict(gets)
    rows = [
        [bytes_fmt(l0), f"{bw:.0f}", f"{get_by_l0[l0]:.0f}"]
        for l0, bw in puts
    ]
    return render_table(
        ["chunk l0", "put (MB/s)", "get (MB/s)"],
        rows,
        title=(
            "Figure 8: strided bandwidth, 1 MB total, vs chunk size "
            "(paper: tracks Fig. 4 as l0 grows)"
        ),
    )


def test_fig8_strided_bandwidth(benchmark):
    def run():
        puts = strided_bandwidth_sweep(op="put")
        gets = strided_bandwidth_sweep(op="get")
        return puts, gets

    puts, gets = benchmark.pedantic(run, rounds=1, iterations=1)
    put_by_l0 = dict(puts)

    # Bandwidth rises monotonically with l0 (Eq. 9: T ~ o*m/l0 + mG) ...
    values = [put_by_l0[l0] for l0, _ in puts]
    assert values == sorted(values)
    # ... and approaches the contiguous Fig. 4 curve at large chunks.
    contiguous = dict(bandwidth_sweep(sizes=(1 << 20,), op="put"))[1 << 20]
    assert put_by_l0[1 << 20] == pytest.approx(contiguous, rel=0.15)
    # Small chunks are message-rate bound: ~l0/(o + l0 G).
    assert put_by_l0[512] < 0.35 * put_by_l0[1 << 20]

    save("fig8_strided", fig8_table(puts, gets))
