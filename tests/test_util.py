"""Unit tests for units and table formatting helpers."""

import pytest
from repro.util import GB, KB, MB, bytes_fmt, mbps, render_table, us


class TestUnits:
    def test_constants(self):
        assert KB == 1024
        assert MB == 1024**2
        assert GB == 1024**3

    def test_us_and_ns(self):
        assert us(2.5e-6) == pytest.approx(2.5)

    def test_mbps_decimal(self):
        # 1775 MB/s means 1.775e9 bytes per second, decimal MB.
        assert mbps(1.775e9, 1.0) == pytest.approx(1775)

    def test_mbps_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            mbps(100, 0.0)

    def test_bytes_fmt(self):
        assert bytes_fmt(16) == "16B"
        assert bytes_fmt(2048) == "2KB"
        assert bytes_fmt(1 << 20) == "1MB"
        assert bytes_fmt(1536) == "1536B"  # not a whole KB


class TestFormatting:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2.5], [100, 0.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        # All rows share the same width.
        assert len({len(line) for line in lines}) == 1

    def test_render_table_title(self):
        out = render_table(["x"], [[1]], title="Title")
        assert out.splitlines()[0] == "Title"

    def test_render_table_column_mismatch_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            render_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        out = render_table(["v"], [[0.123456789]])
        assert "0.1235" in out


class TestAsciiChart:
    def _series(self):
        return {"a": [(2**k, k * 1.0) for k in range(4, 12)]}

    def test_basic_render(self):
        from repro.util import ascii_chart

        out = ascii_chart(self._series(), log_x=True, x_label="x", y_label="y")
        lines = out.splitlines()
        assert lines[0] == "y"
        assert any("o" in line for line in lines)
        assert "o=a" in lines[-1]

    def test_multiple_series_distinct_marks(self):
        from repro.util import ascii_chart

        out = ascii_chart(
            {"up": [(1, 1), (2, 2)], "down": [(1, 2), (2, 1)]}
        )
        assert "o=up" in out and "x=down" in out
        assert "o" in out and "x" in out

    def test_empty_rejected(self):
        from repro.util import ascii_chart

        with pytest.raises(ValueError):
            ascii_chart({})
        with pytest.raises(ValueError):
            ascii_chart({"a": []})

    def test_log_x_requires_positive(self):
        from repro.util import ascii_chart

        with pytest.raises(ValueError):
            ascii_chart({"a": [(0, 1), (2, 2)]}, log_x=True)

    def test_flat_series_does_not_crash(self):
        from repro.util import ascii_chart

        out = ascii_chart({"flat": [(1, 5.0), (2, 5.0), (3, 5.0)]})
        assert "o" in out
