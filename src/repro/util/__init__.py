"""Utility helpers: unit conversions, table formatting, charts and timelines."""

from .units import GB, KB, MB, bytes_fmt, mbps, us
from .formatting import render_table
from .ascii_chart import ascii_chart
from .timeline import intervals, render_timeline

__all__ = [
    "intervals",
    "render_timeline",
    "GB",
    "KB",
    "MB",
    "ascii_chart",
    "bytes_fmt",
    "mbps",
    "render_table",
    "us",
]
