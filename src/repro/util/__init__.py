"""Utility helpers: unit conversions, statistics, and table formatting."""

from .units import GB, KB, MB, bytes_fmt, mbps, us
from .stats import Summary, summarize
from .formatting import render_table
from .ascii_chart import ascii_chart
from .timeline import intervals, render_timeline

__all__ = [
    "intervals",
    "render_timeline",
    "GB",
    "KB",
    "MB",
    "Summary",
    "ascii_chart",
    "bytes_fmt",
    "mbps",
    "render_table",
    "summarize",
    "us",
]
