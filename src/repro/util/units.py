"""Unit constants and conversions.

All simulator times are in **seconds**; all sizes in **bytes**. These helpers
convert to the units the paper reports (microseconds, MB/s).
"""

from __future__ import annotations

#: One kilobyte (paper uses powers of two for message sizes).
KB = 1024
#: One megabyte.
MB = 1024 * 1024
#: One gigabyte.
GB = 1024 * 1024 * 1024

#: Decimal megabyte used for bandwidth reporting (paper reports MB/s against
#: a 2 GB/s link, i.e. decimal units as is conventional for link rates).
MB_DECIMAL = 1_000_000


def us(seconds: float) -> float:
    """Convert seconds to microseconds."""
    return seconds * 1e6


def mbps(nbytes: float, seconds: float) -> float:
    """Bandwidth in decimal MB/s for ``nbytes`` moved in ``seconds``."""
    if seconds <= 0:
        raise ValueError(f"elapsed time must be positive, got {seconds}")
    return nbytes / seconds / MB_DECIMAL


def bytes_fmt(nbytes: int) -> str:
    """Render a byte count the way the paper labels its x-axes (16B, 4KB...)."""
    if nbytes >= MB and nbytes % MB == 0:
        return f"{nbytes // MB}MB"
    if nbytes >= KB and nbytes % KB == 0:
        return f"{nbytes // KB}KB"
    return f"{nbytes}B"
