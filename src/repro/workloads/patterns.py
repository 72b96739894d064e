"""Deterministic communication-pattern generators.

Each pattern maps ``(rank, op_index)`` to a destination rank; streams are
reproducible via an integer-hash PRNG (no global random state, so
simulated runs stay deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError

#: Seed of every pattern's integer-hash stream.
SEED = 2013
#: Fraction of the ``nwchem`` mix's operations that are accumulates (the
#: rest are gets); pure patterns are all gets.
ACC_FRACTION = 0.3

def _mix(x: int) -> int:
    """splitmix64-style integer hash."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


@dataclass(frozen=True)
class PatternConfig:
    """One workload specification."""

    pattern: str
    num_ops: int = 16
    msg_size: int = 1024

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ReproError(
                f"unknown pattern {self.pattern!r}; available: {sorted(PATTERNS)}"
            )
        if self.num_ops < 1:
            raise ReproError(f"num_ops must be >= 1, got {self.num_ops}")
        if self.msg_size < 8 or self.msg_size % 8:
            raise ReproError(
                f"msg_size must be a positive multiple of 8, got {self.msg_size}"
            )


def _uniform(rank: int, i: int, p: int, seed: int) -> int:
    dst = _mix(seed * 1_000_003 + rank * 7919 + i) % (p - 1)
    return dst if dst < rank else dst + 1  # never self


def _neighbor(rank: int, i: int, p: int, seed: int) -> int:
    return (rank + (1 if i % 2 == 0 else p - 1)) % p


def _hotspot(rank: int, i: int, p: int, seed: int) -> int:
    # 75% of traffic to rank 0 (the hot server), rest uniform.
    if rank != 0 and _mix(seed + rank * 31 + i) % 4 != 3:
        return 0
    return _uniform(rank, i, p, seed ^ 0xABCD)


def _transpose(rank: int, i: int, p: int, seed: int) -> int:
    # Pairwise exchange partner, shifting each operation (like an FFT
    # transpose schedule): dst = rank XOR (i mod p) with self-sends
    # redirected.
    dst = rank ^ ((i % p) or 1)
    return dst % p if dst % p != rank else (rank + 1) % p


#: Pattern name -> destination function.
PATTERNS = {
    "uniform": _uniform,
    "neighbor": _neighbor,
    "hotspot": _hotspot,
    "transpose": _transpose,
    "nwchem": _uniform,  # the mix of gets+accs is what distinguishes it
}


def destinations(cfg: PatternConfig, rank: int, num_procs: int) -> list[int]:
    """The destination stream for ``rank`` (deterministic)."""
    if num_procs < 2:
        raise ReproError("patterns need at least 2 processes")
    fn = PATTERNS[cfg.pattern]
    return [fn(rank, i, num_procs, SEED) for i in range(cfg.num_ops)]


def op_kinds(cfg: PatternConfig, rank: int) -> list[str]:
    """Per-op kind stream: ``"get"`` or ``"acc"``.

    Pure patterns are all-gets; the ``nwchem`` mix interleaves
    accumulates at ``ACC_FRACTION``.
    """
    if cfg.pattern != "nwchem":
        return ["get"] * cfg.num_ops
    kinds = []
    for i in range(cfg.num_ops):
        h = _mix(SEED * 31 + rank * 131 + i * 7)
        kinds.append("acc" if (h % 1000) / 1000.0 < ACC_FRACTION else "get")
    return kinds
