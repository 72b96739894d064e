"""LogGP latency models for the ARMCI communication protocols.

Closed forms of the paper's Equations 7-9 (Section III-C), using the LogGP
parameters (Alexandrov et al.):

- ``o``  -- time the processor is busy issuing/handling a message,
- ``L``  -- network latency,
- ``G``  -- inverse bandwidth (seconds per byte),
- ``g``  -- per-message gap (ignored by the paper "for simplicity").

These are used to cross-check the simulator: benchmarks compare simulated
protocol latencies against these closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError


@dataclass(frozen=True)
class LogGPModel:
    """LogGP parameter set and the paper's protocol latency equations."""

    #: Processor communication overhead per message (seconds).
    o: float
    #: Network latency (seconds).
    L: float
    #: Inverse bandwidth (seconds/byte).
    G: float

    def __post_init__(self) -> None:
        if self.o < 0 or self.L < 0 or self.G <= 0:
            raise ReproError(
                f"LogGP parameters must be non-negative with G > 0, got "
                f"o={self.o}, L={self.L}, G={self.G}"
            )

    def t_rdma(self, m: int) -> float:
        """Eq. 7: contiguous get/put via RDMA.

        ``T_rdma ~ o + L + (m-1) G`` — no remote processor involvement.
        """
        self._check_m(m)
        return self.o + self.L + (m - 1) * self.G

    def t_strided(self, m: int, l0: int) -> float:
        """Eq. 9: strided transfer as a list of non-blocking RDMA ops.

        ``T_strided ~ o * (m / l0) + m G`` — the per-message overhead ``o``
        is paid once per contiguous chunk, so latency is inversely
        proportional to the chunk size ``l0``.
        """
        self._check_m(m)
        if l0 <= 0 or m % l0 != 0:
            raise ReproError(f"chunk size {l0} must evenly divide message {m}")
        num_chunks = m // l0
        return self.o * num_chunks + m * self.G

    @staticmethod
    def _check_m(m: int) -> None:
        if m < 1:
            raise ReproError(f"message size must be >= 1 byte, got {m}")
