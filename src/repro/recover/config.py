"""Recovery configuration knobs.

Kept free of ARMCI imports so :mod:`repro.armci.config` can validate a
``recovery`` field without an import cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError


@dataclass(frozen=True)
class RecoveryConfig:
    """Knobs for the crash-recovery subsystem. Everything defaults off.

    Attach to :class:`~repro.armci.config.ArmciConfig` via its
    ``recovery`` field; the job constructs a
    :class:`~repro.recover.RecoveryManager` only when ``enabled`` is
    true, so the paper-figure code paths stay byte-identical otherwise.
    """

    #: Master switch. Off: no manager, no replication, no respawns.
    enabled: bool = False
    #: Dirty-tracking granularity for incremental checkpoints. Smaller
    #: chunks ship less data per epoch; larger chunks mean fewer
    #: I/O-vector fragments through the aggregation layer.
    chunk_bytes: int = 256
    #: Abort (``UnrecoverableError``) after this many completed
    #: recoveries; ``None`` means unbounded.
    max_recoveries: int | None = None

    def __post_init__(self) -> None:
        if self.chunk_bytes < 1:
            raise ReproError(f"chunk_bytes must be >= 1, got {self.chunk_bytes}")
        if self.max_recoveries is not None and self.max_recoveries < 1:
            raise ReproError(
                f"max_recoveries must be >= 1, got {self.max_recoveries}"
            )
