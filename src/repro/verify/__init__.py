"""Schedule-exploration and race-detection subsystem (``repro.verify``).

The paper's location-consistency claim — per-memory-region ``cs_mr``
status words eliminate false-positive fences without admitting real
conflicts — only holds if it survives *every* legal event ordering, not
just the FIFO order the default :class:`~repro.sim.engine.Engine`
produces. This package supplies the three pieces that make the claim
testable:

- schedule exploration: :class:`~repro.sim.engine.SchedulePolicy`
  implementations (seeded random tie-breaking, bounded PCT-style
  priority perturbation) plugged into ``Engine(policy=...)``;
- a :class:`HappensBeforeOracle` observing every put/get/acc/rmw/fence
  through the runtime's observer hooks, maintaining per-rank vector
  clocks plus a golden conflict model, and flagging both *missed*
  fences (correctness bug) and *false-positive* fences (pure overhead,
  the paper's cs_tgt cost, now measurable);
- a fuzz harness (:mod:`repro.verify.fuzz`) replaying five workload
  families across seeds, with seed shrinking to a minimal event-order
  divergence log (:mod:`repro.verify.shrink`).
"""

from .oracle import (
    Access,
    HappensBeforeOracle,
    OracleReport,
    Violation,
    attach_oracle,
)
from .fuzz import (
    FUZZ_TARGETS,
    FuzzResult,
    explore,
    make_policy,
    target_chaos,
    target_scf,
    target_strided,
    target_vector,
)
from .shrink import DivergenceLog, ShrinkResult, shrink_seed, write_divergence_log

__all__ = [
    "Access",
    "HappensBeforeOracle",
    "OracleReport",
    "Violation",
    "attach_oracle",
    "FUZZ_TARGETS",
    "FuzzResult",
    "explore",
    "make_policy",
    "target_chaos",
    "target_scf",
    "target_strided",
    "target_vector",
    "DivergenceLog",
    "ShrinkResult",
    "shrink_seed",
    "write_divergence_log",
]
