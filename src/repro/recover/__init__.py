"""Crash recovery: buddy replication, coordinated checkpoint/restore,
and a recovery manager that survives repeated rank deaths.

The paper motivates PGAS partly by resiliency (Section I cites the
authors' fault-tolerant communication runtime); this subsystem makes the
simulated runtime *recover* rather than merely detect failures:

- **Buddy replication** (:mod:`.replica`, :mod:`.buddy`): writes to
  protected memory regions are shadowed to a torus-aware partner rank
  (chosen ``MIN_BUDDY_HOPS`` hops away), batched through the ARMCI
  aggregation layer, with replication lag bounded by the epoch flush.
- **Coordinated in-memory checkpoints** (:class:`.manager.RecoveryManager`
  ``checkpoint``): quiesce-based epochs ship the dirty chunks of every
  protected region plus the application's state dict to the buddy,
  incremental after the first epoch, committed atomically at a barrier.
- **Recovery** (``RecoveryManager.recover``): on a failure-detector
  signal — fault gather, rank respawn, state
  reconstruction from the replica, and replay from the last epoch,
  integrated with the existing retry policy, FT barriers, and the
  distributed task pool's watermark failover.

Everything is off by default: without an enabled
:class:`~repro.recover.RecoveryConfig` on the ARMCI config, no recovery
code runs and the paper-figure code paths are byte-identical.
"""

from .buddy import choose_buddy
from .config import RecoveryConfig
from .manager import RecoveryManager

__all__ = ["RecoveryConfig", "RecoveryManager", "choose_buddy"]
