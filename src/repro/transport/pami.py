"""The PAMI backend: 1:1 delegation to :mod:`repro.pami`.

This is the paper's native messaging layer and the default backend. It
adds nothing on top of the primitives — its four wire operations *are*
the primitives (same arguments, same keywords, no forwarding frame), so
a job running over :class:`PamiTransport` is byte-identical (same
events, same timings, same counters) to one calling the PAMI modules
directly, as the pre-refactor code did.
"""

from __future__ import annotations

from typing import Any, Generator

from ..pami import activemsg as _am
from ..pami import atomics as _atomics
from ..pami import rma as _rma
from .base import Transport, TransportCapabilities

#: BG/Q has no generic NIC AMOs (Section III-D): PAMI services every AMO
#: in target-side software, so the native set is empty. The what-if
#: hardware path (``world.nic_amo_support``) overrides this dynamically.
PAMI_CAPABILITIES = TransportCapabilities(
    name="pami",
    completion="counter",
    progress="dedicated_thread",
    native_rmw_ops=frozenset(),
    true_active_messages=True,
    typed_datatypes=True,
)


class PamiTransport(Transport):
    """PAMI-native transport (the Blue Gene/Q messaging stack)."""

    capabilities = PAMI_CAPABILITIES

    rdma_put = staticmethod(_rma.rdma_put)
    rdma_get = staticmethod(_rma.rdma_get)
    send_am = staticmethod(_am.send_am)
    # ``nic`` left unset follows the world's what-if flag.
    rmw = staticmethod(_atomics.rmw)

    def rmw_is_native(self, op: str) -> bool:
        # All-or-nothing on BG/Q: the Gemini-style what-if NIC services
        # every opcode; real hardware services none.
        return self.world.nic_amo_support

    def register_region(
        self, registry, base: int, nbytes: int
    ) -> Generator[Any, Any, Any]:
        return (yield from registry.create(base, nbytes))

    def fence_extra(self, rt, dst: int) -> Generator[Any, Any, None]:
        # Counter completion: the tracked acks already certify remote
        # completion; adding any event here would break byte-identity.
        return
        yield  # pragma: no cover
