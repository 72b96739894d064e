"""Backend-agnostic transport interface (DESIGN.md §15).

The ARMCI protocol layer talks to the network through exactly four
primitive families — RDMA put/get, active messages, atomic
read-modify-writes — plus memory-region registration and fence/flush
completion. :class:`Transport` names that surface; each backend
implements it and declares *how* it implements it in a
:class:`TransportCapabilities` descriptor (native AMO set, completion
style, progress model), so protocol code can branch on capabilities
instead of backend names.

Two backends ship:

- ``pami`` (:mod:`repro.transport.pami`) — the paper's Blue Gene/Q
  messaging layer, delegating 1:1 to :mod:`repro.pami`. The default;
  byte-identical to the pre-transport-layer simulation.
- ``mpi3`` (:mod:`repro.transport.mpi3`) — MPI-3 one-sided windows à la
  foMPI/DART-MPI: per-op origin window overhead, flush-based fences,
  a limited native AMO set with software fallback, and emulated active
  messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Generator

if TYPE_CHECKING:  # pragma: no cover
    from ..pami.activemsg import AmOp
    from ..pami.atomics import RmwOp
    from ..pami.context import PamiContext
    from ..pami.memregion import MemoryRegion, MemoryRegionRegistry
    from ..pami.world import PamiWorld
    from ..sim.event import Event


@dataclass(frozen=True)
class TransportCapabilities:
    """Per-backend capability descriptor.

    Attributes
    ----------
    name:
        Registry key (``config.backend`` value selecting this backend).
    completion:
        ``"counter"`` — per-op completion counters/callbacks (PAMI), a
        fence only reaps already-tracked acks. ``"flush"`` — completion
        is certified by a window flush, so every fence additionally pays
        a flush round-trip to the target.
    progress:
        ``"dedicated_thread"`` — the backend can drive progress from a
        dedicated thread (PAMI contexts). ``"mpi_calls"`` — passive-target
        progress happens only inside MPI calls (the MPI-3 model; an async
        thread then models a library-internal progress thread).
    native_rmw_ops:
        AMO opcodes the backend services without target-side software
        (NIC/hardware offload). Ops outside this set fall back to a
        software agent at the target and are counted in
        ``transport.amo_software_fallbacks``.
    true_active_messages:
        Whether the wire has first-class active messages (PAMI) or the
        backend emulates them (MPI-3: two-sided protocol under RMA),
        paying ``am_emulation_overhead`` per delivery.
    typed_datatypes:
        Whether the NIC walks typed/derived datatypes (both backends:
        PAMI typed transfers, MPI derived datatypes).
    rma_origin_overhead:
        Origin-side software occupancy (seconds) added to every RMA
        put/get — window bookkeeping the PAMI fast path does not pay.
    am_emulation_overhead:
        Target-side service cost (seconds) added to every emulated
        active message.
    registration_overhead:
        Extra cost (seconds) per memory-region registration
        (``MPI_Win_attach``-style).
    flush_overhead:
        Origin-side software cost (seconds) of one flush, on top of the
        flush round-trip; only meaningful under ``completion="flush"``.
    """

    name: str
    completion: str
    progress: str
    native_rmw_ops: frozenset[str] = frozenset()
    true_active_messages: bool = True
    typed_datatypes: bool = True
    rma_origin_overhead: float = 0.0
    am_emulation_overhead: float = 0.0
    registration_overhead: float = 0.0
    flush_overhead: float = 0.0


class Transport:
    """One job's binding of the ARMCI protocol layer to a wire backend.

    Stateless apart from the world/config references: every method takes
    the initiating context explicitly, exactly like the PAMI primitives
    it abstracts. All methods are non-generators returning op handles,
    except the registration and fence hooks (generators, documented).
    """

    capabilities: TransportCapabilities

    def __init__(self, world: "PamiWorld", config) -> None:
        self.world = world
        self.config = config

    # ------------------------------------------------------------- RMA

    def rdma_put(
        self,
        ctx: "PamiContext",
        dst_rank: int,
        runs: "list[tuple[Any, Any, int]]",
        want_remote_ack: bool = False,
        extra_occupancy: float = 0.0,
    ) -> "tuple[list[Event], list[Event] | None]":
        """Post one non-blocking one-sided put per ``(local, remote,
        nbytes)`` run (buffers captured at post); each run's local
        completion event and, with ``want_remote_ack``, its remote ack.

        Either side of a run is an address or a typed-datatype layout (see
        :mod:`repro.pami.rma`); ``extra_occupancy`` is added to each run's
        (a typed transfer's descriptor cost)."""
        raise NotImplementedError

    def rdma_get(
        self,
        ctx: "PamiContext",
        dst_rank: int,
        runs: "list[tuple[Any, Any, int]]",
        extra_occupancy: float = 0.0,
    ) -> "list[Event]":
        """Post one non-blocking one-sided get per run (runs as in
        :meth:`rdma_put`); each run's local completion event."""
        raise NotImplementedError

    # ------------------------------------------------- active messages

    def send_am(
        self,
        ctx: "PamiContext",
        dst_rank: int,
        dispatch_id: int,
        header: dict[str, Any] | None = None,
        payload=None,
        target_context: int | None = None,
    ) -> "AmOp":
        """Post a non-blocking active message (serviced by target
        progress)."""
        raise NotImplementedError

    # ------------------------------------------------------------ AMOs

    def rmw(
        self,
        ctx: "PamiContext",
        dst_rank: int,
        addr: int,
        op: str,
        operand: int = 0,
        operand2: int = 0,
        target_context: int | None = None,
        credited: bool = False,
    ) -> "RmwOp":
        """Post a non-blocking read-modify-write (fetch semantics)."""
        raise NotImplementedError

    def rmw_is_native(self, op: str) -> bool:
        """Whether ``op`` completes without target-side software progress
        (and therefore takes no FIFO credit under flow control)."""
        raise NotImplementedError

    # ----------------------------------------------------- registration

    def register_region(
        self, registry: "MemoryRegionRegistry", base: int, nbytes: int
    ) -> Generator[Any, Any, "MemoryRegion"]:
        """Register ``[base, base+nbytes)`` for one-sided access.

        Generator charging simulated time; raises
        :class:`~repro.errors.ResourceExhaustedError` (before any time is
        charged) when the registration budget is spent.
        """
        raise NotImplementedError

    # ------------------------------------------------ completion/fence

    def fence_extra(self, rt, dst: int) -> Generator[Any, Any, None]:
        """Backend-specific completion work a fence to ``dst`` performs
        *after* reaping the tracked acks.

        Counter-completion backends (PAMI) do nothing — the generator
        must then add **zero** events to the engine. Flush-completion
        backends pay the flush round-trip here.
        """
        raise NotImplementedError
