"""MPI-3 one-sided (RMA window) backend, modeled after foMPI / DART-MPI.

The same simulated wire as PAMI — the torus, its timings, chaos, link
faults, and integrity all apply unchanged — but with MPI-3 window
semantics layered on:

- **Origin window overhead.** Every put/get run pays ``WIN_ORIGIN_OVERHEAD``
  of origin-side software occupancy (window bookkeeping, datatype
  checks) that the PAMI fast path does not, injected through the
  primitives' ``extra_occupancy`` hook so it composes with contention,
  chaos, and routing exactly like any other occupancy.
- **Flush completion.** MPI-3 passive-target completion is certified by
  ``MPI_Win_flush``, not per-op counters: every ARMCI fence pays one
  flush round-trip to the target (plus ``FLUSH_OVERHEAD`` software
  cost), counted in ``transport.flush_syncs``.
- **Limited native AMOs.** ``MPI_Fetch_and_op``/``MPI_Compare_and_swap``
  with hardware-offloadable ops (add, replace, no-op, CAS) complete in
  the target NIC without software progress — the passive-target promise.
  ``fetch_max`` has no offload and falls back to a target-side software
  agent (progress-dependent, like every PAMI AMO), counted in
  ``transport.amo_software_fallbacks``.
- **Emulated active messages.** MPI has no AM primitive; the backend
  runs them as a two-sided protocol serviced at the target, paying
  ``AM_EMULATION_OVERHEAD`` per delivery on top of the handler cost.
- **Window attach.** Region registration is ``MPI_Win_attach``; each
  registration pays ``WIN_ATTACH_OVERHEAD`` on top of the PAMI-level
  registration cost, counted in ``transport.win_attach``.

Progress remains whatever the job configures: default (D) mode is the
pure passive-target model — progress only inside MPI calls — and AT mode
models an MPI library with an internal progress thread.
"""

from __future__ import annotations

from typing import Any, Generator

from ..pami import activemsg as _am
from ..pami import atomics as _atomics
from ..pami import rma as _rma
from ..sim.primitives import Delay
from .base import Transport, TransportCapabilities

#: Origin-side software occupancy per RMA op (window bookkeeping).
WIN_ORIGIN_OVERHEAD = 120e-9
#: Target-side service cost per emulated active message.
AM_EMULATION_OVERHEAD = 400e-9
#: Extra cost per region registration (MPI_Win_attach).
WIN_ATTACH_OVERHEAD = 500e-9
#: Origin software cost of one MPI_Win_flush (plus the wire round-trip).
FLUSH_OVERHEAD = 100e-9

#: Ops with NIC offload under MPI-3 RMA (fetch-and-add, replace, no-op
#: reads, compare-and-swap). ``fetch_max`` is deliberately absent: max
#: has no hardware offload, so the library emulates it in software.
MPI3_NATIVE_RMW_OPS = frozenset({"fetch_add", "swap", "compare_swap", "fetch"})

MPI3_CAPABILITIES = TransportCapabilities(
    name="mpi3",
    completion="flush",
    progress="mpi_calls",
    native_rmw_ops=MPI3_NATIVE_RMW_OPS,
    true_active_messages=False,
    typed_datatypes=True,  # MPI derived datatypes
    rma_origin_overhead=WIN_ORIGIN_OVERHEAD,
    am_emulation_overhead=AM_EMULATION_OVERHEAD,
    registration_overhead=WIN_ATTACH_OVERHEAD,
    flush_overhead=FLUSH_OVERHEAD,
)


class Mpi3Transport(Transport):
    """MPI-3 one-sided windows over the simulated torus."""

    capabilities = MPI3_CAPABILITIES

    def rdma_put(
        self, ctx, dst_rank, runs, want_remote_ack=False, extra_occupancy=0.0
    ):
        return _rma.rdma_put(
            ctx, dst_rank, runs, want_remote_ack=want_remote_ack,
            extra_occupancy=extra_occupancy + WIN_ORIGIN_OVERHEAD,
        )

    def rdma_get(self, ctx, dst_rank, runs, extra_occupancy=0.0):
        return _rma.rdma_get(
            ctx, dst_rank, runs, extra_occupancy=extra_occupancy + WIN_ORIGIN_OVERHEAD
        )

    def send_am(
        self, ctx, dst_rank, dispatch_id, header=None, payload=None,
        target_context=None,
    ):
        # Emulated AM: the receive-side agent pays the two-sided match
        # cost on top of whatever handler cost the protocol declared.
        header = dict(header or {})
        header["_cost"] = header.get("_cost", 0.0) + AM_EMULATION_OVERHEAD
        self.world.trace.incr("transport.am_emulations")
        return _am.send_am(
            ctx, dst_rank, dispatch_id, header=header, payload=payload,
            target_context=target_context,
        )

    def rmw(
        self, ctx, dst_rank, addr, op, operand=0, operand2=0,
        target_context=None, credited=False,
    ):
        native = op in MPI3_NATIVE_RMW_OPS
        if native:
            self.world.trace.incr("transport.amo_native")
        else:
            self.world.trace.incr("transport.amo_software_fallbacks")
        return _atomics.rmw(
            ctx, dst_rank, addr, op, operand, operand2,
            target_context=target_context, credited=credited, nic=native,
        )

    def rmw_is_native(self, op: str) -> bool:
        return op in MPI3_NATIVE_RMW_OPS

    def register_region(
        self, registry, base: int, nbytes: int
    ) -> Generator[Any, Any, Any]:
        # Budget exhaustion still raises fast (before time is charged);
        # the attach overhead is paid only on successful registration.
        region = yield from registry.create(base, nbytes)
        self.world.trace.incr("transport.win_attach")
        yield Delay(WIN_ATTACH_OVERHEAD)
        return region

    def fence_extra(self, rt, dst: int) -> Generator[Any, Any, None]:
        # MPI_Win_flush(dst): remote completion is certified by a flush
        # round-trip, even when no write acks were tracked.
        world = self.world
        rtt = 2 * world.network.hops(rt.rank, dst) * world.params.hop_latency
        world.trace.incr("transport.flush_syncs")
        yield Delay(rtt + FLUSH_OVERHEAD)
