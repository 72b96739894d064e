"""Contiguous datatype and RDMA region resolution (Section III-C.1).

A contiguous transfer is the base case of :class:`~repro.armci.transfer.Transfer`:
both sides are plain addresses and the whole payload is one run, so the
preferred path maps to a single zero-copy NIC operation — Eq. 7.

That path needs memory regions on both sides: the local one is found in
(or added to) the rank's registry, the remote one in the LFU region
cache, whose misses an active message to the owner services. When
either is unavailable the caller takes the active-message fall-back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterable

from ..errors import ResourceExhaustedError
from ..obs.span import kind
from ..pami.activemsg import AmEnvelope
from ..pami.context import PamiContext
from ..pami.faults import check_completion
from ..pami.memregion import MemoryRegion
from . import dispatch as _disp
from .transfer import Transfer, control_reply

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess

#: The span of a region-cache miss's round trip.
_QUERY_SPAN = kind("main", "region_miss", "region_query", None, ("dst",))

_COUNTERS = {
    "put_rdma": "armci.put_rdma",
    "get_rdma": "armci.get_rdma",
    "put_am": "armci.put_fallback",
    "get_am": "armci.get_fallback",
}


def contiguous_transfer(local_addr: int, remote_addr: int, nbytes: int) -> Transfer:
    """Describe a contiguous transfer: two addresses, one run."""
    return Transfer(
        local_addr, remote_addr, nbytes,
        lambda _config: ((local_addr, remote_addr, nbytes),),
        1, (remote_addr, nbytes), (local_addr,), 0.0, _COUNTERS,
    )


# --------------------------------------------------------------- regions


def local_segments_ready(rt: "ArmciProcess", addrs: Iterable[int]) -> bool:
    """Whether every segment ``addrs`` touch already has a local region
    (non-generator: the per-op path asks here and enters
    :func:`ensure_local_segments` only to register)."""
    registry = rt.world.regions[rt.rank]
    space = rt.world.spaces[rt.rank]
    last = None
    for addr in addrs:
        base, seg_bytes = space.segment_bounds(addr)
        if base != last and registry.find(base, seg_bytes) is None:
            return False
        last = base  # a batch staged in one buffer is looked up once
    return True


def ensure_local_segments(
    rt: "ArmciProcess", addrs: Iterable[int]
) -> Generator[Any, Any, bool]:
    """Find or create a local region for every segment ``addrs`` touch.

    Returns ``True`` when all registrations hold (RDMA is usable) and
    ``False`` (instead of raising) when the registration budget is
    exhausted — the caller then takes the fall-back protocol, exactly as
    the paper prescribes for failed ``PAMI_Memregion_create`` at scale.
    """
    registry = rt.world.regions[rt.rank]
    space = rt.world.space(rt.rank)
    last = None
    for addr in addrs:
        # Regions cover whole segments, never sub-ranges: look up and
        # create by the containing segment's bounds so repeated use of
        # one buffer — at any request size — always resolves to the same
        # registration.
        base, seg_bytes = space.segment_bounds(addr)
        if base == last or registry.find(base, seg_bytes) is not None:
            last = base  # a batch staged in one buffer is looked up once
            continue
        for retried in (False, True):
            try:
                yield from rt.transport.register_region(registry, base, seg_bytes)
                break
            except ResourceExhaustedError:
                # Under pressure, cached remote handles are expendable:
                # evicting one frees a budget slot for this (local)
                # registration.
                if retried or not rt.region_cache.evict_for_budget():
                    rt.trace.incr("armci.local_region_create_failed")
                    return False
    return True


def register_then_resolve(
    rt: "ArmciProcess", dst: int, local_addrs: Iterable[int], addr: int, nbytes: int
) -> Generator[Any, Any, MemoryRegion | None]:
    """Register the local segments ``local_addrs`` touch, then find the
    remote region handle for an RDMA target: a cache hit is free, a miss
    is :func:`query_remote_region`. ``None`` when a registration fails
    (the fall-back protocol)."""
    if not (yield from ensure_local_segments(rt, local_addrs)):
        return None
    region = rt.region_cache.lookup(dst, addr, nbytes)
    if region is not None:
        return region
    return (yield from query_remote_region(rt, dst, addr, nbytes))


def query_remote_region(
    rt: "ArmciProcess", dst: int, addr: int, nbytes: int
) -> Generator[Any, Any, MemoryRegion | None]:
    """Serve a region-cache miss: a REGION_QUERY active message to the
    owner (whose progress engine must answer), the result cached with
    LFU replacement."""
    with rt.span(_QUERY_SPAN, (dst,)) as span:
        ctx = rt.main_context
        deadline = rt._op_deadline()
        yield from rt._acquire_send_credit(dst, deadline)
        reply = rt.engine.event("regionq.reply")
        header = {"addr": addr, "nbytes": nbytes, "reply": reply, "reply_ctx": ctx}
        if rt.flow_enabled:
            header["_credit"] = True
        rt.transport.send_am(ctx, dst, _disp.REGION_QUERY, header=header)
        try:
            found = yield from ctx.wait_with_progress(reply, deadline=deadline)
            check_completion(found, op="region_query")
        finally:
            span.caused_by(reply)
    if found is None:
        rt.trace.incr("armci.remote_region_unavailable")
        return None
    rt.region_cache.insert(found)
    return found


def handle_region_query(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Target-side REGION_QUERY handler: look up the region, reply."""
    h = env.header
    region = rt.world.regions[rt.rank].find(h["addr"], h["nbytes"])
    control_reply(rt, env.src, h["reply_ctx"], h["reply"], region)
