"""Atomic accumulate (``dst += src``) on float64 data.

Accumulates are associative — ordering among updates is not required
(Section III-E) — but they must be *atomic* with respect to each other.
With no NIC support, the target's progress engine applies them serially,
which makes accumulate another beneficiary of the asynchronous-thread
design: a computing target in default mode delays every incoming update.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ArmciError
from ..pami.activemsg import AmEnvelope
from ..pami.context import PamiContext
from ..pami.delivery import lossy
from ..pami.memory import as_u8
from .handles import Handle
from .transfer import control_reply

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess


def nbacc(
    rt: "ArmciProcess",
    dst: int,
    local_addr: int,
    remote_addr: int,
    nbytes: int,
    handle: Handle,
) -> Handle:
    """Post a non-blocking accumulate of ``nbytes`` of float64 data."""
    if nbytes % 8 != 0:
        raise ArmciError(f"accumulate needs whole float64s, got {nbytes} bytes")
    world = rt.world
    data = world.space(rt.rank).snapshot(local_addr, nbytes)
    ctx = rt.main_context
    ack = world.engine.event(f"acc.ack.{rt.rank}->{dst}")
    flops_cost = (nbytes // 8) * world.params.acc_flop_time
    header = {
        "addr": remote_addr,
        "ack": ack,
        "reply_ctx": ctx,
        "_cost": flops_cost,
    }
    if rt.flow_enabled:
        header["_credit"] = True
    op = rt.transport.send_am(
        ctx,
        dst,
        _ACC_REQUEST_ID,
        header=header,
        payload=data,
    )
    handle.add_event(op.local_event)
    if lossy(world, rt.rank, dst):
        # A lost ACC_REQUEST is reported on the ack cookie; waiting it at
        # the handle surfaces the transient loss at the accumulate itself
        # so the retry layer can re-issue it.
        handle.add_event(ack)
    rt.track_write_ack(dst, ack)
    rt.trace.incr("armci.accs")
    return handle


_ACC_REQUEST_ID = 4


def handle_acc_request(rt: "ArmciProcess", ctx: PamiContext, env: AmEnvelope) -> None:
    """Target-side accumulate: apply update atomically, ack for fences.

    Runs inside the progress engine while holding the context lock, which
    is what makes concurrent accumulates atomic.
    """
    h = env.header
    space = rt.world.space(rt.rank)
    update = as_u8(env.payload).view(np.float64)
    view = space.view(h["addr"], update.size * 8).view(np.float64)
    view += update
    rt.trace.incr("armci.accs_applied")
    control_reply(rt, env.src, h["reply_ctx"], h["ack"])
