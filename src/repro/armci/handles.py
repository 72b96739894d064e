"""Non-blocking request handles.

ARMCI supports explicit handles (user waits on a specific request) and
implicit handles (the runtime tracks them; ``wait_all``/fence completes
them), with MPI-style buffer-reuse semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..errors import HandleError
from ..obs.span import Kinds
from ..sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess

#: A handle wait's span kind by the handle's kind.
_WAIT_SPANS = Kinds(
    lambda kind: ("main", "handle_wait", f"{kind}.wait", None, ("ops",))
)


class Handle:
    """Tracks local completion of one non-blocking ARMCI request.

    A request may expand to several PAMI operations (a zero-copy strided
    transfer posts one per chunk); the handle completes when all do.
    """

    __slots__ = ("owner", "kind", "_events", "_waited", "_pinned_regions")

    def __init__(self, owner: "ArmciProcess", kind: str) -> None:
        self.owner = owner
        self.kind = kind
        self._events: list[Event] = []
        self._waited = False
        self._pinned_regions: list = []

    def add_events(self, events) -> None:
        """Attach PAMI local-completion events, in posting order."""
        if self._waited:
            raise HandleError(f"{self.kind} handle extended after wait")
        self._events += events

    def pin_region(self, region) -> None:
        """Pin a cached remote region for this request's lifetime.

        The region cache refuses to evict pinned entries, so a long
        non-blocking transfer cannot have its RDMA handle deregistered
        out from under it. Unpinned via :meth:`release_pins` when the
        owner's completion hook runs.
        """
        self.owner.region_cache.pin(region)
        self._pinned_regions.append(region)

    def release_pins(self, cache) -> None:
        """Drop every pin this handle holds (idempotent)."""
        regions, self._pinned_regions = self._pinned_regions, []
        for region in regions:
            cache.unpin(region)

    @property
    def complete(self) -> bool:
        """Whether every underlying operation locally completed."""
        return all(ev.triggered for ev in self._events)

    def wait(self):
        """Block (with progress) until local completion.

        Bound by the owner's deadline (the ambient one, else
        ``config.default_deadline``); expiry raises
        :class:`~repro.errors.DeadlineExceededError` and abandons the
        request (the handle is spent, its pins are released).

        Non-generator: returns the one handle-wait generator,
        :func:`_post_and_wait` with nothing left to post.

        Raises
        ------
        HandleError
            If waited twice (handles are single-use, as in ARMCI).
        """
        return _post_and_wait(None, (self,))


def _post_and_wait(nb, args: tuple) -> Generator[Any, Any, None]:
    """One attempt of a blocking data op: post ``nb(*args)``, then run
    :meth:`Handle.wait`'s loop on the new handle in this same frame
    (``nb`` None: ``args`` is an already-posted handle)."""
    h = args[0] if nb is None else (yield from nb(*args))
    if h._waited:
        raise HandleError(f"double wait on {h.kind} handle")
    h._waited = True
    owner = h.owner
    ctx = owner.main_context
    deadline = owner._op_deadline()
    obs = owner.obs
    sid = None
    if obs is not None and h._events:
        sid = obs.begin(owner.rank, _WAIT_SPANS[h.kind], (len(h._events),))
    try:
        # One progress generator over every event, in posting order;
        # failure tokens surface as ProcessFailedError (FT extension).
        yield from ctx.wait_all_with_progress(h._events, deadline, h.kind)
    finally:
        if sid is not None:
            obs.end(sid, None, h._events)
        owner.on_handle_complete(h)
