"""Non-blocking request handles.

ARMCI supports explicit handles (user waits on a specific request) and
implicit handles (the runtime tracks them; ``wait_all``/fence completes
them), with MPI-style buffer-reuse semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import HandleError
from ..pami.faults import check_completion
from ..sim.event import Event

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import ArmciProcess


class Handle:
    """Tracks local completion of one non-blocking ARMCI request.

    A request may expand to several PAMI operations (strided transfers
    post one per chunk); the handle completes when all do.
    """

    __slots__ = ("owner", "kind", "_events", "_waited", "_pinned_regions")

    def __init__(self, owner: "ArmciProcess", kind: str) -> None:
        self.owner = owner
        self.kind = kind
        self._events: list[Event] = []
        self._waited = False
        self._pinned_regions: list = []

    def add_event(self, event: Event) -> None:
        """Attach one PAMI local-completion event."""
        if self._waited:
            raise HandleError(f"{self.kind} handle extended after wait")
        self._events.append(event)

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

    def wait(self, timeout: float | None = None):
        """Generator: block (with progress) until local completion.

        Inherits the owner's ambient deadline (or takes an explicit
        ``timeout``); expiry raises
        :class:`~repro.errors.DeadlineExceededError` and abandons the
        request (the handle is spent, its pins are released).

        Raises
        ------
        HandleError
            If waited twice (handles are single-use, as in ARMCI).
        """
        if self._waited:
            raise HandleError(f"double wait on {self.kind} handle")
        self._waited = True
        owner = self.owner
        ctx = owner.main_context
        deadline = owner._op_deadline(timeout)
        obs = owner.obs
        sid = None
        if obs is not None and self._events:
            sid = obs.begin(
                owner.rank, "main", "handle_wait",
                f"{self.kind}.wait", ops=len(self._events),
            )
        try:
            for ev in self._events:
                if not ev._triggered:
                    yield from ctx.wait_with_progress(ev, deadline=deadline)
                # Failure tokens surface as ProcessFailedError (FT extension).
                check_completion(ev.value, op=self.kind)
        finally:
            if sid is not None:
                # Edge to each registered cause; refine the category when
                # the causes agree (rdma_wait / am_wait read better in
                # the critical-path attribution than the generic label).
                cats: set = set()
                for ev in self._events:
                    cause = obs.span_for_event(ev)
                    if cause is not None:
                        obs.add_edge(cause, sid)
                        cats.add(obs.category(cause))
                if cats == {"rdma"}:
                    obs.end(sid, category="rdma_wait")
                elif cats and cats <= {"am", "am_service"}:
                    obs.end(sid, category="am_wait")
                else:
                    obs.end(sid)
            owner.on_handle_complete(self)
