"""PAMI clients: per-process communication state.

A process must create a client before any communication; the client then
creates one or more contexts (Section III-A, Figure 1). Active-message
handlers are registered per dispatch id, mirroring ``PAMI_Dispatch_set``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Container, Generator

from ..errors import PamiError
from ..sim.primitives import Delay
from .context import PamiContext

if TYPE_CHECKING:  # pragma: no cover
    from .activemsg import AmEnvelope
    from .world import PamiWorld

#: An active-message handler: ``handler(context, envelope)`` with effects.
AmHandler = Callable[[PamiContext, "AmEnvelope"], None]


class PamiClient:
    """The PAMI client of one simulated process.

    Parameters
    ----------
    world:
        The job-wide :class:`~repro.pami.world.PamiWorld`.
    rank:
        This process's rank.
    """

    __slots__ = ("world", "rank", "contexts", "_dispatch", "_dispatcher_ids", "_dispatcher")

    def __init__(self, world: "PamiWorld", rank: int) -> None:
        self.world = world
        self.rank = rank
        self.contexts: list[PamiContext] = []
        self._dispatch: dict[int, AmHandler] = {}
        #: Ids served by :attr:`_dispatcher` (a table shared across ranks).
        self._dispatcher_ids: Container[int] = ()
        self._dispatcher: AmHandler | None = None

    @property
    def num_contexts(self) -> int:
        """Number of created contexts (rho in the paper)."""
        return len(self.contexts)

    def create_context(
        self, capacity: int | None = None
    ) -> Generator[Any, Any, PamiContext]:
        """Create one communication context (a generator; costs real time).

        Context creation is expensive — Table II reports 3821-4271 us —
        so ARMCI creates contexts once at init, not per transfer.
        ``capacity`` bounds the context's injection/reception FIFO
        (``None`` = unbounded).
        """
        index = len(self.contexts)
        yield Delay(self.world.params.context_create_time(index))
        ctx = PamiContext(self, index, capacity=capacity)
        if self.contexts:
            # The async-progress design (rho = 2) gives the dedicated
            # thread the *last* context: its spans go on the async lane.
            self.contexts[-1].lane = "main"
            ctx.lane = "async"
        self.contexts.append(ctx)
        self.world.trace.incr("pami.contexts_created")
        return ctx

    def context(self, index: int) -> PamiContext:
        """Context by index.

        Raises
        ------
        PamiError
            If no such context exists.
        """
        try:
            return self.contexts[index]
        except IndexError:
            raise PamiError(
                f"rank {self.rank} has {len(self.contexts)} context(s), "
                f"index {index} invalid"
            ) from None

    def progress_context(self) -> PamiContext:
        """The context remote requests should target.

        With multiple contexts the *last* one is dedicated to asynchronous
        progress (Section III-D); with one, everything shares context 0.
        """
        if not self.contexts:
            raise PamiError(f"rank {self.rank} has no contexts")
        return self.contexts[-1]

    def register_dispatch(self, dispatch_id: int, handler: AmHandler) -> None:
        """Register an active-message handler (like ``PAMI_Dispatch_set``).

        Raises
        ------
        PamiError
            If the dispatch id is already taken.
        """
        if dispatch_id in self._dispatch or dispatch_id in self._dispatcher_ids:
            raise PamiError(f"dispatch id {dispatch_id} already registered")
        self._dispatch[dispatch_id] = handler

    def register_dispatcher(
        self, dispatch_ids: Container[int], handler: AmHandler
    ) -> None:
        """Register one handler for every id in ``dispatch_ids``.

        For a runtime whose handlers are the same on every rank: the id
        set is held by reference (one table for the whole job) and the
        handler reads ``envelope.dispatch_id`` itself, so a client holds
        two references however many ids it serves.

        Raises
        ------
        PamiError
            If a dispatcher is already registered, or an id is taken.
        """
        if self._dispatcher is not None:
            raise PamiError(f"rank {self.rank} already has a dispatcher")
        taken = [i for i in self._dispatch if i in dispatch_ids]
        if taken:
            raise PamiError(f"dispatch ids {taken} already registered")
        self._dispatcher_ids = dispatch_ids
        self._dispatcher = handler

    def handler_for(self, dispatch_id: int) -> AmHandler:
        """Look up a registered handler.

        Raises
        ------
        PamiError
            If no handler is registered for the id.
        """
        if dispatch_id in self._dispatcher_ids:
            return self._dispatcher
        try:
            return self._dispatch[dispatch_id]
        except KeyError:
            raise PamiError(
                f"rank {self.rank}: no handler for dispatch id {dispatch_id}"
            ) from None
