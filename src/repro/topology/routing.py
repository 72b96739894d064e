"""Deterministic dimension-order routing, with fault-aware fallback.

Blue Gene/Q supports deterministic and dynamic routing, but the software
interfaces at the time of the paper enabled deterministic (dimension-order)
routing only (Section II-A, footnote 1). Dimension-order routing also gives
PAMI its pairwise message-ordering guarantee, which the ARMCI layer relies
on for location consistency.

:class:`RouteTable` extends this with the control system's response to
link failures: when the dimension-order route crosses a blocked link, a
breadth-first shortest-path search over the remaining healthy links takes
over. Routes are cached and invalidated against the link-state view's
epoch, so rerouting only costs a search when the fault picture changes.
"""

from __future__ import annotations

from collections import deque

from .torus import Torus


def _dim_steps(torus: Torus, dim: int, src: int, dst: int) -> list[int]:
    """Per-hop coordinate values walking src -> dst along one dimension.

    Takes the shorter wrap direction; ties break toward increasing
    coordinates so routes are fully deterministic.
    """
    size = torus.dims[dim]
    if src == dst:
        return []
    forward = (dst - src) % size
    backward = (src - dst) % size
    step = 1 if forward <= backward else -1
    count = forward if step == 1 else backward
    return [(src + step * (i + 1)) % size for i in range(count)]


def dimension_order_route(
    torus: Torus, src: tuple[int, ...], dst: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Full node path from ``src`` to ``dst``, inclusive of both endpoints.

    Dimensions are resolved in order (A first, then B, ...), each along its
    shorter wrap direction. The path length is ``torus.distance(src, dst)``
    hops, i.e. ``distance + 1`` nodes.
    """
    torus.validate_coord(src)
    torus.validate_coord(dst)
    path = [src]
    current = list(src)
    for dim in range(torus.ndim):
        for coord_value in _dim_steps(torus, dim, current[dim], dst[dim]):
            current[dim] = coord_value
            path.append(tuple(current))
    return path


class RouteTable:
    """Fault-aware route cache over a link-state view.

    Parameters
    ----------
    torus:
        The geometry.
    view:
        A link-state view exposing ``epoch`` (int, bumped on every
        fault-picture change), ``hard_blocked(u, v)`` (link unusable) and
        ``soft_blocked(u, v)`` (link suspect — avoided when an
        alternative exists). :class:`~repro.topology.links.LinkState` is
        the oracle view; :class:`~repro.machine.health.LinkHealthMonitor`
        the observed one.
    trace:
        Optional counter sink (``net.route_recomputes``,
        ``net.reroutes``).

    Route selection, in order:

    1. the dimension-order route, if it crosses no blocked link (the
       common case: zero faults near this pair);
    2. BFS shortest path avoiding hard- *and* soft-blocked links;
    3. BFS avoiding hard-blocked links only (all alternatives suspect:
       better a suspect link than no route);
    4. ``None`` — the destination is unreachable on every path.

    BFS visits neighbors in :meth:`Torus.neighbors` order with FIFO
    expansion, so tie-breaks between equal-length detours are fully
    deterministic.
    """

    def __init__(self, torus: Torus, view, trace=None) -> None:
        self.torus = torus
        self.view = view
        self.trace = trace
        # (src, dst) -> (view epoch, path | None)
        self._cache: dict[tuple, tuple] = {}

    def invalidate(self) -> None:
        """Drop every cached route (e.g. after swapping the view)."""
        self._cache.clear()

    def route(
        self, src: tuple[int, ...], dst: tuple[int, ...]
    ) -> list[tuple[int, ...]] | None:
        """Current healthy path ``src -> dst`` inclusive; None = unreachable."""
        if src == dst:
            return [src]
        epoch = self.view.epoch
        key = (src, dst)
        hit = self._cache.get(key)
        if hit is not None and hit[0] == epoch:
            return hit[1]
        path = self._compute(src, dst)
        self._cache[key] = (epoch, path)
        if self.trace is not None:
            self.trace.incr("net.route_recomputes")
        return path

    def _compute(self, src, dst):
        view = self.view
        path = dimension_order_route(self.torus, src, dst)
        if not any(
            view.hard_blocked(u, v) or view.soft_blocked(u, v)
            for u, v in zip(path, path[1:])
        ):
            return path
        found = self._bfs(src, dst, avoid_soft=True)
        if found is None:
            found = self._bfs(src, dst, avoid_soft=False)
        if found is not None and self.trace is not None:
            self.trace.incr("net.reroutes")
        return found

    def _bfs(self, src, dst, avoid_soft: bool):
        view = self.view
        torus = self.torus
        parent: dict[tuple, tuple] = {src: src}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for nb in torus.neighbors(node):
                if nb in parent:
                    continue
                if view.hard_blocked(node, nb):
                    continue
                if avoid_soft and view.soft_blocked(node, nb):
                    continue
                parent[nb] = node
                if nb == dst:
                    path = [dst]
                    while path[-1] != src:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                frontier.append(nb)
        return None
