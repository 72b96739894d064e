"""Torus link enumeration and the link-state fault table.

Blue Gene/Q tolerates individual link failures: the control system marks
the link down and traffic is routed around it (Chen et al., IEEE Micro
2012). The seed model had no notion of an individual link — this module
gives every undirected torus link an identity so links can be killed,
degraded (latency multiplier), or made lossy/corrupting at runtime.

:func:`enumerate_links` is careful with degenerate wrap dimensions:

- size-1 dimensions have no links (a +1 step is a self-link);
- size-2 dimensions have **one** physical link per node pair — the +1 and
  -1 steps traverse the same wire, so the pair is deduplicated;
- size >= 3 dimensions contribute exactly one link per node (the +1
  step), i.e. ``N`` links for ``N`` nodes.

:class:`LinkState` is the *ground truth* the simulated hardware consults;
the observed view that routing acts on may lag it (see
:mod:`repro.machine.health`). Every mutation bumps ``epoch`` so cached
routes invalidate (:class:`~repro.topology.routing.RouteTable`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import TopologyError
from .torus import Torus


@dataclass(frozen=True, order=True)
class Link:
    """One undirected torus link in canonical form.

    Attributes
    ----------
    a, b:
        Endpoint node coordinates with ``a < b`` lexicographically, so
        each physical wire has exactly one key regardless of traversal
        direction.
    dim:
        The dimension the link runs along.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    dim: int


def link_key(torus: Torus, u: tuple[int, ...], v: tuple[int, ...]) -> Link:
    """Canonical :class:`Link` for the hop ``u -> v`` (either direction).

    Raises
    ------
    TopologyError
        If ``u`` and ``v`` are not nearest neighbors on the torus.
    """
    torus.validate_coord(u)
    torus.validate_coord(v)
    diff_dim = None
    for dim, (x, y) in enumerate(zip(u, v)):
        if x == y:
            continue
        if diff_dim is not None or torus.dim_distance(x, y, dim) != 1:
            raise TopologyError(f"{u} and {v} are not torus neighbors")
        diff_dim = dim
    if diff_dim is None:
        raise TopologyError(f"self-link at {u}")
    a, b = (u, v) if u < v else (v, u)
    return Link(a, b, diff_dim)


def enumerate_links(torus: Torus) -> tuple[Link, ...]:
    """All undirected links of the torus, deterministically ordered.

    Per dimension of size ``s``: 0 links when ``s == 1`` (self-links are
    skipped), ``N/2`` when ``s == 2`` (the two wrap directions share one
    wire), ``N`` when ``s >= 3`` — so a torus with every dimension >= 3
    has exactly ``ndim * N`` links.
    """
    seen: set[Link] = set()
    links: list[Link] = []
    for coord in torus.coords():
        for dim, size in enumerate(torus.dims):
            if size == 1:
                continue
            nb = list(coord)
            nb[dim] = (coord[dim] + 1) % size
            link = link_key(torus, coord, tuple(nb))
            if link not in seen:
                seen.add(link)
                links.append(link)
    return tuple(sorted(links))


class LinkState:
    """Ground-truth per-link fault table.

    Tracks which links are dead, their latency multipliers, and their
    loss/corruption probabilities. Mutations bump :attr:`epoch`;
    consumers key their route caches on it. Also usable directly as a
    routing *view* (:meth:`hard_blocked` / :meth:`soft_blocked`) when no
    health monitor mediates — the oracle view where routing reacts to
    faults instantly.
    """

    def __init__(self, torus: Torus) -> None:
        self.torus = torus
        #: Bumped on every mutation; route caches invalidate against it.
        self.epoch = 0
        self._dead: set[Link] = set()
        self._factor: dict[Link, float] = {}
        self._loss: dict[Link, float] = {}
        self._corrupt: dict[Link, float] = {}
        # Independent fixed-seed stream: link-level dice must not
        # perturb the ChaosEngine's replayable fault sequence.
        self._rng = random.Random(0x1B)

    # ------------------------------------------------------- mutations

    def key(self, u: tuple[int, ...], v: tuple[int, ...]) -> Link:
        """Canonical link for the hop ``u -> v`` (validates adjacency)."""
        return link_key(self.torus, u, v)

    def kill(self, u, v) -> Link:
        """Mark the link dead: every transfer crossing it is lost."""
        link = self.key(u, v)
        self._dead.add(link)
        self.epoch += 1
        return link

    def revive(self, u, v) -> Link:
        """Bring a dead link back (clears degradation/loss modes too)."""
        link = self.key(u, v)
        self._dead.discard(link)
        self._factor.pop(link, None)
        self._loss.pop(link, None)
        self._corrupt.pop(link, None)
        self.epoch += 1
        return link

    def degrade(self, u, v, factor: float) -> Link:
        """Multiply the link's per-hop latency by ``factor`` (>= 1)."""
        if factor < 1.0:
            raise TopologyError(f"degrade factor must be >= 1, got {factor}")
        link = self.key(u, v)
        self._factor[link] = factor
        self.epoch += 1
        return link

    def set_lossy(self, u, v, prob: float) -> Link:
        """Drop transfers crossing the link with probability ``prob``."""
        if not 0.0 <= prob <= 1.0:
            raise TopologyError(f"loss prob must be in [0, 1], got {prob}")
        link = self.key(u, v)
        self._loss[link] = prob
        self.epoch += 1
        return link

    def set_corrupting(self, u, v, prob: float) -> Link:
        """Flip payload bits on transfers crossing the link w.p. ``prob``."""
        if not 0.0 <= prob <= 1.0:
            raise TopologyError(f"corrupt prob must be in [0, 1], got {prob}")
        link = self.key(u, v)
        self._corrupt[link] = prob
        self.epoch += 1
        return link

    # --------------------------------------------------------- queries

    def is_dead_link(self, link: Link) -> bool:
        """Whether the canonical link is dead."""
        return link in self._dead

    def is_dead(self, u, v) -> bool:
        """Whether the link on hop ``u -> v`` is dead."""
        return self.key(u, v) in self._dead

    def latency_factor(self, u, v) -> float:
        """Per-hop latency multiplier of the hop ``u -> v`` (1.0 = healthy)."""
        return self._factor.get(self.key(u, v), 1.0)

    def dead_links(self) -> frozenset[Link]:
        """Snapshot of the currently dead links."""
        return frozenset(self._dead)

    def roll_loss(self, link: Link) -> bool:
        """Roll the link's loss dice for one crossing transfer."""
        prob = self._loss.get(link, 0.0)
        return prob > 0.0 and self._rng.random() < prob

    def roll_corrupt(self, link: Link) -> tuple[float, int] | None:
        """Roll the link's corruption dice; ``(pos_frac, bit)`` on a hit.

        ``pos_frac`` picks the flipped byte as a fraction of the payload
        length (payload sizes differ per transfer); ``bit`` is the bit
        index within that byte.
        """
        prob = self._corrupt.get(link, 0.0)
        if prob <= 0.0 or self._rng.random() >= prob:
            return None
        return self._rng.random(), self._rng.randrange(8)

    # ------------------------------------------------ routing view API

    def hard_blocked(self, u, v) -> bool:
        """Routing view: dead links are unusable."""
        return self.key(u, v) in self._dead

    def soft_blocked(self, u, v) -> bool:
        """Routing view: the oracle view has no 'suspect' state."""
        return False
