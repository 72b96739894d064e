"""Torus-aware buddy placement.

A rank's replica must not share the failure domain of its owner. On the
BG/Q torus the natural distance measure is hop count
(:meth:`~repro.machine.network.TorusNetwork.hops`), so the buddy is the
*nearest* rank at least ``min_hops`` away — far enough to survive a
localized failure, close enough that replication traffic stays cheap
(Eq. 8's per-hop term).
"""

from __future__ import annotations

from collections.abc import Iterable

from ..errors import ReproError


def choose_buddy(
    world, rank: int, min_hops: int = 1, exclude: Iterable[int] = ()
) -> int:
    """Pick the replica partner for ``rank`` (deterministic).

    Candidates at least ``min_hops`` torus hops away are preferred,
    nearest first; ties break by rank order starting just above the
    owner (so neighbors spread their replicas instead of piling onto
    rank 0). If no candidate is far enough — a small job on few nodes —
    the farthest available rank is used.

    Parameters
    ----------
    world:
        The :class:`~repro.pami.world.PamiWorld` (for topology).
    rank:
        The owner.
    min_hops:
        Minimum acceptable distance.
    exclude:
        Ranks that must not be chosen (e.g. currently failed ranks).
    """
    p = world.num_procs
    excluded = set(exclude)
    excluded.add(rank)
    best = None  # (hops, tie) for the >= min_hops pool
    farthest = None  # fallback: maximize hops
    for offset in range(1, p):
        cand = (rank + offset) % p
        if cand in excluded:
            continue
        hops = world.network.hops(rank, cand)
        if hops >= min_hops and (best is None or (hops, offset) < best[1:]):
            best = (cand, hops, offset)
        if farthest is None or hops > farthest[1]:
            farthest = (cand, hops)
    if best is not None:
        return best[0]
    if farthest is not None:
        return farthest[0]
    raise ReproError(f"no live buddy candidate for rank {rank}")
