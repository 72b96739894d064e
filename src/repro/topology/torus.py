"""N-dimensional torus geometry.

Blue Gene/Q interconnects compute nodes in a 5D torus (dimensions named
A, B, C, D, E) with bidirectional wrap-around links in every dimension
(Chen et al., IEEE Micro 2012). The geometry here is dimension-count
agnostic so tests can exercise small 2D/3D cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from ..errors import TopologyError

#: Conventional Blue Gene/Q dimension names.
BGQ_DIM_NAMES = ("A", "B", "C", "D", "E")


@dataclass(frozen=True)
class Torus:
    """An N-dimensional torus of nodes.

    Parameters
    ----------
    dims:
        Size of each dimension; every entry must be >= 1.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise TopologyError("torus needs at least one dimension")
        if any(d < 1 for d in self.dims):
            raise TopologyError(f"all torus dimensions must be >= 1, got {self.dims}")

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return len(self.dims)

    @property
    def num_nodes(self) -> int:
        """Total node count (product of dimensions)."""
        return math.prod(self.dims)

    def validate_coord(self, coord: tuple[int, ...]) -> None:
        """Raise :class:`TopologyError` unless ``coord`` is inside the torus."""
        if len(coord) != self.ndim:
            raise TopologyError(
                f"coordinate {coord} has {len(coord)} dims, torus has {self.ndim}"
            )
        for c, d in zip(coord, self.dims):
            if not 0 <= c < d:
                raise TopologyError(f"coordinate {coord} outside torus {self.dims}")

    def coords(self) -> Iterator[tuple[int, ...]]:
        """Iterate all node coordinates in row-major order."""
        def rec(prefix: tuple[int, ...], rest: tuple[int, ...]):
            if not rest:
                yield prefix
                return
            for i in range(rest[0]):
                yield from rec(prefix + (i,), rest[1:])

        yield from rec((), self.dims)

    def dim_distance(self, a: int, b: int, dim: int) -> int:
        """Wrap-around hop distance along one dimension."""
        size = self.dims[dim]
        straight = abs(a - b)
        return min(straight, size - straight)

    def distance(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """Minimal hop count between two nodes (sum of per-dim distances).

        This is exact for dimension-order routing on a torus with
        bidirectional links, the default on Blue Gene/Q.
        """
        self.validate_coord(a)
        self.validate_coord(b)
        return sum(self.dim_distance(x, y, i) for i, (x, y) in enumerate(zip(a, b)))

    def max_distance(self) -> int:
        """Torus diameter: the maximum distance between any node pair.

        Equals ``sum(d // 2)`` — e.g. the paper's 128-node 2*2*4*4*2
        partition has diameter (2+2+4+4+2)/2 = 7 (Section IV-B, Eq. 10).
        """
        return sum(d // 2 for d in self.dims)

    def neighbors(self, coord: tuple[int, ...]) -> list[tuple[int, ...]]:
        """Distinct nearest neighbors (±1 in each dimension, wrap-around)."""
        self.validate_coord(coord)
        result = []
        seen = set()
        for dim, size in enumerate(self.dims):
            if size == 1:
                continue
            for step in (1, -1):
                nb = list(coord)
                nb[dim] = (coord[dim] + step) % size
                t = tuple(nb)
                if t not in seen and t != coord:
                    seen.add(t)
                    result.append(t)
        return result
