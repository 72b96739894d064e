"""Rank-to-coordinate mappings for processes on a torus partition.

Blue Gene/Q places MPI/PGAS ranks onto torus nodes according to a mapping
permutation such as *ABCDET*: the letters name the five torus dimensions
plus ``T``, the within-node process slot; the **rightmost letter varies
fastest** as the rank increases. The paper's evaluation uses ABCDET
(Section IV), so consecutive ranks first fill the 16 process slots of one
node, then advance along E, then D, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from ..errors import TopologyError
from .torus import BGQ_DIM_NAMES, Torus


@dataclass(frozen=True)
class RankMapping:
    """Bijective map between ranks and (node coordinate, process slot).

    Parameters
    ----------
    torus:
        The node torus being mapped onto.
    procs_per_node:
        Process slots per node (``c`` in the paper, 1-16 on BG/Q).
    order:
        Permutation of the torus dimension names plus ``"T"``; rightmost
        varies fastest. Dimension names for a 5D torus are A, B, C, D, E.
    """

    torus: Torus
    procs_per_node: int
    order: str = "ABCDET"

    def __post_init__(self) -> None:
        if self.procs_per_node < 1:
            raise TopologyError(
                f"procs_per_node must be >= 1, got {self.procs_per_node}"
            )
        names = self._dim_names()
        expected = set(names) | {"T"}
        if sorted(self.order) != sorted(expected):
            raise TopologyError(
                f"mapping order {self.order!r} must be a permutation of "
                f"{''.join(sorted(expected))}"
            )

    def _dim_names(self) -> tuple[str, ...]:
        if self.torus.ndim == len(BGQ_DIM_NAMES):
            return BGQ_DIM_NAMES
        return tuple(chr(ord("A") + i) for i in range(self.torus.ndim))

    @property
    def num_ranks(self) -> int:
        """Total rank count ``p = num_nodes * procs_per_node``."""
        return self.torus.num_nodes * self.procs_per_node

    def _axis_sizes(self) -> list[int]:
        """Size of each axis in ``order``, left (slowest) to right (fastest)."""
        names = self._dim_names()
        sizes = []
        for letter in self.order:
            if letter == "T":
                sizes.append(self.procs_per_node)
            else:
                sizes.append(self.torus.dims[names.index(letter)])
        return sizes

    def rank_to_placement(self, rank: int) -> tuple[tuple[int, ...], int]:
        """Map ``rank`` to ``(node_coordinate, process_slot)``.

        Raises
        ------
        TopologyError
            If the rank is out of range.
        """
        if not 0 <= rank < self.num_ranks:
            raise TopologyError(f"rank {rank} out of range [0, {self.num_ranks})")
        sizes = self._axis_sizes()
        digits: dict[str, int] = {}
        rest = rank
        for letter, size in zip(reversed(self.order), reversed(sizes)):
            digits[letter] = rest % size
            rest //= size
        names = self._dim_names()
        coord = tuple(digits[name] for name in names)
        return coord, digits["T"]

    def placement_to_rank(self, coord: tuple[int, ...], slot: int) -> int:
        """Inverse of :meth:`rank_to_placement`."""
        self.torus.validate_coord(coord)
        if not 0 <= slot < self.procs_per_node:
            raise TopologyError(
                f"slot {slot} out of range [0, {self.procs_per_node})"
            )
        names = self._dim_names()
        digits = {name: c for name, c in zip(names, coord)}
        digits["T"] = slot
        rank = 0
        for letter, size in zip(self.order, self._axis_sizes()):
            rank = rank * size + digits[letter]
        return rank

    def node_of(self, rank: int) -> tuple[int, ...]:
        """Node coordinate hosting ``rank``."""
        return self.rank_to_placement(rank)[0]

    def node_table(self) -> list[tuple[int, ...]]:
        """:meth:`node_of` for every rank, in rank order, in one pass:
        the ranks of a node share one tuple."""
        names = self._dim_names()
        # Position of each torus dimension among ``order``'s digits.
        picks = [self.order.index(name) for name in names]
        nodes: dict[tuple[int, ...], tuple[int, ...]] = {}
        return [
            nodes.setdefault(coord, coord)
            for coord in (
                tuple(digits[i] for i in picks)
                for digits in product(*(range(n) for n in self._axis_sizes()))
            )
        ]

    def hops(self, rank_a: int, rank_b: int) -> int:
        """Network hop count between two ranks (0 if co-located on a node)."""
        return self.torus.distance(self.node_of(rank_a), self.node_of(rank_b))

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        """Whether two ranks share a compute node."""
        return self.node_of(rank_a) == self.node_of(rank_b)


def abcdet_mapping(
    dims: tuple[int, ...], procs_per_node: int
) -> RankMapping:
    """The paper's ABCDET mapping over a 5D torus partition."""
    if len(dims) != 5:
        raise TopologyError(f"ABCDET mapping needs a 5D torus, got {len(dims)}D")
    return RankMapping(Torus(dims), procs_per_node, order="ABCDET")
