"""Host-speed probe: how much slower than nominal the host runs right now.

The benchmark's host is a few cores of a shared machine. Its speed shifts
by 10-40 % for seconds to minutes at a time (a neighbour on the sibling
hardware thread, in the shared cache or on the memory bus), which no
statistic taken inside one run removes: every repetition of the run sits
on the same shifted level. The probe measures that level. It is three
fixed pure-Python kernels that import nothing from ``repro`` and never
change with it:

``spin``
    integer arithmetic in a tight loop, all in registers and L1: follows
    the core's clock and what a sibling thread takes from it;
``loop``
    a miniature event loop, 4096 generators taking turns through one heap
    over a ring that fits the shared cache: the simulator's own mix of
    calls, allocations and branches;
``chase``
    a few generators walking a shuffled linked ring of small objects far
    larger than the caches: follows the memory bus.

No one of them tracks every workload (``spin`` is the best for
``rma_small``, the other two for the KV and many-rank jobs); their
geometric mean does for all eight, and a least-squares fit of repetition
seconds on the three gives weights that sum to 0.93, so no exponent is
applied. A sample runs each once and returns the geometric mean of
``measured seconds / nominal seconds``: the host's *slowdown*, 1.0 on the
quiet reference host. The harness samples before and after every timed
section and divides the section's seconds by the mean of the two samples,
so host times are reported in seconds of the reference host. Measured here
over two sweeps of ten seeds, ``wall_s`` then spreads by 3-13 % of its
median where raw seconds spread by 2-33 %; on a host that is quiet anyway
the division adds 2-3 % of its own.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from typing import Iterator

#: Seconds each kernel takes on the quiet reference host (this container
#: with nothing else running). They only fix the unit: a change scales
#: every host-time metric of every workload by the same factor.
SPIN_NOMINAL_S = 0.0187
LOOP_NOMINAL_S = 0.0215
CHASE_NOMINAL_S = 0.0410

SPIN_STEPS = 400_000
LOOP_NODES = 4_096
LOOP_STEPS = 6
CHASE_NODES = 200_000
CHASE_WALKERS = 8
CHASE_STEPS = 7_500


class _Node:
    __slots__ = ("key", "visits", "next")

    def __init__(self, key: int) -> None:
        self.key = key
        self.visits = 0
        self.next: _Node = self


def _spin() -> int:
    acc = 0
    for i in range(SPIN_STEPS):
        acc += i * i
    return acc


def _ring(nodes: int, rng: random.Random) -> list[_Node]:
    """``nodes`` objects linked into one cycle in shuffled order."""
    ring = [_Node(i) for i in range(nodes)]
    order = list(range(nodes))
    rng.shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        ring[here].next = ring[there]
    return ring


def _walk(node: _Node, steps: int) -> Iterator[int]:
    for _ in range(steps):
        node.visits += 1
        node = node.next
        yield node.key


def _take_turns(starts: list[_Node], steps: int) -> int:
    """One walker per start; the heap hands the turn to the smallest key."""
    heap: list[tuple[int, int, Iterator[int]]] = []
    for w, node in enumerate(starts):
        walker = _walk(node, steps)
        heapq.heappush(heap, (next(walker), w, walker))
    seen: dict[int, int] = {}
    popped = 0
    while heap:
        key, w, walker = heapq.heappop(heap)
        seen[key & 1023] = popped
        popped += 1
        for key in walker:
            heapq.heappush(heap, (key, w, walker))
            break
    return popped


class HostProbe:
    """The three kernels and the rings they walk (built once)."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self._loop_starts = _ring(LOOP_NODES, rng)
        # The ring is a cycle: the starts keep all of it alive.
        self._chase_starts = _ring(CHASE_NODES, rng)[:: CHASE_NODES // CHASE_WALKERS]
        self.sample()  # first touch of the rings is not a measurement

    def sample(self) -> float:
        """The host's slowdown now (takes about 80 ms)."""
        clock = time.perf_counter
        t0 = clock()
        _spin()
        t1 = clock()
        _take_turns(self._loop_starts, LOOP_STEPS)
        t2 = clock()
        _take_turns(self._chase_starts, CHASE_STEPS)
        t3 = clock()
        return math.prod((
            (t1 - t0) / SPIN_NOMINAL_S,
            (t2 - t1) / LOOP_NOMINAL_S,
            (t3 - t2) / CHASE_NOMINAL_S,
        )) ** (1 / 3)
