"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.pami import PamiWorld

# The benchmark registry and its manifest check, importable as the
# benchmark suite imports them.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))


def build_world(num_procs: int = 2, rho: int = 1, **kwargs) -> PamiWorld:
    """A PamiWorld with ``rho`` contexts created on every rank."""
    world = PamiWorld(num_procs, **kwargs)
    create_contexts(world, rho)
    return world


def create_contexts(world: PamiWorld, rho: int = 1) -> None:
    """Collectively create ``rho`` contexts per rank (costs simulated time)."""

    def body(client):
        for _ in range(rho):
            yield from client.create_context()

    procs = [
        world.engine.spawn(body(c), name=f"init{c.rank}") for c in world.clients
    ]
    world.engine.run_until_complete(procs)


def run_ranks(world: PamiWorld, body_fn, ranks=None) -> list:
    """Spawn ``body_fn(rank)`` as a process on each rank and run to completion.

    ``body_fn`` must return a generator. Returns per-rank results.
    """
    if ranks is None:
        ranks = range(world.num_procs)
    procs = [
        world.engine.spawn(body_fn(rank), name=f"rank{rank}") for rank in ranks
    ]
    return world.engine.run_until_complete(procs)


@pytest.fixture(params=["pami", "mpi3"], scope="module")
def backend(request):
    """Run the decorated module once per communication backend.

    Re-points :data:`repro.transport.DEFAULT_BACKEND` so every job built
    with ``ArmciConfig(backend=None)`` — i.e. all existing tests,
    unmodified — lands on the parameterized backend. Core ARMCI test
    modules opt in with ``pytestmark = pytest.mark.usefixtures("backend")``,
    turning them into the cross-backend conformance suite. Module scope
    keeps hypothesis-based property tests eligible (function-scoped
    fixtures trip its health check) and batches each module per backend.
    """
    import repro.transport as transport

    mp = pytest.MonkeyPatch()
    mp.setattr(transport, "DEFAULT_BACKEND", request.param)
    yield request.param
    mp.undo()


@pytest.fixture
def world2():
    """Two processes on two adjacent nodes (internode traffic)."""
    return build_world(num_procs=2, procs_per_node=1)


@pytest.fixture
def world4():
    """Four processes on four nodes."""
    return build_world(num_procs=4, procs_per_node=1)
