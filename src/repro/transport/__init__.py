"""Pluggable communication backends for the ARMCI protocol layer.

``repro.armci`` calls the wire through exactly one object — a
:class:`~repro.transport.base.Transport` — constructed per job from
``ArmciConfig(backend=...)``. ``backend=None`` (the default) resolves to
:data:`DEFAULT_BACKEND`, which the ``REPRO_ARMCI_BACKEND`` environment
variable (and the test suite's backend-conformance fixture) can
override without touching call sites.
"""

from __future__ import annotations

import os

from ..errors import ArmciError
from .base import Transport, TransportCapabilities
from .mpi3 import Mpi3Transport
from .pami import PamiTransport

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "Mpi3Transport",
    "PamiTransport",
    "Transport",
    "TransportCapabilities",
    "create_transport",
    "is_known_backend",
]

#: Backend registry: config name -> Transport subclass.
BACKENDS: dict[str, type[Transport]] = {
    "pami": PamiTransport,
    "mpi3": Mpi3Transport,
}

#: Resolution of ``ArmciConfig(backend=None)``. Module-global (not baked
#: into the config dataclass) so the conformance suite and CI matrix can
#: re-point every default-configured job at another backend.
DEFAULT_BACKEND: str = os.environ.get("REPRO_ARMCI_BACKEND", "pami")


def is_known_backend(name: str) -> bool:
    """Whether ``name`` is a registered backend (non-generator)."""
    return name in BACKENDS


def create_transport(name: str | None, world, config) -> Transport:
    """Construct the transport for one job.

    ``name=None`` resolves :data:`DEFAULT_BACKEND` at call time (so a
    monkeypatched default takes effect for every job built afterwards).
    """
    if name is None:
        name = DEFAULT_BACKEND
    cls = BACKENDS.get(name)
    if cls is None:
        raise ArmciError(
            f"unknown transport backend {name!r}; valid: {sorted(BACKENDS)}"
        )
    return cls(world, config)
