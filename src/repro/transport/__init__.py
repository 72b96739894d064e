"""Pluggable communication backends for the ARMCI protocol layer.

``repro.armci`` calls the wire through exactly one object — a
:class:`~repro.transport.base.Transport` — constructed per job from
``ArmciConfig(backend=...)``. ``backend=None`` (the default) resolves to
:data:`DEFAULT_BACKEND`, which the ``REPRO_ARMCI_BACKEND`` environment
variable (and the test suite's backend-conformance fixture) can
override without touching call sites.
"""

from __future__ import annotations

import importlib
import os

from ..errors import ArmciError
from .base import Transport, TransportCapabilities

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "Transport",
    "TransportCapabilities",
    "create_transport",
]

#: Backend registry: config name -> its Transport subclass in
#: ``repro.transport.<name>``, imported when a job picks that backend.
BACKENDS: dict[str, str] = {
    "pami": "PamiTransport",
    "mpi3": "Mpi3Transport",
}

#: Resolution of ``ArmciConfig(backend=None)``. Module-global (not baked
#: into the config dataclass) so the conformance suite and CI matrix can
#: re-point every default-configured job at another backend.
DEFAULT_BACKEND: str = os.environ.get("REPRO_ARMCI_BACKEND", "pami")


def create_transport(name: str | None, world, config) -> Transport:
    """Construct the transport for one job.

    ``name=None`` resolves :data:`DEFAULT_BACKEND` at call time (so a
    monkeypatched default takes effect for every job built afterwards).
    """
    if name is None:
        name = DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ArmciError(
            f"unknown transport backend {name!r}; valid: {sorted(BACKENDS)}"
        )
    module = importlib.import_module(f"{__name__}.{name}")
    return getattr(module, BACKENDS[name])(world, config)
