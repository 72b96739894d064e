"""Scalable PGAS communication subsystem on Blue Gene/Q — simulated.

A full reproduction of Vishnu, Kerbyson, Barker, van Dam, *Building
Scalable PGAS Communication Subsystem on Blue Gene/Q* (IPDPS/IPPS 2013)
over a deterministic discrete-event model of the machine. See README.md
for the quickstart, DESIGN.md for the architecture and substitution
rationale, and EXPERIMENTS.md for paper-vs-measured results.

Most users start with::

    from repro.armci import ArmciConfig, ArmciJob
    from repro.gax import GlobalArray, Patch, SharedCounter

Extensions (``repro.chaos``, ``repro.recover``, ``repro.serve``, ...) are
imported from their own modules; a knobs-off job loads none of them.
"""

from .armci import ArmciConfig, ArmciJob, ArmciProcess
from .machine import BGQParams

__version__ = "1.0.0"

__all__ = [
    "ArmciConfig",
    "ArmciJob",
    "ArmciProcess",
    "BGQParams",
    "__version__",
]
