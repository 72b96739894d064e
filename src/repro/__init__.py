"""Scalable PGAS communication subsystem on Blue Gene/Q — simulated.

A full reproduction of Vishnu, Kerbyson, Barker, van Dam, *Building
Scalable PGAS Communication Subsystem on Blue Gene/Q* (IPDPS/IPPS 2013)
over a deterministic discrete-event model of the machine. See README.md
for the quickstart, DESIGN.md for the architecture and substitution
rationale, and EXPERIMENTS.md for paper-vs-measured results.

Most users start with::

    from repro.armci import ArmciConfig, ArmciJob
    from repro.gax import GlobalArray, Patch, SharedCounter

Names are imported from their own subpackage or module; this package
root exports ``__version__`` alone, so ``import repro.sim`` loads the
engine and not the ARMCI stack above it. Extensions (``repro.chaos``,
``repro.recover``, ``repro.serve``, ...) are imported from their own
modules too; a knobs-off job loads none of them.
"""

__version__ = "1.0.0"
