"""Blue Gene/Q 5D-torus topology: geometry, rank mappings, partitions.

Routing and link state (:mod:`repro.topology.routing`,
:mod:`repro.topology.links`) serve the link-fault extension and the
link-contention model; import them from their modules.
"""

from .torus import Torus
from .mapping import RankMapping, abcdet_mapping
from .partitions import partition_shape, KNOWN_PARTITIONS

__all__ = [
    "KNOWN_PARTITIONS",
    "RankMapping",
    "Torus",
    "abcdet_mapping",
    "partition_shape",
]
