"""Blue Gene/Q machine model: machine constants and network timing."""

from .bgq import BGQParams
from .network import TorusNetwork, TransferTiming

__all__ = ["BGQParams", "TorusNetwork", "TransferTiming"]
