"""Fold a cProfile run into per-layer self time and call counts.

A layer is a package under ``src/repro/``; every profiled function falls
in exactly one layer by its source path, so the layers' self times sum
to the profile's total. Builtin and C functions have no source path:
their self time and calls are charged to the layer of the *immediate*
caller (a ``heappush`` from ``sim/engine.py`` is ``sim`` time, a numpy
copy from ``pami/memory.py`` is ``pami`` time). What cProfile adds per
call is not subtracted; ``trace.overhead_x`` reports it.
"""

from __future__ import annotations

import cProfile
import pstats

from catalog import LAYERS

_MARK = "/repro/"


def layer_of(filename: str) -> str:
    """Layer of a source file: the path component after ``repro/``."""
    at = filename.rfind(_MARK)
    if at < 0:
        return "other"
    head = filename[at + len(_MARK):].split("/", 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    return head if head in LAYERS else "other"


def fold(profile: cProfile.Profile) -> tuple[dict[str, float], dict[str, int], float]:
    """``(self seconds per layer, calls per layer, the profile's total
    self time)`` for one profiled repetition."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    folded = pstats.Stats(profile)
    stats = folded.stats  # type: ignore[attr-defined]
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in stats.items():
        if filename != "~":
            layer = layer_of(filename)
            self_s[layer] += tt
            calls[layer] += nc
            continue
        # Builtin: split by caller; cProfile keeps, per caller, the calls
        # made and the callee's self time under that caller.
        for (caller_file, _l, _n), (c_nc, _c_cc, c_tt, _c_ct) in callers.items():
            layer = layer_of(caller_file)
            self_s[layer] += c_tt
            calls[layer] += c_nc
            tt -= c_tt
            nc -= c_nc
        # Calls made from frames that were already running when the
        # profiler was switched on have no recorded caller: the harness.
        self_s["other"] += tt
        calls["other"] += nc
    return self_s, calls, folded.total_tt  # type: ignore[attr-defined]
