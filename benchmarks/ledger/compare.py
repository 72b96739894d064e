#!/usr/bin/env python3
"""Compare two run records of the ledger: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians with their
quartiles, the change of B against the base A, the bound, and a verdict.

``ok``
    B is no worse than A by more than the metric's bound.
``worse``
    B is worse than A by more than the bound. The exit code is non-zero.
``unresolved``
    The inter-quartile spread of either record exceeds the bound (or a
    record was taken on an overloaded host), so neither "worse" nor
    "unchanged" can be claimed — unless B's whole inter-quartile range
    reads better than A's.

Simulated metrics and ``failed_share`` are exact: on equal seeds they may
not worsen at all. Per-layer metrics are printed below the table and
never gate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalog import Catalog  # noqa: E402


def worse_by(a: float, b: float, better: str) -> float:
    """Share of the base ``a`` by which ``b`` is worse (negative: better).
    A base of zero (``failed_share``) compares absolutely."""
    delta = b - a if better == "lower" else a - b
    return delta / abs(a) if a else delta


def verdict(
    a: dict[str, Any], b: dict[str, Any], better: str, bound: float | None,
    noisy: bool,
) -> tuple[str, float | None]:
    """``(verdict, share by which B is worse than A)`` for one metric.
    ``bound`` is ``None`` for an exact metric taken on two seeds."""
    if a["value"] is None and b["value"] is None:
        return "n/a", None
    if a["value"] is None or b["value"] is None:
        return "unresolved", None
    change = worse_by(a["value"], b["value"], better)
    if bound is None:
        return "unresolved", change
    host_time = "q1" in a and "q1" in b
    if not host_time:
        return ("worse" if change > bound else "ok"), change
    if noisy:
        return "unresolved", change
    spread = max(
        (entry["q3"] - entry["q1"]) / entry["value"] for entry in (a, b)
    )
    if change > bound:
        return ("worse" if spread <= bound else "unresolved"), change
    # Within the bound, or better: with a spread wider than the bound
    # that only counts when B's worst quartile still beats A's best one.
    best, worst = ("q1", "q3") if better == "lower" else ("q3", "q1")
    clearly_better = worse_by(a[best], b[worst], better) < 0
    return ("ok" if spread <= bound or clearly_better else "unresolved"), change


def _cell(entry: dict[str, Any]) -> str:
    if entry["value"] is None:
        return "null"
    text = f"{entry['value']:.6g}"
    if "q1" in entry:
        text += f" [{entry['q1']:.4g}, {entry['q3']:.4g}]"
    return text


def report(a: dict[str, Any], b: dict[str, Any], catalog: Catalog) -> int:
    """Print the comparison of record ``b`` against the base ``a``;
    return the exit code (1 when any metric is ``worse`` or a record is
    incorrect)."""
    same_seed = a["seed"] == b["seed"]
    noisy = bool(a["noisy"] or b["noisy"])
    print(f"base A: seed {a['seed']}, git {a['git_sha']}, load {a['host']['load_1min_at_start']}")
    print(f"     B: seed {b['seed']}, git {b['git_sha']}, load {b['host']['load_1min_at_start']}")
    if noisy:
        print("a record was taken with more runnable processes than cores: "
              "host-time metrics are unresolved")
    header = (f"{'workload':<14}{'metric':<17}{'A median [q1, q3]':<34}"
              f"{'B median [q1, q3]':<34}{'B worse than A by':<22}{'bound':<8}verdict")
    print(header)
    bad = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for record, label in ((wa, "A"), (wb, "B")):
            if not record["correct"]:
                print(f"{name}: record {label} is incorrect: {record['errors']}")
                bad += 1
        for metric, spec in catalog.end_to_end.items():
            ea, eb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            bound = catalog.bound(metric, same_seed)
            result, change = verdict(ea, eb, spec["better"], bound, noisy)
            if result == "n/a":
                continue
            moved = "" if change is None else (
                f"{change:+.2%} of A" if ea["value"] else f"{change:+.4g} (absolute)"
            )
            limit = "seeds" if bound is None else f"{bound:.0%}"
            print(f"{name:<14}{metric:<17}{_cell(ea):<34}{_cell(eb):<34}"
                  f"{moved:<22}{limit:<8}{result}")
            bad += result == "worse"
    print("\nper-layer metrics (never gate); ratio is B / base A")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        la, lb = a["workloads"][name]["per_layer"], b["workloads"][name]["per_layer"]
        for metric, va in la.items():
            vb = lb.get(metric)
            if va is None and vb is None:
                continue
            ratio = f"{vb / va:.3f}x of {va:.6g}" if va and vb is not None else "-"
            print(f"{name:<14}{metric:<32}{fmt(va):>14}{fmt(vb):>14}  {ratio}")
    print(f"\n{bad} worse" if bad else "\nno metric is worse than its bound allows")
    return 1 if bad else 0


def fmt(value: Any) -> str:
    """A metric value for a table: ``null``, six significant digits, or
    an exact count."""
    if value is None:
        return "null"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as f:
            records.append(json.load(f))
    return report(records[0], records[1], Catalog())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
