#!/usr/bin/env python3
"""The repo benchmark: eight workloads, end-to-end and per-layer metrics.

Two ways to run it, both from the root of a checkout:

``python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process. The last line of stdout is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` holding the
    end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``) that ``/BENCHMARK.json`` lists.

``python3 benchmarks/ledger/run.py [--seed N] [--workload NAME ...]``
    A full set: every workload (or the named ones), each in its own fresh
    child interpreter, one at a time, untraced repetitions followed by one
    under cProfile. Prints every metric by name with its unit and writes
    the run record to ``benchmarks/ledger/out/ledger.json``.
    ``--selfcheck`` runs two sets and compares them with ``compare.py``.

See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
from catalog import ROOT, Catalog  # noqa: E402
from compare import fmt  # noqa: E402

DEFAULT_SEED = 2013
RECORD = harness.OUT_DIR / "ledger.json"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all eight)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the generated inputs (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure one workload for this long and print the "
                             "driver's JSON line (needs exactly one --workload)")
    parser.add_argument("--trace", choices=("0", "1"), default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(with --seconds); a full set measures both")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the size constants (the self-test uses 0.05)")
    parser.add_argument("--out", type=Path, default=RECORD,
                        help="where a full set writes its record (default %(default)s)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run two full sets and compare them")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_one(name: str, seed: int, seconds: float, trace: str, scale: float,
            catalog: Catalog) -> dict[str, Any]:
    """Measure one workload in this process; write its phase spans when traced."""
    sys.path.insert(0, str(ROOT / "src"))
    spans = harness.SpanLog()
    t0 = time.perf_counter()
    # Imports ``repro``: in a checkout without ``src/`` this raises
    # before anything is measured or printed.
    from workloads import WORKLOADS

    spans.add("import", t0, time.perf_counter(), None, None)
    record = harness.measure(
        name, WORKLOADS[name], seed, seconds, trace, scale, catalog, spans
    )
    if trace != "0":
        spans.write(harness.OUT_DIR / f"{name}.trace.json")
    return record


def git_sha() -> str | None:
    """HEAD of the checkout, or ``None`` outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_set(names: list[str], seed: int, scale: float, catalog: Catalog) -> dict[str, Any]:
    """One full set: a fresh child interpreter per workload, one at a time."""
    import numpy

    load = os.getloadavg()[0]
    cores = os.cpu_count() or 1
    workloads = {}
    for name in names:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child", "--workload", name,
             "--seed", str(seed), "--scale", str(scale)],
            capture_output=True, text=True, timeout=900,
        )
        if child.returncode != 0 and not child.stdout.strip():
            sys.stderr.write(child.stderr)
            raise SystemExit(f"{name}: child exited with code {child.returncode}")
        workloads[name] = json.loads(child.stdout.splitlines()[-1])
        print_workload(workloads[name], catalog)
    overheads = {n: w["per_layer"]["trace.overhead_x"] for n, w in workloads.items()}
    return {
        "host": {
            "cores": cores, "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "load_1min_at_start": load,
        },
        # More runnable processes than cores: host times are not to be trusted.
        "noisy": load > cores,
        "git_sha": git_sha(),
        "seed": seed,
        "scale": scale,
        "repetitions": {n: w["reps"] for n, w in workloads.items()},
        "trace.overhead_x": overheads,
        "workloads": workloads,
        "summary": {
            "workloads": len(workloads),
            "correct": all(w["correct"] for w in workloads.values()),
            "failed_share": {
                n: w["end_to_end"]["failed_share"]["value"]
                for n, w in workloads.items()
            },
            "missing_counters": sorted(
                {c for w in workloads.values() for c in w["missing_counters"]}
            ),
            "claim": None,
        },
    }


def print_workload(record: dict[str, Any], catalog: Catalog) -> None:
    """Every metric of one workload by name, with its unit."""
    verdict = "correct" if record["correct"] else "INCORRECT"
    print(f"\n== {record['workload']}  seed {record['seed']}  "
          f"{record['reps']} repetitions  {verdict}  ({record['loop']})")
    for error in record["errors"]:
        print(f"   ! {error}")
    for name, entry in record["end_to_end"].items():
        spread = ""
        if "q1" in entry:
            spread = f"  [q1 {fmt(entry['q1'])}, q3 {fmt(entry['q3'])}, n {entry['n']}]"
        elif "n" in entry:
            spread = f"  [n {entry['n']}]"
        print(f"   {name:<32}{fmt(entry['value']):>14} {entry['unit']}{spread}")
    for name, entry in record["host"].items():
        print(f"   host.{name:<27}{fmt(entry['value']):>14}"
              f"  [q1 {fmt(entry['q1'])}, q3 {fmt(entry['q3'])}, n {entry['n']}]")
    for name, value in record["per_layer"].items():
        unit = catalog.per_layer[name]["unit"]
        print(f"   {name:<32}{fmt(value):>14} {unit}")
    if record["missing_counters"]:
        print(f"   missing counters: {', '.join(record['missing_counters'])}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    catalog = Catalog()
    names = args.workload or list(catalog.workloads)
    unknown = [n for n in names if n not in catalog.workloads]
    if unknown:
        raise SystemExit(f"unknown workload(s) {unknown}; known: {list(catalog.workloads)}")

    if args.seconds is not None or args.child:
        if len(names) != 1:
            raise SystemExit("--seconds takes exactly one --workload")
        trace = args.trace if args.trace is not None else "both"
        record = run_one(names[0], args.seed, args.seconds or 0.0, trace,
                         args.scale, catalog)
        if args.child:
            print(json.dumps(record))
        else:
            print_workload(record, catalog)
            print(harness.driver_line(record, trace, catalog))
        return 0 if record["correct"] else 1

    if args.selfcheck:
        first = run_set(names, args.seed, args.scale, catalog)
        second = run_set(names, args.seed, args.scale, catalog)
        write_record(first, args.out)
        write_record(second, args.out.with_suffix(".second.json"))
        return compare.report(first, second, catalog)

    record = run_set(names, args.seed, args.scale, catalog)
    write_record(record, args.out)
    return 0 if record["summary"]["correct"] else 1


def write_record(record: dict[str, Any], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"\nwrote {path}")


if __name__ == "__main__":
    sys.exit(main())
