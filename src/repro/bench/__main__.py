"""Command-line runner: regenerate any paper table/figure without pytest.

Usage::

    python -m repro.bench list
    python -m repro.bench fig3
    python -m repro.bench fig9 --procs 4 16 64
    REPRO_BENCH_SMOKE=1 python -m repro.bench all
"""

from __future__ import annotations

import argparse
import sys

from .artifacts import ARTIFACTS, Artifact

#: Target name (the result-file stem's first word) -> artifact.
COMMANDS: dict[str, Artifact] = {
    stem.split("_")[0]: artifact for stem, artifact in ARTIFACTS.items()
}


def render(artifact: Artifact, procs: list[int] | None) -> str:
    """The artifact's table, and its chart when it has one."""
    data = artifact.run(procs)
    text = artifact.table(data)
    if artifact.chart is not None:
        text += "\n\n" + artifact.chart(data)
    return text


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures (simulated).",
    )
    parser.add_argument(
        "target",
        help="one of: list, all, " + ", ".join(COMMANDS),
    )
    parser.add_argument(
        "--procs",
        type=int,
        nargs="*",
        help="override process counts (fig7/fig9/fig11)",
    )
    args = parser.parse_args(argv)

    if args.target == "list":
        print("available targets: all, " + ", ".join(COMMANDS))
        return 0
    if args.target != "all" and args.target not in COMMANDS:
        print(f"unknown target {args.target!r}; try 'list'", file=sys.stderr)
        return 2
    names = COMMANDS if args.target == "all" else [args.target]
    for name in names:
        print(render(COMMANDS[name], args.procs))
        if args.target == "all":
            print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
