"""Benchmark reporting: save reproduced tables for the terminal summary,
and hold each registry table to its committed digest.

Each benchmark renders its paper-style table and calls :func:`save`;
the conftest's ``pytest_terminal_summary`` hook prints every saved table
at the end of the run (un-captured, so it lands in bench_output.txt).
:func:`assert_golden` compares a registry table with ``golden.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.bench.artifacts import smoke_or_full

RESULTS_DIR = Path(__file__).parent / "results"
#: Registry stem -> {"smoke": md5, "full": md5} of the bytes :func:`save`
#: writes for its table, one line per stem.
GOLDEN = Path(__file__).parent / "golden.json"


def save(name: str, text: str, suffix: str = ".txt") -> Path:
    """Persist a rendered table (or a JSON dump, ``suffix=".json"``) as
    ``benchmarks/results/<name><suffix>``; returns the file written.

    The directory is git-ignored: running a benchmark never touches a
    tracked file.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}{suffix}"
    path.write_text(text + "\n")
    return path


def assert_golden(name: str, text: str) -> None:
    """Fail unless the md5 of ``text`` as :func:`save` writes it is the
    manifest's, on the side (``smoke`` or ``full``) that
    ``REPRO_BENCH_SMOKE`` selects. The message carries the manifest line
    to paste when the change is meant to move the table."""
    side = smoke_or_full("smoke", "full")
    golden = json.loads(GOLDEN.read_text()).get(name, {})
    actual = hashlib.md5((text + "\n").encode()).hexdigest()
    if golden.get(side) != actual:
        line = json.dumps({name: {**golden, side: actual}})[1:-1]
        raise AssertionError(
            f"{name}: {side} table md5 is {actual}, golden.json has "
            f"{golden.get(side)}; if the change is meant to move it, paste\n"
            f"  {line},"
        )


def all_results() -> list[tuple[str, str]]:
    """All saved (name, text) tables, sorted by name."""
    if not RESULTS_DIR.exists():
        return []
    return [
        (path.stem, path.read_text().rstrip())
        for path in sorted(RESULTS_DIR.glob("*.txt"))
    ]
