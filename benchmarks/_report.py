"""Benchmark reporting: save reproduced tables for the terminal summary.

Each benchmark renders its paper-style table and calls :func:`save`;
the conftest's ``pytest_terminal_summary`` hook prints every saved table
at the end of the run (un-captured, so it lands in bench_output.txt).
"""

from __future__ import annotations

from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"


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


def all_results() -> list[tuple[str, str]]:
    """All saved (name, text) tables, sorted by name."""
    if not RESULTS_DIR.exists():
        return []
    return [
        (path.stem, path.read_text().rstrip())
        for path in sorted(RESULTS_DIR.glob("*.txt"))
    ]
