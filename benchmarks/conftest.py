"""Benchmark-suite configuration: print reproduced tables at the end."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _report import all_results  # noqa: E402


def pytest_addoption(parser):
    parser.addoption(
        "--trace-out",
        default=None,
        metavar="DIR",
        help=(
            "Write Perfetto trace files (obs-enabled SCF reruns, default "
            "vs async-thread) into DIR; see bench_paper.py"
        ),
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = all_results()
    if not results:
        return
    terminalreporter.section("reproduced paper tables and figures (simulated)")
    for name, text in results:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"==== {name} ====")
        for line in text.splitlines():
            terminalreporter.write_line(line)
