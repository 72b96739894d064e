#!/usr/bin/env python3
"""The one-customer rule, measured: which functions of ``src/repro`` does a
paper artifact, a ledger workload, a benchmark or an example enter, and
which config options does anything assign:
``python tools/reach.py [--check] [--root OTHER_TREE]`` (~10 min, one core).
Every driver runs in a child interpreter under ``sys.setprofile`` (threads
and forked PDES workers included); the code objects entered are diffed
against an ``ast`` walk of the tree. ``tools/reach_keep.txt`` (pattern,
category, reason) is the only thing subtracted. ``--check`` exits 1 on an
unreached function no keep line matches, on a keep line that matches no
unreached function, and on a config option nothing assigns.
"""

import argparse
import ast
import fnmatch
import json
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict

from code_lines import code_line_numbers

ROOT = pathlib.Path(__file__).resolve().parents[1]
KEEP = pathlib.Path(__file__).with_name("reach_keep.txt")
CATEGORIES = ("oracle", "inject", "api", "item-2", "item-5", "abstract")
TREES = ("src", "benchmarks", "examples", "tests")
CONFIGS = ("ArmciConfig", "RetryPolicy", "RecoveryConfig", "ChaosConfig",
           "LinkHealthConfig", "IntegrityConfig", "KvConfig", "ClientLoadConfig")
BENCHES = ("-m", "pytest", "benchmarks", "--ignore=benchmarks/ledger",
           "--benchmark-disable", "--trace-out")


def drivers(root: pathlib.Path, traces: str) -> list[tuple[str, ...]]:
    """Every customer, as the argv of ``python`` run from the tree's root."""
    ledger = json.loads((root / "BENCHMARK.json").read_text())["workloads"]
    return [
        ("-m", "repro.bench", "all"),
        *(("benchmarks/ledger/run.py", "--workload", w["name"], "--seconds", "1", "--trace", "0")
          for w in ledger),
        (*BENCHES, traces),
        ("-m", "repro.obs.export", f"{traces}/fig11_trace_D.json"),
        ("benchmarks/bench_clique_growth.py", "--shards", "1,2"),
        ("benchmarks/bench_serving.py",),
        ("benchmarks/bench_rank_scaling.py", "--child", "1024"),
        *((str(p.relative_to(root)), *((traces,) if p.name == "trace_scf.py" else ()))
          for p in sorted((root / "examples").glob("*.py"))),
    ]


def sites(codes) -> set[tuple[str, int]]:
    """``("repro/pkg/file.py", first line)`` of the code objects that lie in ``src/repro``."""
    found = set()
    for code in codes:
        name = os.path.abspath(code.co_filename)
        at = name.rfind("/src/repro/")
        if at >= 0:
            found.add((name[at + 5:], code.co_firstlineno))
    return found


def census(run, codes: set | None = None) -> set[tuple[str, int]]:
    """The ``src/repro`` functions entered while ``run()`` runs, as ``sites``."""
    codes = set() if codes is None else codes

    def hook(frame, event, _arg, add=codes.add):
        if event == "call":
            add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return sites(codes)


def child(out: str, argv: list[str]) -> None:
    """Run one driver in this interpreter and dump what it entered to ``out.PID``."""
    codes, exit_now = set(), os._exit

    def dump(status: int | None = None) -> None:
        pathlib.Path(f"{out}.{os.getpid()}").write_text(json.dumps(sorted(sites(codes))))
        if status is not None:  # a forked PDES worker leaves through os._exit
            exit_now(status)

    def run() -> None:
        module = argv[0] == "-m"
        sys.argv = argv[1:] if module else argv
        sys.path.insert(0, os.getcwd() if module else str(pathlib.Path(argv[0]).parent))
        try:
            if module:
                runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
            else:
                runpy.run_path(argv[0], run_name="__main__")
        except SystemExit as stop:
            if stop.code not in (None, 0):
                raise

    os._exit = dump
    try:
        census(run, codes)
    finally:
        dump()


def functions(root: pathlib.Path) -> dict[tuple[str, int], tuple[str, set[int]]]:
    """``(file, first line) -> (dotted name, code line numbers)`` of every ``def``."""
    found = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        lines = code_line_numbers(path)
        site = path.relative_to(root / "src").as_posix()
        module = site.removesuffix(".py").replace("/", ".")

        def walk(node: ast.AST, prefix: str) -> None:
            for sub in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{sub.name}"
                    if not isinstance(sub, ast.ClassDef):
                        first = min([sub.lineno, *(d.lineno for d in sub.decorator_list)])
                        span = set(range(sub.lineno, sub.end_lineno + 1))
                        found[site, first] = (name, lines & span)
                walk(sub, name)

        walk(ast.parse(path.read_text()), module.removesuffix(".__init__"))
    return found


def keep_lines(path: pathlib.Path = KEEP) -> list[tuple[str, str, str]]:
    rows = (line.split(None, 2) for line in path.read_text().splitlines()
            if line.strip() and not line.startswith("#"))
    return [tuple(row) for row in rows]


def options(root: pathlib.Path) -> dict[str, list[str]]:
    """``Config.field`` -> the trees in which some call passes ``field=...``."""
    assigned, fields = defaultdict(set), []
    for tree in TREES:
        for path in sorted((root / tree).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.keyword) and node.arg:
                    assigned[node.arg].add(tree)
                elif isinstance(node, ast.ClassDef) and node.name in CONFIGS and tree == "src":
                    fields += [(node.name, stmt.target.id) for stmt in node.body
                               if isinstance(stmt, ast.AnnAssign)]
    return {f"{cls}.{field}": sorted(assigned[field], key=TREES.index) for cls, field in fields}


def measure(root: pathlib.Path) -> set[tuple[str, int]]:
    """Run every driver of ``root`` in a profiled child; the union of what they entered."""
    env = {**os.environ, "REPRO_BENCH_SMOKE": "1", "PYTHONPATH": str(root / "src")}
    entered: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as tmp:
        for n, argv in enumerate(drivers(root, f"{tmp}/traces")):
            print("  driver:", " ".join(argv).replace(tmp, "$TMP"), flush=True)
            subprocess.run([sys.executable, __file__, "--child", f"{tmp}/{n}", *argv], cwd=root,
                           env=env, check=True, stdout=subprocess.DEVNULL)
        for dump in pathlib.Path(tmp).glob("*.*"):
            if dump.is_file():
                entered.update(map(tuple, json.loads(dump.read_text())))
    return entered


def report(root: pathlib.Path, entered: set[tuple[str, int]]) -> int:
    """Print both censuses; the number of violations of the rule."""
    known, keeps = functions(root), keep_lines()
    unreached = known.keys() - entered
    kept = {key for key in unreached
            if any(fnmatch.fnmatchcase(known[key][0], pattern) for pattern, _c, _r in keeps)}
    stale = [pattern for pattern, _c, _r in keeps
             if not any(fnmatch.fnmatchcase(known[key][0], pattern) for key in kept)]

    def tally(keys, package) -> tuple[int, int]:
        """Functions of ``package`` among ``keys`` and their code lines (nested defs once)."""
        keys = [k for k in keys if package in (None, known[k][0].split(".")[1])]
        return len(keys), len({(k[0], n) for k in keys for n in known[k][1]})

    print(f"\nreachability census of {root}/src/repro")
    print(f"{'package':<12}{'functions':>10}{'kept':>10}{'lines':>10}{'unreached':>10}{'lines':>10}")
    for package in [*sorted({name.split(".")[1] for name, _l in known.values()}), None]:
        row = (tally(known, package)[0], *tally(kept, package), *tally(unreached - kept, package))
        print(f"{package or 'total':<12}" + "".join(f"{n:>10}" for n in row))
    for key in sorted(unreached - kept):
        print(f"  unreached: {known[key][0]} ({len(known[key][1])} lines)")
    for pattern in stale:
        print(f"  stale keep (matches no unreached function): {pattern}")
    fields = options(root)
    orphans = [name for name, trees in fields.items() if not trees]
    print(f"\noptions census: {len(fields)} fields, {len(orphans)} assigned by nothing")
    for name, trees in fields.items():
        print(f"  {name:<42}{' '.join(trees) or '-- never assigned'}")
    return len(unreached - kept) + len(stale) + len(orphans)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=pathlib.Path, default=ROOT, help="the tree to measure")
    ap.add_argument("--check", action="store_true", help="exit 1 when the rule is violated")
    ap.add_argument("--child", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        child(args.child[0], args.child[1:])
    elif report(args.root.resolve(), measure(args.root.resolve())) and args.check:
        sys.exit(1)


if __name__ == "__main__":
    main()
