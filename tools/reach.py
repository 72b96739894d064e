#!/usr/bin/env python3
"""The one-customer rule, measured: which functions of ``src/repro`` does a
paper artifact, a ledger workload, a benchmark or an example enter, and
which config options does anything assign:
``python tools/reach.py [--check] [--root OTHER_TREE]`` (~10 min, one core).
Every driver runs in a child interpreter under ``sys.setprofile`` (threads
and forked PDES workers included); the code objects entered are diffed
against an ``ast`` walk of the tree. ``tools/reach_keep.txt`` (pattern,
category, reason) is the only thing subtracted. ``--check`` exits 1 on an
unreached function no keep line matches, on a config field no call in
``src``, ``benchmarks`` or ``examples`` sets and no keep line names, and
on a stale keep line: a pattern that matches no unreached function, or a
``Config.field`` line for a field that is gone or has such a customer.

The report also splits what was entered by customer class (the paper's
``-m repro.bench all`` alone, the benchmark suite with the trace export,
each ledger workload, the examples, the three script benchmarks): code
lines per package and class, the paper's lines and imported modules, and
each extension's lines the paper does not enter.
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
from collections import Counter, defaultdict

from code_lines import code_line_numbers

ROOT = pathlib.Path(__file__).resolve().parents[1]
KEEP = pathlib.Path(__file__).with_name("reach_keep.txt")
CATEGORIES = ("oracle", "inject", "api", "abstract")
TREES = ("src", "benchmarks", "examples", "tests")
BENCHES = ("-m", "pytest", "benchmarks", "--ignore=benchmarks/ledger",
           "--benchmark-disable", "--trace-out")
#: The extensions built around the paper's ARMCI-over-PAMI core (DESIGN §7),
#: by module. A knobs-off job imports none of them (tests/test_reach.py).
EXTENSIONS = {
    "robustness": ("repro.chaos", "repro.recover", "repro.pami.integrity"),
    "link faults": ("repro.topology.links", "repro.topology.routing", "repro.machine.health"),
    "transport.mpi3": ("repro.transport.mpi3",),
    "serve": ("repro.serve",),
    "obs export": ("repro.obs.export", "repro.obs.critical_path"),
    "verify": ("repro.verify",),
}
#: The core's layers, bottom first (DESIGN §3): each loads only its own
#: modules and those of the layers beneath it, and the first ``STDLIB``
#: load no numpy (tests/test_reach.py; the cold-import table of
#: tools/op_census.py).
LAYERS = (
    ("repro.errors", "repro.types", "repro.record"), ("repro.sim",), ("repro.topology",),
    ("repro.machine",), ("repro.obs",), ("repro.pami",), ("repro.transport",),
    ("repro.armci",), ("repro.gax",),
)
STDLIB = 4
#: The runtime API whose defaulted keywords the options rule covers, by module.
API_CLASSES = {
    "ArmciJob": "repro.armci.runtime", "ArmciProcess": "repro.armci.runtime",
    "Handle": "repro.armci.handles", "SharedCounter": "repro.gax.counter",
    "DistributedTaskPool": "repro.gax.taskpool", "GlobalArray": "repro.gax.array",
}
#: ``Class.method.keyword`` -> what justifies it: a call outside ``tests``
#: that passes another value than the default, or the keep line of its
#: method. A keyword with neither goes, and its default is the behaviour.
KEYWORDS = {
    "ArmciJob.__init__.config": "repro.apps.nwchem.scf.run_scf, every customer's job",
    "ArmciJob.__init__.procs_per_node": "benchmarks/supplementary.py, one rank per node",
    "ArmciJob.__init__.world": "benchmarks/supplementary.py, the link-contention ring's world",
    "ArmciJob.__init__.nic_amo_support": "repro.bench.amo, the hardware-AMO curve",
    "ArmciJob.__init__.link_contention": "repro.workloads.runner, the contended patterns",
    "ArmciJob.__init__.chaos": "benchmarks/supplementary.py, the fault_recovery tables",
    "ArmciJob.__init__.fault_plan": "benchmarks/supplementary.py, the crash tables",
    "ArmciJob.__init__.engine": "repro.verify.fuzz, a schedule-exploring Engine",
    "ArmciJob.run.ranks": "repro.recover.manager, the replay on respawned ranks",
    "ArmciProcess.rmw.operand": "repro.gax.counter, the fetch_add increment (the op's argument)",
    "ArmciProcess.rmw.operand2": "compare_swap's new value (the op's second argument)",
    "SharedCounter.__init__.alloc": "DistributedTaskPool.create, the pool's one segment",
    "SharedCounter.create.host": "repro.bench.amo and TaskPool.create, the counter's host rank",
    "DistributedTaskPool.__init__.chunk": "DistributedTaskPool.create, the draw size",
    "DistributedTaskPool.__init__.backups": "DistributedTaskPool.create, the standby counters",
    "DistributedTaskPool.create.chunk": "repro.apps.nwchem.scf, ScfConfig.tasks_per_draw per draw",
    "GlobalArray.create.name": "repro.apps.nwchem.scf, the density and Fock arrays",
}


def drivers(root: pathlib.Path, traces: str) -> list[tuple[str, tuple[str, ...]]]:
    """Every customer, as ``(class, argv of python run from the tree's root)``."""
    ledger = json.loads((root / "BENCHMARK.json").read_text())["workloads"]
    return [
        ("paper", ("-m", "repro.bench", "all")),
        *((w["name"], ("benchmarks/ledger/run.py", "--workload", w["name"], "--seconds", "1",
                       "--trace", "0")) for w in ledger),
        ("supp", (*BENCHES, traces)),
        ("supp", ("-m", "repro.obs.export", f"{traces}/fig11_trace_D.json")),
        ("serving", ("benchmarks/bench_serving.py",)),
        ("ranks", ("benchmarks/bench_rank_scaling.py", "--child", "1024")),
        *(("examples", (str(p.relative_to(root)),
                        *((traces,) if p.name == "trace_scf.py" else ())))
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
        modules = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
        pathlib.Path(f"{out}.{os.getpid()}").write_text(
            json.dumps({"sites": sorted(sites(codes)), "modules": modules}))
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


def names_a_field(pattern: str) -> bool:
    """Whether a keep line keeps a ``Config.field`` rather than functions
    (whose patterns are dotted ``repro.`` names)."""
    return pattern[:1].isupper()


def unkept_options(fields: dict[str, list[str]], keeps) -> tuple[list[str], list[str]]:
    """The fields no call outside ``tests`` sets and no keep line names,
    and the field keep lines that are stale (field gone or now set)."""
    kept = [pattern for pattern, _c, _r in keeps if names_a_field(pattern)]
    customers = {name: [t for t in trees if t != "tests"] for name, trees in fields.items()}
    return ([name for name, found in customers.items() if not found and name not in kept],
            [name for name in kept if customers.get(name, True)])


def config_classes(root: pathlib.Path) -> dict[str, str]:
    """``Config`` -> module of every class in ``src`` whose name ends in
    ``Config`` or ``Policy`` and that declares annotated fields: the frozen
    dataclasses of the option surface (tests/test_reach.py holds each to
    being one). ``BGQParams``, the calibrated machine model, is not one."""
    return {node.name: module for module, node in _config_defs(root)}


def _config_defs(root: pathlib.Path):
    for path in sorted((root / "src").rglob("*.py")):
        module = ".".join(path.relative_to(root / "src").with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name.endswith(("Config", "Policy")) \
                    and any(isinstance(stmt, ast.AnnAssign) for stmt in node.body):
                yield module.removesuffix(".__init__"), node


def _calls(node: ast.AST, owner: str | None = None):
    """``(call, callee, keywords)`` for every call below ``node``: ``Cls(...)``
    -> ``("Cls", None)``, ``Cls.make(...)`` -> ``("Cls", "make")``, ``cls(...)``
    inside ``Cls`` -> ``("Cls", None)``, ``dataclasses.replace(...)`` ->
    ``("replace", None)``. ``keywords`` leaves out what ``cls(f=f)`` passes
    on from its classmethod: the classmethod's callers set ``f``."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, ast.Call):
            func, callee, keywords = sub.func, None, [kw.arg for kw in sub.keywords]
            if isinstance(func, ast.Name) and func.id == "cls" and owner:
                callee = (owner, None)
                keywords = [kw.arg for kw in sub.keywords if getattr(kw.value, "id", None) != kw.arg]
            elif isinstance(func, ast.Name):
                callee = (func.id, None)
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                callee = ("replace", None) if func.attr == "replace" and \
                    func.value.id == "dataclasses" else (func.value.id, func.attr)
            yield sub, callee, keywords
        yield from _calls(sub, sub.name if isinstance(sub, ast.ClassDef) else owner)


def options(root: pathlib.Path) -> dict[str, list[str]]:
    """``Config.field`` -> the trees in which some call sets ``field``.

    Only a real setter counts: a keyword or positional argument of a call
    to the field's own class, a keyword of one of its classmethods or of
    ``cls(...)`` inside it (bar ``cls(f=f)``), or a keyword of ``replace``
    for a field name no other config class has. Passing
    ``poll_interval=kv.poll_interval`` on to some other callee sets nothing."""
    fields, makers = {}, {}
    for _module, node in _config_defs(root):
        fields[node.name] = [stmt.target.id for stmt in node.body
                             if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
        makers[node.name] = {stmt.name for stmt in node.body if isinstance(stmt, ast.FunctionDef)
                             and any(getattr(d, "id", None) == "classmethod"
                                     for d in stmt.decorator_list)}
    owners = defaultdict(list)
    for cls, names in fields.items():
        for name in names:
            owners[name].append(cls)
    found = {(cls, name): set() for cls, names in fields.items() for name in names}
    for tree in TREES:
        for path in sorted((root / tree).rglob("*.py")):
            for call, callee, keywords in _calls(ast.parse(path.read_text())):
                cls, method = callee or (None, None)
                if cls in fields and (method is None or method in makers[cls]):
                    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
                    positional = [] if method or starred else fields[cls][:len(call.args)]
                    named = [name for name in keywords if name in fields[cls]]
                    for name in positional + named:
                        found[cls, name].add(tree)
                elif callee == ("replace", None):
                    for name in keywords:
                        if len(owners.get(name, ())) == 1:
                            found[owners[name][0], name].add(tree)
    return {f"{cls}.{name}": sorted(trees, key=TREES.index) for (cls, name), trees in found.items()}


def keywords() -> list[str]:
    """``Class.method.keyword`` of every defaulted keyword on the public
    methods (``__init__`` included) of the ``API_CLASSES``, as imported."""
    import importlib
    import inspect

    found = []
    for name, module in API_CLASSES.items():
        for attr, member in vars(getattr(importlib.import_module(module), name)).items():
            func = getattr(member, "__func__", member)
            if (attr.startswith("_") and attr != "__init__") or not inspect.isfunction(func):
                continue
            params = inspect.signature(func).parameters.values()
            found += [f"{name}.{attr}.{p.name}" for p in params if p.default is not p.empty]
    return found


def measure(root: pathlib.Path) -> dict[str, tuple[set, set]]:
    """Run every customer of ``root`` in a profiled child: per customer
    class, the ``sites`` its runs entered and the ``repro`` modules they loaded."""
    env = {**os.environ, "REPRO_BENCH_SMOKE": "1", "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory() as tmp:
        plan = drivers(root, f"{tmp}/traces")
        by_class = {label: (set(), set()) for label, _argv in plan}
        for n, (_label, argv) in enumerate(plan):
            print("  driver:", " ".join(argv).replace(tmp, "$TMP"), flush=True)
            subprocess.run([sys.executable, __file__, "--child", f"{tmp}/{n}", *argv], cwd=root,
                           env=env, check=True, stdout=subprocess.DEVNULL)
        for dump in pathlib.Path(tmp).glob("*.*"):
            if dump.is_file():  # {n}.{pid}: the customer's own process or a forked worker
                entered, modules = by_class[plan[int(dump.stem)][0]]
                found = json.loads(dump.read_text())
                entered.update(map(tuple, found["sites"]))
                modules.update(found["modules"])
    return by_class


def module_of(site: str) -> str:
    """``repro/pkg/mod.py`` -> ``repro.pkg.mod``."""
    return site.removesuffix(".py").removesuffix("/__init__").replace("/", ".")


def within(module: str, scope) -> bool:
    """Whether ``module`` is one of the modules in ``scope`` or lies in one."""
    return any(module == m or module.startswith(f"{m}.") for m in scope)


def by_customer(known: dict, by_class: dict[str, tuple[set, set]]) -> None:
    """Print code lines per package and customer class, the paper's size,
    and what each extension adds beyond the paper."""
    def lines(keys) -> set[tuple[str, int]]:
        return {(k[0], n) for k in keys if k in known for n in known[k][1]}

    every = lines(known)
    entered = {label: lines(sites) for label, (sites, _m) in by_class.items()}
    columns = {**entered, "any": set().union(*entered.values()), "of": every}
    width = {c: max(len(c), 5) + 1 for c in columns}
    print("\ncensus by customer: code lines inside functions entered, per package")
    print(f"{'package':<12}" + "".join(f"{c:>{width[c]}}" for c in columns))
    for package in [*sorted({module_of(site).split(".")[1] for site, _n in every}), None]:
        scope = ("repro",) if package is None else (f"repro.{package}",)
        print(f"{package or 'total':<12}" + "".join(
            f"{sum(within(module_of(site), scope) for site, _n in found):>{width[c]}}"
            for c, found in columns.items()))
    paper, (sites, modules) = entered["paper"], by_class["paper"]
    print(f"\nthe paper (python -m repro.bench all): {len(paper)} code lines of "
          f"{len(every)} inside functions ({len(sites & known.keys())} of {len(known)} "
          f"functions); {len(modules)} repro modules imported:\n  {' '.join(sorted(modules))}")
    print("\nextensions: code lines the paper does not enter (of all), customers entering them")
    for name, prefixes in EXTENSIONS.items():
        own = {line for line in every if within(module_of(line[0]), prefixes)}
        users = [c for c, found in entered.items() if c != "paper" and own & found]
        imported = [m for m in sorted(modules) if within(m, prefixes)]
        print(f"  {name:<16}{len(own - paper):>6} of {len(own):<6}"
              f"{' '.join(users) or '(none: tier-1 and fuzz tests only)'}"
              + (f"  [the paper imports {' '.join(imported)}]" if imported else ""))


def report(root: pathlib.Path, by_class: dict[str, tuple[set, set]]) -> int:
    """Print the censuses; the number of violations of the rule."""
    known, keeps = functions(root), [row for row in keep_lines() if not names_a_field(row[0])]
    entered = set().union(*(sites for sites, _m in by_class.values()))
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
    orphans, stale_fields = unkept_options(fields, keep_lines())
    print(f"\noptions census: {len(fields)} fields of {len(config_classes(root))} classes, "
          f"{len(orphans)} set outside tests by nothing and kept by no line")
    for name, trees in fields.items():
        print(f"  {name:<42}{' '.join(trees) or '-- never set'}")
    for name in orphans:
        print(f"  no customer (a module constant, or a keep line): {name}")
    for name in stale_fields:
        print(f"  stale keep (field gone or set outside tests): {name}")
    by_customer(known, by_class)
    return len(unreached - kept) + len(stale) + len(orphans) + len(stale_fields)


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
