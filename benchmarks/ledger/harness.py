"""Repetition loop: phase clock, import probes, traced pass, aggregation.

One call of :func:`measure` runs one workload in this process and this
thread: cold-import probes in fresh interpreters, one untimed warm-up
repetition, untraced timed repetitions, then (for per-layer metrics)
repetitions under ``cProfile``. Every layer is measured from outside:
timed calls, the ``on_job`` hooks of ``run_scf``/``run_kv``, counter
deltas read through :mod:`counters`, and the profile fold of
:mod:`layers`.

Host times are in seconds of the reference host: every timed section
lies between two samples of :mod:`hostprobe`, and its seconds are divided
by the slowdown they read. The raw seconds stay in the record beside them.
"""

from __future__ import annotations

import cProfile
import gc
import itertools
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from catalog import LAYERS, ROOT, UNGATED, Catalog
from counters import CounterReader, derive, ratio
from hostprobe import HostProbe
from layers import fold

SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Fresh interpreters per cold-import measurement.
IMPORT_PROBES = 5
#: Phases whose host time is the workload's ``wall_s`` ...
TIMED_PHASES = ("run", "audit")
#: ... and those whose host time is its share of ``setup_s``. Any other
#: phase (``aux``: extra work for a per-layer metric) counts toward neither.
SETUP_PHASES = ("build", "init")


@dataclass
class Outcome:
    """What one repetition of a workload returns to the harness."""

    #: The workload's fixed operation count (``host_ops_per_s`` numerator).
    ops: int
    #: Operations attempted, and those that raised, were refused, missed
    #: their deadline, went unanswered or produced a wrong value.
    attempted: int
    failed: int
    #: Simulated seconds of each operation (``sim_p50_us``/``sim_p99_us``).
    latencies: list[float]
    #: CRC of the generated inputs — changes with the seed, not the code.
    inputs_crc: int
    #: The size constants this repetition ran at; ``ranks`` is 0 on the
    #: bare engine.
    sizes: dict[str, Any]
    #: One note per output check that failed.
    errors: list[str] = field(default_factory=list)
    #: Values the checks looked at, kept in the record for the reader.
    checks: dict[str, Any] = field(default_factory=dict)
    #: Workload-specific values: ``sim_at_gain_pct``, ``paper_err_pct``,
    #: ``tasks``, ``mpi3_wall_s``/``mpi3_sim_s``.
    extra: dict[str, Any] = field(default_factory=dict)


class SpanLog:
    """In-memory phase spans, written out as Chrome trace events at exit."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._t0 = time.perf_counter()

    def add(self, name: str, start: float, end: float, rep: int | None,
            parent: int | None) -> int:
        sid = len(self.spans) + 1
        self.spans.append({
            "id": sid, "parent": parent, "rep": rep, "name": name,
            "start": start - self._t0, "end": end - self._t0,
        })
        return sid

    def write(self, path: Path) -> None:
        events = [
            {
                "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
                "ts": s["start"] * 1e6, "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"id": s["id"], "parent": s["parent"], "rep": s["rep"]},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


class Rep:
    """Phase clock of one repetition.

    A workload walks through phases with :meth:`enter` — ``build`` (input
    generation and ``ArmciJob(...)``), ``init``, ``run``, ``audit`` —
    possibly more than once (``scf_d_at`` builds two jobs). Host time in
    ``run`` and ``audit`` is the repetition's ``wall_s``, in ``build`` and
    ``init`` its set-up. Entering ``run`` takes the job (or bare engine)
    whose simulated clock and counters are read at both ends of the run.
    """

    def __init__(self, rep_id: int, spans: SpanLog, reader: CounterReader,
                 profiler: cProfile.Profile | None = None) -> None:
        self.rep_id = rep_id
        self._spans = spans
        self.reader = reader
        self._profiler = profiler
        self._profiling = False
        self._phase: str | None = None
        self._pending: list[tuple[str, float, float]] = []
        self._job: Any = None
        self._engine: Any = None
        self._before: dict[str, int | None] = {}
        self._sim0 = 0.0
        self.host: dict[str, float] = {}
        self.sim_s = 0.0
        self.deltas: dict[str, int | None] = {}
        self.rss_before_kb = _rss_kb()
        self.rss_ready_kb: int | None = None
        #: Host slowdown around this repetition (set when it has ended).
        self.slowdown = 1.0
        self._start = self._t0 = time.perf_counter()

    def enter(self, phase: str, job: Any = None, engine: Any = None) -> None:
        """Close the current phase and start ``phase``."""
        now = time.perf_counter()
        self._leave(now)
        timed = phase in TIMED_PHASES
        if phase == "run":
            self._job = job
            self._engine = engine if engine is not None else job.engine
            if self.rss_ready_kb is None:
                self.rss_ready_kb = _rss_kb()
            self._before = self.reader.snapshot(self._job, self._engine)
            self._sim0 = self._engine.now
        if self._profiler is not None and timed != self._profiling:
            (self._profiler.enable if timed else self._profiler.disable)()
            self._profiling = timed
        self._phase = phase
        self._t0 = time.perf_counter() if phase == "run" else now

    def _leave(self, now: float) -> None:
        if self._phase is None:
            return
        self._pending.append((self._phase, self._t0, now))
        self.host[self._phase] = self.host.get(self._phase, 0.0) + now - self._t0
        if self._phase == "run":
            self.sim_s += self._engine.now - self._sim0
            after = self.reader.snapshot(self._job, self._engine)
            for name, value in after.items():
                base = self._before[name]
                step = None if value is None or base is None else value - base
                prior = self.deltas.get(name, 0)
                self.deltas[name] = (
                    None if step is None or prior is None else prior + step
                )
        self._phase = None

    def close(self) -> None:
        """End the repetition and file its spans under one parent."""
        now = time.perf_counter()
        self._leave(now)
        if self._profiling:
            self._profiler.disable()
            self._profiling = False
        parent = self._spans.add("rep", self._start, now, self.rep_id, None)
        for name, start, end in self._pending:
            self._spans.add(name, start, end, self.rep_id, parent)

    @property
    def raw_wall_s(self) -> float:
        """Seconds of the timed phases as the clock read them."""
        return sum(self.host.get(p, 0.0) for p in TIMED_PHASES)

    @property
    def wall_s(self) -> float:
        return self.raw_wall_s / self.slowdown

    @property
    def build_s(self) -> float:
        return sum(self.host.get(p, 0.0) for p in SETUP_PHASES) / self.slowdown


def _rss_kb() -> int:
    """Resident set of this process now, in KB (``/proc/self/statm``)."""
    with open("/proc/self/statm", encoding="ascii") as f:
        pages = int(f.read().split()[1])
    return pages * resource.getpagesize() // 1024


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile, as ``obs.metrics.Histogram`` computes it."""
    k = math.ceil(p / 100.0 * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, k))]


def summary(values: list[float]) -> dict[str, float | int]:
    """Median, quartiles and count of one host-time metric."""
    if len(values) >= 2:
        q1, _median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def cold_import_s(modules: tuple[str, ...]) -> float:
    """Seconds one fresh interpreter takes to import ``modules``."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import " + ", ".join(modules) + "; "
        "print(time.perf_counter() - t)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(done.stdout)


def _sim_signature(rep: Rep, outcome: Outcome) -> tuple:
    """Everything about a repetition that must repeat exactly."""
    lat = sorted(outcome.latencies)
    return (
        rep.sim_s, rep.deltas.get("sim.events"), len(lat),
        percentile(lat, 50), percentile(lat, 99),
        outcome.ops, outcome.attempted, outcome.failed, outcome.inputs_crc,
        outcome.extra.get("sim_at_gain_pct"), outcome.extra.get("paper_err_pct"),
    )


def measure(
    name: str,
    spec: dict[str, Any],
    seed: int,
    seconds: float,
    trace: str,
    scale: float,
    catalog: Catalog,
    spans: SpanLog,
) -> dict[str, Any]:
    """Run one workload and return its record (see README.md, *Output*).

    ``spec`` is the workload's entry in ``workloads.WORKLOADS``.
    ``trace`` is ``"0"`` (end-to-end metrics only), ``"1"`` (per-layer
    metrics: a few untraced repetitions for the counts, the rest of the
    time under cProfile) or ``"both"``. ``seconds`` is the measuring
    budget, from the first import probe to the last repetition;
    ``spec["min_reps"]`` repetitions run even when it is spent.
    """
    layers_wanted = trace != "0"
    reader = CounterReader()
    errors: list[str] = []
    reps: list[tuple[Rep, Outcome]] = []
    rep_ids = itertools.count()
    probe = HostProbe()
    # The sample after one timed section is the one before the next.
    slowdown = probe.sample()

    def run_rep(profiler: cProfile.Profile | None = None) -> tuple[Rep, Outcome]:
        # Collect between repetitions, never inside one (as ``timeit``
        # does): on the many-rank job full collections are a third of the
        # wall time and, being memory-bound, most of its run-to-run noise.
        nonlocal slowdown
        gc.collect()
        gc.disable()
        rep = Rep(next(rep_ids), spans, reader, profiler)
        try:
            outcome = spec["fn"](rep, seed, scale, layers_wanted)
        finally:
            rep.close()
            before, slowdown = slowdown, probe.sample()
            rep.slowdown = (before + slowdown) / 2
            gc.enable()
        return rep, outcome

    deadline = time.perf_counter() + seconds
    # The import runs in a child, and the first sample after a child has
    # exited often reads high: divide by the level over all the probes.
    import_raw, around = [], [slowdown]
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        import_raw.append(cold_import_s(spec["modules"]))
        spans.add("import", t0, time.perf_counter(), None, None)
        slowdown = probe.sample()
        around.append(slowdown)
    level = statistics.median(around)
    import_samples = [raw_s / level for raw_s in import_raw]
    import_s = statistics.median(import_samples)

    warm_rep, warm_out = run_rep()  # untimed: fills caches, lazy imports
    reference = _sim_signature(warm_rep, warm_out)

    now = time.perf_counter()
    untraced_until = now + 0.4 * (deadline - now) if trace == "1" else deadline
    min_reps = 3 if trace == "1" else spec["min_reps"]
    peak_rss_mb = 0.0
    while len(reps) < min_reps or time.perf_counter() < untraced_until:
        reps.append(run_rep())
        if len(reps) == min_reps:
            # After a fixed number of repetitions, so that a faster host
            # (more repetitions in the budget) does not read a higher peak.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced: list[tuple[Rep, Outcome]] = []
    folds: list[tuple[dict[str, float], dict[str, int], float]] = []
    if layers_wanted:
        while not traced or (trace == "1" and time.perf_counter() < deadline):
            profiler = cProfile.Profile()
            traced.append(run_rep(profiler))
            self_s, calls, total_s = fold(profiler)
            slow = traced[-1][0].slowdown
            folds.append((
                {layer: s / slow for layer, s in self_s.items()},
                calls, total_s / slow,
            ))

    for rep, outcome in reps + traced:
        if _sim_signature(rep, outcome) != reference:
            errors.append(
                f"rep {rep.rep_id}: simulated metrics differ from the warm-up's"
            )
    first_out = reps[0][1]
    errors.extend(first_out.errors)
    attempted = sum(out.attempted for _, out in reps)
    failed = sum(out.failed for _, out in reps)

    end_to_end = _end_to_end(reps, import_samples, peak_rss_mb, failed / attempted)
    for metric, entry in end_to_end.items():
        entry["unit"] = catalog.end_to_end[metric]["unit"]
    per_layer: dict[str, float | int | None] = {}
    trace_info: dict[str, Any] = {}
    if layers_wanted:
        per_layer = dict.fromkeys(catalog.per_layer)
        per_layer.update(_untraced_layers(reps, warm_rep, import_s))
        if any(calls != folds[0][1] for _self_s, calls, _total in folds[1:]):
            errors.append("traced call counts differ between repetitions")
        trace_info = _traced_layers(per_layer, reps, traced, folds)

    return {
        "workload": name,
        "why": catalog.workloads[name],
        "loop": spec["loop"],
        "sizes": first_out.sizes,
        "seed": seed,
        "scale": scale,
        "reps": len(reps),
        "ops": first_out.ops,
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and not errors,
        "errors": errors,
        "inputs_crc": first_out.inputs_crc,
        "checks": first_out.checks,
        "end_to_end": end_to_end,
        # How much slower than the reference host this one ran, and what
        # the clock read before that was divided out.
        "host": {
            "slowdown_x": summary([r.slowdown for r, _ in reps]),
            "raw_wall_s": summary([r.raw_wall_s for r, _ in reps]),
        },
        "per_layer": per_layer,
        "trace": trace_info,
        "missing_counters": reader.missing,
    }


def _end_to_end(
    reps: list[tuple[Rep, Outcome]], import_samples: list[float],
    peak_rss_mb: float, failed_share: float,
) -> dict[str, dict[str, Any]]:
    """The ten end-to-end metrics: host-time ones as median and quartiles
    over the repetitions, simulated ones from the first (all are equal)."""
    rep, out = reps[0]
    lat = sorted(out.latencies)
    # Two independent parts, each with its own samples: add them
    # quartile by quartile so the spread of both shows.
    cold, build = summary(import_samples), summary([r.build_s for r, _ in reps])
    setup = {k: cold[k] + build[k] for k in ("value", "q1", "q3")} | {"n": build["n"]}
    return {
        "wall_s": summary([r.wall_s for r, _ in reps]),
        "host_ops_per_s": summary([o.ops / r.wall_s for r, o in reps]),
        "setup_s": setup,
        "peak_rss_mb": {"value": peak_rss_mb},
        "sim_makespan_us": {"value": rep.sim_s * 1e6},
        "sim_p50_us": {"value": percentile(lat, 50) * 1e6, "n": len(lat)},
        "sim_p99_us": {"value": percentile(lat, 99) * 1e6, "n": len(lat)},
        "sim_at_gain_pct": {"value": out.extra.get("sim_at_gain_pct")},
        "paper_err_pct": {"value": out.extra.get("paper_err_pct")},
        "failed_share": {"value": failed_share},
    }


def _untraced_layers(
    reps: list[tuple[Rep, Outcome]], warm_rep: Rep, import_s: float,
) -> dict[str, float | int | None]:
    """Per-layer metrics of the untraced run: exact counts and the few
    host times that need no profiler."""
    rep, out = reps[0]
    layer = derive(rep.deltas, out.ops)
    wall = statistics.median(r.wall_s for r, _ in reps)
    layer["sim.host_ns_per_event"] = ratio(wall * 1e9, layer["sim.events"])
    ranks = out.sizes["ranks"]
    if ranks:
        layer["armci.job_build_s"] = statistics.median(r.build_s for r, _ in reps)
        # Fresh process, first job: later repetitions reuse freed pages.
        layer["armci.rss_per_rank_kb"] = (
            warm_rep.rss_ready_kb - warm_rep.rss_before_kb
        ) / ranks
    if "mpi3_wall_s" in out.extra:
        layer["transport.mpi3_wall_ratio"] = statistics.median(
            o.extra["mpi3_wall_s"] / r.host["run"] for r, o in reps
        )
        layer["transport.mpi3_sim_ratio"] = out.extra["mpi3_sim_s"] / rep.sim_s
    _null_idle_layers(layer)
    layer["repro.import_s"] = import_s
    return layer


#: unit-cost metric -> (layer whose self time it divides, count it
#: divides by, seconds-to-unit factor).
_UNIT_COSTS = {
    "sim.self_ns_per_event": ("sim", "sim.events", 1e9),
    "pami.self_ns_per_wire_op": ("pami", "pami.wire_ops", 1e9),
    "transport.self_ns_per_wire_op": ("transport", "pami.wire_ops", 1e9),
    "armci.self_ns_per_op": ("armci", "armci.ops", 1e9),
    "gax.self_us_per_task": ("gax", "tasks", 1e6),
    "serve.self_us_per_request": ("serve", "serve.requests", 1e6),
    "machine.self_ns_per_message": ("machine", "machine.net_messages", 1e9),
}


def _traced_layers(
    per_layer: dict[str, float | int | None],
    reps: list[tuple[Rep, Outcome]],
    traced: list[tuple[Rep, Outcome]],
    folds: list[tuple[dict[str, float], dict[str, int], float]],
) -> dict[str, Any]:
    """Fill in the metrics of the traced run (``folds`` holds one
    :func:`layers.fold` per traced repetition); return its bookkeeping."""
    calls = folds[0][1]
    total_s = 0.0
    for layer in LAYERS:
        self_s = statistics.median(self_s[layer] for self_s, _c, _t in folds)
        total_s += self_s
        per_layer[f"{layer}.self_s"] = self_s if calls[layer] else None
        per_layer[f"{layer}.calls"] = calls[layer] or None
    counts = {**per_layer, "tasks": reps[0][1].extra.get("tasks")}
    for metric, (layer, per, factor) in _UNIT_COSTS.items():
        self_s = per_layer[f"{layer}.self_s"]
        per_layer[metric] = ratio(
            None if self_s is None else self_s * factor, counts[per]
        )
    traced_wall = statistics.median(r.wall_s for r, _ in traced)
    wall = statistics.median(r.wall_s for r, _ in reps)
    per_layer["trace.overhead_x"] = traced_wall / wall
    return {
        "reps": len(traced),
        "wall_s": traced_wall,
        # Every profiled function lies in exactly one layer, so these agree.
        "layers_total_s": total_s,
        "profile_total_s": statistics.median(total for _s, _c, total in folds),
    }


def _null_idle_layers(per_layer: dict[str, float | int | None]) -> None:
    """A layer whose every count is zero did no work: report ``null``,
    so a zero always means "worked and counted none"."""
    by_layer: dict[str, list[str]] = {}
    for metric, value in per_layer.items():
        if value is not None:
            by_layer.setdefault(metric.split(".", 1)[0], []).append(metric)
    for layer, metrics in by_layer.items():
        if layer in LAYERS and all(per_layer[m] == 0 for m in metrics):
            for m in metrics:
                per_layer[m] = None


def driver_line(record: dict[str, Any], trace: str, catalog: Catalog) -> str:
    """The one JSON object the driver reads from the last line of stdout."""
    if trace == "0":
        names = catalog.driver_end_to_end
        source = {n: record["end_to_end"][n]["value"] for n in names}
    else:
        names = catalog.driver_per_layer
        source = dict(record["per_layer"])
        for n in UNGATED:
            source[n] = record["end_to_end"][n]["value"]
    metrics = {
        # The driver takes numbers only: a layer that did no work reads 0.
        n: {"value": source[n] if source[n] is not None else 0, "unit": m["unit"]}
        for n, m in names.items()
    }
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    })
