"""The one benchmark runner: every reproduced table, one target each.

One target per entry of :data:`repro.bench.artifacts.ARTIFACTS` (the
paper's Section IV: Tables I-II, Eqs. 1-6, Figs. 3-9, 11) and of
:data:`supplementary.SUPPLEMENTARY` (Eqs. 7-9, the Section III
ablations, the extension, fault-recovery and transport tables): run the
sweep, check the claims on its data, save the rendered table to
``benchmarks/results/<stem>.txt``. ``REPRO_BENCH_SMOKE=1`` shrinks
Figs. 7, 9 and 11 and the fault-recovery sweeps to CI-sized grids;
unset, Fig. 11 is the paper's 1024-4096 ranks (minutes of host time).
"""

import dataclasses
import json
from pathlib import Path

import pytest
from _report import save
from supplementary import SUPPLEMENTARY

from repro.apps.nwchem import ScfConfig
from repro.bench.artifacts import ARTIFACTS
from repro.util import render_table

REGISTRY = {**ARTIFACTS, **SUPPLEMENTARY}


@pytest.mark.parametrize("name", REGISTRY)
def test_artifact(benchmark, name):
    artifact = REGISTRY[name]
    data = benchmark.pedantic(artifact.run, rounds=1, iterations=1)
    artifact.check(data)
    save(name, artifact.table(data))


#: Span tracing multiplies per-op cost, so the --trace-out rerun uses a
#: scaled-down-but-still-contended SCF (single shared counter, small task
#: grain) where the D-vs-AT counter dwell contrast is unmistakable.
TRACE_PROCS = 16
TRACE_SCF = ScfConfig(nblocks=10, task_time=5e-4, iterations=1)


def test_fig11_trace_export(request):
    out_dir = request.config.getoption("--trace-out")
    if not out_dir:
        pytest.skip("pass --trace-out DIR to export Perfetto traces")

    from repro.apps.nwchem import run_scf
    from repro.armci import ArmciConfig, ObsConfig
    from repro.obs.critical_path import attribution_rows, critical_path
    from repro.obs.export import (
        perfetto_payload,
        validate_trace_events,
        write_metrics_json,
        write_perfetto,
    )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    obs_on = ObsConfig(enabled=True)
    modes = {
        "D": dataclasses.replace(ArmciConfig.default_mode(), obs=obs_on),
        "AT": dataclasses.replace(ArmciConfig.async_thread_mode(), obs=obs_on),
    }
    counter_share = {}
    rows = []
    for label, config in modes.items():
        captured = {}
        run_scf(
            TRACE_PROCS,
            config,
            TRACE_SCF,
            label=label,
            on_job=lambda job: captured.update(job=job),
        )
        job = captured["job"]
        obs = job.obs
        spans, edges = obs.finished(), obs.edges
        assert obs.truncated_spans == 0

        path = out / f"fig11_trace_{label}.json"
        write_perfetto(path, spans, edges)
        assert validate_trace_events(perfetto_payload(spans, edges)) == []

        # One registry per job: the wire counters and the span
        # histograms come out of the same snapshot.
        metrics_path = out / f"fig11_metrics_{label}.json"
        write_metrics_json(metrics_path, job.trace, per_rank=True)
        snapshot = json.loads(metrics_path.read_text())
        assert any(n.startswith("pami.") for n in snapshot["counters"])
        assert any(n.startswith("obs.span.") for n in snapshot["histograms"])

        report = critical_path(spans, edges)
        assert report.coverage >= 0.99, (label, report.coverage)
        counter_share[label] = report.attribution.get("counter_wait", 0.0)
        for cat, ms, pct in attribution_rows(report, top=5):
            rows.append([label, cat, ms, pct])

    # The headline contrast the trace files visualize: the async thread
    # collapses the initiator-side counter dwell on the critical path.
    assert counter_share["AT"] < counter_share["D"], counter_share

    save(
        "fig11_trace",
        render_table(
            ["mode", "critical-path category", "time", "share"],
            rows,
            title=(
                f"Fig. 11 trace export ({TRACE_PROCS} procs, "
                f"{TRACE_SCF.ntasks} tasks) — Perfetto files in {out}"
            ),
        ),
    )
