"""Tests for the benchmark drivers and the artifact registry (small
scales; full scale lives in benchmarks/)."""

import ast
import importlib
import pathlib
import re

import pytest
from supplementary import SUPPLEMENTARY

from repro.armci import ArmciConfig
from repro.bench import (
    bandwidth_sweep,
    contiguous_latency_sweep,
    efficiency_series,
    latency_per_byte,
    n_half,
    strided_bandwidth_sweep,
    table_i_rows,
    table_ii_rows,
)
from repro.bench import artifacts
from repro.bench.amo import amo_latency_run
from repro.bench.artifacts import ARTIFACTS
from repro.bench.rankscan import hop_latency_estimate, rank_latency_scan
from repro.bench.scf import scf_comparison
from repro.apps.nwchem import ScfConfig
from repro.errors import ReproError

SIZES = (16, 256, 4096)


class TestLatencyDrivers:
    def test_latency_sweep_returns_requested_sizes(self):
        rows = contiguous_latency_sweep(sizes=SIZES, op="get")
        assert [s for s, _ in rows] == list(SIZES)
        assert all(t > 0 for _, t in rows)

    def test_put_latency_below_get(self):
        gets = dict(contiguous_latency_sweep(sizes=SIZES, op="get"))
        puts = dict(contiguous_latency_sweep(sizes=SIZES, op="put"))
        assert all(puts[s] < gets[s] for s in SIZES)

    def test_invalid_op_rejected(self):
        with pytest.raises(ReproError):
            contiguous_latency_sweep(sizes=SIZES, op="swap")

    def test_latency_per_byte_decreases(self):
        rows = latency_per_byte(sizes=SIZES)
        values = [v for _, v in rows]
        assert values == sorted(values, reverse=True)


class TestBandwidthDrivers:
    def test_bandwidth_monotone_in_size(self):
        rows = bandwidth_sweep(sizes=SIZES, op="put", window=8)
        values = [b for _, b in rows]
        assert values == sorted(values)

    def test_efficiency_bounded(self):
        rows = efficiency_series(sizes=SIZES)
        assert all(0 < e < 1 for _, e in rows)

    def test_n_half_requires_reaching_half_peak(self):
        with pytest.raises(ReproError):
            n_half([(16, 0.01), (32, 0.02)])
        assert n_half([(16, 0.1), (2048, 0.6)]) == 2048

    def test_strided_sweep_validates_divisibility(self):
        with pytest.raises(ReproError):
            strided_bandwidth_sweep(total_bytes=1000, chunk_sizes=(512,))

    def test_strided_sweep_monotone(self):
        rows = strided_bandwidth_sweep(
            total_bytes=64 * 1024, chunk_sizes=(1024, 8192, 65536)
        )
        values = [b for _, b in rows]
        assert values == sorted(values)


class TestRankScan:
    def test_scan_covers_targets_and_hops(self):
        results = rank_latency_scan(num_procs=32, procs_per_node=16)
        assert len(results) == 31
        assert {r.rank for r in results} == set(range(1, 32))
        # 15 same-node ranks at 0 hops; 16 on the other node at 1 hop.
        assert sum(1 for r in results if r.hops == 0) == 15
        assert sum(1 for r in results if r.hops == 1) == 16

    def test_hop_estimate_on_multinode_job(self):
        results = rank_latency_scan(num_procs=128, procs_per_node=16)
        assert hop_latency_estimate(results) == pytest.approx(35e-9, rel=0.05)

    def test_equal_distance_equal_latency(self):
        results = rank_latency_scan(num_procs=64, procs_per_node=16)
        by_hops = {}
        for r in results:
            if r.hops > 0:
                by_hops.setdefault(r.hops, set()).add(round(r.seconds * 1e12))
        assert all(len(v) == 1 for v in by_hops.values())


class TestAmoDriver:
    def test_unknown_label_rejected(self):
        with pytest.raises(ReproError):
            amo_latency_run(4, "bogus")

    def test_compute_hurts_default_only(self):
        d = amo_latency_run(8, "D", iterations=4, procs_per_node=8)
        dc = amo_latency_run(8, "D+compute", iterations=4, procs_per_node=8)
        atc = amo_latency_run(8, "AT+compute", iterations=4, procs_per_node=8)
        assert dc.mean_latency > d.mean_latency + 200e-6
        assert atc.mean_latency < d.mean_latency * 1.5

    def test_hardware_beats_software(self):
        hw = amo_latency_run(8, "HW+compute", iterations=4, procs_per_node=8)
        at = amo_latency_run(8, "AT+compute", iterations=4, procs_per_node=8)
        assert hw.mean_latency < at.mean_latency


class TestScfDriver:
    def test_comparison_shape(self):
        scf = ScfConfig(nbf_override=32, nblocks=4, task_time=200e-6)
        rows = scf_comparison(proc_counts=(4, 8), scf=scf, procs_per_node=8)
        assert [c.num_procs for c in rows] == [4, 8]
        for cell in rows:
            assert 0 < cell.improvement < 1
            assert cell.counter_time_reduction > 1


class TestTables:
    def test_table_i_rows(self):
        assert len(table_i_rows()) == 13

    def test_table_ii_measured_matches_paper(self):
        rows = {r[1]: r for r in table_ii_rows()}
        assert rows["beta"][3] == "0.30 us"
        assert rows["delta"][3] == "43.0 us"
        assert rows["t_ctx"][3] == "3821 - 4271 us"


REPO = pathlib.Path(__file__).resolve().parent.parent


class TestRegistry:
    def test_paper_order_and_stems(self):
        assert list(ARTIFACTS) == [
            "table1_attributes", "table2_empirical", "eqs1_6_complexity",
            "fig3_latency", "fig4_bandwidth", "fig5_latency_per_byte",
            "fig6_efficiency", "fig7_rank_latency", "fig8_strided",
            "fig9_amo", "fig11_scf",
        ]

    def test_a_broken_claim_fires(self):
        gets = contiguous_latency_sweep(sizes=(16, 128, 256), op="get")
        with pytest.raises(AssertionError, match="paper claim"):
            # Puts as slow as gets: "get carries the round trip" fails.
            ARTIFACTS["fig3_latency"].check((gets, gets))

    def test_smoke_is_the_one_small_scale_switch(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
        assert artifacts._grid(None, (128,), (2048,)) == (2048,)
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        assert artifacts._grid(None, (128,), (2048,)) == (128,)
        assert artifacts._grid([64], (128,), (2048,)) == (64,)
        # A supplementary sweep reads the switch when it runs, not when
        # its module was imported.
        fifo = SUPPLEMENTARY["fault_recovery_fifo_saturation"]
        assert list(fifo.run()) == [None, 4]
        monkeypatch.delenv("REPRO_BENCH_SMOKE")
        assert list(fifo.run()) == [None, 2, 4, 8, 16, 64]

    def test_cli_prints_the_registry_table(self, capsys):
        from repro.bench.__main__ import main

        artifact = ARTIFACTS["fig6_efficiency"]
        data = artifact.run()
        assert main(["fig6"]) == 0
        assert capsys.readouterr().out == (
            artifact.table(data) + "\n\n" + artifact.chart(data) + "\n"
        )


class TestOneBenchmarkSurface:
    """Regrowth guard: the registry is the only renderer of a paper
    artifact, the ledger the only committed host-performance record, and
    running a benchmark writes under ``benchmarks/results/`` only."""

    def test_the_cli_renders_nothing_itself(self):
        import repro.bench.__main__ as cli

        tree = ast.parse(pathlib.Path(cli.__file__).read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        assert "render_table" not in names

    def test_no_second_figure_script_or_host_perf_fork(self):
        bench = REPO / "benchmarks"
        patterns = ("bench_fig*.py", "bench_tables.py", "bench_host_perf.py")
        stale = [p for pattern in patterns for p in bench.glob(pattern)]
        assert stale + list(REPO.glob("BENCH_*.json")) == []

    def test_benchmarks_write_no_tracked_file(self):
        """No ``Path(__file__).parent.parent`` (the repo root) target."""
        for path in sorted((REPO / "benchmarks").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                climbs = (
                    isinstance(node, ast.Attribute)
                    and node.attr == "parent"
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "parent"
                )
                assert not climbs, f"{path.name}:{node.lineno}"

    def test_every_path_ci_names_exists(self):
        workflow = (REPO / ".github" / "workflows" / "ci.yml").read_text()
        paths = set(
            re.findall(r"\b(?:benchmarks|tests|tools|examples)/[\w/]+\.py", workflow)
        )
        assert paths, "ci.yml names no script"
        assert sorted(p for p in paths if not (REPO / p).exists()) == []

    def test_one_benchmark_runner(self):
        """``bench_paper.py`` runs both registries; the other scripts are
        the three flag-driven CLIs and their helpers."""
        bench = REPO / "benchmarks"
        scripts = [
            p for p in bench.rglob("*.py") if "ledger" not in p.relative_to(bench).parts
        ]
        assert sorted(p.stem for p in scripts) == sorted([
            "_report", "conftest", "supplementary", "bench_paper",
            "bench_clique_growth", "bench_rank_scaling", "bench_serving",
        ])
        tests, savers = set(), set()
        for path in scripts:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test_"):
                    tests.add(path.name)
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "save":
                    savers.add(path.name)
        assert tests == {"bench_paper.py"}
        assert savers == {
            "bench_paper.py", "bench_clique_growth.py", "bench_rank_scaling.py",
            "bench_serving.py",
        }
        assert all(isinstance(a, artifacts.Artifact) for a in SUPPLEMENTARY.values())
        assert set(SUPPLEMENTARY).isdisjoint(ARTIFACTS)

    def test_every_path_docs_name_exists(self):
        """Every script path, bare ``bench_*.py`` name,
        ``bench_paper.py::function[stem]``, backticked ``repro.…``
        dotted name and backticked config field the docs name resolves."""
        paper = ast.parse((REPO / "benchmarks" / "bench_paper.py").read_text())
        functions = {n.name for n in paper.body if isinstance(n, ast.FunctionDef)}
        stems = set(ARTIFACTS) | set(SUPPLEMENTARY)
        stale = []
        for doc in DOCS:
            text = (REPO / doc).read_text()
            for path in re.findall(SCRIPT_PATH, text):
                if not (REPO / path).exists():
                    stale.append((doc, path))
            for name in re.findall(r"\bbench_\w+\.py\b", text):
                if not (REPO / "benchmarks" / name).exists():
                    stale.append((doc, name))
            for function, stem in re.findall(r"bench_paper\.py::(\w+)(?:\[(\w+)\])?", text):
                if function not in functions or (stem and stem not in stems):
                    stale.append((doc, f"{function}[{stem}]"))
            for name in re.findall(r"`(repro(?:\.\w+)+)", text):
                if not resolves(name):
                    stale.append((doc, name))
            stale += [(doc, name) for name in config_fields(text) if not field_exists(name)]
        assert stale == []


#: The config classes whose backticked ``<Config>.<field>`` and
#: ``<Config>(field=…)`` names the docs guard resolves.
CONFIGS = {
    "ArmciConfig": "repro.armci.config", "ObsConfig": "repro.obs.span",
    "ChaosConfig": "repro.chaos", "IntegrityConfig": "repro.pami.integrity",
    "LinkHealthConfig": "repro.machine.health", "RecoveryConfig": "repro.recover.config",
    "ScfConfig": "repro.apps.nwchem.scf", "KvConfig": "repro.serve.kv",
    "RetryPolicy": "repro.armci.config",
}
_CONFIG = r"\b(" + "|".join(CONFIGS) + r")"


def config_fields(text: str) -> list[str]:
    """``Config.field`` for every backticked ``Config.field`` and every
    keyword of a backticked ``Config(...)`` call (a code span opens and
    closes with equally many backticks, as in Markdown)."""
    names = []
    for _ticks, code in re.findall(r"(?<!`)(`+)(?!`)(.+?)(?<!`)\1(?!`)", text, re.S):
        names += [f"{c}.{f}" for c, f in re.findall(_CONFIG + r"\.(\w+)", code)]
        for match in re.finditer(_CONFIG + r"\(", code):
            depth, args = 1, ""  # the call's own arguments, nested calls cut out
            for char in code[match.end():]:
                depth += {"(": 1, ")": -1}.get(char, 0)
                if depth == 0:
                    break
                if depth == 1 and char != ")":
                    args += char
            names += [
                f"{match.group(1)}.{keyword}"
                for keyword in re.findall(r"(?:^|,)\s*(\w+)\s*=(?!=)", args)
            ]
    return names


def field_exists(name: str) -> bool:
    """Whether ``Config.field`` is a dataclass field or an attribute."""
    config, field = name.split(".")
    cls = getattr(importlib.import_module(CONFIGS[config]), config)
    return field in getattr(cls, "__dataclass_fields__", {}) or hasattr(cls, field)


def resolves(dotted: str) -> bool:
    """Whether ``repro.pkg.mod.Attr.attr`` names a module and, below the
    longest importable prefix, attributes that exist."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


#: The documents whose script references ``test_every_path_docs_name_exists``
#: checks (the history under ``docs/experiments/`` is exempt).
DOCS = (
    "README.md", "DESIGN.md", "docs/API.md", "benchmarks/README.md",
    ".claude/skills/verify/SKILL.md", "EXPERIMENTS.md",
)
SCRIPT_PATH = r"\b(?:benchmarks|tests|tools|examples)/[\w/]+\.py"
