"""Self-test of the ledger (``pytest benchmarks/ledger``; not tier-1).

Runs two workloads at 1/20 size through the real command line and
checks the contract of ``/BENCHMARK.json``, the record's schema, the
layer fold, and that the seed — and only the seed — moves the inputs.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from catalog import EXACT, INTERACTIONS, LAYERS, Catalog  # noqa: E402
from compare import verdict  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SCALE = "0.05"
SMALL = ("sim_storm", "rma_small")


def run_set(tmp_path: Path, seed: int, tag: str) -> dict:
    out = tmp_path / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "run.py"), "--seed", str(seed),
           "--scale", SCALE, "--out", str(out)]
    for name in SMALL:
        cmd += ["--workload", name]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ledger")
    return run_set(tmp, 11, "a"), run_set(tmp, 11, "b"), run_set(tmp, 12, "c")


def test_benchmark_json_contract():
    doc = Catalog().doc
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/ledger"]
    assert len(doc["workloads"]) == 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    names = [w["name"] for w in doc["workloads"]]
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 <= m["bound"] <= 0.25
        names.append(m["name"])
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(n) for n in names)
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_catalog_covers_every_metric():
    catalog = Catalog()
    assert len(catalog.end_to_end) == 10
    assert len(catalog.per_layer) == 65
    assert set(EXACT) <= set(catalog.end_to_end)
    for name in catalog.per_layer:
        assert name in INTERACTIONS, f"{name} has no interaction entry"
        moves, shows_on, flat_on = INTERACTIONS[name]
        assert moves is None or moves in catalog.end_to_end
        assert shows_on is None or shows_on in catalog.workloads
        assert flat_on is None or flat_on in catalog.workloads
    for layer in LAYERS:
        assert f"{layer}.self_s" in catalog.per_layer
        assert f"{layer}.calls" in catalog.per_layer


def test_record_schema(records):
    catalog = Catalog()
    record = records[0]
    assert record["summary"]["claim"] is None
    assert list(record["summary"])[-1] == "claim"
    assert record["summary"]["correct"] is True
    assert {"cores", "python", "numpy", "load_1min_at_start"} <= set(record["host"])
    assert isinstance(record["noisy"], bool)
    assert record["seed"] == 11
    for name in SMALL:
        w = record["workloads"][name]
        assert w["correct"] and w["failed"] == 0 and w["attempted"] >= 1
        assert w["why"] == catalog.workloads[name]
        assert w["loop"] and w["sizes"]
        assert list(w["end_to_end"]) == list(catalog.end_to_end)
        assert list(w["per_layer"]) == list(catalog.per_layer)
        for metric in ("wall_s", "host_ops_per_s", "setup_s"):
            entry = w["end_to_end"][metric]
            assert entry["q1"] <= entry["value"] <= entry["q3"]
            assert entry["n"] >= 7 and entry["value"] > 0
        assert w["end_to_end"]["failed_share"]["value"] == 0
        # Reference-host seconds: the clock's reading over the slowdown.
        slow, raw = w["host"]["slowdown_x"], w["host"]["raw_wall_s"]
        assert 0.3 < slow["q1"] <= slow["q3"] < 10
        corrected = w["end_to_end"]["wall_s"]["value"]
        assert corrected == pytest.approx(raw["value"] / slow["value"], rel=0.5)
        assert w["per_layer"]["trace.overhead_x"] > 1
        assert w["missing_counters"] == []
    storm = record["workloads"]["sim_storm"]["per_layer"]
    assert storm["armci.ops"] is None and storm["pami.wire_ops"] is None
    # The rest is the ring processes' own generator bodies: harness code.
    sim_share = storm["sim.self_s"] / record["workloads"]["sim_storm"]["trace"]["layers_total_s"]
    assert sim_share >= 0.8 and storm["other.self_s"] is not None
    assert all(storm[f"{layer}.self_s"] is None for layer in LAYERS
               if layer not in ("sim", "other"))
    rma = record["workloads"]["rma_small"]
    assert rma["per_layer"]["serve.self_s"] is None
    assert rma["per_layer"]["armci.ops"] == rma["ops"] + 4  # + calibration
    assert rma["per_layer"]["transport.mpi3_sim_ratio"] > 1
    assert 0 < rma["end_to_end"]["paper_err_pct"]["value"] < 1


def test_layer_self_time_sums_to_the_traced_total(records):
    for name in SMALL:
        w = records[0]["workloads"][name]
        layers = sum(w["per_layer"][f"{layer}.self_s"] or 0.0 for layer in LAYERS)
        assert layers == pytest.approx(w["trace"]["profile_total_s"], rel=0.01)
        assert layers <= w["trace"]["wall_s"]


def test_same_seed_same_simulation_other_seed_other_inputs(records):
    a, b, c = records
    for name in SMALL:
        wa, wb, wc = (r["workloads"][name] for r in records)
        for metric in EXACT:
            assert wa["end_to_end"][metric]["value"] == wb["end_to_end"][metric]["value"]
        assert wa["per_layer"]["sim.events"] == wb["per_layer"]["sim.events"]
        assert wa["per_layer"]["sim.calls"] == wb["per_layer"]["sim.calls"]
        assert wa["inputs_crc"] == wb["inputs_crc"]
        assert wa["inputs_crc"] != wc["inputs_crc"]
        assert wa["sizes"] == wc["sizes"]


def test_comparator_verdicts():
    steady = {"value": 1.0, "q1": 0.99, "q3": 1.01, "n": 7}
    slower = {"value": 1.3, "q1": 1.29, "q3": 1.31, "n": 7}
    wobbly = {"value": 1.05, "q1": 0.8, "q3": 1.4, "n": 7}
    assert verdict(steady, steady, "lower", 0.1, False)[0] == "ok"
    assert verdict(steady, slower, "lower", 0.1, False)[0] == "worse"
    assert verdict(slower, steady, "lower", 0.1, False)[0] == "ok"
    assert verdict(steady, slower, "higher", 0.1, False)[0] == "ok"
    assert verdict(steady, wobbly, "lower", 0.1, False)[0] == "unresolved"
    assert verdict(steady, slower, "lower", 0.1, True)[0] == "unresolved"
    exact_a, exact_b = {"value": 2.0}, {"value": 2.0001}
    assert verdict(exact_a, exact_b, "lower", 0.0, False)[0] == "worse"
    assert verdict(exact_a, exact_a, "lower", 0.0, True)[0] == "ok"
    assert verdict({"value": 0.0}, {"value": 0.01}, "lower", 0.0, False)[0] == "worse"
    assert verdict({"value": None}, {"value": None}, "lower", 0.0, False)[0] == "n/a"
