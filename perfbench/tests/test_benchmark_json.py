"""BENCHMARK.json lists exactly the metrics and workloads the benchmark prints."""

import json
from pathlib import Path

import run
from tracing import LAYER_METRICS

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _, _ in LAYER_METRICS]


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.GRADING)
