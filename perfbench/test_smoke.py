"""Smoke tests of the benchmark itself, on few-frame inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _runner(tmp_path, workload: harness.Workload) -> harness.Runner:
    seeds = harness.pool_seeds(workload, 3)
    paths = gen.write_scenarios(str(tmp_path), workload.preset, seeds, workload.frames)
    return harness.Runner(workload, paths, str(tmp_path))


SMALL = {
    "drift": harness.Workload("drift", "drift", 1, 12, True, False),
    "frozen": harness.Workload("frozen", "drift", 1, 12, False, False),
    "geo": harness.Workload("geo", "geo", 2, None, True, True),
}


def test_benchmark_json_matches_the_harness():
    bench = _benchmark()
    assert {w["name"] for w in bench["workloads"]} <= set(harness.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.LAYER_UNITS


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_end_to_end_metric_is_printed_with_its_unit(tmp_path, name):
    runner = _runner(tmp_path, SMALL[name])
    result = harness.result_line(runner, harness.measure(runner, 0.0), harness.END_TO_END_UNITS)
    assert result["correct"], [r.error for r in runner.records]
    for metric in _benchmark()["end_to_end"]:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0, metric["name"]
    json.loads(json.dumps(result))


def test_traced_run_spans_every_layer_and_restores_bindings(tmp_path):
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing.bindings()]
    workload = SMALL["geo"]
    runner = _runner(tmp_path, workload)
    spans_path = str(tmp_path / "spans.jsonl.gz")
    values = harness.measure_traced(runner, 0.0, spans_path)

    # untraced then traced: equal track bytes, every check passed
    assert len(runner.records) == 2 * workload.pool
    assert all(r.error is None for r in runner.records), [r.error for r in runner.records]
    result = harness.result_line(runner, values, tracing.LAYER_UNITS)
    for metric in _benchmark()["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]

    with gzip.open(spans_path, "rt") as handle:
        spans = [json.loads(line) for line in handle]
    assert {s[0].split(".", 1)[0] for s in spans} >= set(tracing.LAYERS)
    sites = {(s[0], s[1]) for s in spans}
    for site in ("amm", "glm", "pipeline"):
        assert ("core.conv2d", site) in sites
    assert ("core.connected_components", "fusion") in sites
    assert values["geo3d.backproject.calls"] > 0
    assert values["glm.loss_evals_per_iter"] >= 1.0

    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"


def test_counts_follow_the_solver_schedule(tmp_path):
    workload = SMALL["geo"]
    runner = _runner(tmp_path, workload)
    values = harness.measure_traced(runner, 0.0, str(tmp_path / "spans.jsonl.gz"))
    # 10 initial iterations plus 3 after each of the 5 ingested frames
    assert values["pipeline.ingest_frames"] == 5
    assert values["glm.iterations"] == 25
    assert values["glm.track_gradient.calls"] == 2 * values["glm.iterations"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "geo", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
