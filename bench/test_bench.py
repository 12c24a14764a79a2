"""Self-tests of the benchmark, on reduced sizes (``--small``).

Run with ``python3 -m pytest bench/test_bench.py -q`` from the repo root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import layers
import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]


def invoke(*argv, cwd=run.ROOT):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *argv],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, result, done


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCH["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.LAYER_METRICS
    ]
    assert sorted(NAMES) == sorted(workloads.workloads(run.OUT))


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    code, result, done = invoke("--small", "--workload", workload, "--seconds", "0")
    assert code == 0, done.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in BENCH["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert math.isfinite(value["value"]) and value["value"] > 0, metric["name"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_every_layer_metric_and_same_outputs(workload):
    code, result, done = invoke("--small", "--workload", workload, "--seconds", "0", "--trace", "1")
    assert code == 0, done.stderr
    assert result["correct"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in BENCH["per_layer"]
    ]
    record = json.loads((run.OUT / f"result-{workload}-seed0-traced.json").read_text())
    traced = {op["label"]: op["digests"] for op in run.ops_of(record["payload"])}
    reference = record["reference_digests"]
    common = set(traced) & set(reference)
    assert common and all(traced[label] == reference[label] for label in common)
    assert result["metrics"]["obs.unattributed_s"]["value"] > -0.05


def copy_benchmark(root):
    """BENCHMARK.json and bench/ alone, in a fresh directory."""
    shutil.copy(run.ROOT / "BENCHMARK.json", root)
    shutil.copytree(run.HERE, root / "bench", ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_pin_trips_the_gate(tmp_path):
    copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(run.ROOT / "src")
    pins_file = tmp_path / "bench" / "pins.json"
    pins = json.loads(pins_file.read_text())
    small = pins["paper-scenarios"]["small"]
    small[sorted(small)[0]] = "0" * 64
    pins_file.write_text(json.dumps(pins))
    code, result, _ = invoke("--small", "--workload", "paper-scenarios", "--seconds", "0",
                             cwd=tmp_path)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    copy_benchmark(tmp_path)
    code, result, _ = invoke("--workload", NAMES[0], "--seconds", "1", cwd=tmp_path)
    assert code != 0 and result is None
