"""Smoke tests of the benchmark: every workload, small, every check on.

Run from the repository root::

    python3 -m pytest perfbench -q

Each test runs ``perfbench/run.py`` in a subprocess at a small
``--scale`` and checks that it exits 0, that its checks passed, and that
the metric names and units it prints are exactly those of
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Metrics whose self times must add up to the traced wall time.
SELF_TIMES = [
    m["name"] for m in SPEC["per_layer"]
    if m["unit"] == "ms" and m["name"] != "trace.other_ms"
]


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "0.1",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_match_spec(workload):
    proc = run_bench(ROOT, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in metrics.values()), metrics


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_match_spec(workload):
    proc = run_bench(ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared("per_layer")
    # Each per-layer metric is also printed on its own line.
    printed = {line.split()[0] for line in lines[:-1]}
    assert set(declared("per_layer")) <= printed
    values = {k: v["value"] for k, v in metrics.items()}
    total_ms = sum(values[name] for name in SELF_TIMES) + values["trace.other_ms"]
    assert total_ms == pytest.approx(values["trace.wall_s"] * 1e3, rel=1e-9)
    trace = json.loads(
        (HERE / "out" / f"trace_{workload}.json").read_text()
    )
    assert any(e["ph"] == "X" for e in trace["traceEvents"])


def test_unknown_workload_is_refused():
    proc = run_bench(ROOT, "no_such_workload", trace=0)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = run_bench(tmp_path, WORKLOADS[0], trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""
