"""Smoke test of the benchmark at its tiny size.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs once per mode with ``--tiny``: one set-up, one epoch and
one step per command, one measured iteration (two when traced: one plain,
one traced).  ``run.py`` takes metric names, units and directions from
``BENCHMARK.json``; the test checks that every workload listed there runs and
that every listed metric gets a value, that the last line has the result shape
that comparisons read, and the trace properties the per-layer map relies on.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "0",
           "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def emitted(stdout: str) -> dict[str, tuple[str, str]]:
    """metric name -> (unit, direction) from the report lines."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, _value, unit, better = line.split()[:5]
            out[name] = (unit, better.removeprefix("better="))
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_listed_metric_is_emitted(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    listed = SPEC["per_layer" if trace else "end_to_end"]
    lines = emitted(proc.stdout)
    for metric in listed:
        assert lines.get(metric["name"]) == (metric["unit"], metric["better"]), metric["name"]

    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"} and entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, metric["name"]

    if trace:
        values = {name: entry["value"] for name, entry in result["metrics"].items()}
        assert values["trace.attributed_ratio"] >= 0.9
        if workload == "pretrain-host":
            assert values["tensor.useful_grad_ratio"] == 1.0
            assert all(v == 0.0 for k, v in values.items()
                       if k.startswith(("adapter.", "fft.")))
        if workload == "finetune-adaptir":
            assert values["tensor.useful_grad_ratio"] < 1.0
            assert values["fft.calls"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
