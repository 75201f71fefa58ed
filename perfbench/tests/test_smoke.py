"""Tiny-size runs of the command: every named metric is emitted with its unit."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
#: Runnable and traced, but not a BENCHMARK.json workload (see the README).
EXTRA_WORKLOADS = ["krylov_snapshot"]


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "3", "--seconds", "1"]
    cmd += ["--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, wanted: list) -> None:
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS + EXTRA_WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    check_result(run(ROOT, workload, 0), SPEC["end_to_end"])


def test_traced_run_emits_every_per_layer_metric():
    proc = run(ROOT, WORKLOADS[0], 1)
    check_result(proc, SPEC["per_layer"])
    assert "# self time core" in proc.stdout


def test_fails_without_the_solver_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
