"""Smoke test of the benchmark harness at reduced sizes.

Runs every workload of ``BENCHMARK.json`` with ``--small`` once untraced
and once traced, and checks that every named metric is emitted with its
unit, that the correctness gates pass and can fail, and that the negative
control runs for the certify workloads.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "bench"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# runnable by hand but not declared in BENCHMARK.json; see bench/README.md
SWEEP = "sweep_n50"


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def check_output(workload: str, trace: int, declared: list[dict]) -> dict:
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{workload} {name} = ")
                   and line.endswith(f" {unit}") for line in lines), name
    assert any(line.startswith(f"{workload} failed_frac = 0 ") for line in lines)
    assert any(line.startswith("machine: ") for line in lines)
    negative = [line for line in lines if "negative control" in line]
    if workload.startswith("certify"):
        assert negative and "exit code 4" in negative[0], done.stdout
    else:
        assert not negative
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS + [SWEEP])
def test_end_to_end_metrics_and_gates(workload):
    values = check_output(workload, 0, SPEC["end_to_end"])
    assert all(value > 0 for value in values.values())


@pytest.mark.parametrize("workload", WORKLOADS + [SWEEP])
def test_traced_per_layer_metrics(workload):
    declared = list(SPEC["per_layer"])
    if workload == SWEEP:
        declared += [{"name": k, "unit": v} for k, v in run.SWEEP_LAYERS.items()]
    values = check_output(workload, 1, declared)
    assert values["operators.apply_per_step"] == 16
    assert values["solver.step.calls"] > 0
    assert values["calibration.project_psd.calls"] >= 2 * values["solver.step.calls"]


def test_gates_reject_bad_outputs(tmp_path):
    (tmp_path / "summary.json").write_text(json.dumps({
        "all_converged": True, "objective_relative_gap": 1e-2,
        "iteration_ratio": 1.2}))
    (tmp_path / "compare_summary.csv").write_text("gamma,iterations\n1,10\n1.9,9\n")
    _, problems = run.check_compare(tmp_path, [10, 9])
    assert len(problems) == 2

    (tmp_path / "summary.json").write_text(json.dumps({
        "failed_checks": ["fejer_contraction"], "skipped_checks": [],
        "iterations": 5}))
    (tmp_path / "certificates.json").write_text(json.dumps({"checks": [{}] * 7}))
    _, problems = run.check_certify(tmp_path, [5, 9])
    assert problems == ["failed checks ['fejer_contraction']"]
    _, problems = run.check_negative_control(tmp_path, [5, 9])
    assert problems and "update_recurrence" in problems[0]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
