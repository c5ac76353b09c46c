"""Smoke test of the benchmark at tiny sizes.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from run import WORKLOADS  # also those BENCHMARK.json leaves out

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

REPORTED = {
    "setup_s": "s",
    "screens_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "error_rate": "ratio",
    "converged_frac": "ratio",
    "f1.bp": "ratio",
    "f1.admm": "ratio",
    "f1.exact": "ratio",
    "f1.em": "ratio",
    "exact_gap.bp": "probability",
    "exact_gap.admm": "probability",
    "exact_gap.bp.edges": "count",
    "exact_gap.admm.edges": "count",
    "peak_rss_mb": "MiB",
}
SEED_DETERMINED = ("f1.", "exact_gap.", "error_rate", "converged_frac")


def run(cwd, workload, trace, seed=5):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(out):
    assert out.returncode == 0, out.stdout + out.stderr
    lines = out.stdout.splitlines()
    metrics = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split()[:4]
            metrics[name] = (value, unit)
    digest = [line.split()[1] for line in lines if line.startswith("csv_sha256 ")]
    return json.loads(lines[-1]), metrics, digest


def check_result(result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec_metrics
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_metric_and_repeats_its_outputs(workload):
    first = parse(run(ROOT, workload, 0))
    second = parse(run(ROOT, workload, 0))
    for result, metrics, digest in (first, second):
        check_result(result, SPEC["end_to_end"])
        assert {name: unit for name, (_, unit) in metrics.items()} == REPORTED
        assert len(digest) == 1
    seed_determined = [
        {k: v[0] for k, v in metrics.items() if k.startswith(SEED_DETERMINED)}
        for _, metrics, _ in (first, second)
    ]
    assert seed_determined[0] == seed_determined[1]
    assert first[2] == second[2]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result, metrics, _ = parse(run(ROOT, workload, 1))
    check_result(result, SPEC["per_layer"])
    assert {name: unit for name, (_, unit) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert (ROOT / ".bench_out" / f"trace-{workload}-5.json").is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
