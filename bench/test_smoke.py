"""Smoke test of the benchmark at tiny sizes; it has no timing thresholds.

    python3 -m pytest -q bench/test_smoke.py

Runs the command named in BENCHMARK.json for every workload in both trace
modes and checks that each metric listed there is emitted with its unit, that
every op passes its checks, that exact counts repeat across runs, and that the
script refuses to run without the package source.
"""

import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def _bench(workload, trace, cwd=ROOT):
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                              "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    return {(w, t): _result(_bench(w, t)) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(runs, workload, trace):
    record, result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, record["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


def test_record_names_the_environment(runs):
    env = runs[WORKLOADS[0], 0][0]["env"]
    assert {"numpy", "blas", "blas_threads", "python", "nproc", "git_commit", "seed"} <= set(env)
    assert env["blas_threads"] == 1 and env["seed"] == SEED


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_across_runs(runs, workload):
    record, result = _result(_bench(workload, 1))
    assert result["correct"] is True, record["failures"]
    assert record["exact_counts"] == runs[workload, 1][0]["exact_counts"]


def test_refuses_to_run_without_the_package_source():
    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(WORKLOADS[0], 0, cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
