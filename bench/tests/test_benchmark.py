"""Self-tests of the benchmark; they run the real command on short budgets.

    python3 -m pytest bench/tests -q

About a minute on two cores.
"""

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*SPEC["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


@lru_cache(maxsize=None)
def _result(workload: str, trace: int, repeat: int = 0) -> dict:
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    counted = [m["name"] for m in SPEC["per_layer"]
               if m["unit"] in ("calls/trial", "raises/trial", "count", "B", "B/trial",
                                "evals/call")]
    first, second = _result(workload, 1), _result(workload, 1, repeat=1)
    assert {n: first["metrics"][n]["value"] for n in counted} == {
        n: second["metrics"][n]["value"] for n in counted}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seconds", "1")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
