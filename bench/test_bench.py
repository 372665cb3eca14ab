"""Tests of the benchmark itself, on toy-size inputs (``--smoke``).

    python3 -m pytest -q bench
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
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], capture_output=True, text=True, cwd=cwd, timeout=170
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in tracing.PER_LAYER
    ]


def test_times_scale_to_the_nominal_speed():
    # The reference kernel ran at half its nominal speed around every span.
    slow = {
        "reference_s": [2 * run.NOMINAL_S] * 4, "setup_s": 1.0, "peak_rss_mb": 50.0,
        "latencies_s": [0.2, 0.4, 0.6], "units": [(1, 0.2), (2, 1.0)],
    }
    scaled = run.end_to_end([slow])
    assert scaled["latency_p50_ms"] == pytest.approx((100 + 250) / 2)
    assert scaled["throughput_ops_s"] == pytest.approx(3 / 0.6)
    assert scaled["setup_s"] == pytest.approx(0.5)
    assert run.end_to_end([slow], scaled=False)["latency_p50_ms"] == pytest.approx((200 + 500) / 2)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_traced(workload):
    result = _result(_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"))
    assert result["correct"]
    assert list(result["metrics"]) == [row[0] for row in tracing.PER_LAYER]
    for name in tracing.STRESSED[workload]:
        assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_outcomes(workload):
    def outcomes(seed):
        proc = subprocess.run(
            [sys.executable, "bench/worker.py", "--workload", workload, "--seed", str(seed),
             "--window", "0.3", "--scale", "smoke"],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])["outcomes"]

    first, second = outcomes(5), outcomes(5)
    common = min(len(first), len(second))
    assert common >= 1 and first[:common] == second[:common]


def test_tracer_rebinds_names_imported_elsewhere():
    code = (
        "import sys; sys.path[:0] = ['src', 'bench']\n"
        "import tracing\n"
        "from discoverfriends import bloom, protocol\n"
        "tracing.Tracer().install()\n"
        "assert protocol.clear_spare_bits is bloom.clear_spare_bits\n"
        "assert hasattr(bloom.clear_spare_bits, '__wrapped__')\n"
        "assert hasattr(bloom.BloomFilter.from_bytes, '__wrapped__')\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "checkin", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
