"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The exact layer counters must repeat bit-for-bit for one seed (Bland's
rule makes every solve deterministic), and a second seed must give
counters of the same order, so a claim made on one seed can be checked
on another.  ``BENCHMARK.json`` must list the workloads the benchmark
has, each run must compute every metric it lists, and the benchmark must
refuse to run without the library sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("pair_small", "verify", "oracle")
EXACT = (
    "lp.solve_max_eps.calls",
    "quasi.lp_calls_per_value",
    "analysis.one_sided_solves",
    "analysis.distinct_solve_frac",
)


def _run(workload, seed, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(workload, seed, trace):
    out = _run(workload, seed, trace)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def _metrics(result):
    return {name: m["value"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat_and_hold_on_another_seed(workload):
    first, again, other = (_metrics(_result(workload, seed, 1)) for seed in (1, 1, 2))
    for name in EXACT:
        assert first[name] == again[name], name
        if first[name] == 0.0:
            assert other[name] == 0.0, name
        else:
            assert 0.5 <= other[name] / first[name] <= 2.0, (name, first[name], other[name])


def test_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace in (0, 1):
        result = _result("oracle", 3, trace)  # fails if a listed metric is not computed
        assert result["correct"] and result["attempted"] >= 1


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("pair_small", 1, 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
