"""Tests of the benchmark itself, in smoke mode (every workload on OR_4).

Run from the root of a source checkout:
    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert sorted(jobs.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    done = bench("--workload", "classify-or4", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_restores_the_package_and_counts_closures():
    universe = jobs.rm.enumerate_universe("OR", 4)
    originals = {name: getattr(jobs.rm, name) for name in ("congruence_closure", "is_congruence")}
    tracer = spans.Tracer(jobs.rm)
    with tracer.installed(), tracer.run(0):
        part = jobs.rm.congruence_closure(universe, [(2, 3)])
    assert {name: getattr(jobs.rm, name) for name in originals} == originals
    run = tracer.summarize()[0]
    assert len(run["calls"]["congruences.closure"]) == 1
    assert tracer.counts[0]["congruences.closure_classes"] == part.num_classes
    assert run["wall"] == pytest.approx(sum(run["self"].values()))


def test_stratified_pairs_depend_on_the_seed_and_cover_every_rank():
    ranks = jobs.rm.enumerate_universe("OR", 4).ranks
    first = jobs.stratified_pairs(ranks, 1, 3)
    assert first == jobs.stratified_pairs(ranks, 1, 3)
    assert first != jobs.stratified_pairs(ranks, 2, 3)
    assert {max(ranks[i], ranks[j]) for i, j in first} == {1, 2, 4}
