"""BENCHMARK.json, metrics.py and what a run prints name the same things."""

import json
import os
import subprocess
import sys

import harness
import metrics
import pytest
from conftest import BENCH_DIR, REPO_ROOT


def test_benchmark_json_is_the_catalogue():
    on_disk = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.benchmark_json()


def test_names_are_unique_and_bounds_legal():
    names = [m.name for m in (*metrics.END_TO_END, *metrics.PER_LAYER)]
    names += list(metrics.WORKLOAD_NAMES)
    assert len(names) == len(set(names))
    assert all(0 < m.bound <= 0.25 for m in metrics.END_TO_END)
    widest = max(m.bound for m in metrics.END_TO_END)
    assert metrics.END_TO_END_BY_NAME["setup_s"].bound == widest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", metrics.WORKLOAD_NAMES)
def test_a_run_emits_exactly_the_declared_names(workload, trace):
    # Orphans of the run would be handed to this process: see below.
    harness.adopt_orphans()
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert harness._children(os.getpid()) == [], "the run left a process behind"
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(line["metrics"]) == {m.name for m in declared}
    for metric in declared:
        assert line["metrics"][metric.name]["unit"] == metric.unit
    if not trace:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
