"""The benchmark's own tests.

    python3 -m pytest -q bench/test_bench.py

They run the real harness, so they take a few minutes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import HELD_OUT_SEED, WORKLOADS, build  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = BENCHMARK["run_seconds"]


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_benchmark_json_names_every_metric_and_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_task_repeats_within_a_run(workload):
    inputs, expect = build(workload, 1, SECONDS)
    keys = [json.dumps(t, sort_keys=True) for t in inputs["tasks"]]
    assert len(keys) == len(set(keys)) == len(expect)


def test_inputs_do_not_depend_on_the_hash_seed():
    code = ("import sys, json, hashlib; sys.path.insert(0, 'bench');"
            "from workloads import build, WORKLOADS;"
            "print(hashlib.sha256(json.dumps([build(w, 3, 2) for w in "
            "WORKLOADS], sort_keys=True).encode()).hexdigest())")
    digests = {
        subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, check=True, cwd=HERE.parent,
                       env=dict(os.environ, PYTHONHASHSEED=str(h))).stdout
        for h in (1, 2)}
    assert len(digests) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_two_traced_runs_repeat_counts_and_digests(workload):
    first, out1 = run(workload, 5, 1, trace=1)
    second, out2 = run(workload, 5, 1, trace=1)
    assert first["correct"] and second["correct"]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if v["unit"] == "count"} for r in (first, second)]
    assert counts[0] == counts[1]
    digests = [[line for line in out.splitlines()
                if line.startswith("verdict digest")] for out in (out1, out2)]
    assert len(digests[0]) == 1 and digests[0] == digests[1]
    assert "traced verdicts match" in out1 and "traced verdicts match" in out2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_passes_on_the_held_out_seed(workload):
    result, _ = run(workload, HELD_OUT_SEED, SECONDS, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_refuses_to_run_without_the_program():
    # a directory holding only BENCHMARK.json and the benchmark's files
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        root = Path(tmp)
        shutil.copy(HERE.parent / "BENCHMARK.json", root)
        (root / "bench").mkdir()
        for f in HERE.iterdir():
            if f.is_file():
                shutil.copy(f, root / "bench")
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "wide-goals",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=180, cwd=root)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
