"""Record a baseline: repeated runs of every workload, their spread, the
traced counts, the held-out seed and the ladder rows.

    python3 bench/baseline.py

Seeds 1..10 are run round-robin across the workloads, so slow drift
of the machine spreads over all of them.  For every end-to-end metric
the file keeps the median, the quartiles (``statistics.quantiles`` with
``n=4``) and the spread, the distance between the quartiles as a share
of the median.
"""
from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import HELD_OUT_SEED, WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
RUNS = 10
OUT = HERE / "baseline.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=HERE.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    found = re.search(r"verdict digest (\w+)", proc.stdout)
    result["digest"] = found.group(1) if found else None
    return result


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else 0.0,
            "values": values}


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    runs: dict[str, list[dict]] = {w: [] for w in WORKLOADS}
    for seed in range(1, RUNS + 1):
        for w in WORKLOADS:
            r = run(w, seed, seconds, 0)
            runs[w].append(r)
            print(f"{w} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in r["metrics"].items()),
                  flush=True)

    out: dict = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "workloads": {},
    }
    for w in WORKLOADS:
        entry: dict = {
            "runs": len(runs[w]),
            "all_correct": all(r["correct"] for r in runs[w]),
            "attempted": [r["attempted"] for r in runs[w]],
            "failed": [r["failed"] for r in runs[w]],
            "digests": {str(s + 1): r["digest"] for s, r in enumerate(runs[w])},
            "end_to_end": {
                m["name"]: spread([r["metrics"][m["name"]]["value"]
                                   for r in runs[w]])
                for m in bench["end_to_end"]},
        }
        held = run(w, HELD_OUT_SEED, seconds, 0)
        entry["held_out"] = {"correct": held["correct"],
                             "failed": held["failed"],
                             "attempted": held["attempted"],
                             "digest": held["digest"]}
        traced = run(w, DEFAULT_SEED, seconds, 1)
        entry["traced_seed_1"] = {
            "correct": traced["correct"],
            "digest": traced["digest"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        out["workloads"][w] = entry
        print(f"{w}: held-out correct={held['correct']}, traced "
              f"overhead={entry['traced_seed_1']['per_layer']['trace.overhead_frac']:.3f}",
              flush=True)

    proc = subprocess.run([sys.executable, str(HERE / "ladders.py")],
                          capture_output=True, text=True, timeout=1800,
                          check=True)
    out["ladders"] = [json.loads(line) for line in proc.stdout.splitlines()]
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
