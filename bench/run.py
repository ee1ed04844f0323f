"""proofmill benchmark: decide and certify, one caller in a closed loop.

    python3 bench/run.py --workload mill-sweep --seed 1 --seconds 10 --trace 0

Builds the seeded tasks and their reference answers in this process,
which never imports proofmill, then hands the tasks as text to worker
processes (``worker.py``) that hold only the program and its inputs.
The worker runs the tasks one at a time, each starting when the last
returns.  With ``--trace 0`` the last line of output is a JSON object
with every end-to-end metric; with ``--trace 1`` it carries the
per-layer metrics of a traced run, compared against an untraced run of
the same tasks.  Exit status is 0 only when every worker finished.

Every reported time is scaled to a nominal machine speed.  The worker
times a fixed pure-Python loop right after set-up and after every
quarter second of task time; a task's time is multiplied by
REF_NOMINAL_S over the mean of the loop times taken just before and just
after it.  The CPU's speed on a shared virtual machine drifts by a
third in phases tens of seconds long, and this removes that drift while
a change in the program's own cost shows in full.  The unscaled values
are printed beside the scaled ones.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import PER_LAYER  # noqa: E402
from workloads import DECIDED, REPO, WORKLOADS, build, code, judge  # noqa: E402

# set-ups measured per untraced run; setup_s is their median
SETUP_REPEATS = 3
# tail percentile per workload: the highest with about ten samples
# beyond it at --seconds 10, except on models, whose costs above p97
# climb steeply (about 29, 32 and 40 ms at p97, p98 and p99), so that
# p99 moved by a sixth from seed to seed; p95 has about fifty samples
# beyond it
TAIL_PERCENTILE = {
    "mill-sweep": 99.0,
    "wide-goals": 92.5,
    "cut-elim": 99.0,
    "models": 95.0,
}
WORKER_TIMEOUT_S = 170
# the reference loop's time at the speed all reported times are scaled to
REF_NOMINAL_S = 0.005


class BenchError(Exception):
    pass


def task_lines(inputs: dict) -> bytes:
    """The tasks as the worker reads them: one JSON object a line."""
    return "".join(json.dumps(t) + "\n" for t in inputs["tasks"]).encode()


def spawn(inputs: dict, tasks: bytes, mode: str, trace: bool) -> dict:
    """Start one worker, feed it a header line and the task lines, wait
    for it to end.  Adds ``setup_s``: from just before the process
    starts until its first task is ready."""
    header = {"mode": mode, "trace": trace,
              **{k: v for k, v in inputs.items() if k != "tasks"}}
    request = json.dumps(header).encode() + b"\n" + tasks
    # a fixed hash seed keeps set iteration, and so search order and
    # every count, identical from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=request, capture_output=True, env=env,
            timeout=WORKER_TIMEOUT_S, cwd=REPO)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker ({mode}) exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited {proc.returncode}: "
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
    reply = json.loads(proc.stdout)
    reply["setup_s"] = reply["ready"] - start
    return reply


def scaled_times(reply: dict) -> list[float]:
    """Task times at the nominal machine speed: each task's time times
    REF_NOMINAL_S over the mean of the reference samples taken just
    before and just after it."""
    refs, out, k = reply["refs"], [], 0
    for i, t in enumerate(reply["times"]):
        while k + 1 < len(refs) and refs[k + 1][0] <= i:
            k += 1
        after = refs[k + 1][1] if k + 1 < len(refs) else refs[k][1]
        out.append(t * 2 * REF_NOMINAL_S / (refs[k][1] + after))
    return out


def scaled_setup(reply: dict) -> float:
    speed = statistics.median(r for i, r in reply["refs"] if i == 0)
    return reply["setup_s"] * REF_NOMINAL_S / speed


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def digest(outcomes: list[str]) -> str:
    return hashlib.sha256("\n".join(outcomes).encode()).hexdigest()[:16]


def end_to_end(name: str, setups: list[dict], reply: dict,
               failed: int) -> dict:
    """Print and return the end-to-end metrics as {name: (value, unit)}."""
    outcomes = reply["outcomes"]
    n = len(outcomes)
    decided = sum(code(o) in DECIDED for o in outcomes)
    pct = TAIL_PERCENTILE[name]

    def timing(times, setup_values):
        return {
            "setup_s": (statistics.median(setup_values), "s"),
            "tasks_per_s": (n / sum(times), "1/s"),
            "task_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "task_tail_ms": (percentile(times, pct) * 1e3, "ms"),
        }

    raw = timing(reply["times"], [s["setup_s"] for s in setups])
    metrics = timing(scaled_times(reply), [scaled_setup(s) for s in setups])
    metrics["decided_frac"] = (decided / n, "frac")
    metrics["peak_rss_mb"] = (reply["rss_kb"] / 1024, "MB")
    for key, (value, unit) in metrics.items():
        note = f"  (as timed: {raw[key][0]:.6g})" if key in raw else ""
        print(f"{key:14s}{value:.6g} {unit}{note}")
    print(f"setup_s is the median of {len(setups)} set-ups; task_tail_ms is "
          f"p{pct:g} of {n} samples; task time {sum(reply['times']):.3f} s")
    print(f"failed_frac   {failed / n:.4f} frac  ({failed} of {n})")
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload and print its report; returns the result object
    (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    inputs, expect = build(name, seed, seconds)
    print(f"workload {name}  seed {seed}  seconds {seconds}  tasks "
          f"{len(expect)}  (one caller, closed loop)")
    tasks = task_lines(inputs)
    if trace:
        plain = spawn(inputs, tasks, "run", trace=False)
        traced = spawn(inputs, tasks, "run", trace=True)
    else:
        setups = [spawn(inputs, tasks, "setup", trace=False)
                  for _ in range(SETUP_REPEATS - 1)]
        plain = spawn(inputs, tasks, "run", trace=False)
        setups.append(plain)

    outcomes = plain["outcomes"]
    print(f"verdict digest {digest(outcomes)}")
    bad = [(i, e, o) for i, (e, o) in enumerate(zip(expect, outcomes))
           if not judge(e, o)]
    for i, e, o in bad[:10]:
        print(f"FAILED task {i}: expected {e}, got {o}  {inputs['tasks'][i]}"
              [:300])
    correct = not bad
    if trace:
        same = traced["outcomes"] == outcomes
        correct = correct and same
        overhead = sum(scaled_times(traced)) / sum(scaled_times(plain)) - 1
        print(f"traced verdicts {'match' if same else 'DIFFER'} "
              f"(digest {digest(traced['outcomes'])}); "
              f"trace.overhead_frac {overhead:.4f}")
        units = dict(PER_LAYER)
        speed = REF_NOMINAL_S / statistics.median(r for _, r in traced["refs"])
        layer = {key: value * speed if units[key] == "s" else value
                 for key, value in traced["trace"].items()}
        layer["trace.overhead_frac"] = overhead
        for key, value in layer.items():
            print(f"  {key:34s} {value:.6g} {units[key]}")
        metrics = {key: {"value": layer[key], "unit": unit}
                   for key, unit in PER_LAYER}
    else:
        values = end_to_end(name, setups, plain, len(bad))
        metrics = {key: {"value": v, "unit": u}
                   for key, (v, u) in values.items()}
    return {"correct": correct, "attempted": len(expect),
            "failed": len(bad), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    for need in ("src/proofmill/__init__.py", "corpus"):
        if not (REPO / need).exists():
            print(f"bench: {need} is missing from {REPO}", file=sys.stderr)
            return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace))
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": m for name, r in results.items()
                        for key, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
