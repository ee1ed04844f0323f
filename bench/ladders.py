"""Per-goal rows for the exponential ladders the wide-goals workload samples.

    python3 bench/ladders.py

Times ``prove`` on one goal per rung, in a fresh process per rung so
that no interned state carries over, and prints one JSON row per goal:
the verdict, the explored count and the median wall time of the
repeats.  These rows support the workload numbers; they are not part of
the benchmark's contract.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REPEATS = 3

RUNGS = (
    [("MILL", ", ".join(f"p{i}" for i in range(n)) + " |- "
      + " * ".join(f"p{i}" for i in reversed(range(n))) + tail)
     for n in (7, 8, 9) for tail in ("", " * q")]
    + [("PCMILL", ", ".join(f"p{i}" for i in range(n)) + " |- "
        + " @ ".join(f"p{i}" for i in range(n)))
       for n in (3, 4)]
)


def one(system: str, goal: str) -> dict:
    sys.path.insert(0, str(REPO / "src"))
    import proofmill as pm

    seq = pm.parse_sequent(goal, pm.parse_system(system))
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = pm.prove(seq)
        times.append(time.perf_counter() - start)
    return {"system": system, "goal": goal,
            "verdict": type(result).__name__, "explored": result.explored,
            "median_ms": statistics.median(times) * 1e3,
            "times_ms": [t * 1e3 for t in times]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--one", nargs=2, metavar=("SYSTEM", "GOAL"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        print(json.dumps(one(*args.one)))
        return 0
    env = dict(os.environ, PYTHONHASHSEED="0")
    for system, goal in RUNGS:
        proc = subprocess.run(
            [sys.executable, __file__, "--one", system, goal],
            capture_output=True, text=True, env=env, timeout=600, check=True)
        print(proc.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
