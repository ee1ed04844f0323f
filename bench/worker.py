"""One benchmark process: holds proofmill and the task inputs only.

Reads its request on stdin as JSON lines: a header ``{"mode", "trace",
"corpus", "probes"}``, then one task per line.  It imports proofmill
from the checkout's ``src``, parses or loads each input as its line is
read, keeping no decoded line, and notes the moment the first task is
ready.  In ``setup`` mode
it stops there; in ``run`` mode it then runs each task once, one after
another, timing each call into the program, and writes one JSON object
to stdout: the ready time, per-task seconds and outcome codes, the
reference-loop samples, peak RSS and, when traced, the per-layer
summary.

Checks that are the benchmark's own (walking a proof for cuts, order
closure of a model) run between tasks, outside the task timer.
"""
from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
# task time between two samples of the reference loop
REF_EVERY_S = 0.25
REF_ITERS = 60_000


def reference() -> float:
    """Seconds for a fixed pure-Python loop: the machine's current speed.
    It touches no proofmill state, so the program cannot change it."""
    start = time.perf_counter()
    s = 0
    for i in range(REF_ITERS):
        s += i * i % 7
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """Peak RSS of this process image.  ``ru_maxrss`` survives execve on
    Linux, so a worker started from a large parent would report the
    parent's size; VmHWM belongs to the new image only."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _nodes_and_cuts(p) -> tuple[int, int]:
    nodes = cuts = 0
    stack = [p]
    while stack:
        node = stack.pop()
        nodes += 1
        cuts += node.rule.name == "Cut"
        stack.extend(node.premises)
    return nodes, cuts


def _above_masks(model) -> list[int]:
    """``above[i]``: worlds >= world i under the reflexive-transitive
    closure of the model's order pairs ``(greater, lesser)``."""
    idx = {w: i for i, w in enumerate(model.worlds)}
    n = len(model.worlds)
    ge = [[i == j for j in range(n)] for i in range(n)]
    for a, b in model.order:
        ge[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            if ge[i][k]:
                for j in range(n):
                    if ge[k][j]:
                        ge[i][j] = True
    return [sum(1 << i for i in range(n) if ge[i][j]) for j in range(n)]


def _upward_closed(mask: int, above: list[int]) -> bool:
    return all(above[i] & ~mask == 0
               for i in range(len(above)) if mask >> i & 1)


class Runner:
    """Prepared tasks; ``run(i)`` is the timed call, ``finish(i, out)``
    the untimed check that turns its result into an outcome code."""

    def __init__(self, pm, header: dict):
        self.pm = pm
        self.systems: dict = {}
        self.corpus = REPO / header["corpus"]
        self.entries = None
        self.probes = {}
        for system, probe in header.get("probes", {}).items():
            s = self.system(system)
            self.probes[system] = (
                [pm.parse_formula(f, s) for f in probe["formulas"]],
                [(pm.parse_formula(a, s), pm.parse_formula(b, s))
                 for a, b in probe["pairs"]],
                [pm.parse_sequent(q, s) for q in probe["valid"]],
            )
        self.tasks: list[tuple] = []

    def system(self, text: str):
        s = self.systems.get(text)
        if s is None:
            s = self.systems[text] = self.pm.parse_system(text)
        return s

    def entry(self, entry_id: str):
        """A corpus entry; the corpus is loaded when first needed."""
        if self.entries is None:
            self.entries = {e.entry_id: e for e in
                            self.pm.load_corpus_dir(self.corpus)}
        return self.entries[entry_id]

    def prepare(self, t: dict) -> tuple:
        pm, kind = self.pm, t["kind"]
        if kind == "prove":
            return kind, pm.parse_sequent(t["sequent"], self.system(t["system"]))
        if kind == "entry":
            return "prove", self.entry(t["entry"]).sequent
        if kind == "cut":
            s = self.system(t["system"])
            proof = pm.proof_from_json({"system": s.ident.value,
                                        "agents": list(s.agents),
                                        "proof": t["proof"]})
            return kind, proof, pm.parse_sequent(t["end"], s)
        if kind == "hilbert":
            d, s = pm.deduction_from_json(t["deduction"])
            return kind, (d, s), pm.parse_sequent(t["end"], s)
        if kind == "model":
            s = self.system(t["system"])
            formulas, pairs, valid = (self.probes[t["system"]]
                                      if t["probes"] else ([], [], []))
            sound = [self.entry(e).sequent for e in t["entries"]] + valid
            return kind, (t["seed"], t["size"], s), sound, (formulas, pairs)
        if kind == "countermodel":
            if "entry" in t:
                seq = self.entry(t["entry"]).sequent
            else:
                seq = pm.parse_sequent(t["sequent"], self.system(t["system"]))
            return kind, seq, t["seed"], t["max_size"], t["attempts"]
        raise ValueError(f"unknown task kind {kind!r}")

    def run(self, i: int):
        pm = self.pm
        task = self.tasks[i]
        kind = task[0]
        if kind == "prove":
            result = pm.prove(task[1])
            if isinstance(result, pm.Proved):
                return "P" if pm.check_proof(result.proof).ok else "P!"
            return "E" if isinstance(result, pm.Exhausted) else "B"
        if kind in ("cut", "hilbert"):
            proof = task[1] if kind == "cut" else pm.hilbert_to_sequent(*task[1])
            free, _ = pm.eliminate_cuts(proof)
            return free, pm.check_proof(free).ok, pm.subformula_audit(free)[0]
        if kind == "model":
            _, (seed, size, s), sound, (formulas, pairs) = task
            model = pm.random_model(seed, size, s)
            valid = pm.validate_model(model, s).ok
            ev = pm.Evaluator(model)
            sound_ok = all(ev.sequent_valid(q) for q in sound)
            masks = [ev.extension_mask(f) for f in formulas]
            pair_masks = [(ev.extension_mask(a), ev.extension_mask(b))
                          for a, b in pairs]
            return model, valid, sound_ok, masks, pair_masks
        if kind == "countermodel":
            _, seq, seed, max_size, attempts = task
            return pm.find_countermodel(seq, max_size, seed=seed,
                                        attempts=attempts)
        raise AssertionError(kind)

    def finish(self, i: int, out) -> str:
        pm = self.pm
        task = self.tasks[i]
        kind = task[0]
        if kind == "prove":
            return out
        if kind in ("cut", "hilbert"):
            free, checked, audited = out
            nodes, cuts = _nodes_and_cuts(free)
            flags = "".join(flag for flag, ok in (
                ("k", checked), ("a", audited), ("c", cuts == 0),
                ("s", free.conclusion.key == task[2].key)) if not ok)
            # the normal form's size goes into the verdict digest
            return f"C!{flags}" if flags else f"C:{nodes}"
        if kind == "model":
            model, valid, sound_ok, masks, pair_masks = out
            above = _above_masks(model)
            flags = "".join(flag for flag, ok in (
                ("v", valid), ("s", sound_ok),
                ("u", all(_upward_closed(m, above) for m in masks)),
                ("o", all(par & ~ser == 0 for par, ser in pair_masks)),
            ) if not ok)
            return "M!" + flags if flags else "M"
        if kind == "countermodel":
            if out is None:
                return "N"
            seq = task[1]
            ok = (pm.validate_model(out.model, seq.system).ok
                  and not pm.Evaluator(out.model).sequent_valid(seq))
            return f"F:{len(out.model.worlds)}" if ok else "F!"
        raise AssertionError(kind)


def main() -> int:
    if not (SRC / "proofmill" / "__init__.py").is_file():
        print(f"worker: no proofmill package under {SRC}", file=sys.stderr)
        return 3
    header = json.loads(sys.stdin.readline())
    sys.path.insert(0, str(SRC))
    import proofmill as pm

    tracer = None
    if header["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    runner = Runner(pm, header)
    mode = header["mode"]
    del header
    for line in sys.stdin:
        runner.tasks.append(runner.prepare(json.loads(line)))
    # a caller holds one goal, not thousands: keep the inputs out of the
    # collector's full passes, so a task's time does not grow with the
    # number of other tasks' inputs alive in this process
    gc.freeze()
    ready = time.monotonic()
    reply: dict = {"ready": ready,
                   "refs": [[0, reference()] for _ in range(3)]}
    if mode == "run":
        clock = time.perf_counter
        times, outcomes = [], []
        since_ref = 0.0
        for i in range(len(runner.tasks)):
            start = clock()
            try:
                out = runner.run(i)
            except pm.CutEliminationError:
                out = "I"
            except Exception as exc:  # a failed task is counted, not fatal
                out = "X:" + type(exc).__name__
            took = clock() - start
            times.append(took)
            if tracer is not None:
                tracer.paused = True
            if not isinstance(out, str):
                try:
                    out = runner.finish(i, out)
                except Exception as exc:  # a result the checks choke on
                    out = "X:check:" + type(exc).__name__
            outcomes.append(out)
            since_ref += took
            if since_ref >= REF_EVERY_S:
                reply["refs"].append([i + 1, reference()])
                since_ref = 0.0
            if tracer is not None:
                tracer.paused = False
        reply["refs"].append([len(times), reference()])
        reply["times"] = times
        reply["outcomes"] = outcomes
        reply["rss_kb"] = peak_rss_kb()
        if tracer is not None:
            reply["trace"] = tracer.summary()
    json.dump(reply, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
