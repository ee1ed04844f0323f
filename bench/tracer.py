"""Spans around proofmill's public functions, for the traced run.

``Tracer.install()`` replaces each traced function in every proofmill
module that holds it, so calls the program makes between its own
modules (``calculus`` calling ``structural_preimages``, ``cutelim``
calling ``check_proof``) are seen as well as the benchmark's own calls.
Each span records its name, start, end and parent and stays in memory;
``summary()`` turns the spans and counts into the per-layer metrics.
Nothing inside the program is edited.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

# (metric, unit) for every per-layer metric, in report order
PER_LAYER = (
    ("syntax.parse_calls", "count"),
    ("syntax.parse_s", "s"),
    ("syntax.self_s", "s"),
    ("corpus.load_s", "s"),
    ("corpus.self_s", "s"),
    ("context.preimages_calls", "count"),
    ("context.preimages_s", "s"),
    ("context.preimages_out", "count"),
    ("context.preimages_overflow", "count"),
    ("context.split_parallel_calls", "count"),
    ("context.split_parallel_s", "s"),
    ("context.split_parallel_out", "count"),
    ("context.split_serial_calls", "count"),
    ("context.split_serial_s", "s"),
    ("context.split_serial_out", "count"),
    ("context.self_s", "s"),
    ("search.prove_calls", "count"),
    ("search.prove_s", "s"),
    ("search.self_s", "s"),
    ("search.prove_s.multiset", "s"),
    ("search.prove_s.tree", "s"),
    ("search.explored", "count"),
    ("search.memo_hits", "count"),
    ("search.memo_hit_ratio", "ratio"),
    ("search.peak_depth_max", "count"),
    ("search.truncated", "count"),
    ("search.proved", "count"),
    ("search.exhausted", "count"),
    ("search.budget_exceeded", "count"),
    ("calculus.check_calls", "count"),
    ("calculus.check_s", "s"),
    ("calculus.check_nodes", "count"),
    ("calculus.apply_rule_calls", "count"),
    ("calculus.apply_rule_s", "s"),
    ("calculus.apply_rule_out", "count"),
    ("calculus.self_s", "s"),
    ("cutelim.eliminate_calls", "count"),
    ("cutelim.eliminate_s", "s"),
    ("cutelim.reduce_calls", "count"),
    ("cutelim.reduce_s", "s"),
    ("cutelim.steps_principal", "count"),
    ("cutelim.steps_permutation", "count"),
    ("cutelim.candidate_checks", "count"),
    ("cutelim.accept_ratio", "ratio"),
    ("cutelim.nodes_in", "count"),
    ("cutelim.nodes_out", "count"),
    ("cutelim.irreducible", "count"),
    ("cutelim.self_s", "s"),
    ("hilbert.to_sequent_calls", "count"),
    ("hilbert.to_sequent_s", "s"),
    ("hilbert.cuts_out", "count"),
    ("hilbert.self_s", "s"),
    ("semantics.random_model_calls", "count"),
    ("semantics.random_model_s", "s"),
    ("semantics.validate_s", "s"),
    ("semantics.eval_calls", "count"),
    ("semantics.eval_s", "s"),
    ("semantics.countermodel_calls", "count"),
    ("semantics.countermodel_s", "s"),
    ("semantics.countermodel_attempts", "count"),
    ("semantics.countermodel_found", "count"),
    ("semantics.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)

LAYERS = ("syntax", "corpus", "context", "search", "calculus", "cutelim",
          "hilbert", "semantics")

def _nodes(p, rule: str | None = None) -> int:
    """Nodes of a proof (with ``rule``, only those of that rule), walked
    here rather than by proofmill."""
    count, stack = 0, [p]
    while stack:
        node = stack.pop()
        count += rule is None or node.rule.name == rule
        stack.extend(node.premises)
    return count


class Tracer:
    """Spans live in parallel arrays (name id, start, end, parent index)
    so that millions of them fit in a few tens of megabytes."""

    def __init__(self):
        self.names: list[str] = []          # name id -> span name
        self.name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.tags: dict[int, str] = {}      # span -> search kind
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.paused = False

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, nid: int, parent: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.parent.append(parent)
        return idx

    # -- recording

    def _wrap(self, fn, name: str, note=None, nested: bool = True):
        """``note(counts, span, args, result_or_exception)`` runs after the
        span and is booked as a ``trace`` span so it is not billed to
        the caller's self time.  With ``nested=False`` a call made while
        a span of the same name is open is not recorded again."""
        nid, trace_id = self._id(name), self._id("trace")
        names, starts, ends, stack = self.name, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused or (not nested and stack
                               and names[stack[-1]] == nid):
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            idx = self._open(nid, parent)
            stack.append(idx)
            outcome = None
            starts[idx] = clock()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if note is not None:
                    t0 = clock()
                    note(self.counts, idx, args, outcome)
                    booked = self._open(trace_id, parent)
                    starts[booked], ends[booked] = t0, clock()

        return traced

    def _replace(self, module_attr: str, name: str, note=None) -> None:
        """Wrap ``proofmill.<module>.<attr>`` wherever it is bound."""
        module_name, attr = module_attr.rsplit(".", 1)
        original = getattr(sys.modules[module_name], attr)
        wrapped = self._wrap(original, name, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "proofmill" or mod_name.startswith("proofmill."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def install(self) -> None:
        import proofmill  # noqa: F401  (loads every submodule)
        from proofmill.semantics import Evaluator

        def count_out(key):
            def note(counts, span, args, out):
                if not isinstance(out, Exception):
                    counts[key] += len(out)
            return note

        def preimages(counts, span, args, out):
            if not isinstance(out, Exception):
                counts["context.preimages_out"] += len(out[0])
                counts["context.preimages_overflow"] += bool(out[1])

        def search(counts, span, args, out):
            self.tags[span] = "tree" if args[0].system.is_tree else "multiset"
            if isinstance(out, Exception):
                return
            result, stats = out
            counts["search.explored"] += stats.explored
            counts["search.memo_hits"] += stats.memo_hits
            counts["search.truncated"] += bool(stats.truncated)
            counts["search.peak_depth_max"] = max(
                counts["search.peak_depth_max"], stats.peak_depth)
            kind = type(result).__name__
            key = {"Proved": "proved", "Exhausted": "exhausted"}.get(
                kind, "budget_exceeded")
            counts["search." + key] += 1

        def check(counts, span, args, out):
            counts["calculus.check_nodes"] += _nodes(args[0])

        def eliminate(counts, span, args, out):
            counts["cutelim.nodes_in"] += _nodes(args[0])
            if isinstance(out, Exception):
                counts["cutelim.irreducible"] += \
                    type(out).__name__ == "CutEliminationError"
                return
            free, trace = out
            counts["cutelim.nodes_out"] += _nodes(free)
            for step in trace.steps:
                counts["cutelim.steps_" + step.kind] += 1

        def translate(counts, span, args, out):
            if not isinstance(out, Exception):
                counts["hilbert.cuts_out"] += _nodes(out, "Cut")

        def countermodel(counts, span, args, out):
            counts["semantics.countermodel_found"] += out is not None \
                and not isinstance(out, Exception)

        for attr in ("context.parse_sequent", "syntax.parse_formula"):
            self._replace("proofmill." + attr, "syntax.parse")
        self._replace("proofmill.corpus.load_corpus_dir", "corpus.load")
        self._replace("proofmill.context.structural_preimages",
                      "context.preimages", preimages)
        self._replace("proofmill.context.split_parallel",
                      "context.split_parallel",
                      count_out("context.split_parallel_out"))
        self._replace("proofmill.context.split_serial",
                      "context.split_serial",
                      count_out("context.split_serial_out"))
        self._replace("proofmill.search.prove_with_stats", "search.prove",
                      search)
        self._replace("proofmill.calculus.check_proof", "calculus.check",
                      check)
        self._replace("proofmill.calculus.apply_rule", "calculus.apply_rule",
                      count_out("calculus.apply_rule_out"))
        self._replace("proofmill.cutelim.eliminate_cuts", "cutelim.eliminate",
                      eliminate)
        self._replace("proofmill.cutelim.reduce_once", "cutelim.reduce")
        self._replace("proofmill.hilbert.hilbert_to_sequent",
                      "hilbert.to_sequent", translate)
        self._replace("proofmill.semantics.random_model",
                      "semantics.random_model")
        self._replace("proofmill.semantics.validate_model",
                      "semantics.validate")
        self._replace("proofmill.semantics.find_countermodel",
                      "semantics.countermodel", countermodel)
        for method in ("eval", "extension", "sequent_valid",
                       "extension_upward_closed", "falsifying_world",
                       "extension_mask"):
            setattr(Evaluator, method, self._wrap(
                getattr(Evaluator, method), "semantics.eval", nested=False))

    # -- reporting

    def summary(self) -> dict[str, float]:
        n = len(self.name)
        name = [self.names[i] for i in self.name]
        start, end, parent = self.start, self.end, self.parent
        total: Counter = Counter()      # inclusive time, outermost only
        calls: Counter = Counter()
        self_time: Counter = Counter()
        child_time = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child_time[parent[i]] += end[i] - start[i]
        for i in range(n):
            dur = end[i] - start[i]
            up = name[parent[i]] if parent[i] >= 0 else None
            self_time[name[i].split(".")[0]] += dur - child_time[i]
            calls[name[i]] += 1
            if up != name[i]:
                total[name[i]] += dur
            if up == "cutelim.reduce" and name[i] == "calculus.check":
                calls["cutelim.candidate_check"] += 1
            if up == "semantics.countermodel" \
                    and name[i] == "semantics.random_model":
                calls["semantics.countermodel_attempt"] += 1
        for i, tag in self.tags.items():
            total[f"search.prove.{tag}"] += end[i] - start[i]

        c = self.counts
        m: dict[str, float] = {
            "syntax.parse_calls": calls["syntax.parse"],
            "syntax.parse_s": total["syntax.parse"],
            "corpus.load_s": total["corpus.load"],
            "context.preimages_calls": calls["context.preimages"],
            "context.preimages_s": total["context.preimages"],
            "context.split_parallel_calls": calls["context.split_parallel"],
            "context.split_parallel_s": total["context.split_parallel"],
            "context.split_serial_calls": calls["context.split_serial"],
            "context.split_serial_s": total["context.split_serial"],
            "search.prove_calls": calls["search.prove"],
            "search.prove_s": total["search.prove"],
            "search.prove_s.multiset": total["search.prove.multiset"],
            "search.prove_s.tree": total["search.prove.tree"],
            "calculus.check_calls": calls["calculus.check"],
            "calculus.check_s": total["calculus.check"],
            "calculus.apply_rule_calls": calls["calculus.apply_rule"],
            "calculus.apply_rule_s": total["calculus.apply_rule"],
            "cutelim.eliminate_calls": calls["cutelim.eliminate"],
            "cutelim.eliminate_s": total["cutelim.eliminate"],
            "cutelim.reduce_calls": calls["cutelim.reduce"],
            "cutelim.reduce_s": total["cutelim.reduce"],
            "cutelim.candidate_checks": calls["cutelim.candidate_check"],
            "hilbert.to_sequent_calls": calls["hilbert.to_sequent"],
            "hilbert.to_sequent_s": total["hilbert.to_sequent"],
            "semantics.random_model_calls": calls["semantics.random_model"],
            "semantics.random_model_s": total["semantics.random_model"],
            "semantics.validate_s": total["semantics.validate"],
            "semantics.eval_calls": calls["semantics.eval"],
            "semantics.eval_s": total["semantics.eval"],
            "semantics.countermodel_calls": calls["semantics.countermodel"],
            "semantics.countermodel_s": total["semantics.countermodel"],
            "semantics.countermodel_attempts":
                calls["semantics.countermodel_attempt"],
            "trace.spans": n,
        }
        for key, _ in PER_LAYER:
            if key in c:
                m[key] = c[key]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_time[layer]
        explored = c["search.explored"]
        m["search.memo_hit_ratio"] = (
            c["search.memo_hits"] / (c["search.memo_hits"] + explored)
            if explored else 0.0)
        steps = c["cutelim.steps_principal"] + c["cutelim.steps_permutation"]
        checks = m["cutelim.candidate_checks"]
        m["cutelim.accept_ratio"] = steps / checks if checks else 0.0
        return {key: m.get(key, 0) for key, _ in PER_LAYER
                if key != "trace.overhead_frac"}
