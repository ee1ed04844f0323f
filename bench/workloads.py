"""Seeded task sets and their reference answers.

``build(name, seed, seconds)`` returns the inputs the worker process
receives (text only: sequents, corpus entry ids, proof and deduction
JSON, model parameters) together with the expected outcome of every
task.  References come from ``logic`` (the MILL oracle), from how each
goal is constructed, from the corpus hand labels, or from semantic
facts; none of them comes from proofmill.

Task counts scale with ``seconds`` so that one run of the seed program
spends roughly that long in its timed loop.
"""
from __future__ import annotations

import random
from pathlib import Path

from logic import ONE, Language, MillOracle, proof_node, sequent_text

WORKLOADS = ("mill-sweep", "wide-goals", "cut-elim", "models")

# Outcomes the worker reports: "P" proved and the proof checks, "E"
# exhausted, "B" budget exceeded, "C" cut-free proof certified, "M" model
# facts hold, "F" countermodel found and confirmed, "N" none found; any
# other code is a failure.  A code may carry ":detail" (the normal
# form's size, the countermodel's worlds) for the verdict digest.
# Expectations are outcomes, plus "~P" (not proved) and "F?" (a
# countermodel is welcome but not required).
PROVED, EXHAUSTED, NOT_PROVED = "P", "E", "~P"
CUT_FREE, MODEL_OK, MAYBE_FOUND = "C", "M", "F?"
DECIDED = frozenset({"P", "E", "C", "M", "F"})
ACCEPTS = {
    NOT_PROVED: frozenset({"E", "B"}),
    MAYBE_FOUND: frozenset({"F", "N"}),
}

# multiset goals per second of run time at the seed program's speed
SWEEP_RATE = 8000
# the seed that validates claims developed on seeds 1..10; on it the
# fixed task shapes are drawn from the seed as well (``_shapes``)
HELD_OUT_SEED = 20261017

REPO = Path(__file__).resolve().parent.parent
CORPUS_DIR = REPO / "corpus"


def _scaled(base: int, seconds: int) -> int:
    return max(1, round(base * seconds / 10))


def read_corpus_labels() -> list[tuple[str, str, str]]:
    """(id, system, expected) for every entry, read from the files
    directly: ``id | system | sequent | expected | source``."""
    out = []
    for path in sorted(CORPUS_DIR.glob("*.corpus")):
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = [f.strip() for f in line.split(" | ")]
            out.append((fields[0], fields[1], fields[3]))
    return out


def _shapes(name: str, seed: int) -> random.Random:
    """The generator of a workload's fixed task shapes.  Shapes whose
    cost varies widely are the same under every seed, so the workload's
    cost does not move with it; the held-out seed draws its own, so that
    it also checks tasks the other seeds never see."""
    tag = f"|{seed}" if seed == HELD_OUT_SEED else ""
    return random.Random(f"{name} shapes{tag}")


def _label_outcome(system: str, label: str) -> str:
    if label == "provable":
        return PROVED
    tree = system.split(":")[0] in ("PCMILL", "SRSBIAT")
    return NOT_PROVED if tree or label != "unprovable" else EXHAUSTED


# ---------------------------------------------------------------------------
# mill-sweep


def _mill_sweep(rng: random.Random, shapes: random.Random, seconds: int):
    oracle = MillOracle(bound=8)
    goals = list(oracle.goals(max_antecedent=2))
    picks = rng.sample(range(len(goals)), SWEEP_RATE * seconds)
    tasks, expect = [], []
    for i in picks:
        ants, succ = goals[i]
        tasks.append({"kind": "prove", "system": "MILL",
                      "sequent": sequent_text(ants, succ)})
        expect.append(PROVED if oracle.provable(ants, succ) else EXHAUSTED)
    return tasks, expect


# ---------------------------------------------------------------------------
# wide-goals: the exponential ladders plus the whole corpus


class _Names:
    """Fresh atom names, so that no goal repeats within a run.  They come
    back in sorted order: proofmill sorts antecedents by printed form, so
    a goal's cost depends on how its names compare, and a fixed shape
    applied to sorted names costs the same under every seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def atoms(self, n: int) -> list[str]:
        letters = sorted(self.rng.sample("abcdefghijklmnoprstuvwxyz", n))
        tag = self.rng.randrange(100)
        return [f"{c}{tag}" for c in letters]


def _chain(atoms, op: str) -> str:
    return f" {op} ".join(atoms)


def _wide_goals(rng: random.Random, shapes: random.Random, seconds: int):
    names = _Names(rng)
    # the same shapes in the same order in every run but the held-out
    # one; the seed picks names
    goals: list[tuple[str, str, str]] = []   # (system, sequent, expect)

    def shaped(xs):
        ys = list(xs)
        shapes.shuffle(ys)
        return ys

    def listed(xs, sep: str = ", ") -> str:
        ys = list(xs)
        rng.shuffle(ys)
        return sep.join(ys)

    # MILL: p0..pn-1 |- permuted tensor chain, and the twin with one
    # resource too many on the right
    for n, pairs in ((7, 2), (8, 2), (9, 1)):
        for _ in range(_scaled(pairs, seconds)):
            ps = shaped(names.atoms(n + 1))
            ants, extra = ps[:n], ps[n]
            chain = _chain(shaped(ants), "*")
            goals.append(("MILL", f"{listed(ants)} |- {chain}", PROVED))
            goals.append(("MILL", f"{listed(ants)} |- {chain} * {extra}",
                          EXHAUSTED))
    # MILL: p0, p0 -o p1, ..., pn-1 -o pn |- pn, and |- pn-1 with the
    # last implication left over
    for n, pairs in ((6, 2), (7, 1)):
        for _ in range(_scaled(pairs, seconds)):
            ps = shaped(names.atoms(n + 1))
            ants = [ps[0]] + [f"{ps[i]} -o {ps[i + 1]}" for i in range(n)]
            goals.append(("MILL", f"{listed(ants)} |- {ps[n]}", PROVED))
            goals.append(("MILL", f"{listed(ants)} |- {ps[n - 1]}", EXHAUSTED))
    # PCMILL: parallel atoms prove any serial order (entropy)
    for n, count in ((3, 60), (4, 8)):
        for _ in range(_scaled(count, seconds)):
            ps = names.atoms(n)
            goals.append(("PCMILL", f"{listed(ps)} |- {_chain(shaped(ps), '@')}",
                          PROVED))
    # PCMILL: serial atoms never become parallel, and keep their order
    for n in (3, 4):
        for _ in range(_scaled(3, seconds)):
            ps = shaped(names.atoms(n))
            turn = shapes.randrange(1, n)
            goals.append(("PCMILL",
                          f"{'; '.join(ps)} |- {_chain(shaped(ps), '*')}",
                          NOT_PROVED))
            goals.append(("PCMILL",
                          f"{'; '.join(ps)} |- "
                          f"{_chain(ps[turn:] + ps[:turn], '@')}",
                          NOT_PROVED))
    # SRSBIAT: parallel achievements assemble into a serial one
    for _ in range(_scaled(4, seconds)):
        ps = names.atoms(3)
        agent = f"a{rng.randrange(100)}"
        left = listed(f"E[{agent}]{p}" for p in ps)
        goals.append((f"SRSBIAT:{agent}",
                      f"{left} |- E[{agent}]({_chain(shaped(ps), '@')})",
                      PROVED))

    tasks = [{"kind": "prove", "system": s, "sequent": q} for s, q, _ in goals]
    expect = [e for _, _, e in goals]
    for entry_id, system, label in read_corpus_labels():
        tasks.append({"kind": "entry", "entry": entry_id})
        expect.append(_label_outcome(system, label))
    order = list(range(len(tasks)))
    shapes.shuffle(order)
    return [tasks[i] for i in order], [expect[i] for i in order]


# ---------------------------------------------------------------------------
# cut-elim: composed cut proofs and translated Hilbert deductions

class _MillCuts:
    """Cut compositions of oracle-derived parts, one to three cuts each."""

    def __init__(self, oracle: MillOracle, rng: random.Random):
        self.oracle = oracle
        self.rng = rng
        known = sorted(oracle.derivation)
        self.by_succ: dict[str, list[tuple]] = {}
        for ants, succ in known:
            self.by_succ.setdefault(succ, []).append(ants)
        self.consumers = [s for s in known
                          if any(f in self.by_succ for f in s[0])]

    def __call__(self) -> tuple[str, dict, str]:
        rng, oracle = self.rng, self.oracle
        ants, succ = rng.choice(self.consumers)
        members = list(ants)
        node = oracle.proof((ants, succ))
        for _ in range(1 + rng.randrange(3)):
            cuttable = [f for f in members if f in self.by_succ]
            if not cuttable:
                break
            cut_f = rng.choice(cuttable)
            producer_ants = rng.choice(self.by_succ[cut_f])
            members.remove(cut_f)
            members += producer_ants
            node = proof_node(sequent_text(sorted(members), succ), "Cut",
                              [node, oracle.proof((producer_ants, cut_f))])
        return "MILL", node, sequent_text(sorted(members), succ)


def _tree_identity(ctx) -> tuple[str, str, dict]:
    """(context text, folded formula, proof of ctx |- formula) for a
    binary context tree of ("leaf", f) / (";" or ",", left, right)."""
    if ctx[0] == "leaf":
        f = ctx[1]
        return f, f, proof_node(f"{f} |- {f}", "Ax")
    sep, left, right = ctx
    lt, lf, lp = _tree_identity(left)
    rt, rf, rp = _tree_identity(right)
    op, rule = ("@", "OdotR") if sep == ";" else ("*", "TensorR")
    t = f"[{lt}]{sep} [{rt}]"
    f = f"({lf} {op} {rf})"
    return t, f, proof_node(f"{t} |- {f}", rule, [lp, rp])


def _tree_cut_proof(shapes: random.Random, names: _Names,
                    system: str) -> tuple[str, dict, str]:
    """Cut a proved subcontext into a serial or parallel consumer, half
    the time stacking a second cut on the consumer's other leaf.  The
    shape comes from ``shapes``, the atom names from ``names``."""
    p, q, r = names.atoms(3)
    if system == "PCMILL":
        pool = [p, q, r, f"[]{p}"]
    else:
        pool = [p, q, f"E[a]{p}", f"E[b]{q}"]
    parts = [("leaf", shapes.choice(pool)) for _ in range(shapes.choice((2, 3)))]
    while len(parts) > 1:
        k = shapes.randrange(len(parts) - 1)
        parts[k:k + 2] = [(shapes.choice((";", ",")), parts[k], parts[k + 1])]
    ctx_text, cut_f, producer = _tree_identity(parts[0])
    extra = shapes.choice(pool)
    sep, op, rule = shapes.choice(((";", "@", "OdotR"), (",", "*", "TensorR")))
    goal = f"({cut_f} {op} {extra})"
    consumer = proof_node(f"{cut_f}{sep} {extra} |- {goal}", rule,
                          [proof_node(f"{cut_f} |- {cut_f}", "Ax"),
                           proof_node(f"{extra} |- {extra}", "Ax")])
    end = f"[{ctx_text}]{sep} {extra} |- {goal}"
    node = proof_node(end, "Cut", [consumer, producer])
    if shapes.random() < 0.5:
        source = f"({extra} & {shapes.choice(pool)})"
        producer2 = proof_node(f"{source} |- {extra}", "WithL1",
                               [proof_node(f"{extra} |- {extra}", "Ax")])
        end = f"[{ctx_text}]{sep} {source} |- {goal}"
        node = proof_node(end, "Cut", [node, producer2])
    return system, node, end


# Hilbert axiom schemata as (template, needs an agent); metavariables
# are single capitals.
_SCHEMATA = (
    (("limp", "A", "A"), False),
    (("limp", ("limp", "A", "B"),
      ("limp", ("limp", "B", "C"), ("limp", "A", "C"))), False),
    (("limp", ("limp", "A", ("limp", "B", "C")),
      ("limp", "B", ("limp", "A", "C"))), False),
    (("limp", "A", ("limp", "B", ("tensor", "A", "B"))), False),
    (("limp", ("limp", "A", ("limp", "B", "C")),
      ("limp", ("tensor", "A", "B"), "C")), False),
    (("one",), False),
    (("limp", ("one",), ("limp", "A", "A")), False),
    (("limp", ("with", "A", "B"), "A"), False),
    (("limp", ("with", "A", "B"), "B"), False),
    (("limp", ("with", ("limp", "A", "B"), ("limp", "A", "C")),
      ("limp", "A", ("with", "B", "C"))), False),
    (("limp", ("brings", "A"), "A"), True),
    (("limp", ("tensor", ("brings", "A"), ("brings", "B")),
      ("brings", ("tensor", "A", "B"))), True),
    (("limp", ("with", ("brings", "A"), ("brings", "B")),
      ("brings", ("with", "A", "B"))), True),
)


class _Deductions:
    """Valid Hilbert deduction trees as proofmill deduction JSON.  The
    tree's shape comes from ``rng``, its atom names from ``names``."""

    def __init__(self, rng: random.Random, names: _Names, system: str):
        self.rng = rng
        self.names = names
        self.system = system
        self.agents = system.partition(":")[2].split(",") if ":" in system else []
        self.lang = Language()
        self.atoms: list[str] = []

    def formula(self, depth: int = 2) -> str:
        if depth == 0 or self.rng.random() < 0.4:
            return self.rng.choice(self.atoms)
        op = self.rng.choice(("limp", "tensor", "with"))
        return self.lang.binary(op, self.formula(depth - 1),
                                self.formula(depth - 1))

    def instantiate(self, template, subst, agent):
        if isinstance(template, str):
            return subst[template]
        tag = template[0]
        if tag == "one":
            return ONE
        if tag == "brings":
            return self.lang.modal(agent, self.instantiate(template[1], subst, agent))
        return self.lang.binary(tag, self.instantiate(template[1], subst, agent),
                                self.instantiate(template[2], subst, agent))

    @staticmethod
    def node(rule, assumptions, formula, premises=(), agent=None) -> dict:
        d = {"rule": rule, "assumptions": list(assumptions), "formula": formula}
        if agent is not None:
            d["agent"] = agent
        if premises:
            d["premises"] = list(premises)
        return d

    def axiom(self, template=None) -> dict:
        if template is None:
            template, modal = self.rng.choice(
                [s for s in _SCHEMATA if self.agents or not s[1]])
        else:
            modal = False
        subst = {v: self.formula(1) for v in "ABC"}
        agent = self.rng.choice(self.agents) if modal else None
        return self.node("AxiomLeaf", (),
                         self.instantiate(template, subst, agent))

    def assumption(self, f: str) -> dict:
        return self.node("Assumption", (f,), f)

    def modus_ponens(self, minor: dict, major: dict) -> dict:
        _, _, right = self.lang.parts[major["formula"]]
        return self.node("LimpRule", minor["assumptions"] + major["assumptions"],
                         right, (minor, major))

    def tree(self, steps: int = 8) -> dict:
        rng, lang = self.rng, self.lang
        pool = [self.assumption(self.formula()) for _ in range(3)]
        pool += [self.axiom() for _ in range(3)]
        for _ in range(steps):
            kind = rng.choice(("mp", "mp", "mp", "with", "modal"))
            if kind == "mp":
                majors = [t for t in pool if lang.parts[t["formula"]][0] == "limp"]
                if not majors:
                    pool.append(self.axiom())
                    continue
                major = rng.choice(majors)
                left = lang.parts[major["formula"]][1]
                minors = [t for t in pool if t["formula"] == left]
                minor = rng.choice(minors) if minors and rng.random() < 0.5 \
                    else self.assumption(left)
                pool.append(self.modus_ponens(minor, major))
            elif kind == "with":
                t = rng.choice(pool)
                pool.append(self.node("WithRule", t["assumptions"],
                                      lang.with_(t["formula"], t["formula"]),
                                      (t, t)))
            elif self.agents:
                # no BringsReRule or NotNecRule: their BringsRe and NotNec
                # steps meet the brings-tensor and brings-with axioms in
                # the cut pairs that have no reduction, where
                # CutEliminationError is the documented outcome
                pool.append(self.axiom())
            else:
                ident = self.axiom(_SCHEMATA[0][0])
                a = lang.parts[ident["formula"]][1]
                pool.append(self.node(
                    "BoxReRule", (),
                    lang.limp(lang.modal("box", a), lang.modal("box", a)),
                    (ident, ident)))
        with_assumptions = [t for t in pool if t["assumptions"]]
        if not with_assumptions:
            base = self.assumption(self.formula())
            return self.modus_ponens(
                base, self.node("AxiomLeaf", (),
                                lang.limp(base["formula"], base["formula"])))
        return rng.choice(with_assumptions)

    def task(self) -> tuple[str, dict, str]:
        self.atoms = [self.lang.atom(a) for a in self.names.atoms(3)] + [ONE]
        d = self.tree()
        name, _, _ = self.system.partition(":")
        obj = {"system": name, "agents": self.agents, "tree": d}
        return self.system, obj, sequent_text(d["assumptions"], d["formula"])


def _distinct(make, count: int):
    """``count`` items from ``make()`` with no two alike."""
    seen, out = set(), []
    while len(out) < count:
        item = make()
        k = repr(item)
        if k not in seen:
            seen.add(k)
            out.append(item)
    return out


def _cut_elim(rng: random.Random, shapes: random.Random, seconds: int):
    items = _distinct(_MillCuts(MillOracle(bound=8), rng),
                      _scaled(2400, seconds))
    # tree proofs and deductions take the same shapes in every run but
    # the held-out one, so their costs, which vary widely between
    # shapes, do not move with the seed; the seed picks atom names and
    # task order
    names = _Names(rng)
    for system in ("PCMILL", "SRSBIAT:a,b"):
        items += _distinct(lambda: _tree_cut_proof(shapes, names, system),
                           _scaled(400, seconds))
    tasks = [{"kind": "cut", "system": system, "proof": node, "end": end}
             for system, node, end in items]
    for system in ("MILL", "RSBIAT:a"):
        gen = _Deductions(shapes, names, system)
        for _, obj, end in _distinct(gen.task, _scaled(400, seconds)):
            tasks.append({"kind": "hilbert", "system": system,
                          "deduction": obj, "end": end})
    rng.shuffle(tasks)
    return tasks, [CUT_FREE] * len(tasks)


# ---------------------------------------------------------------------------
# models

# (system, modality of its probe language, serial, probe complexity)
PROBE_SYSTEMS = (
    ("MILL", "box", False, 6),
    ("PCMILL", "box", True, 5),
    ("RSBIAT:a", "a", False, 6),
    ("SRSBIAT:a", "a", True, 5),
)
# separating non-theorems: countermodels exist at size <= 4, and random
# search finds one for most seeds; a miss is undecided, not wrong
SEPARATING = (
    ("MILL", "{p} |- {p} * {p}"),
    ("MILL", "{p} * {q} |- {p}"),
    ("PCMILL", "{p} @ {q} |- {q} @ {p}"),
    ("PCMILL", "{p} @ {q} |- {p} * {q}"),
)
WRONG_ORDER = ("wrong-order-1", "wrong-order-2", "wrong-order-3")
# sequents valid in every model of a probed system because they are
# provable by construction: the wide-goals family in which parallel
# achievements assemble into a serial one.  The corpus has no provable
# SRSBIAT:a entry, so these are what the soundness check has there.
CONSTRUCTED_VALID = {
    "SRSBIAT:a": ("E[a]p, E[a]q, E[a]r |- E[a](p @ q @ r)",
                  "E[a]p, E[a]q, E[a]r |- E[a](r @ p @ q)"),
}


def _probes(system: str, unary: str, serial: bool, limit: int) -> dict:
    binaries = ("tensor", "with", "limp")
    if serial:
        binaries += ("odot", "lres", "rres")
    layers = Language().layers(limit, unary=unary, binaries=binaries)
    pairs = []
    if serial:
        pairs = [[f"({a} * {b})", f"({a} @ {b})"]
                 for ca in range(1, limit)
                 for cb in range(1, limit + 1 - ca)
                 for a in layers[ca] for b in layers[cb]]
    return {"formulas": [f for layer in layers for f in layer],
            "pairs": pairs, "valid": list(CONSTRUCTED_VALID.get(system, ()))}


def _models(rng: random.Random, shapes: random.Random, seconds: int):
    labels = read_corpus_labels()
    sound: dict[str, list[str]] = {}
    for entry_id, system, label in labels:
        if label == "provable":
            sound.setdefault(system, []).append(entry_id)
    model_seeds = set()

    def model_task(source: random.Random, system: str, size: int,
                   probes: bool) -> dict:
        while True:
            seed = source.randrange(1 << 30)
            if (system, size, seed) not in model_seeds:
                model_seeds.add((system, size, seed))
                break
        return {"kind": "model", "system": system, "size": size,
                "seed": seed, "probes": probes,
                "entries": sound.get(system, [])}

    # the probed models are the same in every run but the held-out one:
    # checking one costs from 1 to 200 ms, and drawing them from the
    # seed would move the workload's cost with it
    tasks, expect = [], []
    for system, _, _, _ in PROBE_SYSTEMS:
        for size in range(1, 6):
            for _ in range(_scaled(24, seconds)):
                tasks.append(model_task(shapes, system, size, True))
                expect.append(MODEL_OK)
    for system in sorted(sound):
        if any(system == s for s, *_ in PROBE_SYSTEMS):
            continue
        for size in range(1, 6):
            for _ in range(_scaled(6, seconds)):
                tasks.append(model_task(rng, system, size, False))
                expect.append(MODEL_OK)
    names = _Names(rng)
    seeds = rng.sample(range(1 << 30), _scaled(200, seconds))
    for i, seed in enumerate(seeds):
        system, template = SEPARATING[i % len(SEPARATING)]
        p, q = names.atoms(2)
        tasks.append({"kind": "countermodel", "system": system,
                      "sequent": template.format(p=p, q=q), "seed": seed,
                      "max_size": 4, "attempts": 25})
        expect.append(MAYBE_FOUND)
    # the search the CLI runs for its hint after a failed tree proof
    seeds = rng.sample(range(1 << 30), _scaled(120, seconds))
    for i, seed in enumerate(seeds):
        tasks.append({"kind": "countermodel",
                      "entry": WRONG_ORDER[i % len(WRONG_ORDER)],
                      "seed": seed, "max_size": 3, "attempts": 8})
        expect.append(MAYBE_FOUND)
    order = list(range(len(tasks)))
    rng.shuffle(order)
    return [tasks[i] for i in order], [expect[i] for i in order]


# ---------------------------------------------------------------------------

_BUILDERS = {
    "mill-sweep": _mill_sweep,
    "wide-goals": _wide_goals,
    "cut-elim": _cut_elim,
    "models": _models,
}


def build(name: str, seed: int, seconds: int) -> tuple[dict, list[str]]:
    """(worker inputs, expected outcome per task) for one run."""
    rng = random.Random(f"{name}|{seed}")
    tasks, expect = _BUILDERS[name](rng, _shapes(name, seed), seconds)
    inputs = {"workload": name, "corpus": str(CORPUS_DIR.relative_to(REPO)),
              "tasks": tasks}
    if name == "models":
        inputs["probes"] = {system: _probes(system, unary, serial, limit)
                            for system, unary, serial, limit in PROBE_SYSTEMS}
    return inputs, expect


def code(outcome: str) -> str:
    return outcome.split(":", 1)[0]


def judge(expected: str, outcome: str) -> bool:
    """Whether a task's outcome meets its expectation."""
    return code(outcome) in ACCEPTS.get(expected, (expected,))
