"""End-to-end checks of the guarantees the package ships with.

Each test exercises one guarantee across module boundaries: the bundled
corpus proves and refutes as labelled, axiom instances derive, cut
elimination terminates and preserves conclusions on composed proofs,
random models satisfy every proved sequent, search agrees with one
independent forward-closure oracle (``oracle.Closure``) on every goal
of small exhaustive universes in all four systems, the Hilbert bridge
round-trips, and search depth stays within its advertised bound.

These are deliberately heavyweight.  Fine-grained behaviour lives in
the per-module suites; a failure here means a shipped promise broke.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import pytest

from proofmill.calculus import check_proof, cut_count
from proofmill.context import (
    context_formulas,
    parse_sequent,
    sequent,
    total_complexity,
)
from proofmill.corpus import load_corpus_dir, run_entry
from proofmill.cutelim import eliminate_cuts
from proofmill.hilbert import (
    AXIOM_SCHEMATA,
    axiom_leaf,
    check_deduction,
    deduction_theorem,
    hilbert_to_sequent,
)
from proofmill.search import (
    Exhausted,
    Proved,
    prove,
    prove_with_stats,
    subformula_audit,
)
from proofmill.semantics import (
    Evaluator,
    Model,
    find_countermodel,
    random_model,
    sequent_valid,
    validate_model,
)
from proofmill.syntax import (
    SystemId,
    atom,
    box,
    brings,
    limp,
    lres,
    odot,
    parse_system,
    rres,
    tensor,
    with_,
)

from gentrees import mill_cut_proofs, random_deduction, tree_cut_proofs
from oracle import Closure, formula_layers

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

MILL = parse_system("MILL")
PCMILL = parse_system("PCMILL")
RSBIAT_A = parse_system("RSBIAT:a")
SRSBIAT_A = parse_system("SRSBIAT:a")
SRSBIAT_AB = parse_system("SRSBIAT:a,b")


@pytest.fixture(scope="module")
def corpus():
    return load_corpus_dir(CORPUS_DIR)


@pytest.fixture(scope="module")
def oracle():
    return Closure(MILL, 8)


# ---------------------------------------------------------------------------
# every entry labelled provable proves, and quickly


def test_provable_corpus_entries_prove_within_a_minute(corpus):
    slow = []
    failed = []
    for entry in corpus:
        if entry.expected != "provable":
            continue
        start = time.monotonic()
        result = run_entry(entry)
        elapsed = time.monotonic() - start
        if not isinstance(result.outcome, Proved):
            failed.append(f"{entry.entry_id}: {result.verdict}")
        if elapsed >= 60.0:
            slow.append(f"{entry.entry_id}: {elapsed:.1f}s")
    assert not failed, f"entries did not prove: {failed}"
    assert not slow, f"entries exceeded the time budget: {slow}"


# ---------------------------------------------------------------------------
# every entry labelled unprovable refutes as labelled,
# and the reordered-resource sequents have an explicit countermodel


def _truncated_word_model() -> Model:
    """Twelve worlds falsifying the reordered screwdriver sequents.

    Serial composition is word concatenation over three generators,
    truncated to the factors of the two good assembly orders; every
    other product collapses to a junk world ``j``, and ``z`` sits above
    everything as an absorbing top.  Parallel composition collapses all
    non-unit pairs straight to ``z``, so entropy holds trivially and no
    parallel recombination can rescue a bad serial order.
    """
    kept = {
        "": "e", "1": "x1", "2": "x2", "3": "x3",
        "12": "y12", "13": "y13", "23": "y23", "32": "y32",
        "123": "w123", "132": "w132",
    }
    word_of = {name: word for word, name in kept.items()}
    worlds = tuple(kept.values()) + ("j", "z")

    def serial(a: str, b: str) -> str:
        if a == "z" or b == "z":
            return "z"
        if a == "j" or b == "j":
            return "j"
        return kept.get(word_of[a] + word_of[b], "j")

    def parallel(a: str, b: str) -> str:
        if a == "e":
            return b
        if b == "e":
            return a
        return "z"

    self_set = lambda w: (w, "z")
    junk_set = ("j", "z")
    return Model(
        worlds=worlds,
        unit="e",
        op={(a, b): parallel(a, b) for a in worlds for b in worlds},
        serial_op={(a, b): serial(a, b) for a in worlds for b in worlds},
        order=tuple(("z", w) for w in worlds if w != "z"),
        valuation={
            "S": ("x1", "z"),
            "F": ("x3", "z"),
            "T": ("w132", "z"),
        },
        neighbourhoods={
            "s": {
                "x2": (self_set("x2"),),
                "j": (junk_set,),
                "z": (self_set("x2"), ("z",), junk_set),
            },
            "i": {
                "x3": (self_set("x3"),),
                "j": (junk_set,),
                "z": (self_set("x3"), ("z",), junk_set),
            },
        },
    )


def test_unprovable_corpus_entries_refute_as_labelled(corpus):
    by_id = {e.entry_id: e for e in corpus}

    two_screws = run_entry(by_id["two-screws-one-screwdriver"])
    assert isinstance(two_screws.outcome, Exhausted), two_screws.verdict
    assert two_screws.passed

    warranty = run_entry(by_id["warranty-parallel-goal"])
    assert isinstance(warranty.outcome, Exhausted), warranty.verdict
    assert warranty.passed

    wrong_orders = ["wrong-order-1", "wrong-order-2", "wrong-order-3"]
    for entry_id in wrong_orders:
        result = run_entry(by_id[entry_id])
        assert isinstance(result.outcome, Exhausted), \
            f"{entry_id}: {result.verdict}"
        assert result.passed

    # one explicit countermodel covers all three reorderings at once;
    # random search does not reach a falsifying model at small sizes
    system = parse_system("SRSBIAT:i,s")
    m = _truncated_word_model()
    report = validate_model(m, system)
    assert report.ok, report.failures
    ev = Evaluator(m)
    assert ev.sequent_valid(by_id["screwdriver-serial"].sequent), \
        "countermodel must not refute the provable ordering"
    for entry_id in wrong_orders:
        s = by_id[entry_id].sequent
        assert not ev.sequent_valid(s), entry_id
        assert ev.falsifying_world(s) is not None, entry_id


# ---------------------------------------------------------------------------
# all axiom instances prove; the separating non-theorems refute, with
# countermodels at small sizes


def test_axiom_entries_prove_and_separating_nontheorems_refute(corpus):
    axiom_entries = [e for e in corpus if e.source == "axioms"]
    assert len(axiom_entries) == 13
    for entry in axiom_entries:
        result = run_entry(entry)
        assert isinstance(result.outcome, Proved), \
            f"{entry.entry_id}: {result.verdict}"

    separating = [
        ("p |- p * p", MILL),
        ("p * q |- p", MILL),
        ("p @ q |- q @ p", PCMILL),
        ("p @ q |- p * q", PCMILL),
    ]
    for text, system in separating:
        goal = parse_sequent(text, system)
        outcome = prove(goal)
        assert isinstance(outcome, Exhausted), text
        found = find_countermodel(goal, max_size=4)
        assert found is not None, f"no countermodel at size <= 4 for {text}"
        assert validate_model(found.model, system).ok
        assert not sequent_valid(found.model, goal)


# ---------------------------------------------------------------------------
# cut elimination on seeded composed-cut proofs


def test_cut_elimination_terminates_on_composed_proofs(oracle):
    rng = random.Random(20260815)
    proofs = (
        mill_cut_proofs(oracle, rng, 120)
        + tree_cut_proofs(rng, PCMILL, 40)
        + tree_cut_proofs(rng, SRSBIAT_AB, 40)
    )
    assert len(proofs) == 200
    for p in proofs:
        assert cut_count(p) >= 1
        assert check_proof(p).ok, p.conclusion.key
        free, trace = eliminate_cuts(p)
        assert len(trace.steps) < 10 ** 5
        assert free.conclusion.key == p.conclusion.key
        assert cut_count(free) == 0
        report = check_proof(free)
        assert report.ok, (p.conclusion.key, report.violations[:3])
        ok, offenders = subformula_audit(free)
        assert ok, (p.conclusion.key, offenders[:3])


# ---------------------------------------------------------------------------
# soundness: random validated models satisfy every proved corpus
# sequent; extensions stay upward closed and tensor entails odot


def _probe_language(system):
    serial = system.ident in (SystemId.PCMILL, SystemId.SRSBIAT)
    if system.ident in (SystemId.MILL, SystemId.PCMILL):
        unary = box
    else:
        unary = lambda f: brings("a", f)
    binaries = (tensor, with_, limp)
    if serial:
        binaries += (odot, lres, rres)
    return formula_layers(7, atoms=("p", "q"), unaries=(unary,),
                          binaries=binaries)


def test_random_models_satisfy_proved_sequents_and_frame_properties(corpus):
    by_system = {}
    for entry in corpus:
        if entry.expected == "provable":
            by_system.setdefault(entry.system, []).append(entry)

    for system, entries in by_system.items():
        checked = 0
        for size in range(1, 6):
            for seed in range(20):
                m = random_model(seed, size, system)
                assert validate_model(m, system).ok, (str(system), seed, size)
                ev = Evaluator(m)
                for entry in entries:
                    assert ev.sequent_valid(entry.sequent), (
                        entry.entry_id, seed, size)
                checked += 1
        assert checked == 100

    for system in (MILL, PCMILL, RSBIAT_A, SRSBIAT_A):
        layers = _probe_language(system)
        serial = system.ident in (SystemId.PCMILL, SystemId.SRSBIAT)
        pairs = []
        if serial:
            pairs = [
                (a, b)
                for ca in range(1, 6)
                for cb in range(1, 7 - ca)
                for a in layers[ca]
                for b in layers[cb]
            ]
        for size in range(1, 6):
            for seed in range(4):
                m = random_model(seed, size, system)
                assert validate_model(m, system).ok
                ev = Evaluator(m)
                for layer in layers:
                    for f in layer:
                        assert ev.extension_upward_closed(f), (
                            f.key, seed, size, str(system))
                for a, b in pairs:
                    par_mask = ev.extension_mask(tensor(a, b))
                    ser_mask = ev.extension_mask(odot(a, b))
                    assert par_mask & ~ser_mask == 0, (
                        a.key, b.key, seed, size)


# ---------------------------------------------------------------------------
# search agrees with the independent oracle on every goal of small
# universes: at most two antecedent formulas in the large MILL universe
# and in those with one binary connective, every antecedent elsewhere


def _mismatches(universe: Closure, max_leaves: int | None = None):
    """Goals on which ``prove`` and the closure disagree (at most 20),
    and the number of goals."""
    mismatches = []
    goals = 0
    for ctx, succ in universe.goals(max_leaves):
        goals += 1
        outcome = prove(sequent(ctx, succ, universe.system))
        if isinstance(outcome, Proved) != universe.provable(ctx, succ):
            mismatches.append((ctx.key, succ.key, type(outcome).__name__))
            if len(mismatches) >= 20:
                break
    return mismatches, goals


def test_search_matches_oracle_on_exhaustive_small_universe(oracle):
    mismatches, goals = _mismatches(oracle, max_leaves=2)
    assert not mismatches, mismatches
    assert goals == 427119


def test_tree_search_matches_oracle_on_exhaustive_small_universe():
    universe = Closure(PCMILL, 6, binaries=(tensor, odot, limp, lres, rres),
                       modal=False)
    mismatches, goals = _mismatches(universe)
    assert not mismatches, mismatches
    assert goals == 54609


# (system, bound, atoms, binaries, max_leaves, goals).  The first three
# catch BringsRefl, BringsRe and NotNec; the others each need one of
# BringsTensor, BringsWith and BringsOdot, which first matter at total
# complexity 8, 9 and 8.
AGENT_UNIVERSES = [
    ("RSBIAT:a", 6, ("p", "q", "bot"), (tensor, with_, limp), None, 37984),
    ("SRSBIAT:a", 5, ("p", "q", "bot"),
     (tensor, with_, odot, limp, lres, rres), None, 31696),
    ("RSBIAT:a,b", 6, ("p", "bot"), (tensor, with_, limp), None, 29235),
    ("RSBIAT:a", 8, ("p", "q"), (tensor,), 2, 42765),
    ("RSBIAT:a", 9, ("p",), (with_,), 2, 28730),
    ("SRSBIAT:a", 8, ("p",), (odot,), 2, 14080),
]


@pytest.mark.parametrize(
    "name, bound, atoms, binaries, max_leaves, count", AGENT_UNIVERSES,
    ids=[f"{u[0]}-{u[1]}-{''.join(u[2])}" for u in AGENT_UNIVERSES])
def test_agent_search_matches_oracle_on_exhaustive_small_universe(
        name, bound, atoms, binaries, max_leaves, count):
    universe = Closure(parse_system(name), bound, atoms, binaries)
    mismatches, goals = _mismatches(universe, max_leaves)
    assert not mismatches, mismatches
    assert goals == count


# ---------------------------------------------------------------------------
# Hilbert bridge: schemata check as deductions, translate to checked
# sequent proofs, and the deduction theorem discharges exactly


def test_hilbert_schemata_check_translate_and_discharge():
    subst = {"A": atom("p"), "B": atom("q"), "C": atom("r")}
    for schema in AXIOM_SCHEMATA:
        if SystemId.MILL in schema.systems:
            system, agent = MILL, None
        else:
            system, agent = RSBIAT_A, "a"
        instance = schema.instantiate(
            {v: subst[v] for v in schema.metavariables}, agent)
        d = axiom_leaf(instance, system)
        report = check_deduction(d, system)
        assert report.ok, (schema.name, report.violations)
        translated = hilbert_to_sequent(d, system)
        assert check_proof(translated).ok, schema.name
        assert translated.conclusion.succ is instance
        assert not context_formulas(translated.conclusion.ctx)

    for i in range(50):
        rng = random.Random(1000 + i)
        system = MILL if i % 2 == 0 else RSBIAT_A
        d = random_deduction(rng, system)
        assert check_deduction(d, system).ok
        pick = rng.randrange(len(d.assumptions))
        discharged = d.assumptions[pick]
        result = deduction_theorem(d, pick, system)
        assert check_deduction(result, system).ok, i
        assert result.formula is limp(discharged, d.formula)
        assert result.assumptions == (
            d.assumptions[:pick] + d.assumptions[pick + 1:])


# ---------------------------------------------------------------------------
# search keeps its advertised depth bound across the whole corpus: every
# rule shrinks total complexity, so no branch reaches it


def test_search_depth_stays_within_advertised_bound(corpus):
    for entry in corpus:
        result, stats = prove_with_stats(entry.sequent)
        limit = total_complexity(entry.sequent)
        assert stats.peak_depth < limit, (
            entry.entry_id, stats.peak_depth, limit)
        assert result.peak_depth == stats.peak_depth
