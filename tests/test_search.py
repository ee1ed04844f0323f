"""Backward proof search."""
from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import proofmill.search as search_module
from proofmill import context
from proofmill.calculus import (
    BRINGS_ODOT,
    BRINGS_TENSOR,
    LIMP_L,
    ODOT_R,
    TENSOR_R,
    Proof,
    Rule,
    _Matcher,
    apply_rule,
    check_proof,
    cut_count,
    proof_nodes,
    proof_size,
    proof_to_json,
    rule_instances,
)
from proofmill.context import (
    EMPTY,
    context_charge,
    context_formulas,
    leaf,
    mset,
    parse_sequent,
    sequent,
    total_complexity,
)
from proofmill.corpus import load_corpus_dir
from proofmill.search import (
    DEFAULT_RULE_ORDER,
    INVERTIBLE_RULES,
    Exhausted,
    Proved,
    _Engine,
    balanced,
    prove,
    prove_with_stats,
    subformula_audit,
)
from proofmill.syntax import (
    BOT,
    CHARGE_CAP,
    Atom,
    Box,
    Brings,
    Limp,
    Lres,
    Odot,
    Rres,
    Tensor,
    Unit,
    With,
    _needs,
    atom,
    box,
    brings,
    limp,
    lres,
    odot,
    parse_formula,
    parse_system,
    rres,
    subformulas,
    tensor,
    unit,
    with_,
)

from gentrees import trees
from oracle import Closure
from test_acceptance import AGENT_UNIVERSES

MILL = parse_system("MILL")
PCMILL = parse_system("PCMILL")
RS = parse_system("RSBIAT:i,s")
SRS = parse_system("SRSBIAT:i,s")


def run(text, system):
    return prove(parse_sequent(text, system))


# (system, bound, atoms, binaries, modal, max_leaves): the eight oracle
# universes of test_acceptance
_UNIVERSES = [
    (MILL, 8, ("p", "q"), (tensor, with_, limp), True, 2),
    (PCMILL, 6, ("p", "q"), (tensor, odot, limp, lres, rres), False, None),
] + [(parse_system(name), bound, atoms, binaries, True, max_leaves)
     for name, bound, atoms, binaries, max_leaves, _ in AGENT_UNIVERSES]
_UNIVERSE_IDS = [f"{u[0]}-{u[1]}-{''.join(u[2])}" for u in _UNIVERSES]


@functools.cache
def _closure(i):
    system, bound, atoms, binaries, modal, _ = _UNIVERSES[i]
    return Closure(system, bound, atoms, binaries, modal)


@functools.cache
def _universe(i):
    system, max_leaves = _UNIVERSES[i][0], _UNIVERSES[i][5]
    return [sequent(ctx, succ, system) for ctx, succ in _closure(i).goals(max_leaves)]


# -- pinned verdicts ------------------------------------------------------------


def test_serial_weaker_than_parallel():
    r = run("A * B |- A @ B", PCMILL)
    assert isinstance(r, Proved)
    assert check_proof(r.proof).ok
    assert cut_count(r.proof) == 0


def test_parallel_not_weaker_than_serial():
    assert isinstance(run("A @ B |- A * B", PCMILL), Exhausted)


def test_serial_not_commutative():
    assert isinstance(run("A @ B |- B @ A", SRS), Exhausted)


def test_mill_provables():
    for text in [
        "p |- p",
        "|- p -o p",
        "p, q |- p * q",
        "p * q |- q * p",
        "|- 1",
        "p |- 1 * p",
        "p & q |- p",
        "p, p -o q |- q",
        "|- (p -o q) -o ((q -o r) -o (p -o r))",
        "[]p |- []p",
        "[](p & q) |- [](q & p)",
        "p * (q * r) |- (p * q) * r",
        "p -o (q -o r) |- q -o (p -o r)",
    ]:
        r = run(text, MILL)
        assert isinstance(r, Proved), text
        assert check_proof(r.proof).ok, text


def test_mill_unprovables_are_definitive():
    for text in [
        "p |- q",
        "p |- p * p",
        "p * p |- p",
        "|- p -o (p * p)",
        "p & q |- p * q",
        "[]p |- p",
        "p |- []p",
        "[]p, []q |- [](p * q)",
    ]:
        assert isinstance(run(text, MILL), Exhausted), text


def test_brings_fixtures():
    r = run("E[i]p, E[i]q |- E[i](p * q)", RS)
    assert isinstance(r, Proved)
    assert isinstance(run("E[i](p * q) |- E[i]p * E[i]q", RS), Exhausted)
    r2 = run("E[i]p |- p", RS)
    assert isinstance(r2, Proved)
    r3 = run("E[i]p & E[i]q |- E[i](p & q)", RS)
    assert isinstance(r3, Proved)
    assert isinstance(run("p |- E[i]p", RS), Exhausted)


def test_not_nec_fixture():
    r = run("E[i](p -o p) |- bot", RS)
    assert isinstance(r, Proved)
    assert r.proof.rule.name == "NotNec"
    assert isinstance(run("E[i]p |- bot", RS), Exhausted)


# -- proof shape ------------------------------------------------------------------


def test_search_never_emits_cut_or_ent():
    for text, system in [
        ("S, E[i]F, E[s]((S * F) -o T) |- T", RS),
        ("S ; E[i]F ; E[s]((S @ F) \\ T) |- T", SRS),
        ("p, q |- p @ q", PCMILL),
    ]:
        r = run(text, system)
        assert isinstance(r, Proved)
        from proofmill.calculus import proof_nodes

        names = {n.rule.name for _, n in proof_nodes(r.proof)}
        assert "Cut" not in names and "Ent" not in names


def test_proofs_satisfy_subformula_property():
    r = run("S ; E[i]F ; E[s]((S @ F) \\ T) |- T", SRS)
    ok, offenders = subformula_audit(r.proof)
    assert ok, offenders


def test_deterministic():
    s = parse_sequent("p, q, r |- (p * q) * r", MILL)
    a = prove(s)
    b = prove(s)
    assert isinstance(a, Proved) and a.proof == b.proof
    assert a.explored == b.explored


# -- wide tree antecedents ----------------------------------------------------------
# six parallel atoms have more than 4,096 entropy preimages; search
# reads the goal itself and never builds that closure


def test_wide_parallel_tree_goals_decide():
    atoms = [f"a{i}" for i in range(1, 7)]
    refute = parse_sequent("a, b, c, d, e, f |- g", PCMILL)
    chain = parse_sequent(", ".join(atoms) + " |- " + " @ ".join(reversed(atoms)),
                          PCMILL)
    for goal, want in ((refute, Exhausted), (chain, Proved)):
        start = time.perf_counter()
        r, st_ = prove_with_stats(goal)
        assert time.perf_counter() - start < 1.0, goal
        assert isinstance(r, want) and not st_.truncated
    assert check_proof(prove(chain).proof).ok
    # the same failure in a multiset system
    assert isinstance(prove(parse_sequent("a, b, c, d, e, f |- g", MILL)),
                      Exhausted)


def test_stats_track_exploration():
    r, st_ = prove_with_stats(parse_sequent("p, q |- p * q", MILL))
    assert st_.explored >= 3
    assert st_.peak_depth >= 1
    assert r.explored == st_.explored


# -- one loop over lazy premise streams ----------------------------------------


def test_deep_branch_needs_no_python_frame_per_level():
    # WithR leaves a branch 1,500 goals deep; search keeps it on its own
    # stack, not on Python's
    goal = parse_sequent("p |- " + " & ".join(["p"] * 1500), MILL)
    r = prove(goal)
    assert isinstance(r, Proved)
    assert r.peak_depth == 1499
    assert check_proof(r.proof).ok


@pytest.mark.parametrize("op, n", [("&", 300), ("*", 8), ("-o", 10)])
def test_ax_closes_an_identity_before_any_other_rule(op, n):
    a = f" {op} ".join(f"p{i}" for i in range(n))
    r, st_ = prove_with_stats(parse_sequent(f"{a} |- {a}", MILL))
    assert isinstance(r, Proved) and r.proof.rule == Rule("Ax")
    assert (st_.explored, st_.memo_hits, st_.peak_depth) == (1, 0, 0)


def test_premise_lists_stream_lazily(monkeypatch):
    # the first LimpL list has an empty argument group: it comes before
    # any split of the other formulas is listed
    def no_splits(ctx):
        raise AssertionError("split listed before the first list was used")

    monkeypatch.setattr("proofmill.calculus.split_parallel", no_splits)
    side = ", ".join(f"q{i}" for i in range(30))
    goal = parse_sequent(f"{side}, a -o b |- c", MILL)
    first = next(_Matcher(goal).run(Rule(LIMP_L)))
    assert first[0].key == "|- a"
    assert first[1] == parse_sequent(f"b, {side} |- c", MILL)


# -- property: search soundness ----------------------------------------------------

_ATOMS = st.sampled_from(["p", "q", "r"]).map(atom)
_FORMULAS = st.recursive(
    _ATOMS,
    lambda kids: st.one_of(
        st.builds(tensor, kids, kids),
        st.builds(limp, kids, kids),
    ),
    max_leaves=4,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_FORMULAS, max_size=3), _FORMULAS)
def test_proved_implies_checkable(antecedent, succ):
    s = sequent(mset(antecedent), succ, MILL)
    r = prove(s)
    assert isinstance(r, (Proved, Exhausted))
    if isinstance(r, Proved):
        rep = check_proof(r.proof)
        assert rep.ok, rep.violations
        assert r.proof.conclusion == s
        assert subformula_audit(r.proof)[0]


@settings(max_examples=30, deadline=None)
@given(st.lists(_FORMULAS, max_size=3), _FORMULAS)
def test_search_idempotent_across_runs(antecedent, succ):
    s = sequent(mset(antecedent), succ, MILL)
    a, b = prove(s), prove(s)
    assert type(a) is type(b)
    if isinstance(a, Proved):
        assert a.proof == b.proof


# -- the invariant that bounds every branch ------------------------------------
# Every rule that search tries lists premises of strictly smaller total
# complexity, so no branch is longer than the goal's complexity and
# search needs no depth budget.

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def _assert_premises_shrink(goal):
    size = total_complexity(goal)
    for rule in rule_instances(goal.system, DEFAULT_RULE_ORDER):
        for premises in apply_rule(goal, rule):
            for prem in premises:
                assert total_complexity(prem) < size, (
                    goal.key, str(rule), prem.key)


def test_premises_shrink_on_corpus_goals():
    for entry in load_corpus_dir(CORPUS_DIR):
        _assert_premises_shrink(entry.sequent)


@settings(max_examples=100, deadline=None)
@given(st.lists(_FORMULAS, max_size=3), _FORMULAS)
def test_premises_shrink_on_mill_goals(antecedent, succ):
    _assert_premises_shrink(sequent(mset(antecedent), succ, MILL))


_TREE_FORMULAS = st.recursive(
    st.one_of(_ATOMS, st.just(unit())),
    lambda kids: st.one_of(
        st.builds(box, kids),
        *(st.builds(op, kids, kids)
          for op in (tensor, odot, limp, lres, rres, with_)),
    ),
    max_leaves=3,
)


_TREE_CONTEXTS = st.one_of(
    trees(max_leaves=5), trees(_TREE_FORMULAS.map(leaf), max_leaves=5))


@settings(max_examples=100, deadline=None)
@given(_TREE_CONTEXTS, _TREE_FORMULAS)
def test_premises_shrink_on_pcmill_goals(ctx, succ):
    _assert_premises_shrink(sequent(ctx, succ, PCMILL))


# -- the count invariant -------------------------------------------------------
# In a provable sequent every atom but bot occurs as often positively as
# negatively, once each & is read as one of its conjuncts (a choice for
# every occurrence) and []A and E[a]A as A; search refutes any root or
# premise with no such reading before expanding it.


# the signs each binary connective but & gives its operands' counts
_SIGNS = {Tensor: (1, 1), Odot: (1, 1), Limp: (-1, 1), Lres: (-1, 1), Rres: (1, -1)}


def _vector(counts):
    """A count vector as a set of (atom, nonzero count) pairs."""
    return frozenset((name, n) for name, n in counts.items() if n)


def _sums(xs, ys, signs=(1, 1)):
    """Every signed sum of a vector of ``xs`` and one of ``ys``."""
    out = set()
    for x in xs:
        for y in ys:
            total: Counter = Counter()
            for vec, sign in ((x, signs[0]), (y, signs[1])):
                for name, n in vec:
                    total[name] += sign * n
            out.add(_vector(total))
    return frozenset(out)


@functools.cache
def _counts(f):
    """The signed atom counts that ``f`` can take, one vector per reading
    of its & occurrences: each atom's positive occurrences less its
    negative ones, with ``bot`` counted 0.  ``[]`` and ``E[a]`` pass
    their body's set through, ``&`` takes the union of its conjuncts'
    sets, and the other connectives sum their operands' vectors."""
    if isinstance(f, Atom):
        return frozenset([_vector(Counter() if f is BOT else Counter([f.name]))])
    if isinstance(f, Unit):
        return frozenset([frozenset()])
    if isinstance(f, (Box, Brings)):
        return _counts(f.body)
    left, right = _counts(f.left), _counts(f.right)
    if isinstance(f, With):
        return left | right
    return _sums(left, right, _SIGNS[type(f)])


def _sides(seq):
    """The count vectors of ``seq``'s antecedent, summed over its
    formulas, and of its succedent."""
    ante = frozenset([frozenset()])
    for f in context_formulas(seq.ctx):
        ante = _sums(ante, _counts(f))
    return ante, _counts(seq.succ)


def _assert_counts_balance(seq):
    ante, succ = _sides(seq)
    assert ante & succ, seq.key


def _need_sets(f):
    """The vector sets that an antecedent must each meet for ``f`` to
    follow: both conjuncts' of an ``&`` (WithR), the result's of an
    implication less the argument's vectors (LimpR, LresR, RresR), and
    the vectors of ``f`` itself otherwise."""
    if isinstance(f, With):
        return _need_sets(f.left) | _need_sets(f.right)
    if isinstance(f, (Limp, Lres, Rres)):
        arg, res = (f.right, f.left) if isinstance(f, Rres) else (f.left, f.right)
        return frozenset(_sums(need, _counts(arg), (1, -1)) for need in _need_sets(res))
    return frozenset([_counts(f)])


def _reference_balanced(seq):
    """What ``balanced`` must answer: whether the antecedent's vector
    set meets each of the succedent's need sets, where a set of more
    than ``CHARGE_CAP`` vectors has no charge and meets any."""
    ante = _sides(seq)[0]
    return len(ante) > CHARGE_CAP or all(
        len(need) > CHARGE_CAP or bool(ante & need) for need in _need_sets(seq.succ))


def _assert_proof_balances(goal):
    """Every node of the goal's proof, if it has one, balances, and
    ``balanced`` agrees with the atom counts on the goal."""
    assert balanced(goal) == _reference_balanced(goal), goal.key
    r = prove(goal)
    if isinstance(r, Proved):
        for _, node in proof_nodes(r.proof):
            _assert_counts_balance(node.conclusion)


def test_corpus_proofs_balance_at_every_node():
    for entry in load_corpus_dir(CORPUS_DIR):
        _assert_proof_balances(entry.sequent)


@settings(max_examples=150, deadline=None)
@given(st.lists(_FORMULAS, max_size=3), _FORMULAS)
def test_mill_proofs_balance_at_every_node(antecedent, succ):
    _assert_proof_balances(sequent(mset(antecedent), succ, MILL))


@settings(max_examples=150, deadline=None)
@given(_TREE_CONTEXTS, _TREE_FORMULAS)
def test_pcmill_proofs_balance_at_every_node(ctx, succ):
    _assert_proof_balances(sequent(ctx, succ, PCMILL))


# formulas rich in &, so that about half the drawn sides hold value sets
# (the cap is passed in test_a_root_without_a_charge_is_not_refuted_by_it)
_WITH_FORMULAS = st.recursive(
    st.sampled_from([atom("p"), atom("q"), atom("r"), BOT, unit()]),
    lambda kids: st.one_of(
        st.builds(box, kids),
        *(st.builds(op, kids, kids) for op in (with_, with_, tensor, limp))),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(st.lists(_WITH_FORMULAS, max_size=4), _WITH_FORMULAS)
def test_balanced_is_the_reference_sets_meeting(antecedent, succ):
    goal = sequent(mset(antecedent), succ, MILL)
    assert balanced(goal) == _reference_balanced(goal), goal.key


@pytest.mark.parametrize("i", range(len(_UNIVERSES)),
                         ids=["MILL", "PCMILL"] + _UNIVERSE_IDS[2:])
def test_every_derivable_sequent_of_the_oracle_universes_balances(i):
    # the closure holds every node of every proof of a universe goal
    system = _UNIVERSES[i][0]
    charged = 0
    for ctx, succ in _closure(i).known:
        seq = sequent(ctx, succ, system)
        _assert_counts_balance(seq)
        assert balanced(seq)
        charged += succ.charge is not None and context_charge(ctx) is not None
    assert charged > 100


def test_stored_needs_are_what_needs_computes():
    # an implication stores its charge as its needs, without asking
    # _needs, when its result needs no more than its own charge
    formulas = {g for e in load_corpus_dir(CORPUS_DIR)
                for f in context_formulas(e.sequent.ctx) + [e.sequent.succ]
                for g in subformulas(f)}
    for i in range(len(_UNIVERSES)):
        formulas.update(f for layer in _closure(i).layers for f in layer)
    stored = [f for f in formulas if isinstance(f, (With, Limp, Lres, Rres))]
    for kind in (With, Limp, Lres, Rres):
        assert any(isinstance(f, kind) and f.needs.__class__ is tuple for f in stored), kind
    for f in stored:
        assert f.needs is _needs(f), f.key


_P10 = [f"p{i}" for i in range(10)]


def _identity_ladder(n):
    """``p0 -o p0, ..., p(n-1) -o p(n-1), q |- q``: each LimpL premise
    ``Γ1 ⊢ p_i`` is refuted by charge, on every split of the others."""
    return ", ".join(f"p{i} -o p{i}" for i in range(n)) + ", q |- q"


_BRINGS_CHAIN = ", ".join(f"E[a]p{i}" for i in range(6)) + " |- E[a](" + " * ".join(
    f"p{i}" for i in reversed(range(6)))
# (system, goal, verdict, explored, pruned): the reversed tensor chain,
# its twin with an atom the antecedent lacks, the ten-link -o chain, the
# chain of eight & pairs, the E[a] chain of six atoms and its twin, and
# the -o identity ladder at n=12
_LADDERS = [
    (MILL, ", ".join(_P10) + " |- " + " * ".join(reversed(_P10)), "Proved", 19, 2026),
    (MILL, ", ".join(_P10) + " |- " + " * ".join(reversed(_P10)) + " * q", "Exhausted", 1, 1),
    (MILL, ", ".join(f"p{i} -o p{i + 1}" for i in range(10)) + ", p0 |- p10",
     "Proved", 21, 1023),
    (MILL, ", ".join(_P10[:8]) + " |- " + " * ".join(f"({p} & {p})" for p in reversed(_P10[:8])),
     "Proved", 23, 494),
    (parse_system("RSBIAT:a"), _BRINGS_CHAIN + ")", "Proved", 136, 5327),
    (parse_system("RSBIAT:a"), _BRINGS_CHAIN + " * q)", "Exhausted", 1, 1),
    (MILL, _identity_ladder(12), "Exhausted", 1, 49_152),
]


def _ladder_counts():
    out = []
    for system, text, *_ in _LADDERS:
        r, st_ = prove_with_stats(parse_sequent(text, system))
        out.append((type(r).__name__, st_.explored, st_.pruned))
    return out


def test_ladders_are_pruned():
    assert _ladder_counts() == [tuple(row[2:]) for row in _LADDERS]


def test_refuted_splits_are_never_built():
    # at n=14 LimpL refutes 229,376 splits; building each before
    # refuting it interned 262,126 contexts
    goal = parse_sequent(_identity_ladder(14), MILL)
    tables = (context._LEAVES, context._PARS, context._SERS)
    before = sum(map(len, tables))
    r, st_ = prove_with_stats(goal)
    assert (type(r), st_.explored, st_.pruned) == (Exhausted, 1, 229_376)
    assert sum(map(len, tables)) - before < 100


def test_ladder_counts_do_not_follow_the_hash_seed():
    src = str(Path(__file__).resolve().parent.parent / "src")
    here = str(Path(__file__).resolve().parent)
    want = repr([tuple(row[2:]) for row in _LADDERS])
    for hash_seed in ("1", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([src, here]))
        done = subprocess.run(
            [sys.executable, "-c",
             "from test_search import _ladder_counts; print(_ladder_counts())"],
            env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == want


# the antecedent of the second row takes 32 values, past the cap
_PAST_THE_CAP = "[]((p & q) * (r & s) * (t & u) * (v & w) * (x & y)) |- z"


@pytest.mark.parametrize("system, text, verdict", [
    (MILL, "p & q |- p", Proved),
    pytest.param(MILL, _PAST_THE_CAP, Exhausted, id="past-the-cap"),
    (parse_system("RSBIAT:a"), "E[a]1 |- bot", Proved),
])
def test_a_root_without_a_charge_is_not_refuted_by_it(system, text, verdict):
    # p & q meets p among its values; the others have no charge
    r, st_ = prove_with_stats(parse_sequent(text, system))
    assert isinstance(r, verdict) and st_.pruned == 0


def test_a_root_whose_values_miss_is_refuted():
    # [](p & q) |- r went unrefuted while & took a charge only when its
    # conjuncts' agreed
    for text in ("[](p & q) |- r", "p & q |- p * q", "[](p & q) -o r, r |- r",
                 # WithR needs both conjuncts: refuted at the root, not
                 # one step later at its premise p |- q
                 "p |- p & q"):
        r, st_ = prove_with_stats(parse_sequent(text, MILL))
        assert (type(r), st_.explored, st_.pruned) == (Exhausted, 1, 1), text
    assert context_charge(parse_sequent(_PAST_THE_CAP, MILL).ctx) is None


def test_a_refuted_root_builds_no_engine(monkeypatch):
    def no_engine(system):
        raise AssertionError(f"an engine was built for {system}")

    monkeypatch.setattr(search_module, "_Engine", no_engine)
    for text in ("p & q |- p * q", "p |- p & q"):
        goal = parse_sequent(text, MILL)
        (r, st_), (_, again) = prove_with_stats(goal), prove_with_stats(goal)
        assert isinstance(r, Exhausted), text
        assert (st_.explored, st_.pruned, st_.memo_hits, st_.peak_depth) == (1, 1, 0, 0)
        # each call counts in its own stats
        assert st_ is not again


@pytest.mark.parametrize("system", [MILL, PCMILL, SRS], ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_what_balanced_rejects_unpruned_search_refutes(system, data):
    # past the oracle universes: goals rich in & and -o, searched with
    # no refutation by charge at all
    if system is MILL:
        formulas = _WITH_FORMULAS
        ctx = mset(data.draw(st.lists(formulas, max_size=3)))
    else:
        formulas = _every_formula(system)
        ctx = data.draw(st.one_of(st.just(EMPTY), trees(formulas.map(leaf), max_leaves=4)))
    goal = sequent(ctx, data.draw(formulas), system)
    assume(not balanced(goal))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search_module, "balanced", lambda seq: True)
        mp.setattr(search_module, "_Matcher", lambda goal, refute: _Matcher(goal))
        assert isinstance(prove(goal), Exhausted), goal.key


# -- the principal filter ------------------------------------------------------
# Search tries at a goal only the rules whose principal connective the
# goal holds (``_Engine.rules_for``).  A dropped rule must list nothing
# there, and keeping every rule must change nothing search reports.

def _every_rule(system):
    """The rules of ``system`` in search order, agent rules per agent."""
    return rule_instances(system, DEFAULT_RULE_ORDER)


def _assert_dropped_rules_list_nothing(goals):
    engines, dropped = {}, {}
    for goal in goals:
        engine = engines.get(goal.system)
        if engine is None:
            engine = engines[goal.system] = _Engine(goal.system)
        kept = engine.rules_for(goal)
        if id(kept) not in dropped:
            dropped[id(kept)] = [r for r in _every_rule(goal.system) if r not in kept]
        for rule in dropped[id(kept)]:
            assert apply_rule(goal, rule) == [], (goal.key, str(rule))


def test_dropped_rules_list_nothing_on_corpus_goals():
    _assert_dropped_rules_list_nothing(
        e.sequent for e in load_corpus_dir(CORPUS_DIR))


@pytest.mark.parametrize("i", range(len(_UNIVERSES)), ids=_UNIVERSE_IDS)
def test_dropped_rules_list_nothing_on_oracle_goals(i):
    _assert_dropped_rules_list_nothing(_universe(i))


def _every_formula(system):
    unaries = ([box] if system.has_box else []) + [
        functools.partial(brings, a) for a in system.agents]
    binaries = [tensor, with_, limp] + (
        [odot, lres, rres] if system.is_tree else [])
    return st.recursive(
        st.sampled_from([atom("p"), atom("q"), BOT, unit()]),
        lambda kids: st.one_of(
            *(st.builds(op, kids) for op in unaries),
            *(st.builds(op, kids, kids) for op in binaries)),
        max_leaves=4)


@pytest.mark.parametrize("system", [PCMILL, SRS], ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_dropped_rules_list_nothing_on_drawn_trees(system, data):
    formulas = _every_formula(system)
    ctx = data.draw(st.one_of(st.just(EMPTY), trees(formulas.map(leaf))))
    _assert_dropped_rules_list_nothing([sequent(ctx, data.draw(formulas), system)])


def _search_reports(goals):
    out = []
    for goal in goals:
        r, st_ = prove_with_stats(goal)
        proof = r.proof if isinstance(r, Proved) else None
        out.append((type(r), proof, st_.explored, st_.pruned,
                    st_.memo_hits, st_.peak_depth))
    return out


def test_keeping_every_rule_changes_nothing(monkeypatch):
    rng = random.Random(17)
    goals = [e.sequent for e in load_corpus_dir(CORPUS_DIR)]
    # the MILL, PCMILL, RSBIAT:a and SRSBIAT:a universes
    for i in range(4):
        goals += rng.sample(_universe(i), 1500)
    filtered = _search_reports(goals)
    # no rule has a principal side, so every rule is kept
    monkeypatch.setattr(search_module, "_TABLES", {})
    monkeypatch.setattr(search_module, "RULES", {
        name: row._replace(side=None) for name, row in search_module.RULES.items()})
    assert _Engine(RS).rules_for(parse_sequent("p |- p", RS)) == _every_rule(RS)
    everything = _search_reports(goals)
    for goal, a, b in zip(goals, filtered, everything):
        assert a == b, goal.key


def test_refuting_by_charge_changes_no_proof(monkeypatch):
    rng = random.Random(19)
    goals = [e.sequent for e in load_corpus_dir(CORPUS_DIR)]
    # the MILL, RSBIAT:a and SRSBIAT:a universes
    for i in (0, 2, 3):
        goals += rng.sample(_universe(i), 1500)
    # the verdict and proof tree; explored and pruned may differ
    pruned = [r[:2] for r in _search_reports(goals)]
    monkeypatch.setattr(search_module, "balanced", lambda seq: True)
    # and list every split, as apply_rule does: none is refuted unbuilt
    monkeypatch.setattr(search_module, "_Matcher", lambda goal, refute: _Matcher(goal))
    unpruned = [r[:2] for r in _search_reports(goals)]
    for goal, a, b in zip(goals, pruned, unpruned):
        assert a == b, goal.key


def _digest(items):
    digest = hashlib.sha256()
    for item in items:
        digest.update(json.dumps(item, sort_keys=True).encode())
    return digest.hexdigest()


def test_first_proofs_and_counts_are_pinned():
    # the tests above compare search with itself, so none sees a change
    # in which proof a rule's premise order makes search find first, or
    # in its counts: these digests over the corpus and 5,000 seeded goals
    # of each system's universe do
    rng = random.Random(23)
    goals = [e.sequent for e in load_corpus_dir(CORPUS_DIR)]
    # the MILL, PCMILL, RSBIAT:a and SRSBIAT:a universes
    for i in range(4):
        goals += rng.sample(_universe(i), 5000)
    reports = _search_reports(goals)
    # the verdicts and proofs, which a sharper refutation leaves as they are
    assert _digest(proof_to_json(proof) if proof is not None else verdict.__name__
                   for verdict, proof, *_ in reports) == \
        "6c647c975f14e5c9686eee0c705ff65d5b86d814cb321caed298cebf3c8443da"
    # explored, pruned, memo hits and peak depth
    assert _digest(r[2:] for r in reports) == \
        "54cb43a5d55735134b08b307f2364399040a92ea3e546baf4160b308ddd17037"


# -- one listing per premise list --------------------------------------------
# Only OneL and the residual left rules pass _Matcher's duplicate filter;
# every other rule must list each premise list once by construction.


@pytest.mark.parametrize("i", range(len(_UNIVERSES)), ids=_UNIVERSE_IDS)
def test_apply_rule_lists_each_premise_list_once_on_oracle_goals(i):
    for goal in random.Random(i).sample(_universe(i), min(4000, len(_universe(i)))):
        for rule in _every_rule(goal.system):
            keys = [tuple(s.key for s in p) for p in apply_rule(goal, rule)]
            assert len(set(keys)) == len(keys), (goal.key, str(rule))


# -- refuted splits ------------------------------------------------------------
# Search's matcher lists a premise list whose first premise cannot
# balance as None, unbuilt.  Elsewhere it must list what apply_rule
# lists, the full reference, in the same order.

_SPLIT_RULES = (TENSOR_R, BRINGS_TENSOR, LIMP_L, ODOT_R, BRINGS_ODOT)


def _assert_refuted_lists_are_the_unbalanced(goals):
    for goal in goals:
        for rule in _every_rule(goal.system):
            if rule.name not in _SPLIT_RULES:
                continue
            every = apply_rule(goal, rule)
            listed = list(_Matcher(goal, refute=True).run(rule))
            assert listed == [p if balanced(p[0]) else None for p in every], \
                (goal.key, str(rule))


def test_refuted_lists_are_the_unbalanced_on_corpus_goals():
    _assert_refuted_lists_are_the_unbalanced(
        e.sequent for e in load_corpus_dir(CORPUS_DIR))


@pytest.mark.parametrize("i", range(len(_UNIVERSES)), ids=_UNIVERSE_IDS)
def test_refuted_lists_are_the_unbalanced_on_oracle_goals(i):
    _assert_refuted_lists_are_the_unbalanced(random.Random(i).sample(_universe(i), 400))


@pytest.mark.parametrize("system", [PCMILL, SRS], ids=str)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_refuted_lists_are_the_unbalanced_on_drawn_trees(system, data):
    formulas = _every_formula(system)
    ctx = data.draw(trees(formulas.map(leaf), max_leaves=6))
    _assert_refuted_lists_are_the_unbalanced([sequent(ctx, data.draw(formulas), system)])


def test_a_split_missing_one_need_is_refuted_unbuilt():
    # each TensorR split's first premise, Γ1 |- p & q, needs p and q
    # both: no left part of p, q, r meets them, so none is built
    goal = parse_sequent("p, q, r |- (p & q) * r", MILL)
    tables = (context._LEAVES, context._PARS, context._SERS)
    before = sum(map(len, tables))
    assert list(_Matcher(goal, refute=True).run(Rule(TENSOR_R))) == [None] * 8
    assert sum(map(len, tables)) == before
    # and where they are met or a left part holds a value set, the
    # unbuilt and the built lists are the unbalanced ones
    _assert_refuted_lists_are_the_unbalanced(parse_sequent(text, system) for system, text in [
        (MILL, "p, r, s |- (((p & q) * r) & (p * r)) * s"),
        (MILL, "p & q, r, (p & r) -o s |- s * ((p & q) * r)"),
        (MILL, "(p * q) & (q * p), q * p, (r & p) -o q |- (((p * q) & (q * p)) * q) * q"),
        (PCMILL, "p ; [q, (p & q) -o r] |- (p & (q @ p)) @ r"),
    ])


# -- the subformula audit ------------------------------------------------------


def test_subformula_audit_visits_a_shared_node_once(monkeypatch):
    # X0 = p -o p, X(k+1) = X(k) & X(k): the proof of |- X16 is a tree
    # of 196,607 nodes over 18 distinct node objects
    x = limp(atom("p"), atom("p"))
    for _ in range(16):
        x = with_(x, x)
    r = prove(sequent(EMPTY, x, MILL))
    assert isinstance(r, Proved) and proof_size(r.proof) == 196_607
    visits = []

    def counted(ctx):
        visits.append(ctx)
        return context_formulas(ctx)

    monkeypatch.setattr(search_module, "context_formulas", counted)
    assert subformula_audit(r.proof) == (True, [])
    # the end sequent's antecedent, then one node each
    assert len(visits) == 1 + 18


def test_subformula_audit_reports_a_shared_offender_once():
    bad = Proof(parse_sequent("q |- q", MILL), Rule("Ax"))
    root = Proof(parse_sequent("p |- p", MILL), Rule("Cut"), (bad, bad))
    assert subformula_audit(root) == (False, [((0,), atom("q"))])
