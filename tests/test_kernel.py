"""The proof kernel: entropy as a membership test, agreement with a
reference checker built on the search's premise enumerator read
through the whole entropy closure, and the kernel's import boundary."""
from __future__ import annotations

import ast
import hashlib
import pickle
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proofmill.calculus import (
    AGENT_RULES,
    AX,
    CUT,
    SYSTEM_RULES,
    Proof,
    Rule,
    check_proof,
    fold_tree,
    proof_nodes,
    rule_admissible,
    rule_instances,
)
from proofmill.context import (
    EMPTY,
    Leaf,
    Sequent,
    Ser,
    context_formulas,
    entropy_le,
    fill,
    leaf,
    mset,
    par,
    parse_sequent,
    positions,
    print_sequent,
    ser,
    structural_preimages,
    validate_sequent,
)
from proofmill.corpus import load_corpus_dir
from proofmill.cutelim import eliminate_cuts
from proofmill.kernel import RULES, SUCC
from proofmill.search import Proved, prove
from proofmill.syntax import (
    SystemId,
    atom,
    box,
    brings,
    language_error,
    lres,
    odot,
    parse_formula,
    parse_system,
    tensor,
    with_,
)

from closure import below, closure_premises, leaf_bag, normal_trees
from gentrees import trees

ROOT = Path(__file__).resolve().parent.parent
p, q = atom("p"), atom("q")


# -- entropy as a membership test -----------------------------------------------


def test_entropy_le_matches_preimages_exhaustively():
    pairs = 0
    for group in normal_trees([p, q], 4):
        for c in group:
            pres = set(structural_preimages(c, 10**6)[0])
            for x in group:
                assert entropy_le(x, c) == (x in pres), (x, c)
                pairs += 1
    assert pairs == 8059


@settings(max_examples=60, deadline=None)
@given(trees(), trees())
def test_entropy_le_matches_preimages_on_random_trees(c, other):
    pres, overflow = structural_preimages(c, 10**6)
    assert not overflow
    for x in pres:
        assert entropy_le(x, c)
    if leaf_bag(other) == leaf_bag(c):
        assert entropy_le(other, c) == (other in set(pres))
    else:
        assert not entropy_le(other, c)


def test_entropy_le_basics():
    pq = par([leaf(p), leaf(q)])
    assert entropy_le(ser([leaf(q), leaf(p)]), pq)
    assert not entropy_le(pq, ser([leaf(p), leaf(q)]))
    assert entropy_le(EMPTY, EMPTY) and not entropy_le(EMPTY, leaf(p))
    assert entropy_le(mset([p, q]), mset([q, p]))
    assert not entropy_le(mset([p, q]), ser([leaf(p), leaf(q)]))
    # a parallel child is never broken apart: p ; r ; q keeps p ; q whole
    # only when r is outside it
    r = atom("r")
    c = par([ser([leaf(p), leaf(q)]), leaf(r)])
    assert entropy_le(ser([leaf(r), leaf(p), leaf(q)]), c)
    assert not entropy_le(ser([leaf(p), leaf(r), leaf(q)]), c)
    # same leaves, and the one precedence of c (a before b) holds in x,
    # yet x is not below c: entropy keeps each parallel child of c (here
    # a ; b) a block of x, and in x q precedes b but not a
    a, b = atom("a"), atom("b")
    c = par([ser([leaf(a), leaf(b)]), leaf(q)])
    x = ser([par([leaf(a), leaf(q)]), leaf(b)])
    assert not entropy_le(x, c)
    assert x not in structural_preimages(c, 10**6)[0]


# -- a reference checker built on the search's premise enumerator ---------------


def _reference_cut(node: Proof) -> bool:
    if len(node.premises) != 2:
        return False
    consumer, producer = (n.conclusion for n in node.premises)
    concl, a = node.conclusion, producer.succ
    if consumer.succ != concl.succ:
        return False
    if not concl.system.is_tree:
        # a multiset comparison of its own, not the kernel's
        rest = Counter(context_formulas(consumer.ctx))
        if not rest[a]:
            return False
        rest[a] -= 1
        return rest + Counter(context_formulas(producer.ctx)) == Counter(
            context_formulas(concl.ctx)
        )
    # the filled antecedent, or one that entropy reaches the conclusion
    # from, read off the whole closure rather than ``entropy_le``
    return any(
        isinstance(n, Leaf)
        and n.formula == a
        and below(fill(consumer.ctx, path, producer.ctx), concl.ctx)
        for path, n in positions(consumer.ctx)
    )


def _reference_node(node: Proof) -> bool:
    rule, concl = node.rule, node.conclusion
    if rule.name == CUT:
        return _reference_cut(node)
    want = [n.conclusion.key for n in node.premises]
    return want in ([s.key for s in prems] for prems in closure_premises(concl, rule))


def reference_violations(proof: Proof) -> list[tuple[int, ...]]:
    """Paths of the nodes that the premise-enumeration algorithm rejects:
    each node is accepted when ``apply_rule`` lists its premises at some
    structural preimage of its conclusion."""
    bad = []
    system = proof.conclusion.system
    for path, node in proof_nodes(proof):
        if node.conclusion.system != system:
            bad.append(path)
            continue
        try:
            validate_sequent(node.conclusion)
        except ValueError:
            bad.append(path)
            continue
        if not rule_admissible(node.rule, system) or not _reference_node(node):
            bad.append(path)
    return bad


def kernel_violations(proof: Proof) -> list[tuple[int, ...]]:
    return [path for path, _ in check_proof(proof).violations]


def node_verdicts(node: Proof) -> tuple[bool, bool]:
    """(reference, kernel) verdict on one inference; premises become
    leaves so only the node itself is judged."""
    shallow = Proof(
        node.conclusion,
        node.rule,
        tuple(Proof(n.conclusion, Rule(AX)) for n in node.premises),
    )
    return () not in reference_violations(shallow), () not in kernel_violations(shallow)


def _corpus_proofs() -> list[tuple[str, Proof]]:
    out = []
    for entry in load_corpus_dir(ROOT / "corpus"):
        result = prove(entry.sequent)
        if isinstance(result, Proved):
            out.append((entry.entry_id, result.proof))
    return out


@pytest.fixture(scope="module")
def corpus_proofs():
    proofs = _corpus_proofs()
    assert len(proofs) >= 20
    return proofs


def test_kernel_agrees_with_reference_on_corpus_proofs(corpus_proofs):
    for entry_id, proof in corpus_proofs:
        assert reference_violations(proof) == [], entry_id
        assert kernel_violations(proof) == [], entry_id


def _other_rules(node: Proof):
    for rule in rule_instances(node.conclusion.system):
        if rule != node.rule:
            yield rule


def _mutants(node: Proof, sequents: list[Sequent]):
    prems = node.premises
    if len(prems) >= 2:
        yield Proof(node.conclusion, node.rule, prems[::-1])
    for i, prem in enumerate(prems):
        for s in sequents:
            if s != prem.conclusion:
                moved = Proof(s, prem.rule, prem.premises)
                yield Proof(node.conclusion, node.rule, prems[:i] + (moved,) + prems[i + 1 :])
    for rule in _other_rules(node):
        yield Proof(node.conclusion, rule, prems)


def test_kernel_agrees_with_reference_on_mutants(corpus_proofs):
    judged = rejected = 0
    for entry_id, proof in corpus_proofs:
        nodes = [n for _, n in proof_nodes(proof)]
        sequents = list(dict.fromkeys(n.conclusion for n in nodes))
        for node in nodes:
            for mutant in _mutants(node, sequents):
                ref, kernel = node_verdicts(mutant)
                assert ref == kernel, (entry_id, mutant.rule, mutant.conclusion,
                                       [n.conclusion for n in mutant.premises])
                judged += 1
                rejected += not ref
    assert judged > 1000 and rejected > judged // 2


def test_kernel_rejects_mutated_proofs_where_reference_does(corpus_proofs):
    # whole proofs, one node mutated: the same nodes are flagged
    for entry_id, proof in corpus_proofs[:8]:
        nodes = list(proof_nodes(proof))
        sequents = list(dict.fromkeys(n.conclusion for _, n in nodes))
        for path, node in nodes:
            for mutant in list(_mutants(node, sequents))[:6]:
                whole = _splice(proof, path, mutant)
                assert kernel_violations(whole) == reference_violations(whole), entry_id


def _splice(proof: Proof, path, new: Proof) -> Proof:
    if not path:
        return new
    prems = list(proof.premises)
    prems[path[0]] = _splice(prems[path[0]], path[1:], new)
    return Proof(proof.conclusion, proof.rule, tuple(prems))


# -- rule by rule on small antecedents -------------------------------------------


@pytest.mark.parametrize(
    "name, alphabet, succs, leaves",
    [
        ("OneL", ["1", "p", "q"], ["p", "p @ q"], 3),
        # deleting a unit can merge blocks, which shows from 4 leaves on
        ("OneL", ["1", "p"], ["p"], 4),
        ("TensorL", ["p * q", "p", "q"], ["p", "q * p"], 3),
        ("OdotL", ["p @ q", "p", "q"], ["p", "q @ p"], 3),
        ("LimpL", ["p -o q", "p", "q"], ["q", "q * p"], 3),
        ("LresL", ["p \\ q", "p", "q"], ["q", "q @ p"], 3),
        ("RresL", ["q / p", "p", "q"], ["q", "p @ q"], 3),
        ("TensorR", ["p", "q"], ["p * q"], 3),
        ("OdotR", ["p", "q"], ["p @ q"], 3),
        ("LimpR", ["p", "q"], ["p -o q"], 3),
        ("LresR", ["p", "q"], ["p \\ q", "q \\ p"], 3),
        ("RresR", ["p", "q"], ["p / q", "q / p"], 3),
        ("WithR", ["p", "q"], ["p & q"], 3),
        ("WithL1", ["p & q", "p", "q"], ["p"], 3),
        # both parts of the principal are one leaf, as is the rest
        ("TensorL", ["p * p", "p"], ["p", "p * p"], 3),
        ("OdotL", ["p @ p", "p"], ["p", "p @ p"], 3),
        # the argument leaf among 4, each implication right rule
        ("LimpR", ["p", "q"], ["p -o q"], 4),
        ("LresR", ["p", "q"], ["p \\ q"], 4),
        ("RresR", ["p", "q"], ["q / p"], 4),
    ],
)
def test_tree_rules_accept_exactly_what_the_enumerator_lists(name, alphabet, succs, leaves):
    # for each small conclusion, the premises the enumerator lists for
    # any conclusion with the same leaves are accepted exactly when they
    # are listed for one of its structural preimages
    system = parse_system("PCMILL")
    rule = Rule(name)
    for succ in map(parse_formula, succs):
        listed = {}
        for group in normal_trees([parse_formula(a) for a in alphabet], leaves):
            for c in group:
                listed[c] = closure_premises(Sequent(c, succ, system), Rule(name))
            for c in group:
                want = {tuple(s.key for s in prems) for prems in listed[c]}
                for other in group:
                    for prems in listed[other]:
                        node = Proof(Sequent(c, succ, system), rule,
                                     tuple(Proof(s, Rule(AX)) for s in prems))
                        got = () not in kernel_violations(node)
                        assert got == (tuple(s.key for s in prems) in want), (
                            node.conclusion, [s.key for s in prems])


# -- each distinct node once -------------------------------------------------------

MILL = parse_system("MILL")


def _node(text: str, rule: str, *premises: Proof) -> Proof:
    return Proof(parse_sequent(text, MILL), Rule(rule), premises)


def count_checks(monkeypatch) -> list:
    """Wrap the check in each row of ``kernel.RULES`` to record its
    calls: one for each node of a well-formed proof that a check visits."""
    import proofmill.kernel as kernel

    calls: list = []

    def counted(check):
        def run(*args):
            calls.append(args[1])
            return check(*args)
        return run

    monkeypatch.setattr(kernel, "RULES", {
        name: row._replace(check=counted(row.check)) for name, row in kernel.RULES.items()})
    return calls


def test_shared_nodes_are_checked_once(monkeypatch):
    # |- X16, X0 = p -o p and X(k+1) = X(k) & X(k): search proves each
    # |- Xk once and shares it, so 196,607 tree nodes are 18 objects
    x = parse_formula("p -o p")
    for _ in range(16):
        x = with_(x, x)
    result = prove(Sequent(EMPTY, x, MILL))
    assert isinstance(result, Proved)
    assert sum(1 for _ in proof_nodes(result.proof)) == 196_607
    calls = count_checks(monkeypatch)
    assert check_proof(result.proof).ok
    assert 0 < len(calls) <= 18


def test_shared_bad_node_is_reported_once():
    bad = _node("p |- q", AX)
    shared = _node("p |- q & q", "WithR", bad, bad)
    assert [path for path, _ in check_proof(shared).violations] == [(0,)]
    # equal but distinct nodes are each reported
    twins = _node("p |- q & q", "WithR", bad, _node("p |- q", AX))
    assert [path for path, _ in check_proof(twins).violations] == [(0,), (1,)]


# -- a node accepted by one check, met again by another ----------------------------


def _fresh(p: Proof) -> Proof:
    """An equal tree of new node objects, none of them checked yet."""
    return fold_tree(p, lambda n: n.premises,
                     lambda n, kids: Proof(n.conclusion, n.rule, tuple(kids)))


def _tensor_pq() -> Proof:
    return _node("p, q |- p * q", "TensorR", _node("p |- p", AX), _node("q |- q", AX))


def test_a_subproof_accepted_in_one_system_is_mixed_in_another():
    # E[a]p, E[a]q |- E[a](p * q) accepted in RSBIAT:a, then the first
    # premise of an RSBIAT:a,b root: each of its nodes is reported as
    # on a first check, as a node of another system
    rs_a, rs_ab = parse_system("RSBIAT:a"), parse_system("RSBIAT:a,b")
    sub = prove(parse_sequent("E[a]p, E[a]q |- E[a](p * q)", rs_a)).proof
    assert check_proof(sub).ok
    text = "E[a]p, E[a]q |- E[a](p * q) & E[a](p * q)"
    other = prove(parse_sequent("E[a]p, E[a]q |- E[a](p * q)", rs_ab)).proof
    root = Proof(parse_sequent(text, rs_ab), Rule("WithR"), (sub, other))
    report = check_proof(root)
    assert report == check_proof(_fresh(root))
    mixed = [path for path, why in report.violations if why == "mixed systems in one proof"]
    assert mixed == [(0,) + path for path, _ in proof_nodes(sub)]


def test_a_failing_check_marks_nothing(monkeypatch):
    # a proof with one bad node gives one report however often it is
    # checked, and its good subproof, checked afterwards, is judged at
    # every node
    calls = count_checks(monkeypatch)
    good = _tensor_pq()
    bad = _node("p, q |- (p * q) & q", "WithR", good, _node("p, q |- q", AX))
    first = check_proof(bad)
    assert first.violations == (((1,), "premises do not instantiate Ax"),)
    assert check_proof(bad) == first
    calls.clear()
    assert check_proof(good).ok
    assert len(calls) == 3


def test_a_new_rule_table_judges_every_node_again(monkeypatch):
    good = _tensor_pq()
    assert check_proof(good).ok
    calls = count_checks(monkeypatch)
    assert check_proof(good).ok
    assert len(calls) == 3


def test_a_normal_form_is_rechecked_by_lookup(monkeypatch):
    # eliminate_cuts checks the normal form it returns, so a caller's
    # check of it judges no node
    calls = count_checks(monkeypatch)
    consumer = _node("p * q |- p * q", "TensorL", _tensor_pq())
    cut = _node("p, q |- p * q", CUT, consumer, _tensor_pq())
    final, trace = eliminate_cuts(cut)
    assert len(trace) > 0 and calls
    calls.clear()
    assert check_proof(final).ok and calls == []


def test_a_pickled_proof_leaves_its_mark_behind(monkeypatch):
    # the mark names this process's RULES table, so a check adds nothing
    # to the pickle and a loaded copy is judged at every node
    proof = _tensor_pq()
    before = pickle.dumps(proof)
    assert check_proof(proof).ok
    assert pickle.dumps(proof) == before
    copy = pickle.loads(before)
    assert all(node._accepted is None for _, node in proof_nodes(copy))
    calls = count_checks(monkeypatch)
    assert check_proof(copy).ok
    assert len(calls) == 3


def test_a_proof_node_has_no_dict():
    proof = _tensor_pq()
    assert not hasattr(proof, "__dict__")
    assert "_accepted" not in repr(proof)


@pytest.mark.parametrize("system, text", [
    ("MILL", "pk0, pk1 |- pk0 * pk1"),
    # a serial antecedent under a parallel one
    ("PCMILL", "pk2, [pk3 ; [pk4, pk5]] |- pk2 * (pk3 @ (pk4 * pk5))"),
])
def test_a_pickled_proof_loads_the_interned_objects(system, text):
    # formulas, contexts and sequents load through their builders, so a
    # copy holds the objects the kernel compares by identity and checks;
    # the caches that a check, a print and a listing fill are not pickled
    proof = prove(parse_sequent(text, parse_system(system))).proof
    before = pickle.dumps(proof)
    copy = pickle.loads(before)
    assert check_proof(copy).ok and copy == proof
    for (_, a), (_, b) in zip(proof_nodes(proof), proof_nodes(copy)):
        assert b.conclusion.ctx is a.conclusion.ctx and b.conclusion.succ is a.conclusion.succ
        assert b.rule == a.rule
    assert any(isinstance(n, Ser) for _, node in proof_nodes(copy)
               for _, n in positions(node.conclusion.ctx)) == (system == "PCMILL")
    assert check_proof(proof).ok
    for _, node in proof_nodes(proof):
        print_sequent(node.conclusion)
        context_formulas(node.conclusion.ctx)
    assert pickle.dumps(proof) == before


def test_reports_on_mutants_are_pinned(corpus_proofs):
    # each one-node mutant of the corpus proofs, checked on its own twice
    # and then spliced into its whole proof, which the kernel accepted
    # first: a check that meets nodes a former check judged gives the
    # report of a first check
    digest = hashlib.sha256()
    checks = 0
    for _, proof in corpus_proofs:
        assert check_proof(proof).ok
        nodes = list(proof_nodes(proof))
        sequents = list(dict.fromkeys(n.conclusion for _, n in nodes))
        for path, node in nodes:
            for mutant in _mutants(node, sequents):
                for checked in (mutant, mutant, _splice(proof, path, mutant)):
                    report = check_proof(checked)
                    digest.update(repr((report.ok, report.violations)).encode())
                    checks += 1
    assert (checks, digest.hexdigest()) == (
        13_791, "3d668634efd9eb33b39e970c250c5ed9f2e78a9949332a11104a4fae7ef8915c")


def test_ill_formed_sequents_are_reported_at_each_node():
    # built with Sequent directly, so no parser keeps them out
    pq = odot(p, q)
    bad = Proof(Sequent(leaf(pq), pq, MILL), Rule(AX))
    message = "ill-formed sequent: @ not available in MILL: (p @ q)"
    assert check_proof(bad).violations == (((), message),)
    rs = parse_system("RSBIAT:a")
    bq = brings("b", p)
    foreign = Proof(Sequent(leaf(bq), bq, rs), Rule(AX))
    assert check_proof(foreign).violations == (
        ((), "ill-formed sequent: agent 'b' not in alphabet ['a']: E[b](p)"),
    )
    pair = Proof(Sequent(par([leaf(pq), leaf(q)]), tensor(pq, q), MILL),
                 Rule("TensorR"), (bad, Proof(Sequent(leaf(q), q, MILL), Rule(AX))))
    assert check_proof(pair).violations == (((), message), ((0,), message))


def test_tensor_l_takes_both_parts_of_a_repeated_pair():
    # MILL TensorL over p, p and p * p, whose two parts are one leaf: the
    # premise holds p twice more and p * p once less than the conclusion
    pp = tensor(p, p)
    bags = [mset([pp] * i + [p] * j) for i in range(3) for j in range(5) if 0 < i + j <= 4]
    verdicts = Counter()
    for c in bags:
        for y in bags:
            premise = Proof(Sequent(y, pp, MILL), Rule(AX))
            node = Proof(Sequent(c, pp, MILL), Rule("TensorL"), (premise,))
            ref, kernel = node_verdicts(node)
            assert ref == kernel, (c, y)
            verdicts[ref] += 1
    assert verdicts[True] == 5 and verdicts[False] > 100


# formulas inside some of the systems below and outside others: @ and \
# lie outside the multiset systems, [] outside the agent systems, E[a]
# outside the box systems, and E[b] outside every alphabet
_LANGUAGES = [parse_system(s) for s in ("MILL", "PCMILL", "RSBIAT:a", "SRSBIAT:a")]
_MIXED = (p, q, odot(p, q), box(p), brings("a", p), brings("b", q), lres(p, q),
          tensor(p, box(q)), with_(brings("b", p), q))


def _ill_formed(s: Sequent) -> str | None:
    """What the kernel reports at a node concluding ``s`` when a formula
    of ``s`` lies outside its system's language."""
    err = language_error((*context_formulas(s.ctx), s.succ), s.system)
    return None if err is None else f"ill-formed sequent: {err}"


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(_LANGUAGES),
    st.lists(trees(st.sampled_from(_MIXED).map(leaf), max_leaves=4), min_size=1, max_size=3),
    st.lists(st.sampled_from(_MIXED), min_size=1, max_size=3),
)
def test_language_test_reports_what_language_error_words(system, ctxs, succs):
    # every antecedent against every succedent, built with Sequent so
    # that no parser keeps a foreign formula out, in two proofs whose
    # nodes share each antecedent: a check keeps the antecedents it has
    # found inside the language, and each later node is still judged as
    # on its own
    sequents = [Sequent(c, g, system) for c in ctxs for g in succs]
    # every sequent concludes a premise of the root
    root = Proof(sequents[0], Rule(AX), tuple(Proof(s, Rule(AX)) for s in sequents))
    # each sequent concludes the premise of the one before, last first
    chain = None
    for s in sequents:
        chain = Proof(s, Rule(AX), (chain,) if chain else ())
    for proof in (root, chain):
        got = [v for v in check_proof(proof).violations if v[1].startswith("ill-formed")]
        assert got == [(path, _ill_formed(n.conclusion)) for path, n in proof_nodes(proof)
                       if _ill_formed(n.conclusion)]


def test_an_antecedent_inside_the_language_lets_no_foreign_succedent_through():
    # the root's antecedent is inside the language, and each premise
    # shares it under a foreign succedent
    rs = parse_system("RSBIAT:a")
    ea = brings("a", p)
    foreign = [(brings("b", p), "agent 'b' not in alphabet ['a']: E[b](p)"),
               (odot(p, p), "@ not available in RSBIAT:a: (p @ p)"),
               (tensor(p, box(q)), "[] not available in RSBIAT:a: [](q)")]
    prems = tuple(Proof(Sequent(leaf(ea), succ, rs), Rule(AX)) for succ, _ in foreign)
    root = Proof(Sequent(leaf(ea), ea, rs), Rule(AX), prems)
    assert check_proof(root).violations == (((), "premises do not instantiate Ax"), *(
        ((i,), f"ill-formed sequent: {err}") for i, (_, err) in enumerate(foreign)))


# -- the rule table ---------------------------------------------------------------
# Each system's rules, the agent rules and the right rules are read off
# ``RULES``; these are the sets as they were listed by hand before.

_LISTED_SYSTEM_RULES = {
    SystemId.MILL: (
        "Ax", "Cut", "TensorL", "TensorR", "LimpL", "LimpR", "WithL1", "WithL2",
        "WithR", "OneL", "OneR", "BoxRe"),
    SystemId.PCMILL: (
        "Ax", "Cut", "TensorL", "TensorR", "LimpL", "LimpR", "WithL1", "WithL2",
        "WithR", "OneL", "OneR", "BoxRe", "OdotL", "OdotR", "LresL", "LresR",
        "RresL", "RresR"),
    SystemId.RSBIAT: (
        "Ax", "Cut", "TensorL", "TensorR", "LimpL", "LimpR", "WithL1", "WithL2",
        "WithR", "OneL", "OneR", "BringsRe", "BringsRefl", "BringsTensor",
        "BringsWith", "NotNec"),
    SystemId.SRSBIAT: (
        "Ax", "Cut", "TensorL", "TensorR", "LimpL", "LimpR", "WithL1", "WithL2",
        "WithR", "OneL", "OneR", "BringsRe", "BringsRefl", "BringsTensor",
        "BringsWith", "NotNec", "OdotL", "OdotR", "LresL", "LresR", "RresL",
        "RresR", "BringsOdot"),
}
_LISTED_AGENT_RULES = {
    "BringsRe", "BringsRefl", "BringsTensor", "BringsWith", "BringsOdot", "NotNec"}
_LISTED_RIGHT_RULES = {
    "TensorR", "OdotR", "LimpR", "LresR", "RresR", "WithR", "OneR", "BoxRe",
    "BringsRe", "BringsTensor", "BringsWith", "BringsOdot"}


def test_rule_table_gives_the_listed_rule_sets():
    assert SYSTEM_RULES == _LISTED_SYSTEM_RULES
    assert AGENT_RULES == _LISTED_AGENT_RULES
    assert {name for name, row in RULES.items() if row.side == SUCC} == \
        _LISTED_RIGHT_RULES
    for text in ("MILL", "PCMILL", "RSBIAT:a,b", "SRSBIAT:a,b"):
        system = parse_system(text)
        listed = _LISTED_SYSTEM_RULES[system.ident]
        for name in (*RULES, "Ent"):
            for agent in ("a", "z") if name in _LISTED_AGENT_RULES else (None,):
                want = name in listed and agent in (None, *system.agents)
                assert rule_admissible(Rule(name, agent), system) == want, (
                    text, name, agent)
    rs = parse_system("RSBIAT:a,b")
    assert [str(r) for r in rule_instances(rs, ("OdotR", "BringsRe", "Ax"))] == \
        ["BringsRe[a]", "BringsRe[b]", "Ax"]
    assert rule_instances(parse_system("MILL")) == tuple(
        Rule(name) for name in _LISTED_SYSTEM_RULES[SystemId.MILL])


# -- import boundary -------------------------------------------------------------


def test_kernel_imports_only_syntax_and_context():
    source = (ROOT / "src" / "proofmill" / "kernel.py").read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.module in ("syntax", "context"), node.module
            else:
                assert node.module.split(".")[0] != "proofmill", node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] != "proofmill", alias.name
