"""Backward rule application and the proof checker."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from proofmill.calculus import (
    SYSTEM_RULES,
    CheckReport,
    Proof,
    Rule,
    apply_rule,
    check_proof,
    cut_count,
    cut_formula,
    cutrank,
    proof_from_json,
    proof_nodes,
    proof_size,
    proof_to_json,
    rule_admissible,
    rule_instances,
    _DISPATCH,
)
from proofmill.context import Sequent, parse_sequent, total_complexity
from proofmill.kernel import LEAF, RULES, SUCC
from proofmill.search import DEFAULT_RULE_ORDER
from proofmill.syntax import Formula, parse_formula, parse_system

from closure import closure_premises, dominated, normal_trees

MILL = parse_system("MILL")
PCMILL = parse_system("PCMILL")
RS = parse_system("RSBIAT:i,s")
SRS = parse_system("SRSBIAT:i,s")


def keys(premise_lists):
    return [[s.key for s in prem] for prem in premise_lists]


def ax(seq):
    return Proof(seq, Rule("Ax"))


# -- premise enumeration --------------------------------------------------------


def test_ax_matches_singleton_only():
    assert keys(apply_rule(parse_sequent("p |- p", MILL), Rule("Ax"))) == [[]]
    assert apply_rule(parse_sequent("p, q |- p", MILL), Rule("Ax")) == []
    assert apply_rule(parse_sequent("p |- q", MILL), Rule("Ax")) == []


def test_one_r_needs_empty_antecedent():
    assert keys(apply_rule(parse_sequent("|- 1", MILL), Rule("OneR"))) == [[]]
    assert apply_rule(parse_sequent("p |- 1", MILL), Rule("OneR")) == []
    assert apply_rule(parse_sequent("p |- q", MILL), Rule("OneR")) == []


def test_limp_l_enumerates_argument_splits():
    g = parse_sequent("S, F, S * F -o T |- T", MILL)
    got = keys(apply_rule(g, Rule("LimpL")))
    assert ["F, S |- (S * F)", "T |- T"] in got
    assert ["|- (S * F)", "F, S, T |- T"] in got
    assert len(got) == 4


def test_tensor_r_splits():
    g = parse_sequent("p, q |- p * q", MILL)
    got = keys(apply_rule(g, Rule("TensorR")))
    assert ["p |- p", "q |- q"] in got
    assert ["|- p", "p, q |- q"] in got
    assert len(got) == 4


def test_with_r_copies_context():
    g = parse_sequent("p, q |- p & q", MILL)
    assert keys(apply_rule(g, Rule("WithR"))) == [["p, q |- p", "p, q |- q"]]


def test_with_l_sides():
    g = parse_sequent("p & q |- q", MILL)
    assert keys(apply_rule(g, Rule("WithL1"))) == [["p |- q"]]
    assert keys(apply_rule(g, Rule("WithL2"))) == [["q |- q"]]


def test_box_re_premises_both_directions():
    g = parse_sequent("[]p |- []q", MILL)
    assert keys(apply_rule(g, Rule("BoxRe"))) == [["p |- q", "q |- p"]]
    assert apply_rule(parse_sequent("[]p, r |- []q", MILL), Rule("BoxRe")) == []


def test_odot_r_uses_entropy_preimages():
    g = parse_sequent("p, q |- p @ q", PCMILL)
    got = keys(apply_rule(g, Rule("OdotR")))
    assert ["p |- p", "q |- q"] in got
    assert ["q |- p", "p |- q"] in got  # from the other serialization


def test_odot_l_builds_serial_group():
    g = parse_sequent("p @ q |- r", PCMILL)
    assert keys(apply_rule(g, Rule("OdotL"))) == [["p ; q |- r"]]


def test_lres_l_consumes_left_run():
    g = parse_sequent("S ; F ; (S @ F) \\ T |- T", SRS)
    got = keys(apply_rule(g, Rule("LresL")))
    assert ["S ; F |- (S @ F)", "T |- T"] in got
    assert ["F |- (S @ F)", "S ; T |- T"] in got
    assert ["() |- (S @ F)", "S ; F ; T |- T"] in got


def test_rres_l_consumes_right_run():
    g = parse_sequent("T / (S @ F) ; S ; F |- T", SRS)
    got = keys(apply_rule(g, Rule("RresL")))
    assert ["S ; F |- (S @ F)", "T |- T"] in got


def test_residual_groups_reach_across_levels():
    # the group may take a parallel sibling of the principal leaf and
    # then run on over the serial context before (after) the pair
    g = parse_sequent("a ; [b, p \\ q] |- r", PCMILL)
    got = keys(apply_rule(g, Rule("LresL")))
    for want in (["() |- p", "a ; [b, q] |- r"], ["a |- p", "q ; b |- r"],
                 ["b |- p", "a ; q |- r"], ["a ; b |- p", "q |- r"]):
        assert want in got
    g = parse_sequent("[q / p, b] ; a |- r", PCMILL)
    got = keys(apply_rule(g, Rule("RresL")))
    for want in (["() |- p", "[b, q] ; a |- r"], ["a |- p", "b ; q |- r"],
                 ["b |- p", "q ; a |- r"], ["b ; a |- p", "q |- r"]):
        assert want in got


def test_lres_r_prepends_argument():
    g = parse_sequent("q |- p \\ r", SRS)
    assert keys(apply_rule(g, Rule("LresR"))) == [["p ; q |- r"]]


def test_rres_r_appends_argument():
    g = parse_sequent("q |- r / p", SRS)
    assert keys(apply_rule(g, Rule("RresR"))) == [["q ; p |- r"]]


def test_brings_rules():
    g = parse_sequent("E[i]p |- E[i]q", RS)
    assert keys(apply_rule(g, Rule("BringsRe", "i"))) == [["p |- q", "q |- p"]]
    assert apply_rule(g, Rule("BringsRe", "s")) == []

    g2 = parse_sequent("E[i]p, E[i]q |- E[i](p * q)", RS)
    got = keys(apply_rule(g2, Rule("BringsTensor", "i")))
    assert ["E[i](p) |- E[i](p)", "E[i](q) |- E[i](q)"] in got

    g3 = parse_sequent("E[i]p |- E[i](p & p)", RS)
    assert keys(apply_rule(g3, Rule("BringsWith", "i"))) == [
        ["E[i](p) |- E[i](p)", "E[i](p) |- E[i](p)"]
    ]

    g4 = parse_sequent("E[i]p, q |- r", RS)
    assert keys(apply_rule(g4, Rule("BringsRefl", "i"))) == [["p, q |- r"]]

    g5 = parse_sequent("E[i]p |- bot", RS)
    assert keys(apply_rule(g5, Rule("NotNec", "i"))) == [["|- p"]]


def test_brings_odot_serial_split():
    g = parse_sequent("E[i]p ; E[i]q |- E[i](p @ q)", SRS)
    got = keys(apply_rule(g, Rule("BringsOdot", "i")))
    assert ["E[i](p) |- E[i](p)", "E[i](q) |- E[i](q)"] in got


def test_rule_availability():
    with pytest.raises(ValueError):
        apply_rule(parse_sequent("p |- p", MILL), Rule("OdotR"))
    with pytest.raises(ValueError):
        apply_rule(parse_sequent("p |- p", MILL), Rule("BringsRefl", "i"))
    assert not rule_admissible(Rule("BoxRe"), RS)
    assert not rule_admissible(Rule("BringsOdot", "i"), RS)
    assert rule_admissible(Rule("BringsOdot", "i"), SRS)
    assert not rule_admissible(Rule("BringsRe", "z"), RS)
    # Cut is checked but never listed: the matcher holds exactly the
    # rules that search tries
    with pytest.raises(ValueError, match="not applied backward"):
        apply_rule(parse_sequent("p |- p", MILL), Rule("Cut"))
    every = set().union(*SYSTEM_RULES.values())
    assert set(RULES) == every
    assert set(_DISPATCH) == set(DEFAULT_RULE_ORDER) == every - {"Cut"}
    # every rule but Ax and Cut names its principal connective, on a
    # leaf or on the succedent
    principal = {name: (row.side, row.kinds) for name, row in RULES.items()}
    assert principal.pop("Ax") == principal.pop("Cut") == (None, ())
    for name, (side, kinds) in principal.items():
        assert side in (LEAF, SUCC) and kinds, name
        assert all(issubclass(cls, Formula) for cls in kinds), name


def test_rule_agent_pairing_enforced():
    with pytest.raises(ValueError):
        Rule("BringsRe")
    with pytest.raises(ValueError):
        Rule("Ax", "i")


def test_premise_totals_strictly_decrease():
    goals = [
        ("S, F, S * F -o T |- T", MILL),
        ("p, q |- p @ q", PCMILL),
        ("E[i]p, E[i]q |- E[i](p * q)", RS),
        ("S ; F ; (S @ F) \\ T |- T", SRS),
    ]
    for text, system in goals:
        g = parse_sequent(text, system)
        for rule in rule_instances(system, DEFAULT_RULE_ORDER):
            for prem in apply_rule(g, rule):
                for s in prem:
                    assert total_complexity(s) < total_complexity(g)


# -- the maximal premise lists at the goal ----------------------------------------
# What a rule gives at any structural preimage of the goal must be
# dominated by what it gives at the goal, or search at the goal would
# miss proofs; and what it gives at the goal must be a valid inference.


@pytest.mark.parametrize(
    "system_text, alphabet, succs",
    [
        ("PCMILL", ["p", "q", "p \\ q"], ["q", "p @ q", "q @ p"]),
        ("PCMILL", ["p", "q", "q / p"], ["q", "q @ p"]),
        ("PCMILL", ["p", "p -o q", "p @ q"], ["q", "q * p"]),
        ("PCMILL", ["1", "p", "q"], ["p @ q", "p & q", "p -o q", "p \\ q", "q / p"]),
        ("PCMILL", ["[]p", "p * q", "p & q"], ["p", "[]p"]),
        ("SRSBIAT:a", ["E[a]p", "p", "q"], ["E[a](p @ q)", "E[a](p * q)", "E[a](p & q)"]),
        ("SRSBIAT:a", ["E[a]p", "p \\ q", "q / p"], ["q", "bot"]),
    ],
)
def test_maximal_premise_lists_dominate_the_closure(system_text, alphabet, succs):
    system = parse_system(system_text)
    rules = rule_instances(system, DEFAULT_RULE_ORDER)
    formulas = [parse_formula(a, system) for a in alphabet]
    checked = 0
    for i, succ in enumerate(parse_formula(t, system) for t in succs):
        # a left rule lists the same antecedents whatever the succedent
        todo = rules if i == 0 else [r for r in rules if r.name not in _LEFT_RULES]
        for group in normal_trees(formulas, 4):
            for c in group:
                goal = Sequent(c, succ, system)
                for rule in todo:
                    listed = apply_rule(goal, rule)
                    tops = set(map(tuple, keys(listed)))
                    for prems in closure_premises(goal, rule):
                        assert tuple(keys([prems])[0]) in tops or any(
                            dominated(prems, top) for top in listed
                        ), (str(rule), goal.key, keys([prems]))
                        checked += 1
                    for prems in listed:
                        node = Proof(goal, rule, tuple(ax(s) for s in prems))
                        bad = [path for path, _ in check_proof(node).violations]
                        assert () not in bad, (str(rule), goal.key, keys([prems]))
    assert checked > 1000


# the rules principal on a leaf, but NotNec, which needs the succedent bot
_LEFT_RULES = frozenset(
    name for name, row in RULES.items() if row.side == LEAF and name != "NotNec")


# -- proof checking -------------------------------------------------------------


def _tensor_proof():
    g = parse_sequent("p, q |- p * q", MILL)
    l = parse_sequent("p |- p", MILL)
    r = parse_sequent("q |- q", MILL)
    return Proof(g, Rule("TensorR"), (ax(l), ax(r)))


def test_check_accepts_valid_proof():
    rep = check_proof(_tensor_proof())
    assert rep.ok and not rep.violations
    assert bool(rep)


def test_check_rejects_wrong_rule():
    pr = _tensor_proof()
    bad = Proof(pr.conclusion, Rule("WithR"), pr.premises)
    rep = check_proof(bad)
    assert not rep.ok
    assert rep.violations[0][0] == ()


def test_check_rejects_swapped_converse_premises():
    g = parse_sequent("[]p |- []q", MILL)
    a = parse_sequent("p |- q", MILL)
    b = parse_sequent("q |- p", MILL)
    # leaves are deliberately unprovable; only the root node matters here
    good = Proof(g, Rule("BoxRe"), (ax(a), ax(b)))
    assert () not in [path for path, _ in check_proof(good).violations]
    bad = Proof(g, Rule("BoxRe"), (ax(b), ax(a)))
    assert () in [path for path, _ in check_proof(bad).violations]


def test_check_rejects_bad_axiom():
    rep = check_proof(ax(parse_sequent("p |- q", MILL)))
    assert not rep.ok
    assert "instantiate" in rep.violations[0][1]


def test_check_locates_violation_path():
    g = parse_sequent("p, q |- p * q", MILL)
    l = parse_sequent("p |- p", MILL)
    r = parse_sequent("q |- q", MILL)
    bad = Proof(g, Rule("TensorR"), (ax(l), Proof(r, Rule("OneR"))))
    rep = check_proof(bad)
    assert [v[0] for v in rep.violations] == [(1,)]


def test_check_explicit_ent_node():
    # entropy is no proof step: an Ent node is not admissible, and the
    # node above it, re-rooted at the Ent node's conclusion, checks
    g = parse_sequent("p, q |- p @ q", PCMILL)
    h = parse_sequent("p ; q |- p @ q", PCMILL)
    prems = (ax(parse_sequent("p |- p", PCMILL)), ax(parse_sequent("q |- q", PCMILL)))
    rep = check_proof(Proof(g, Rule("Ent"), (Proof(h, Rule("OdotR"), prems),)))
    assert rep.violations == (((), "Ent not admissible in PCMILL"),)
    assert check_proof(Proof(g, Rule("OdotR"), prems)).ok


def test_check_cut_multiset():
    sys = MILL
    gc = parse_sequent("p |- p", sys)
    producer = Proof(
        parse_sequent("p |- p * 1", sys),
        Rule("TensorR"),
        (ax(gc), Proof(parse_sequent("|- 1", sys), Rule("OneR"))),
    )
    consumer = Proof(
        parse_sequent("p * 1 |- p", sys),
        Rule("TensorL"),
        (
            Proof(
                parse_sequent("p, 1 |- p", sys),
                Rule("OneL"),
                (ax(gc),),
            ),
        ),
    )
    cut = Proof(gc, Rule("Cut"), (consumer, producer))
    rep = check_proof(cut)
    assert rep.ok, rep.violations
    assert cut_count(cut) == 1
    assert cut_formula(cut).key == "(p * 1)"
    assert cutrank(cut) == 3
    # wrong premise order must fail
    assert not check_proof(Proof(gc, Rule("Cut"), (producer, consumer))).ok


def test_check_cut_tree():
    # the filled antecedent p ; q concludes itself and, by entropy as
    # under any other rule, p, q; it never gives q ; p
    for sys in (PCMILL, SRS):
        producer = Proof(
            parse_sequent("p ; q |- p @ q", sys),
            Rule("OdotR"),
            (ax(parse_sequent("p |- p", sys)), ax(parse_sequent("q |- q", sys))),
        )
        consumer = ax(parse_sequent("p @ q |- p @ q", sys))

        def cut(text):
            return Proof(parse_sequent(text, sys), Rule("Cut"), (consumer, producer))

        assert check_proof(cut("p ; q |- p @ q")).ok
        assert check_proof(cut("p, q |- p @ q")).ok
        assert check_proof(cut("q ; p |- p @ q")).violations == (
            ((), "no cut-formula occurrence reproduces the conclusion antecedent"),)


def test_check_rejects_mixed_systems():
    a = ax(parse_sequent("p |- p", MILL))
    g = parse_sequent("p, 1 |- p", PCMILL)
    bad = Proof(g, Rule("OneL"), (a,))
    rep = check_proof(bad)
    assert not rep.ok
    assert any("mixed" in msg for _, msg in rep.violations)


def test_check_reports_mixed_systems_under_a_cut():
    # a multiset cut over a tree-system premise is reported, not a crash
    producer = ax(parse_sequent("p |- p", PCMILL))
    consumer = ax(parse_sequent("p |- p", MILL))
    cut = Proof(parse_sequent("p |- p", MILL), Rule("Cut"), (consumer, producer))
    rep = check_proof(cut)
    assert [v[0] for v in rep.violations] == [(1,)]
    assert "mixed" in rep.violations[0][1]


def test_check_rejects_foreign_connective():
    # an RSBIAT sequent may not use the box
    with pytest.raises(Exception):
        parse_sequent("[]p |- []p", RS)


def test_proof_walk_and_size():
    pr = _tensor_proof()
    paths = [pt for pt, _ in proof_nodes(pr)]
    assert paths == [(), (0,), (1,)]
    assert proof_size(pr) == 3
    assert cut_count(pr) == 0
    assert cutrank(pr) == 0


# -- serialization ----------------------------------------------------------------


def test_json_round_trip():
    pr = _tensor_proof()
    blob = json.dumps(proof_to_json(pr))
    back = proof_from_json(json.loads(blob))
    assert back == pr
    assert proof_to_json(back) == json.loads(blob)


@pytest.mark.parametrize(
    "system, shown",
    [(MILL, "|- "), (RS, "|- "), (PCMILL, "() |- "), (SRS, "() |- ")],
)
def test_empty_antecedent_prints_and_round_trips(system, shown):
    from proofmill.search import Proved, prove

    goal = parse_sequent("|- (p -o p) * 1", system)
    assert goal.key == shown + "((p -o p) * 1)"
    assert parse_sequent(goal.key, system) == goal
    result = prove(goal)
    assert isinstance(result, Proved)
    d = proof_to_json(result.proof)
    assert d["proof"]["sequent"] == shown + "(p -o p) * 1"
    # the conclusion, the LimpR conclusion and the OneR leaf
    texts = [n["sequent"] for n in _json_nodes(d["proof"])]
    assert sum(t.startswith(shown) for t in texts) == 3
    back = proof_from_json(json.loads(json.dumps(d)))
    assert back == result.proof
    assert proof_to_json(back) == d


def _json_nodes(node: dict):
    yield node
    for q in node["premises"]:
        yield from _json_nodes(q)


def test_deep_proof_round_trips_through_json():
    # 1,500 cuts on p |- p, one above the other
    s = parse_sequent("p |- p", MILL)
    pr = ax(s)
    for _ in range(1500):
        pr = Proof(s, Rule("Cut"), (ax(s), pr))
    assert check_proof(pr).ok
    back = proof_from_json(proof_to_json(pr))
    assert back == pr


def test_read_proof_shares_rules_and_repeated_sequents():
    # every node of the cut tower concludes p |- p: the text is parsed
    # once, and each rule is one object, shared with every other proof
    s = parse_sequent("p |- p", MILL)
    back = proof_from_json(proof_to_json(_cut_tower(s, ax(s), 20)))
    nodes = [n for _, n in proof_nodes(back)]
    assert len({id(n.conclusion) for n in nodes}) == 1
    assert {id(n.rule) for n in nodes} == {id(Rule.of("Cut")), id(Rule.of("Ax"))}
    g = parse_sequent("E[i]p |- bot", RS)
    pr = Proof(g, Rule("NotNec", "i"), (ax(parse_sequent("|- p", RS)),))
    assert proof_from_json(proof_to_json(pr)).rule is Rule.of("NotNec", "i")


def test_long_chain_proof_reads_back():
    # the fully parenthesized key of this goal nests 149 levels, past
    # the parser's bound; the printed form does not nest at all
    from proofmill.search import prove

    chain = " & ".join(["p"] * 150)
    pr = prove(parse_sequent(f"p |- {chain}", MILL)).proof
    d = proof_to_json(pr)
    assert d["proof"]["sequent"] == f"p |- {chain}"
    back = proof_from_json(json.loads(json.dumps(d)))
    assert back == pr


def test_json_keeps_agent_and_system():
    g = parse_sequent("E[i]p |- bot", RS)
    pr = Proof(g, Rule("NotNec", "i"), (ax(parse_sequent("|- p", RS)),))
    # not a valid proof (|- p is not an axiom) but serialization is structural
    d = proof_to_json(pr)
    assert d["system"] == "RSBIAT"
    assert d["agents"] == ["i", "s"]
    assert d["proof"]["agent"] == "i"
    assert proof_from_json(d) == pr


def _cut_tower(s: Sequent, top: Proof, height: int) -> Proof:
    pr = top
    for _ in range(height):
        pr = Proof(s, Rule("Cut"), (ax(s), pr))
    return pr


def test_deep_proofs_compare_and_hash():
    s = parse_sequent("p |- p", MILL)
    pr = _cut_tower(s, ax(s), 1500)
    back = proof_from_json(proof_to_json(pr))
    assert back == pr and hash(back) == hash(pr)
    # the same height, but one node deep down differs
    assert _cut_tower(s, ax(parse_sequent("q |- q", MILL)), 1500) != pr
    assert _cut_tower(s, ax(s), 1499) != pr


def test_long_chain_proof_hashes():
    from proofmill.search import prove

    chain = " & ".join(["p"] * 1500)
    pr = prove(parse_sequent(f"p |- {chain}", MILL)).proof
    assert hash(pr) == hash(Proof(pr.conclusion, pr.rule, pr.premises))
    assert pr == Proof(pr.conclusion, pr.rule, pr.premises)
