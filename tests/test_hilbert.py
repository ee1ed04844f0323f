"""Hilbert deductions: schema matching, checking, discharge, translation."""
from __future__ import annotations

import random

import pytest
from gentrees import random_deduction

from proofmill.calculus import check_proof, cut_count, proof_from_json, proof_to_json
from proofmill.context import mset, sequent
from proofmill.cutelim import eliminate_cuts
from proofmill.hilbert import (
    AXIOM_SCHEMATA,
    AxiomMatch,
    DeductionTree,
    assumption,
    axiom_leaf,
    box_re_rule,
    brings_re_rule,
    check_deduction,
    deduction_from_json,
    deduction_theorem,
    deduction_to_json,
    hilbert_to_sequent,
    match_axiom,
    modus_ponens,
    not_nec_rule,
    schema,
    with_rule,
)
from proofmill.search import Proved, prove
from proofmill.syntax import parse_formula, parse_system

MILL = parse_system("MILL")
RS = parse_system("RSBIAT:a,t")
PC = parse_system("PCMILL")


def f(text, sys=MILL):
    return parse_formula(text, sys)


P, Q, R = f("p"), f("q"), f("r")


def instantiate(name, sys=MILL, agent=None, **subst):
    return schema(name).instantiate(subst, agent)


def tensor_intro_tree():
    # q, p |- p * q  via two modus ponens on  A -o (B -o A * B)
    ti = axiom_leaf(instantiate("tensor-intro", A=P, B=Q), MILL)
    d1 = modus_ponens(assumption(P), ti)
    return modus_ponens(assumption(Q), d1)


# -- schema table and matching ---------------------------------------------------


def test_schema_table_names():
    assert [s.name for s in AXIOM_SCHEMATA] == [
        "identity", "composition", "permutation", "tensor-intro",
        "tensor-elim", "unit", "unit-identity", "with-left", "with-right",
        "with-pairing", "brings-success", "brings-tensor", "brings-with",
    ]
    mill = [s.name for s in AXIOM_SCHEMATA if MILL.ident in s.systems]
    assert len(mill) == 10 and "brings-success" not in mill
    rs = [s.name for s in AXIOM_SCHEMATA if RS.ident in s.systems]
    assert len(rs) == 13


def test_match_identity():
    assert match_axiom(f("p -o p"), MILL) == AxiomMatch("identity", {"A": P})


def test_match_with_left():
    m = match_axiom(f("(p & q) -o p"), MILL)
    assert m is not None
    assert (m.name, m.subst) == ("with-left", {"A": P, "B": Q})


def test_no_match():
    assert match_axiom(f("p -o q"), MILL) is None


def test_match_composed_instance():
    big = instantiate("composition", A=f("p * q"), B=f("1"), C=R)
    m = match_axiom(big, MILL)
    assert m.name == "composition"
    assert m.subst == {"A": f("p * q"), "B": f("1"), "C": R}


def test_match_binds_one_agent():
    good = f("(E[a]p * E[a]q) -o E[a](p * q)", RS)
    m = match_axiom(good, RS)
    assert (m.name, m.agent) == ("brings-tensor", "a")
    mixed = f("(E[a]p * E[t]q) -o E[a](p * q)", RS)
    assert match_axiom(mixed, RS) is None


def test_brings_axioms_only_in_agent_table():
    inst = instantiate("brings-success", RS, agent="a", A=P)
    assert match_axiom(inst, RS).name == "brings-success"
    with pytest.raises(ValueError):
        match_axiom(P, PC)


def test_unknown_schema_name():
    with pytest.raises(ValueError):
        schema("frobnicate")


def test_every_schema_instance_is_provable():
    for sc in AXIOM_SCHEMATA:
        sys = RS if RS.ident in sc.systems and MILL.ident not in sc.systems \
            else MILL
        agent = "a" if sys is RS else None
        subst = {v: g for v, g in zip(sc.metavariables, (P, Q, R))}
        inst = sc.instantiate(subst, agent)
        assert isinstance(prove(sequent(mset(()), inst, sys)), Proved), sc.name


# -- construction and checking ---------------------------------------------------


def test_assumption_leaf_checks():
    assert check_deduction(assumption(P), MILL).ok


def test_mp_of_assumption_and_identity():
    d = modus_ponens(assumption(P), axiom_leaf(f("p -o p"), MILL))
    assert d.assumptions == (P,) and d.formula is P
    assert check_deduction(d, MILL).ok


def test_mp_concatenates_in_order():
    d = tensor_intro_tree()
    assert d.assumptions == (Q, P)
    assert check_deduction(d, MILL).ok


def test_mp_requires_matching_argument():
    with pytest.raises(ValueError):
        modus_ponens(assumption(Q), axiom_leaf(f("p -o p"), MILL))


def test_axiom_leaf_rejects_non_axiom():
    with pytest.raises(ValueError):
        axiom_leaf(f("p -o q"), MILL)


def test_with_rule_shares_assumptions_verbatim():
    d = tensor_intro_tree()
    w = with_rule(d, d)
    assert w.assumptions == (Q, P)
    assert check_deduction(w, MILL).ok
    other = modus_ponens(assumption(P), axiom_leaf(f("p -o p"), MILL))
    with pytest.raises(ValueError):
        with_rule(d, other)


def test_checker_flags_swapped_mp_assumptions():
    d = tensor_intro_tree()
    bad = DeductionTree(
        d.rule, (P, Q), d.formula, d.premises
    )
    report = check_deduction(bad, MILL)
    assert not report.ok
    assert report.violations[0][1] == \
        "LimpRule concludes q, p |- p * q, not p, q |- p * q"


def test_checker_flags_forged_axiom():
    forged = DeductionTree("AxiomLeaf", (), f("p -o q"))
    report = check_deduction(forged, MILL)
    assert not report.ok and "not an axiom" in report.violations[0][1]


def test_checker_flags_assumption_in_modal_premise():
    fwd = modus_ponens(assumption(P), axiom_leaf(f("p -o p"), MILL))
    fake_impl = DeductionTree("Assumption", (f("p -o p"),), f("p -o p"))
    bad = DeductionTree(
        "BoxReRule", (), f("[](p) -o [](p)"), (fake_impl, fake_impl)
    )
    report = check_deduction(bad, MILL)
    assert not report.ok
    assert "assumption-free" in report.violations[0][1]
    with pytest.raises(ValueError):
        box_re_rule(fake_impl, fake_impl)
    # and the factory enforces converse premises
    with pytest.raises(ValueError):
        box_re_rule(
            axiom_leaf(f("p -o p"), MILL), axiom_leaf(f("q -o q"), MILL)
        )


def test_violation_path_points_at_offender():
    good = tensor_intro_tree()
    bad_leaf = DeductionTree("AxiomLeaf", (), f("q -o q * q"))
    bad = DeductionTree(
        "LimpRule", good.assumptions + (Q,), f("(q * q)"),
        (good, DeductionTree(
            "LimpRule", (Q,), f("q * q"),
            (assumption(Q), bad_leaf))),
    )
    report = check_deduction(bad, MILL)
    paths = [p for p, _ in report.violations]
    assert (1, 1) in paths  # the forged axiom leaf
    assert () in paths      # and the mismatched root


def test_box_rule_only_in_mill():
    ident = axiom_leaf(f("p -o p"), MILL)
    bx = box_re_rule(ident, ident)
    assert check_deduction(bx, MILL).ok
    report = check_deduction(bx, RS)
    assert not report.ok


def test_agent_rules_only_in_rsbiat():
    ident = axiom_leaf(f("p -o p"), RS)
    bre = brings_re_rule("a", ident, ident)
    assert check_deduction(bre, RS).ok
    assert not check_deduction(bre, MILL).ok
    nn = not_nec_rule("t", axiom_leaf(f("1"), RS))
    assert check_deduction(nn, RS).ok
    unknown = not_nec_rule("z", axiom_leaf(f("1"), RS))
    report = check_deduction(unknown, RS)
    assert not report.ok and "alphabet" in report.violations[0][1]


def test_checker_names_each_node_kind_fault():
    # a deduction read from JSON may hold any node: build them directly
    ra = parse_system("RSBIAT:a")
    ident = axiom_leaf(f("p -o p", ra), ra)
    cases = [
        (DeductionTree("BoxReRule", (), P, (ident, ident)),
         "BoxReRule not available in RSBIAT"),
        (DeductionTree("LimpRule", (), P, (ident, ident), "a"),
         "LimpRule takes no agent"),
        (DeductionTree("BringsReRule", (), P, (ident, ident)),
         "BringsReRule needs an agent"),
        (DeductionTree("NotNecRule", (), P, (ident,), "z"),
         "agent 'z' not in alphabet ['a']"),
    ]
    for node, message in cases:
        report = check_deduction(node, ra)
        assert report.violations == (((), message),)


def test_no_hilbert_system_for_tree_calculi():
    with pytest.raises(ValueError):
        check_deduction(assumption(P), PC)


def test_unknown_node_kind_rejected():
    with pytest.raises(ValueError):
        DeductionTree("Sorcery", (), P)


# -- deduction theorem -----------------------------------------------------------


def test_discharge_assumption_gives_identity():
    out = deduction_theorem(assumption(P), 0, MILL)
    assert out.rule == "AxiomLeaf"
    assert out.formula is f("p -o p")
    assert check_deduction(out, MILL).ok


def test_discharge_from_tensor_pair():
    d = tensor_intro_tree()  # q, p |- p * q
    out = deduction_theorem(d, 0, MILL)
    assert out.assumptions == (P,)
    assert out.formula is f("q -o (p * q)")
    assert check_deduction(out, MILL).ok
    closed = deduction_theorem(out, 0, MILL)
    assert closed.assumptions == ()
    assert closed.formula is f("p -o (q -o (p * q))")
    assert check_deduction(closed, MILL).ok


def test_discharge_through_with_duplicates_consistently():
    d = tensor_intro_tree()
    w = with_rule(d, d)  # q, p |- (p*q) & (p*q)
    out = deduction_theorem(w, 1, MILL)
    assert out.assumptions == (Q,)
    assert out.formula is f("p -o ((p * q) & (p * q))")
    assert check_deduction(out, MILL).ok


def test_discharge_order_preserved_in_major_premise():
    ti = axiom_leaf(instantiate("tensor-intro", A=P, B=Q), MILL)
    d1 = modus_ponens(assumption(P), ti)          # p |- q -o p*q
    d2 = modus_ponens(assumption(Q), d1)          # q, p |- p*q
    # now discharge p, the occurrence inside the major branch
    out = deduction_theorem(d2, 1, MILL)
    assert out.assumptions == (Q,)
    assert out.formula is f("p -o (p * q)")
    assert check_deduction(out, MILL).ok


def test_discharge_bad_index():
    with pytest.raises(ValueError):
        deduction_theorem(assumption(P), 1, MILL)
    with pytest.raises(ValueError):
        deduction_theorem(axiom_leaf(f("1"), MILL), 0, MILL)


@pytest.mark.parametrize("seed", range(12))
def test_discharge_seeded_trees(seed):
    rng = random.Random(seed)
    system = MILL if seed % 2 == 0 else RS
    d = random_deduction(rng, system)
    assert check_deduction(d, system).ok
    pick = rng.randrange(len(d.assumptions))
    want_formula = parse_formula(
        f"({d.assumptions[pick].key}) -o ({d.formula.key})", system
    )
    want_assumptions = d.assumptions[:pick] + d.assumptions[pick + 1:]
    out = deduction_theorem(d, pick, system)
    assert out.formula is want_formula
    assert out.assumptions == want_assumptions
    assert check_deduction(out, system).ok


# -- translation to sequent proofs ----------------------------------------------


def test_translate_assumption():
    sp = hilbert_to_sequent(assumption(P), MILL)
    assert sp.rule.name == "Ax" and sp.conclusion.key == "p |- p"


def test_translate_axiom_leaf_is_searched_and_cut_free():
    sp = hilbert_to_sequent(axiom_leaf(f("p -o p"), MILL), MILL)
    assert check_proof(sp).ok and cut_count(sp) == 0
    assert sp.conclusion.key == "|- (p -o p)"


def test_translate_mp_introduces_cuts():
    d = tensor_intro_tree()
    sp = hilbert_to_sequent(d, MILL)
    assert sp.conclusion.key == "p, q |- (p * q)"
    assert check_proof(sp).ok
    assert cut_count(sp) == 4  # two per modus ponens
    final, _ = eliminate_cuts(sp)
    assert cut_count(final) == 0 and check_proof(final).ok


def test_translate_with_node():
    d = tensor_intro_tree()
    sp = hilbert_to_sequent(with_rule(d, d), MILL)
    assert sp.rule.name == "WithR" and check_proof(sp).ok


def test_translate_modal_nodes():
    ident = axiom_leaf(f("p -o p"), MILL)
    sp = hilbert_to_sequent(box_re_rule(ident, ident), MILL)
    assert sp.conclusion.key == "|- ([](p) -o [](p))"
    assert check_proof(sp).ok
    rident = axiom_leaf(f("p -o p"), RS)
    sp = hilbert_to_sequent(brings_re_rule("t", rident, rident), RS)
    assert sp.conclusion.key == "|- (E[t](p) -o E[t](p))"
    assert check_proof(sp).ok
    sp = hilbert_to_sequent(not_nec_rule("a", axiom_leaf(f("1"), RS)), RS)
    assert sp.conclusion.key == "|- (E[a](1) -o bot)"
    assert check_proof(sp).ok


def test_translate_rejects_invalid_tree():
    forged = DeductionTree("AxiomLeaf", (), f("p -o q"))
    with pytest.raises(ValueError):
        hilbert_to_sequent(forged, MILL)


@pytest.mark.parametrize("seed", range(6))
def test_translate_seeded_trees(seed):
    rng = random.Random(seed + 100)
    system = MILL if seed % 2 == 0 else RS
    d = random_deduction(rng, system)
    sp = hilbert_to_sequent(d, system)
    assert check_proof(sp).ok
    assert sp.conclusion == sequent(mset(d.assumptions), d.formula, system)


# -- serialization ----------------------------------------------------------------


def test_json_round_trip():
    d = tensor_intro_tree()
    obj = deduction_to_json(d, MILL)
    back, sys = deduction_from_json(obj)
    assert back == d and sys == MILL


def test_json_round_trip_with_agent():
    d = not_nec_rule("a", axiom_leaf(f("1"), RS))
    obj = deduction_to_json(d, RS)
    assert obj["tree"]["agent"] == "a"
    back, sys = deduction_from_json(obj)
    assert back == d and sys == RS


@pytest.mark.parametrize("agents", ["ab", {"a": 1}, ["a,b"], [" a"]])
def test_agents_must_be_a_list_of_strings(agents):
    # neither the letters of a string nor the keys of an object are
    # agents, and a string names one agent as it stands: no comma in it
    # separates two names and no space around it is trimmed
    d = not_nec_rule("a", axiom_leaf(f("1"), RS))
    named = isinstance(agents, list)
    why = f"bad agent name {agents[0]!r}" if named else "agents"
    for what, obj, load in [
        ("deduction", deduction_to_json(d, RS), deduction_from_json),
        ("proof", proof_to_json(hilbert_to_sequent(d, RS)), proof_from_json),
    ]:
        load(obj)
        with pytest.raises(ValueError) as info:
            load({**obj, "agents": agents})
        # a proof object passes a bad name on as the system words it
        prefix = "" if named and what == "proof" else f"malformed {what} object: "
        assert str(info.value).startswith(prefix + why)


@pytest.mark.parametrize("assumptions", ["pq", {"p": 0}, 1])
def test_assumptions_must_be_a_list_of_strings(assumptions):
    # neither the letters of a string nor the keys of an object are
    # assumptions, though iterating either gives formula texts ("pq"
    # gives p and q)
    obj = {"system": "MILL", "tree": {"rule": "Assumption", "formula": "pq",
                                      "assumptions": ["pq"]}}
    back, _ = deduction_from_json(obj)
    assert back.assumptions == (f("pq"),)
    bad = {**obj, "tree": {**obj["tree"], "assumptions": assumptions}}
    with pytest.raises(ValueError) as info:
        deduction_from_json(bad)
    assert str(info.value) == (
        f"malformed deduction object: assumptions {assumptions!r} is not a list of strings")


# -- long deductions --------------------------------------------------------------


def _chain(n):
    # p |- p by n modus ponens steps on the identity axiom
    d = assumption(P)
    ident = axiom_leaf(f("p -o p"), MILL)
    for _ in range(n):
        d = modus_ponens(d, ident)
    return d


def test_long_chains_compare_and_hash():
    d, e = _chain(1500), _chain(1500)
    assert d is not e and d == e and hash(d) == hash(e)
    # one step longer: every node claims p |- p, so they differ at the
    # bottom alone
    assert d != _chain(1501)


def test_long_chain_round_trips_through_json():
    d = _chain(1500)
    back, sys = deduction_from_json(deduction_to_json(d, MILL))
    assert back == d and sys == MILL


def test_long_chain_discharges():
    out = deduction_theorem(_chain(1500), 0, MILL)
    assert out.assumptions == () and out.formula is f("p -o p")
    assert check_deduction(out, MILL).ok


def test_long_chain_translates():
    sp = hilbert_to_sequent(_chain(1500), MILL)
    assert sp.conclusion == sequent(mset((P,)), P, MILL)
    assert check_proof(sp).ok
