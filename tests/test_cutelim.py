"""Cut elimination: principal reductions, permutations, dead ends."""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest
from gentrees import mill_cut_proofs, random_deduction, tree_cut_proofs
from oracle import Closure

from proofmill.calculus import (
    Proof,
    Rule,
    check_proof,
    cut_count,
    cut_formula,
    cutrank,
    proof_from_json,
    proof_nodes,
    proof_size,
    proof_to_json,
)
from proofmill import cutelim
from proofmill.context import EMPTY, Sequent, leaf, mset, parse_sequent, sequent
from proofmill.cutelim import (
    DEFECTIVE_PAIRS,
    CutEliminationError,
    ReductionStep,
    ReductionTrace,
    eliminate_cuts,
    reduce_once,
)
from proofmill.hilbert import (
    assumption,
    axiom_leaf,
    hilbert_to_sequent,
    modus_ponens,
    schema,
)
from proofmill.kernel import infers
from proofmill.search import Exhausted, Proved, prove
from proofmill.syntax import atom, brings, limp, parse_formula, parse_system, unit, with_

FIXTURES = Path(__file__).resolve().parent / "fixtures"

MILL = parse_system("MILL")
PCMILL = parse_system("PCMILL")
RS = parse_system("RSBIAT:a,t")
SRS = parse_system("SRSBIAT:a")
SRS_AB = parse_system("SRSBIAT:a,b")


def ax(text, sys):
    return Proof(parse_sequent(text, sys), Rule("Ax"))


def proved(text, sys):
    r = prove(parse_sequent(text, sys))
    assert isinstance(r, Proved), text
    return r.proof


def topmost_cut(p):
    """The path of the first cut in postorder: its premises are cut-free."""
    stack = [((), p, False)]
    while stack:
        path, node, done = stack.pop()
        if done:
            if node.rule.name == "Cut":
                return path
            continue
        stack.append((path, node, True))
        for i in reversed(range(len(node.premises))):
            stack.append((path + (i,), node.premises[i], False))
    return None


def splice(p, path, new):
    """``p`` with ``new`` in place of the node at ``path``."""
    spine = [p]
    for i in path[:-1]:
        spine.append(spine[-1].premises[i])
    for node, i in zip(reversed(spine), reversed(path)):
        prems = list(node.premises)
        prems[i] = new
        new = Proof(node.conclusion, node.rule, tuple(prems))
    return new


def reference_eliminate(p):
    """The reference for ``eliminate_cuts``: sessionless ``reduce_once``
    on the topmost cut, found by a full scan of the tree and spliced in
    by path, until no cut remains.  Returns the normal form, the steps
    and the cuts reduced."""
    steps, cuts, current = [], [], p
    while (path := topmost_cut(current)) is not None:
        cut = current
        for i in path:
            cut = cut.premises[i]
        try:
            reduct, step = reduce_once(cut)
        except CutEliminationError as exc:
            exc.path = path
            raise
        steps.append(ReductionStep(step.kind, step.formula, path))
        cuts.append(cut)
        current = splice(current, path, reduct)
    return current, tuple(steps), cuts


def assert_matches_reference(p):
    """``eliminate_cuts`` reaches the reference loop's normal form.  Its
    steps (kind, cut formula, path) are the reference's in order, less
    reductions that repeat an equal cut (those its memo shares), and
    all of them when no cut repeats."""
    final, trace = eliminate_cuts(p)
    ref_final, ref_steps, ref_cuts = reference_eliminate(p)
    assert final == ref_final
    ref = iter(ref_steps)
    assert all(step in ref for step in trace.steps)
    if len(set(ref_cuts)) == len(ref_cuts):
        assert trace.steps == ref_steps
    return final, trace


def assert_eliminated(cut_proof):
    final, trace = assert_matches_reference(cut_proof)
    assert cut_count(final) == 0
    assert check_proof(final).ok
    assert final.conclusion == cut_proof.conclusion
    assert trace.final == final
    return final, trace


# -- the reflexive modality pair, step by step -----------------------------------


def _box_cut():
    d1 = proved("p * q |- q * p", MILL)
    d2 = proved("q * p |- p * q", MILL)
    consumer = Proof(
        parse_sequent("[](p * q) |- [](q * p)", MILL), Rule("BoxRe"), (d1, d2)
    )
    producer = Proof(
        parse_sequent("[](q * p) |- [](p * q)", MILL), Rule("BoxRe"), (d2, d1)
    )
    cut = Proof(
        parse_sequent("[](q * p) |- [](q * p)", MILL),
        Rule("Cut"),
        (consumer, producer),
    )
    return cut, d1, d2


def test_box_principal_step_shape():
    cut, d1, d2 = _box_cut()
    assert check_proof(cut).ok
    reduced, step = reduce_once(cut)
    assert step == ReductionStep("principal", cut.premises[1].conclusion.succ, ())
    # the modal cut becomes two smaller cuts under one BoxRe
    assert reduced.rule.name == "BoxRe"
    left, right = reduced.premises
    assert left.rule.name == "Cut" and right.rule.name == "Cut"
    assert left.conclusion.key == "(q * p) |- (q * p)"
    assert right.conclusion.key == "(q * p) |- (q * p)"
    assert left.premises == (d1, d2)
    assert right.premises == (d1, d2)


def test_box_cut_eliminates_fully():
    cut, _, _ = _box_cut()
    final, trace = assert_eliminated(cut)
    assert all(s.kind in ("principal", "permutation") for s in trace.steps)
    assert final.rule.name == "BoxRe"


def test_not_nec_against_brings_re_step_shape():
    limp_pp = proved("|- p -o p", RS)
    nn = Proof(
        parse_sequent("E[a](p -o p) |- bot", RS), Rule("NotNec", "a"), (limp_pp,)
    )
    axpp = ax("p -o p |- p -o p", RS)
    re = Proof(
        parse_sequent("E[a](p -o p) |- E[a](p -o p)", RS),
        Rule("BringsRe", "a"),
        (axpp, axpp),
    )
    cut = Proof(
        parse_sequent("E[a](p -o p) |- bot", RS), Rule("Cut"), (nn, re)
    )
    assert check_proof(cut).ok
    reduced, step = reduce_once(cut)
    assert step.kind == "principal"
    # the cut moves under NotNec onto the converse premise
    assert reduced.rule.name == "NotNec"
    inner = reduced.premises[0]
    assert inner.rule.name == "Cut"
    assert inner.conclusion.key == "|- (p -o p)"
    assert inner.premises == (axpp, limp_pp)
    final, trace = assert_eliminated(cut)
    assert [s.kind for s in trace.steps] == ["principal", "principal"]
    assert final.rule.name == "NotNec"


# -- remaining principal pairs ------------------------------------------------------


def test_tensor_principal():
    consumer = Proof(
        parse_sequent("p * q |- q * p", MILL),
        Rule("TensorL"),
        (proved("p, q |- q * p", MILL),),
    )
    producer = Proof(
        parse_sequent("p, q |- p * q", MILL),
        Rule("TensorR"),
        (ax("p |- p", MILL), ax("q |- q", MILL)),
    )
    cut = Proof(
        parse_sequent("p, q |- q * p", MILL), Rule("Cut"), (consumer, producer)
    )
    assert check_proof(cut).ok
    assert_eliminated(cut)


def test_limp_principal():
    producer = proved("|- p -o p", MILL)
    consumer = Proof(
        parse_sequent("p, p -o p |- p", MILL),
        Rule("LimpL"),
        (ax("p |- p", MILL), ax("p |- p", MILL)),
    )
    cut = Proof(parse_sequent("p |- p", MILL), Rule("Cut"), (consumer, producer))
    assert check_proof(cut).ok
    final, _ = assert_eliminated(cut)
    assert final.rule.name == "Ax"


def test_with_principal():
    producer = Proof(
        parse_sequent("p |- p & p", MILL),
        Rule("WithR"),
        (ax("p |- p", MILL), ax("p |- p", MILL)),
    )
    consumer = Proof(
        parse_sequent("p & p |- p", MILL),
        Rule("WithL2"),
        (ax("p |- p", MILL),),
    )
    cut = Proof(parse_sequent("p |- p", MILL), Rule("Cut"), (consumer, producer))
    final, trace = assert_eliminated(cut)
    assert final.rule.name == "Ax"
    assert trace.steps[0].kind == "principal"


def test_with_l2_takes_the_second_with_r_premise():
    # p & p |- p & p by WithR over a WithL1 and a WithL2 proof, cut into
    # p & p |- p by WithL2 (or WithL1) over Ax: either premise gives a
    # normal form that checks, so only its root tells which one was cut
    cut = proof_from_json(json.loads((FIXTURES / "with_l2_cut.json").read_text()))
    consumer, producer = cut.premises
    assert assert_eliminated(cut)[0].rule.name == "WithL2"
    first = Proof(consumer.conclusion, Rule("WithL1"), consumer.premises)
    cut = Proof(cut.conclusion, Rule("Cut"), (first, producer))
    assert assert_eliminated(cut)[0].rule.name == "WithL1"


def test_unit_principal():
    producer = Proof(parse_sequent("|- 1", MILL), Rule("OneR"))
    consumer = Proof(
        parse_sequent("p, 1 |- p", MILL), Rule("OneL"), (ax("p |- p", MILL),)
    )
    cut = Proof(parse_sequent("p |- p", MILL), Rule("Cut"), (consumer, producer))
    final, _ = assert_eliminated(cut)
    assert final.rule.name == "Ax"


def test_residual_principal():
    producer = proved("q |- p \\ (p @ q)", SRS)
    assert producer.rule.name == "LresR"
    consumer = Proof(
        parse_sequent("p ; p \\ (p @ q) |- p @ q", SRS),
        Rule("LresL"),
        (ax("p |- p", SRS), ax("p @ q |- p @ q", SRS)),
    )
    cut = Proof(
        parse_sequent("p ; q |- p @ q", SRS), Rule("Cut"), (consumer, producer)
    )
    assert check_proof(cut).ok, check_proof(cut).violations
    assert_eliminated(cut)


def test_tree_principal_uses_entropy_when_needed():
    cp = Proof(
        parse_sequent("p ; q |- p @ q", SRS),
        Rule("OdotR"),
        (ax("p |- p", SRS), ax("q |- q", SRS)),
    )
    consumer = Proof(parse_sequent("p @ q |- p @ q", SRS), Rule("OdotL"), (cp,))
    producer = Proof(
        parse_sequent("p, q |- p @ q", SRS),
        Rule("OdotR"),
        (ax("p |- p", SRS), ax("q |- q", SRS)),
    )
    cut = Proof(
        parse_sequent("p, q |- p @ q", SRS), Rule("Cut"), (consumer, producer)
    )
    final, _ = assert_eliminated(cut)
    # OdotR concludes p ; q and reaches p, q by entropy: no Ent step
    assert final.rule.name == "OdotR"
    assert final.conclusion == parse_sequent("p, q |- p @ q", SRS)


def test_refl_against_brings_re():
    consumer = Proof(
        parse_sequent("E[a]p, q |- p * q", RS),
        Rule("BringsRefl", "a"),
        (proved("p, q |- p * q", RS),),
    )
    producer = Proof(
        parse_sequent("E[a]p |- E[a]p", RS),
        Rule("BringsRe", "a"),
        (ax("p |- p", RS), ax("p |- p", RS)),
    )
    cut = Proof(
        parse_sequent("E[a]p, q |- p * q", RS), Rule("Cut"), (consumer, producer)
    )
    assert_eliminated(cut)


def test_refl_against_brings_tensor():
    consumer = Proof(
        parse_sequent("E[a](p * q), r |- (p * q) * r", RS),
        Rule("BringsRefl", "a"),
        (proved("p * q, r |- (p * q) * r", RS),),
    )
    producer = Proof(
        parse_sequent("E[a]p, E[a]q |- E[a](p * q)", RS),
        Rule("BringsTensor", "a"),
        (ax("E[a]p |- E[a]p", RS), ax("E[a]q |- E[a]q", RS)),
    )
    cut = Proof(
        parse_sequent("E[a]p, E[a]q, r |- (p * q) * r", RS),
        Rule("Cut"),
        (consumer, producer),
    )
    assert_eliminated(cut)


def test_refl_against_brings_with():
    consumer = Proof(
        parse_sequent("E[a](p & q) |- p", RS),
        Rule("BringsRefl", "a"),
        (proved("p & q |- p", RS),),
    )
    producer = Proof(
        parse_sequent("E[a]p & E[a]q |- E[a](p & q)", RS),
        Rule("BringsWith", "a"),
        (
            proved("E[a]p & E[a]q |- E[a]p", RS),
            proved("E[a]p & E[a]q |- E[a]q", RS),
        ),
    )
    cut = Proof(
        parse_sequent("E[a]p & E[a]q |- p", RS), Rule("Cut"), (consumer, producer)
    )
    assert_eliminated(cut)


def test_not_nec_against_brings_with_inverts():
    nn = Proof(
        parse_sequent("E[a]((p -o p) & 1) |- bot", RS),
        Rule("NotNec", "a"),
        (proved("|- (p -o p) & 1", RS),),
    )
    bw = Proof(
        parse_sequent("E[a](p -o p) & E[a]1 |- E[a]((p -o p) & 1)", RS),
        Rule("BringsWith", "a"),
        (
            proved("E[a](p -o p) & E[a]1 |- E[a](p -o p)", RS),
            proved("E[a](p -o p) & E[a]1 |- E[a]1", RS),
        ),
    )
    cut = Proof(
        parse_sequent("E[a](p -o p) & E[a]1 |- bot", RS), Rule("Cut"), (nn, bw)
    )
    final, _ = assert_eliminated(cut)
    # the target is independently provable without cut
    assert isinstance(prove(cut.conclusion), Proved)


# -- axiom and permutation steps ---------------------------------------------------


def test_axiom_consumer_collapses_to_producer():
    producer = proved("p, q |- p * q", MILL)
    consumer = ax("p * q |- p * q", MILL)
    cut = Proof(
        parse_sequent("p, q |- p * q", MILL), Rule("Cut"), (consumer, producer)
    )
    reduced, step = reduce_once(cut)
    assert reduced == producer and step.kind == "principal"
    assert_eliminated(cut)


def test_axiom_producer_collapses_to_consumer():
    consumer = proved("p * q |- q * p", MILL)
    producer = ax("p * q |- p * q", MILL)
    cut = Proof(
        parse_sequent("p * q |- q * p", MILL), Rule("Cut"), (consumer, producer)
    )
    reduced, step = reduce_once(cut)
    assert reduced == consumer and step.kind == "principal"
    assert_eliminated(cut)


def test_permutation_into_left_rule_producer():
    producer = proved("p * q |- q * p", MILL)
    assert producer.rule.name == "TensorL"
    consumer = Proof(
        parse_sequent("q * p, r |- (q * p) * r", MILL),
        Rule("TensorR"),
        (ax("q * p |- q * p", MILL), ax("r |- r", MILL)),
    )
    cut = Proof(
        parse_sequent("p * q, r |- (q * p) * r", MILL),
        Rule("Cut"),
        (consumer, producer),
    )
    reduced, step = reduce_once(cut)
    assert step.kind == "permutation"
    assert reduced.rule.name == "TensorL"
    assert_eliminated(cut)


def test_permutation_into_consumer_with_r():
    producer = proved("p, q |- p * q", MILL)
    consumer = Proof(
        parse_sequent("p * q |- (p * q) & (p * q)", MILL),
        Rule("WithR"),
        (ax("p * q |- p * q", MILL), ax("p * q |- p * q", MILL)),
    )
    cut = Proof(
        parse_sequent("p, q |- (p * q) & (p * q)", MILL),
        Rule("Cut"),
        (consumer, producer),
    )
    reduced, step = reduce_once(cut)
    assert step.kind == "permutation"
    # the producer is duplicated into both branches
    assert reduced.rule.name == "WithR"
    assert all(pr.rule.name == "Cut" for pr in reduced.premises)
    assert_eliminated(cut)


def _stacked_cut():
    """A cut whose producer ends in another cut."""
    step1 = proved("p * q |- q * p", MILL)
    step2 = proved("q * p |- 1 * (q * p)", MILL)
    inner = Proof(
        parse_sequent("p * q |- 1 * (q * p)", MILL), Rule("Cut"), (step2, step1)
    )
    outer_consumer = proved("1 * (q * p) |- q * p", MILL)
    return Proof(
        parse_sequent("p * q |- q * p", MILL),
        Rule("Cut"),
        (outer_consumer, inner),
    )


def test_stacked_cuts_reduce_topmost_first():
    cut = _stacked_cut()
    assert check_proof(cut).ok
    assert cut_count(cut) == 2
    # first reduction must target the inner (topmost) cut
    _, trace = assert_eliminated(cut)
    assert trace.steps[0].path == (1,)


# -- every occurrence of the cut formula is tried --------------------------------


def _tensor_cut(system, after: str, before: str, concl: str, succ: str):
    """A TensorL consumer (antecedent ``after`` from ``before``) cut on
    ``a * b`` against a TensorR proof of ``x, x -o a, b |- a * b``."""
    consumer = Proof(
        parse_sequent(f"{after} |- {succ}", system),
        Rule("TensorL"),
        (proved(f"{before} |- {succ}", system),),
    )
    producer = Proof(
        parse_sequent("x, x -o a, b |- a * b", system),
        Rule("TensorR"),
        (proved("x, x -o a |- a", system), ax("b |- b", system)),
    )
    return Proof(parse_sequent(f"{concl} |- {succ}", system), Rule("Cut"), (consumer, producer))


def test_principal_sub_cut_at_a_later_occurrence():
    # the sub-cut on a belongs at the second a, inside the parallel node
    cut = _tensor_cut(
        PCMILL, "a ; (a * b)", "a ; [a, b]", "a ; [x, x -o a, b]", "a @ (a * b)"
    )
    assert check_proof(cut).ok
    _, trace = assert_eliminated(cut)
    assert trace.steps[0].kind == "principal"
    twin = _tensor_cut(MILL, "a, (a * b)", "a, a, b", "a, x, x -o a, b", "a * (a * b)")
    assert len(assert_eliminated(twin)[1]) == 4


def test_principal_reduct_cuts_the_parallel_occurrence():
    # a ; [x -o a, b, x] |- a @ (a * b): the sub-cut of x -o a, x |- a
    # into a ; [a, b] is an inference at either a, but at the serial a
    # it concludes [x -o a, x] ; [a, b], from which no entropy reaches
    # the cut's antecedent
    cut = proof_from_json(json.loads((FIXTURES / "pcmill_later_occurrence.json").read_text()))
    assert cut == _tensor_cut(
        PCMILL, "a ; (a * b)", "a ; [a, b]", "a ; [x, x -o a, b]", "a @ (a * b)")
    assert proof_size(cut) == 12
    consumer, producer = cut.premises
    serial = Proof(parse_sequent("[x -o a, x] ; [a, b] |- a @ (a * b)", PCMILL), Rule("Cut"),
                   (consumer.premises[0], producer.premises[0]))
    assert infers(serial)
    assert not infers(Proof(cut.conclusion, Rule("Cut"), (serial, producer.premises[1])))
    reduct, step = reduce_once(cut)
    assert step == ReductionStep("principal", producer.conclusion.succ, ())
    assert reduct.rule.name == "Cut" and reduct.premises[1] is producer.premises[1]
    sub = reduct.premises[0]
    assert sub.conclusion == parse_sequent("a ; [x, x -o a, b] |- a @ (a * b)", PCMILL)
    assert sub.premises == serial.premises


def _odot_cut(n: int):
    """OdotR over ``X ; ... ; X ; a`` (n copies of X = p * q), cut at its
    last X against ``p, q |- p * q``."""
    xs = " ; ".join(["(p * q)"] * n)
    left = " @ ".join(["(p * q)"] * n)
    consumer = Proof(
        parse_sequent(f"{xs} ; a |- ({left}) @ a", PCMILL),
        Rule("OdotR"),
        (proved(f"{xs} |- {left}", PCMILL), ax("a |- a", PCMILL)),
    )
    producer = proved("p, q |- p * q", PCMILL)
    concl = " ; ".join(["(p * q)"] * (n - 1) + ["[p, q]", "a"])
    return Proof(
        parse_sequent(f"{concl} |- ({left}) @ a", PCMILL), Rule("Cut"), (consumer, producer)
    )


def test_permutation_reaches_past_the_fourth_occurrence():
    assert len(assert_eliminated(_odot_cut(4))[1]) == 7
    cut = _odot_cut(5)
    assert check_proof(cut).ok
    reduced, step = reduce_once(cut)
    assert step.kind == "permutation" and reduced.rule.name == "OdotR"
    assert_eliminated(cut)


# -- a reduct that fails the kernel -------------------------------------------------


def _refl_axiom_cut():
    """BringsRefl over an axiom against BringsTensor over axioms: every
    node that the principal reduct builds reaches the normal form."""
    consumer = Proof(
        parse_sequent("E[a](p * q) |- p * q", RS),
        Rule("BringsRefl", "a"),
        (ax("p * q |- p * q", RS),),
    )
    producer = Proof(
        parse_sequent("E[a]p, E[a]q |- E[a](p * q)", RS),
        Rule("BringsTensor", "a"),
        (ax("E[a]p |- E[a]p", RS), ax("E[a]q |- E[a]q", RS)),
    )
    return Proof(parse_sequent("E[a]p, E[a]q |- p * q", RS), Rule("Cut"), (consumer, producer))


def _refl_over_one_r(agent, f, system):
    """E[a]f |- f by BringsRefl over f |- f, concluded by OneR, which is
    no inference."""
    inner = Sequent(leaf(f), f, system)
    outer = Sequent(leaf(brings(agent, f)), f, system)
    return Proof(outer, Rule("BringsRefl", agent), (Proof(inner, Rule("OneR")),))


def test_a_reduct_that_fails_the_kernel_is_an_internal_error(monkeypatch):
    # every root built over the mutant is still an inference, and the
    # mutant reaches the normal form unjudged: only the check of the
    # reduct or of the normal form sees it, and raises
    cut = _refl_axiom_cut()
    assert_eliminated(cut)
    monkeypatch.setattr(cutelim, "_refl_ax", _refl_over_one_r)
    with pytest.raises(RuntimeError, match="does not check"):
        eliminate_cuts(cut)
    with pytest.raises(RuntimeError, match="does not check"):
        reduce_once(cut)


def _swapped_comb(conclusion, rule, premises=()):
    """``Proof``, but the TensorR node that a principal reduction builds
    over two cuts takes them in the wrong order."""
    if rule.name == "TensorR" and premises and premises[0].rule.name == "Cut":
        premises = premises[::-1]
    return Proof(conclusion, rule, premises)


def test_a_cut_with_no_reduct_is_an_internal_error(monkeypatch):
    # the reduct cuts the swapped TensorR node into the axiom on p * q;
    # that cut's only candidate is the node itself, which is no
    # inference.  Outside DEFECTIVE_PAIRS every cut has a reduct, so
    # this is a fault of cut elimination, not a dead end
    cut = _refl_axiom_cut()
    monkeypatch.setattr(cutelim, "Proof", _swapped_comb)
    with pytest.raises(RuntimeError, match=r"no verified reduction applies \(consumer Ax "
                                           r"against producer TensorR\)"):
        eliminate_cuts(cut)


# -- dead ends ------------------------------------------------------------------


def _defect_not_nec_tensor():
    nn = Proof(
        parse_sequent("E[a]((p -o p) * (p -o p)) |- bot", RS),
        Rule("NotNec", "a"),
        (proved("|- (p -o p) * (p -o p)", RS),),
    )
    bt = Proof(
        parse_sequent(
            "E[a](p -o p), E[a](p -o p) |- E[a]((p -o p) * (p -o p))", RS
        ),
        Rule("BringsTensor", "a"),
        (
            ax("E[a](p -o p) |- E[a](p -o p)", RS),
            ax("E[a](p -o p) |- E[a](p -o p)", RS),
        ),
    )
    return Proof(
        parse_sequent("E[a](p -o p), E[a](p -o p) |- bot", RS),
        Rule("Cut"),
        (nn, bt),
    )


def test_defective_pair_not_nec_tensor_raises():
    cut = _defect_not_nec_tensor()
    assert check_proof(cut).ok
    with pytest.raises(CutEliminationError) as ei:
        eliminate_cuts(cut)
    assert ei.value.pair == ("NotNec", "BringsTensor")


def test_defect_witness_has_no_cut_free_proof():
    # the sequent is provable with cut but its cut-free search space is
    # finite and exhausted: cut elimination cannot hold in this system
    cut = _defect_not_nec_tensor()
    assert isinstance(prove(cut.conclusion), Exhausted)


def _defect_re_tensor():
    re = Proof(
        parse_sequent("E[a](p * q) |- E[a](1 * (p * q))", RS),
        Rule("BringsRe", "a"),
        (
            proved("p * q |- 1 * (p * q)", RS),
            proved("1 * (p * q) |- p * q", RS),
        ),
    )
    bt = Proof(
        parse_sequent("E[a]p, E[a]q |- E[a](p * q)", RS),
        Rule("BringsTensor", "a"),
        (ax("E[a]p |- E[a]p", RS), ax("E[a]q |- E[a]q", RS)),
    )
    return Proof(
        parse_sequent("E[a]p, E[a]q |- E[a](1 * (p * q))", RS),
        Rule("Cut"),
        (re, bt),
    )


def test_defective_pair_re_tensor_raises():
    cut = _defect_re_tensor()
    assert check_proof(cut).ok
    with pytest.raises(CutEliminationError) as ei:
        eliminate_cuts(cut)
    assert ei.value.pair == ("BringsRe", "BringsTensor")


def test_second_defect_witness_has_no_cut_free_proof():
    cut = _defect_re_tensor()
    assert isinstance(prove(cut.conclusion), Exhausted)


def test_defect_table_is_exactly_five_pairs():
    assert DEFECTIVE_PAIRS == {
        ("NotNec", "BringsTensor"),
        ("NotNec", "BringsOdot"),
        ("BringsRe", "BringsTensor"),
        ("BringsRe", "BringsWith"),
        ("BringsRe", "BringsOdot"),
    }


# -- interface ----------------------------------------------------------------------


def test_eliminate_rejects_broken_input():
    bad = ax("p |- q", MILL)
    with pytest.raises(ValueError):
        eliminate_cuts(bad)


def test_reduce_once_needs_a_cut():
    with pytest.raises(ValueError):
        reduce_once(proved("p |- p", MILL))


def test_reduce_once_rejects_a_cut_with_a_cut_above_it():
    cut = _stacked_cut()
    with pytest.raises(ValueError, match="has cuts above it"):
        reduce_once(cut)


def test_cut_free_input_round_trips():
    pr = proved("p, q |- p * q", MILL)
    final, trace = eliminate_cuts(pr)
    assert final == pr
    assert trace.steps == ()
    assert len(trace) == 0


# -- eliminate_cuts against the reference loop ---------------------------------------
# (every proof that ``assert_eliminated`` takes is compared as well)


@pytest.mark.parametrize("build", [_defect_not_nec_tensor, _defect_re_tensor])
def test_eliminate_stops_at_the_reference_dead_end(build):
    with pytest.raises(CutEliminationError) as got:
        eliminate_cuts(build())
    with pytest.raises(CutEliminationError) as reference:
        reference_eliminate(build())
    assert (got.value.pair, got.value.path) == (
        reference.value.pair,
        reference.value.path,
    )


def _hilbert_cut_proofs():
    """Translated Hilbert deductions with at least two cuts: q, p |- p * q
    by two modus ponens on tensor-intro, and seeded random deductions."""
    p, q = parse_formula("p", MILL), parse_formula("q", MILL)
    intro = axiom_leaf(schema("tensor-intro").instantiate({"A": p, "B": q}), MILL)
    tree = modus_ponens(assumption(q), modus_ponens(assumption(p), intro))
    proofs = [hilbert_to_sequent(tree, MILL)]
    for seed in range(40):
        system = MILL if seed % 2 == 0 else RS
        sp = hilbert_to_sequent(random_deduction(random.Random(seed), system), system)
        if cut_count(sp) >= 2:
            proofs.append(sp)
    return proofs


def test_eliminate_matches_reference_on_hilbert_translations():
    proofs = _hilbert_cut_proofs()
    assert len(proofs) >= 10
    for p in proofs:
        assert_eliminated(p)


def _composed_proofs():
    """200 seeded composed-cut proofs: 120 in MILL, 40 in PCMILL and 40
    in SRSBIAT:a,b."""
    rng = random.Random(20260815)
    return (
        mill_cut_proofs(Closure(MILL, 8), rng, 120)
        + tree_cut_proofs(rng, PCMILL, 40)
        + tree_cut_proofs(rng, SRS_AB, 40)
    )


def test_eliminate_matches_reference_on_composed_proofs():
    proofs = _composed_proofs()
    assert sum(cut_count(p) >= 2 for p in proofs) >= 50
    for p in proofs:
        assert_matches_reference(p)


def test_normal_forms_and_traces_are_pinned():
    # the reference loop above takes its reducts from ``reduce_once``
    # too, so it cannot see a change in which reduct a cut gets: this
    # digest of every normal form and trace can
    digest = hashlib.sha256()
    for p in _composed_proofs():
        final, trace = eliminate_cuts(p)
        digest.update(json.dumps(proof_to_json(final), sort_keys=True).encode())
        steps = [(s.kind, s.formula.key, list(s.path)) for s in trace.steps]
        digest.update(json.dumps(steps).encode())
    assert digest.hexdigest() == \
        "0e702f57e7817c4fafc6c3ed3e81e1e3c88c71cf7bd39ba682a29871a9419d45"


# -- counts on shared proofs ------------------------------------------------------


def tree_counts(p):
    """Node count, cut count and cut rank by a walk of the whole tree."""
    nodes = [n for _, n in proof_nodes(p)]
    ranks = [cut_formula(n).size for n in nodes if n.rule.name == "Cut"]
    return len(nodes), len(ranks), max(ranks, default=0)


def test_counts_of_a_shared_proof_match_the_tree():
    # X0 = p -o p, X(k+1) = X(k) & X(k): the proof of |- X16 is a tree
    # of 196,607 nodes over 18 distinct node objects
    x = limp(atom("p"), atom("p"))
    for _ in range(16):
        x = with_(x, x)
    p = prove(sequent(EMPTY, x, MILL)).proof
    assert (proof_size(p), cut_count(p), cutrank(p)) \
        == tree_counts(p) == (196_607, 0, 0)


def test_counts_visit_each_shared_node_once():
    # 61 distinct nodes read as a tree of 2**61 - 1: no walk of the tree
    # could count them
    node = ax("p |- p", MILL)
    for _ in range(60):
        node = Proof(node.conclusion, Rule("Cut"), (node, node))
    assert proof_size(node) == 2 ** 61 - 1
    assert cut_count(node) == 2 ** 60 - 1
    assert cutrank(node) == 1


def test_proof_counts_match_a_tree_walk_on_composed_proofs():
    proofs = _composed_proofs()
    # a cut of a proof against itself shares both premises
    proofs += [Proof(p.conclusion, Rule("Cut"), (p, p)) for p in proofs]
    for p in proofs:
        assert (proof_size(p), cut_count(p), cutrank(p)) == tree_counts(p)


# -- shared proofs stay shared -------------------------------------------------------


def distinct_nodes(p):
    """The number of distinct node objects in ``p``."""
    seen, todo = {}, [p]
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            todo += node.premises
    return len(seen)


def _ladder(k):
    """X0 = p -o p, X(k+1) = Xk & Xk, and Yk the same over 1 -o (p -o p):
    search's proof of |- Xk cut into its proof of Xk |- Yk."""
    x = limp(atom("p"), atom("p"))
    y = limp(unit(), x)
    for _ in range(k):
        x, y = with_(x, x), with_(y, y)
    producer = prove(sequent(EMPTY, x, MILL)).proof
    consumer = prove(sequent(leaf(x), y, MILL)).proof
    return Proof(sequent(EMPTY, y, MILL), Rule("Cut"), (consumer, producer))


@pytest.mark.parametrize("k", [4, 6])
def test_ladder_matches_reference(k):
    assert_eliminated(_ladder(k))


@pytest.mark.parametrize("k", [10, 16])
def test_ladder_reduces_each_distinct_cut_once(k):
    # the reference unshares: 17,407 steps at k = 10
    cut = _ladder(k)
    final, trace = eliminate_cuts(cut)
    assert len(trace) == 2 * k + 6
    assert distinct_nodes(final) == k + 4
    assert proof_size(final) == 5 * 2 ** k - 1
    assert cut_count(final) == 0 and check_proof(final).ok
    assert final.conclusion == cut.conclusion


def test_a_shared_cut_is_reduced_once():
    # two OneL parents share one subproof that holds an Ax/Ax cut
    ax_p = ax("p |- p", MILL)
    cut = Proof(ax_p.conclusion, Rule("Cut"), (ax_p, ax_p))
    above = parse_sequent("p, 1 |- p", MILL)
    parents = (Proof(above, Rule("OneL"), (cut,)), Proof(above, Rule("OneL"), (cut,)))
    root = Proof(parse_sequent("p, 1 |- p & p", MILL), Rule("WithR"), parents)
    final, trace = assert_eliminated(root)
    assert trace.steps == (ReductionStep("principal", atom("p"), (0, 0)),)
    assert len(reference_eliminate(root)[1]) == 2
    assert final.premises[0].premises[0] is final.premises[1].premises[0]


# -- deep proofs ------------------------------------------------------------------


def test_deep_proof_eliminates(monkeypatch):
    from test_kernel import count_checks

    # one Ax/Ax cut under 1,500 OneL steps: the cut's path is 1,500 long
    ax_p = ax("p |- p", MILL)
    node = Proof(ax_p.conclusion, Rule("Cut"), (ax_p, ax_p))
    one, p = parse_formula("1", MILL), parse_formula("p", MILL)
    for k in range(1, 1501):
        node = Proof(sequent(mset([one] * k + [p]), p, MILL), Rule("OneL"), (node,))
    # the kernel judges each of the 1,502 distinct input nodes once, the
    # reduct's root (Ax) once, and the 1,500 OneL nodes that the fold
    # built once: the normal form's Ax is the input's own ax_p, which
    # the check of the input accepted, so the final check skips it
    judged = count_checks(monkeypatch)
    final, trace = eliminate_cuts(node)
    assert len(judged) == 1502 + 1 + 1500
    assert [(s.kind, s.path) for s in trace.steps] == [("principal", (0,) * 1500)]
    assert final.conclusion == node.conclusion
    assert cut_count(final) == 0 and check_proof(final).ok
