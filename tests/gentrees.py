"""Random test inputs: seeded deduction trees for the Hilbert tests,
seeded composed-cut proofs for the cut-elimination tests, and a
Hypothesis strategy for normal-form antecedent trees."""
from __future__ import annotations

import random

from hypothesis import strategies as st

from proofmill.calculus import CUT, Proof, Rule
from proofmill.context import (
    Leaf,
    context_formulas,
    fill,
    leaf,
    mset,
    par,
    positions,
    sequent,
    ser,
    to_formula,
)
from proofmill.hilbert import (
    AXIOM_SCHEMATA,
    DeductionTree,
    assumption,
    axiom_leaf,
    box_re_rule,
    brings_re_rule,
    modus_ponens,
    not_nec_rule,
    schema,
    with_rule,
)
from proofmill.search import Proved, prove
from proofmill.syntax import (
    Limp,
    System,
    SystemId,
    atom,
    box,
    brings,
    formula_agents,
    limp,
    odot,
    parse_system,
    tensor,
    unit,
    with_,
)

_ATOMS = tuple(atom(n) for n in ("p", "q", "r"))


def trees(leafs=st.sampled_from(_ATOMS).map(leaf), max_leaves=5):
    """Normal-form trees over ``leafs``, parallel and serial nodes of two
    or three children."""
    return st.recursive(
        leafs,
        lambda kids: st.one_of(
            st.lists(kids, min_size=2, max_size=3).map(par),
            st.lists(kids, min_size=2, max_size=3).map(ser),
        ),
        max_leaves=max_leaves,
    )


def random_formula(rng: random.Random, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(_ATOMS + (unit(),))
    op = rng.choice((limp, tensor, with_))
    return op(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def _random_axiom(rng: random.Random, system: System) -> DeductionTree:
    choices = [s for s in AXIOM_SCHEMATA if system.ident in s.systems]
    sc = rng.choice(choices)
    subst = {v: random_formula(rng, 1) for v in sc.metavariables}
    agent = rng.choice(system.agents) if formula_agents(sc.template) else None
    return axiom_leaf(sc.instantiate(subst, agent), system)


def random_deduction(
    rng: random.Random, system: System, steps: int = 6
) -> DeductionTree:
    """A valid tree with at least one assumption in its conclusion."""
    pool: list[DeductionTree] = [
        assumption(random_formula(rng)) for _ in range(3)
    ]
    pool += [_random_axiom(rng, system) for _ in range(3)]
    for _ in range(steps):
        kind = rng.choice(("mp", "mp", "mp", "with", "modal"))
        if kind == "mp":
            majors = [t for t in pool if isinstance(t.formula, Limp)]
            if not majors:
                pool.append(_random_axiom(rng, system))
                continue
            major = rng.choice(majors)
            minors = [t for t in pool if t.formula is major.formula.left]
            minor = rng.choice(minors) if minors and rng.random() < 0.5 \
                else assumption(major.formula.left)
            pool.append(modus_ponens(minor, major))
        elif kind == "with":
            t = rng.choice(pool)
            pool.append(with_rule(t, t))
        else:
            ident = axiom_leaf(
                schema("identity").instantiate({"A": random_formula(rng, 1)}),
                system,
            )
            if system.ident is SystemId.MILL:
                pool.append(box_re_rule(ident, ident))
            else:
                agent = rng.choice(system.agents)
                if rng.random() < 0.5:
                    pool.append(brings_re_rule(agent, ident, ident))
                else:
                    closed = [t for t in pool if not t.assumptions]
                    pool.append(not_nec_rule(agent, rng.choice(closed)))
    with_assumptions = [t for t in pool if t.assumptions]
    if not with_assumptions:
        base = assumption(random_formula(rng))
        return modus_ponens(
            base,
            axiom_leaf(
                schema("identity").instantiate({"A": base.formula}), system
            ),
        )
    return rng.choice(with_assumptions)


# -- composed-cut proofs

_MILL = parse_system("MILL")


def _must_prove(goal):
    outcome = prove(goal)
    assert isinstance(outcome, Proved), goal.key
    return outcome.proof


def mill_cut_proofs(oracle, rng, count):
    """Cut compositions of oracle-derivable parts, one to three cuts each."""
    known = sorted(
        ((tuple(context_formulas(ctx)), succ) for ctx, succ in oracle.known),
        key=lambda s: (s[1].key, tuple(f.key for f in s[0])),
    )
    by_succ = {}
    for ants, succ in known:
        by_succ.setdefault(succ, []).append(ants)
    consumers = [s for s in known if s[0]]

    proofs = []
    while len(proofs) < count:
        ants, succ = consumers[rng.randrange(len(consumers))]
        cuttable = [f for f in ants if f in by_succ]
        if not cuttable:
            continue
        cut_f = cuttable[rng.randrange(len(cuttable))]
        producer_ants = rng.choice(by_succ[cut_f])
        consumer = _must_prove(sequent(mset(ants), succ, _MILL))
        producer = _must_prove(sequent(mset(producer_ants), cut_f, _MILL))
        rest = list(ants)
        rest.remove(cut_f)
        node = Proof(
            sequent(mset(tuple(rest) + producer_ants), succ, _MILL),
            Rule(CUT),
            (consumer, producer),
        )
        for _ in range(rng.randrange(3)):
            members = context_formulas(node.conclusion.ctx)
            cuttable = [f for f in members if f in by_succ]
            if not cuttable:
                break
            cut_f = cuttable[rng.randrange(len(cuttable))]
            producer_ants = rng.choice(by_succ[cut_f])
            producer = _must_prove(sequent(mset(producer_ants), cut_f, _MILL))
            rest = list(members)
            rest.remove(cut_f)
            node = Proof(
                sequent(mset(tuple(rest) + producer_ants), succ, _MILL),
                Rule(CUT),
                (node, producer),
            )
        proofs.append(node)
    return proofs


def _fold_context(rng, leaves):
    parts = [leaf(f) for f in leaves]
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        combine = rng.choice((ser, par))
        parts[i:i + 2] = [combine(parts[i:i + 2])]
    return parts[0]


def tree_cut_proofs(rng, system, count):
    """Cut a proved subcontext into a serial or parallel consumer."""
    if system.ident is SystemId.PCMILL:
        pool = [atom("p"), atom("q"), atom("r"), box(atom("p"))]
    else:
        pool = [atom("p"), atom("q"),
                brings("a", atom("p")), brings("b", atom("q"))]
    proofs = []
    for i in range(count):
        leaves = [rng.choice(pool) for _ in range(rng.choice((2, 3)))]
        ctx = _fold_context(rng, leaves)
        cut_f = to_formula(ctx)
        producer = _must_prove(sequent(ctx, cut_f, system))

        extra = rng.choice(pool)
        if rng.random() < 0.5:
            consumer_ctx = ser([leaf(cut_f), leaf(extra)])
            goal_succ = odot(cut_f, extra)
        else:
            consumer_ctx = par([leaf(cut_f), leaf(extra)])
            goal_succ = tensor(cut_f, extra)
        consumer = _must_prove(sequent(consumer_ctx, goal_succ, system))

        cut_path = next(
            path for path, node in positions(consumer_ctx)
            if isinstance(node, Leaf) and node.formula is cut_f
        )
        node = Proof(
            sequent(fill(consumer_ctx, cut_path, ctx), goal_succ, system),
            Rule(CUT),
            (consumer, producer),
        )
        if i % 2:
            # stack a second cut on the leftover atom leaf
            target = next(
                (path, n.formula)
                for path, n in positions(node.conclusion.ctx)
                if isinstance(n, Leaf) and n.formula is extra
            )
            source = leaf(with_(extra, rng.choice(pool)))
            producer2 = _must_prove(sequent(source, extra, system))
            node = Proof(
                sequent(
                    fill(node.conclusion.ctx, target[0], source),
                    goal_succ,
                    system,
                ),
                Rule(CUT),
                (node, producer2),
            )
        proofs.append(node)
    return proofs
