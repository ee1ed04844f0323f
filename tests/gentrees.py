"""Random test inputs: seeded deduction trees for the Hilbert tests and
a Hypothesis strategy for normal-form antecedent trees."""
from __future__ import annotations

import random

from hypothesis import strategies as st

from proofmill.context import leaf, par, ser
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
from proofmill.syntax import (
    Limp,
    System,
    SystemId,
    atom,
    limp,
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
    agent = rng.choice(system.agents) if "brings" in repr(sc.template) else None
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
