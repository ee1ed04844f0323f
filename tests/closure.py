"""Reference premise lists read through the whole entropy closure, and
every small normal-form tree, repeated leaves allowed or not.

``closure_premises(goal, rule)`` is what a rule gives at every
structural preimage of the goal, the antecedent closed backward under
entropy with no cap.  ``apply_rule`` lists only the maximal premise
lists at the goal itself; the tests compare the two.
"""
from __future__ import annotations

from itertools import combinations

from proofmill.calculus import Rule, apply_rule
from proofmill.context import (
    Context,
    Sequent,
    context_formulas,
    leaf,
    par,
    ser,
    structural_preimages,
)
from proofmill.syntax import Formula

_CLOSURES: dict[Context, frozenset[Context]] = {}
_ORDERS: dict[Context, list[Context]] = {}
_LISTED: dict[tuple[Sequent, Rule], list[list[Sequent]]] = {}


def preimages(c: Context) -> list[Context]:
    """The backward entropy closure of ``c``, ``c`` first, uncapped."""
    got = _ORDERS.get(c)
    if got is None:
        got, overflow = structural_preimages(c, 10**6)
        assert not overflow
        _ORDERS[c] = got
    return got


def below(x: Context, c: Context) -> bool:
    """``x`` lies in the backward entropy closure of ``c``."""
    got = _CLOSURES.get(c)
    if got is None:
        got = _CLOSURES[c] = frozenset(preimages(c))
    return x in got


def closure_premises(goal: Sequent, rule: Rule) -> list[list[Sequent]]:
    """The union of ``apply_rule`` over every structural preimage of the
    goal's antecedent, first occurrence first."""
    out: dict[tuple[str, ...], list[Sequent]] = {}
    for x in preimages(goal.ctx):
        at = Sequent(x, goal.succ, goal.system)
        listed = _LISTED.get((at, rule))
        if listed is None:
            listed = _LISTED[at, rule] = apply_rule(at, rule)
        for prems in listed:
            out.setdefault(tuple(s.key for s in prems), prems)
    return list(out.values())


def dominated(low: list[Sequent], high: list[Sequent]) -> bool:
    """Each premise of ``low`` lies below the matching one of ``high``:
    same succedent, antecedent in its entropy closure."""
    return len(low) == len(high) and all(
        a.succ == b.succ and below(a.ctx, b.ctx) for a, b in zip(low, high)
    )


def leaf_bag(t: Context) -> tuple[str, ...]:
    return tuple(sorted(f.key for f in context_formulas(t)))


def normal_trees(formulas: list[Formula], max_leaves: int) -> list[list[Context]]:
    """Every normal-form tree with 1..max_leaves leaves over ``formulas``,
    grouped by leaf multiset."""
    by_size = {1: {leaf(f) for f in formulas}}
    for n in range(2, max_leaves + 1):
        by_size[n] = {
            make([a, b])
            for k in range(1, n)
            for a in by_size[k]
            for b in by_size[n - k]
            for make in (par, ser)
        }
    groups: dict[tuple[str, ...], list[Context]] = {}
    for trees in by_size.values():
        for t in sorted(trees, key=lambda t: t.key):
            groups.setdefault(leaf_bag(t), []).append(t)
    return list(groups.values())


def distinct_trees(formulas: list[Formula]) -> list[Context]:
    """Every normal-form tree whose leaves are ``formulas``, pairwise
    distinct, each once: the series-parallel orders on them, by key."""
    built: dict[frozenset, set[Context]] = {}

    def over(fs: frozenset) -> set[Context]:
        got = built.get(fs)
        if got is None:
            if len(fs) == 1:
                got = {leaf(next(iter(fs)))}
            else:
                items = sorted(fs, key=lambda f: f.key)
                got = {
                    make([a, b])
                    for k in range(1, len(items))
                    for left in combinations(items, k)
                    for a in over(frozenset(left))
                    for b in over(fs.difference(left))
                    for make in (par, ser)
                }
            built[fs] = got
        return got

    return sorted(over(frozenset(formulas)), key=lambda t: t.key)
