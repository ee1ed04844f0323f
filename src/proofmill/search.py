"""Backward proof search.

The engine works goal-down over the cut-free rules.  Entropy is not a
proof step: in the tree systems every rule lists its premises at the
goal so that they dominate what it lists at any structural preimage
(see ``apply_rule``), and the kernel lets each rule reach its
conclusion by entropy, so a proof found here mentions only logical
rules and axioms.

``Ax``, then the invertible rules, are tried first and committed to:
when one matches, only its first premise list is explored and no other
rule is tried at that goal.  The remaining rules backtrack over every
premise list, which each rule streams, building none past the first
that proves.  Only the rules whose principal connective (the kernel's
``RULES``) the goal holds on the rule's side are tried, looked up per
system by the succedent's class and the OR of the leaves'
``Formula.bit``: a skipped rule would list nothing, so no proof and no
count changes.  Which rules a system has is the kernel's; the order
and the commitments are search policy, kept here.

A formula has a signed atom charge (``Formula.charge``): one value, or
a set of up to ``CHARGE_CAP`` values where it holds an ``&`` whose
conjuncts' charges differ (one per reading of each ``&`` as a
conjunct), or none past the cap; ``[]`` and ``E[a]`` pass it through
and ``bot`` weighs 0.  Every rule keeps a value shared by antecedent
and succedent where both have a charge, so by the subformula property a
provable sequent balances (van Benthem's count invariant), and the root
and each premise that ``balanced`` rejects (``charges_meet``) is
refuted unexpanded (``p & q |- p * q`` at the root; ``NotNec`` needs
``bot`` at 0).  ``_Matcher`` lists a split whose first premise cannot
balance as None, unbuilt where the children of its left part each have
one value, and it counts in ``pruned`` as the built premise would have,
so every count is as if it were built.

Every searched rule strictly decreases the premise total complexity,
so the stack of open goals that the search loop keeps is never deeper
than the goal's total complexity, and search terminates without a
budget.  A goal's result depends only on the goal, so every success
and every failure is memoized.  Search decides in every system:
``Exhausted`` means the goal has no cut-free proof, which in RSBIAT and
SRSBIAT does not rule out one with cut (``docs/cut_elimination.md``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from .calculus import (
    AX,
    BOX_RE,
    BRINGS_ODOT,
    BRINGS_RE,
    BRINGS_REFL,
    BRINGS_TENSOR,
    BRINGS_WITH,
    LIMP_L,
    LIMP_R,
    LRES_L,
    LRES_R,
    NOT_NEC,
    ODOT_L,
    ODOT_R,
    ONE_L,
    ONE_R,
    RRES_L,
    RRES_R,
    TENSOR_L,
    TENSOR_R,
    WITH_L1,
    WITH_L2,
    WITH_R,
    Proof,
    Rule,
    _Matcher,
)
from .context import Sequent, context_charge, context_formulas
from .kernel import LEAF, RULES, rule_instances
from .syntax import Formula, System, charges_meet, subformulas

INVERTIBLE_RULES: tuple[str, ...] = (
    TENSOR_L,
    ODOT_L,
    ONE_L,
    LIMP_R,
    LRES_R,
    RRES_R,
    WITH_R,
)

# Ax closes its goal outright, so search commits to it as well
COMMITTED_RULES: tuple[str, ...] = (AX,) + INVERTIBLE_RULES

DEFAULT_RULE_ORDER: tuple[str, ...] = COMMITTED_RULES + (
    ONE_R,
    BOX_RE,
    BRINGS_RE,
    NOT_NEC,
    BRINGS_REFL,
    WITH_L1,
    WITH_L2,
    LIMP_L,
    LRES_L,
    RRES_L,
    TENSOR_R,
    ODOT_R,
    BRINGS_TENSOR,
    BRINGS_ODOT,
    BRINGS_WITH,
)

@dataclass(frozen=True)
class Proved:
    proof: Proof
    explored: int = 0
    peak_depth: int = 0


@dataclass(frozen=True)
class Exhausted:
    explored: int
    peak_depth: int = 0


SearchResult = Proved | Exhausted


@dataclass
class SearchStats:
    explored: int = 0
    peak_depth: int = 0
    memo_hits: int = 0
    # premises and roots refuted by charge, never searched; a premise
    # list whose split the charge refutes counts once, unbuilt
    pruned: int = 0
    # always False: nothing cuts search short (bench/tracer.py reads it)
    truncated: bool = False


def _rules_holding(system: System, succ_type: type, mask: int) -> tuple[Rule, ...]:
    """The rules of ``system`` in ``DEFAULT_RULE_ORDER``, agent rules
    instantiated per agent, whose principal connective (``RULES``) a
    goal holds, given its succedent's class and the OR of its leaves'
    ``Formula.bit``: a rule left out would list nothing there."""
    names = []
    for name in DEFAULT_RULE_ORDER:
        row = RULES[name]
        if row.side is None or (mask & row.kinds[0].bit if row.side == LEAF
                                else succ_type is row.kinds[0]):
            names.append(name)
    return rule_instances(system, names)


# per system, the rules to try by (succedent class, leaf bitmask)
_TABLES: dict[System, dict[tuple[type, int], tuple[Rule, ...]]] = {}


class _Engine:
    def __init__(self, system: System):
        self.table = _TABLES.get(system) or _TABLES.setdefault(system, {})
        self.success: dict[Sequent, Proof] = {}
        self.failed: set[Sequent] = set()
        self.stats = SearchStats()

    def search(self, goal: Sequent) -> Proof | None:
        """One loop over the stack of open goals and their expansions."""
        stats = self.stats
        stats.explored += 1
        stack = [(goal, self._expand(goal))]
        answer: Proof | None = None
        while stack:
            goal, expansion = stack[-1]
            try:
                premise = expansion.send(answer)
            except StopIteration as done:
                stack.pop()
                answer = done.value
                if answer is None:
                    self.failed.add(goal)
                else:
                    self.success[goal] = answer
                continue
            stats.explored += 1
            if len(stack) > stats.peak_depth:
                stats.peak_depth = len(stack)
            stack.append((premise, self._expand(premise)))
            answer = None
        return answer

    def rules_for(self, goal: Sequent) -> tuple[Rule, ...]:
        """The rules to try at ``goal``, in order."""
        mask = 0
        for f in context_formulas(goal.ctx):
            mask |= f.bit
        key = (type(goal.succ), mask)
        rules = self.table.get(key)
        if rules is None:
            rules = self.table[key] = _rules_holding(goal.system, *key)
        return rules

    def _expand(self, goal: Sequent) -> Generator[Sequent, Proof | None, Proof | None]:
        """Yield each premise the memo does not decide, taking back its
        proof or None; return the goal's proof or None."""
        rules = self.rules_for(goal)
        matcher = _Matcher(goal, refute=True)
        success, failed = self.success, self.failed
        for rule in rules:
            for premises in matcher.run(rule):
                if premises is None:
                    # its first premise is unbalanced: refuted unbuilt
                    self.stats.pruned += 1
                    continue
                subs: list[Proof] = []
                for premise in premises:
                    if not balanced(premise):
                        self.stats.pruned += 1
                        break
                    sub = success.get(premise)
                    if sub is None:
                        if premise in failed:
                            self.stats.memo_hits += 1
                            break
                        sub = yield premise
                        if sub is None:
                            break
                    subs.append(sub)
                else:
                    return Proof(goal, rule, tuple(subs))
                if rule.name in COMMITTED_RULES:
                    return None
        return None


def balanced(seq: Sequent) -> bool:
    """False only when both sides of ``seq`` have charges and they share
    no value (``charges_meet``)."""
    succ = seq.succ.charge
    return succ is None or charges_meet(context_charge(seq.ctx), succ)


def prove_with_stats(goal: Sequent) -> tuple[SearchResult, SearchStats]:
    engine = _Engine(goal.system)
    st = engine.stats
    if not balanced(goal):
        st.explored = st.pruned = 1
        return Exhausted(1), st
    proof = engine.search(goal)
    if proof is not None:
        return Proved(proof, st.explored, st.peak_depth), st
    return Exhausted(st.explored, st.peak_depth), st


def prove(goal: Sequent) -> SearchResult:
    return prove_with_stats(goal)[0]


# ---------------------------------------------------------------------------


def subformula_audit(p: Proof) -> tuple[bool, list[tuple[tuple[int, ...], Formula]]]:
    """Check that every formula in the proof is a subformula of the end
    sequent.  Cut-free proofs produced by the search pass this; proofs
    with cuts may not.  Each distinct node object is visited once, so an
    offender in a shared subtree is reported once, at its first path in
    preorder."""
    universe: set[Formula] = set()
    root = p.conclusion
    for f in context_formulas(root.ctx) + [root.succ]:
        universe |= subformulas(f)
    offenders: list[tuple[tuple[int, ...], Formula]] = []
    visited: set[int] = set()
    stack: list[tuple[tuple[int, ...], Proof]] = [((), p)]
    while stack:
        path, node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack += [(path + (i,), q) for i, q in enumerate(node.premises)][::-1]
        seen: set[Formula] = set()
        for f in context_formulas(node.conclusion.ctx) + [node.conclusion.succ]:
            if f not in universe and f not in seen:
                seen.add(f)
                offenders.append((path, f))
    return (not offenders, offenders)
