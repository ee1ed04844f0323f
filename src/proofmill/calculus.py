"""Backward rule application for proof search, proof measures, and
proof serialization.

Rule application is read backward: ``apply_rule(goal, rule)`` lists
the premise tuples from which ``rule`` concludes ``goal``.  Every rule
reads the goal's own antecedent.  In the tree systems entropy (``Γ ; Δ``
gives ``Γ , Δ``) moves above every rule except those that build ``;``:
``OdotR`` and ``BringsOdot`` list the maximal serial cuts of the goal
(``split_serial``), ``LresL`` and ``RresL`` the maximal argument groups
around the principal leaf (``_arg_groups``).  What a rule gives at any
structural preimage of the goal is thereby dominated by what it gives
at the goal, so no preimage closure is computed and entropy needs no
rule of its own.  ``Cut`` is not listed: its premises are not read off
the goal.  A rule's shape is read off its row in the kernel's ``RULES``:
one enumerator serves the one-premise left rules by the row's ``parts``,
and one each serves the pair right rules, the implication right rules,
the residual left rules and the converse rules by its connectives.

Proofs are checked elsewhere: ``check_proof`` is the independent kernel
in ``kernel.py``, which reads each inference forward and never calls
this enumerator.  The rule names, ``Rule``, ``Proof``, the checker and
the rule table are defined there, and all but the table re-exported
here.  Premise order follows the rule schemas listed in ``kernel.py``.
"""
from __future__ import annotations

from typing import Iterator

from .context import (
    EMPTY,
    Context,
    Leaf,
    Par,
    Path,
    Sequent,
    Ser,
    fill,
    leaf,
    par,
    parse_sequent,
    print_sequent,
    ser,
    singleton_body,
    split_parallel,
    split_serial,
)
from .kernel import (  # noqa: F401  (re-exported)
    AGENT_RULES,
    AX,
    BOX_RE,
    BRINGS_ODOT,
    BRINGS_RE,
    BRINGS_REFL,
    BRINGS_TENSOR,
    BRINGS_WITH,
    CUT,
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
    SYSTEM_RULES,
    TENSOR_L,
    TENSOR_R,
    WITH_L1,
    WITH_L2,
    WITH_R,
    CheckReport,
    Proof,
    Rule,
    check_proof,
    fold_tree,
    proof_nodes,
    rule_admissible,
    rule_instances,
)
from .kernel import RULES
from .syntax import (
    BOT,
    Brings,
    Formula,
    Limp,
    Lres,
    Odot,
    Rres,
    System,
    SystemId,
    Unit,
    With,
    brings,
    charges_meet,
    operands,
)

def _tally(p: Proof) -> tuple[int, int, int]:
    """The node count, cut count and largest cut formula size of ``p``
    read as a tree, in time linear in its distinct nodes: each node's
    tally is kept by id, which stays unique while ``p`` holds them."""
    memo: dict[int, tuple[int, int, int]] = {}
    todo = [p]
    while todo:
        node = todo[-1]
        kids = [k for k in node.premises if id(k) not in memo]
        if kids:
            todo += kids
            continue
        todo.pop()
        cut = node.rule.name == CUT
        sizes, cuts, ranks = zip((1, cut, cut_formula(node).size if cut else 0),
                                 *(memo[id(k)] for k in node.premises))
        memo[id(node)] = sum(sizes), sum(cuts), max(ranks)
    return memo[id(p)]


def proof_size(p: Proof) -> int:
    return _tally(p)[0]


def cut_count(p: Proof) -> int:
    return _tally(p)[1]


def cut_formula(node: Proof) -> Formula:
    if node.rule.name != CUT:
        raise ValueError("not a cut node")
    return node.premises[1].conclusion.succ


def cutrank(p: Proof) -> int:
    return _tally(p)[2]


# ---------------------------------------------------------------------------
# Backward rule application


def _arg_groups(ctx: Context, path: Path, res: Formula, before: bool):
    """The maximal argument groups of a residual left rule whose
    principal leaf sits at ``path`` in ``ctx``, as triples
    ``(Γ, rest, exposed)``.

    ``Γ`` is taken from just before the leaf (LresL, ``before``) or just
    after it (RresL), and ``rest`` is ``ctx`` with the group and the
    leaf replaced by ``res``.  Putting ``Γ ; A \\ B`` (or ``B / A ; Γ``)
    back in place of ``res`` gives a tree below ``ctx`` by entropy, and
    every group and rest that some tree below ``ctx`` offers lie below
    a listed pair.  ``exposed`` marks a ``rest`` that starts (ends)
    with ``res``, so that context placed just before (after) it can
    still join ``Γ``.  Lists below read from the far side of the group
    towards the principal leaf; ``seq`` puts them back in order.
    """
    if not path:
        return [(EMPTY, leaf(res), True)]

    def seq(parts: list[Context]) -> Context:
        return ser(parts if before else parts[::-1])  # type: ignore[arg-type]

    def cuts(c: Context):
        """Proper serial cuts of ``c`` as (far part, near part)."""
        for l, r in split_serial(c):
            if l != EMPTY and r != EMPTY:
                yield (l, r) if before else (r, l)

    kids = list(ctx.children)  # type: ignore[union-attr]
    i = path[0]
    out: dict[tuple[Context, Context, bool], None] = {}

    def push(gamma: Context, rest: Context, exposed: bool) -> None:
        out[gamma, rest, exposed] = None

    for gamma, rest, exposed in _arg_groups(kids[i], path[1:], res, before):
        if isinstance(ctx, Ser):
            # siblings on the group's side, far to near, and the others
            side = kids[:i] if before else kids[i + 1 :][::-1]
            tail = kids[i + 1 :] if before else kids[:i][::-1]
            push(gamma, seq(side + [rest] + tail), exposed and not side)
            if not exposed:
                continue
            # lengthen the group over the nearest siblings, starting
            # inside the farthest of them
            for j, sib in enumerate(side):
                for far, near in [(EMPTY, sib), *cuts(sib)]:
                    push(seq([near] + side[j + 1 :] + [gamma]),
                         seq(side[:j] + [far, rest] + tail),
                         j == 0 and far == EMPTY)
        elif not exposed:
            push(gamma, par(kids[:i] + kids[i + 1 :] + [rest]), False)
        else:
            # any other children join the group as one parallel block;
            # the remaining ones stay parallel or follow the residue
            others = kids[:i] + kids[i + 1 :]
            for group, left in split_parallel(par(others)):
                push(seq([group, gamma]), par([left, rest]), False)
                push(seq([group, gamma]), seq([rest, left]), True)
            # or one serial child is cut and its near part joins too
            for k, o in enumerate(others):
                for far, near in cuts(o):
                    for group, left in split_parallel(par(others[:k] + others[k + 1 :])):
                        push(seq([near, group, gamma]),
                             par([left, seq([far, rest])]), False)
    return list(out)


class _Matcher:
    """Premise enumeration for one goal, one generator per rule.  Every
    rule reads the goal's own antecedent: entropy is absorbed into the
    shapes that the rules building ``;`` list (``split_serial`` and
    ``_arg_groups``).  With ``refute``, the rules that split the goal
    (``TensorR``, ``LimpL``, ``OdotR`` and their ``E[a]`` forms) list a
    premise list whose first premise cannot balance as None, unbuilt
    where ``split_parallel`` sums its left part's charge unbuilt."""

    __slots__ = ("ctx", "system", "succ", "refute", "_leaves")

    def __init__(self, goal: Sequent, refute: bool = False):
        self.ctx = goal.ctx
        self.system = goal.system
        self.succ = goal.succ
        self.refute = refute
        self._leaves: list[tuple[Formula, Path]] | None = None

    def leaves(self) -> list[tuple[Formula, Path]]:
        """The principal candidates, found once: each leaf as (formula,
        path), in preorder.  A child equal to its left sibling under a
        parallel node is skipped, as it gives the same premises."""
        if self._leaves is not None:
            return self._leaves
        out: list[tuple[Formula, Path]] = []

        def walk(n: Context, path: Path) -> None:
            if isinstance(n, Leaf):
                out.append((n.formula, path))
            elif isinstance(n, (Par, Ser)):
                prev = None
                for i, ch in enumerate(n.children):
                    if not (ch == prev and isinstance(n, Par)):
                        walk(ch, path + (i,))
                    prev = ch

        walk(self.ctx, ())
        self._leaves = out
        return out

    def run(self, rule: Rule) -> Iterator[list[Sequent] | None]:
        """The premise lists of ``rule``, as they are found, each once;
        None for each one refuted by charge.  Only ``OneL``, which can
        empty two serial positions into one tree, and the residual left
        rules, whose argument groups can coincide, find a list twice, so
        only theirs pass the duplicate filter."""
        lists = _DISPATCH[rule.name](self, rule)
        return _once(lists) if rule.name in _REPEATING else lists

    # -- leaves ------------------------------------------------------------

    def _ax(self, rule: Rule) -> Iterator[list[Sequent]]:
        if singleton_body(self.ctx) == self.succ:
            yield []

    def _one_r(self, rule: Rule) -> Iterator[list[Sequent]]:
        if isinstance(self.succ, Unit) and self.ctx is EMPTY:
            yield []

    # -- unary left rules ----------------------------------------------------

    def _left_unary(self, rule: Rule) -> Iterator[list[Sequent]]:
        """A one-premise left rule: the operands that its row's ``parts``
        names in place of one principal occurrence, in series for ``@``;
        an ``E[a]`` is principal only for the rule's agent."""
        row = RULES[rule.name]
        kind, parts = row.kinds[0], row.parts
        for f, path in self.leaves():
            if not isinstance(f, kind) or kind is Brings and f.agent != rule.agent:
                continue
            subs = operands(f)[parts]
            if len(subs) == 2:
                repl = (ser if kind is Odot else par)([leaf(subs[0]), leaf(subs[1])])
            else:
                repl = leaf(subs[0]) if subs else EMPTY
            yield [Sequent(fill(self.ctx, path, repl), self.succ, self.system)]

    # -- right rules ---------------------------------------------------------

    def _pair_right(self, rule: Rule) -> Iterator[list[Sequent] | None]:
        """TensorR, OdotR, WithR and their ``E[a]`` forms, whose
        connectives the kernel's ``RULES`` gives: the two halves over
        the goal's antecedent (``&``) or over each of its splits,
        serial for ``@``."""
        g, a, sys, kind = self.succ, rule.agent, self.system, RULES[rule.name].kinds[-1]
        if a is not None:
            if not (isinstance(g, Brings) and g.agent == a):
                return
            g = g.body
        if not isinstance(g, kind):
            return
        left, right = (g.left, g.right) if a is None else (brings(a, g.left), brings(a, g.right))
        if kind is With:
            yield [Sequent(self.ctx, left, sys), Sequent(self.ctx, right, sys)]
            return
        split = split_serial if kind is Odot else split_parallel
        for pair in split(self.ctx, left.charge if self.refute else None):
            yield None if pair is None else [
                Sequent(pair[0], left, sys), Sequent(pair[1], right, sys)]

    def _imp_r(self, rule: Rule) -> Iterator[list[Sequent]]:
        """LimpR, LresR and RresR, by the connective in ``RULES``: the
        argument joins the goal's antecedent, in parallel for ``-o``,
        before it for ``\\`` and after it for ``/``."""
        g, kind = self.succ, RULES[rule.name].kinds[0]
        if not isinstance(g, kind):
            return
        arg, res = (g.right, g.left) if kind is Rres else (g.left, g.right)
        u = leaf(arg)
        prem = par([self.ctx, u]) if kind is Limp else \
            ser([u, self.ctx] if kind is Lres else [self.ctx, u])
        yield [Sequent(prem, res, self.system)]

    # -- implication left rules ----------------------------------------------

    def _limp_l(self, rule: Rule) -> Iterator[list[Sequent]]:
        sys = self.system
        succ = self.succ
        ctx = self.ctx
        for f, path in self.leaves():
            if not isinstance(f, Limp):
                continue
            want = f.left.charge if self.refute else None
            # the implication alone, with an empty argument group
            yield None if not charges_meet(want, 0) else [
                Sequent(EMPTY, f.left, sys), Sequent(fill(ctx, path, leaf(f.right)), succ, sys)]
            if len(path) == 0:
                continue
            parent = ctx
            for step in path[:-1]:
                parent = parent.children[step]  # type: ignore[union-attr]
            if not isinstance(parent, Par):
                continue
            i = path[-1]
            others = parent.children[:i] + parent.children[i + 1 :]
            for pair in split_parallel(par(others), want)[1:]:
                yield None if pair is None else [Sequent(pair[0], f.left, sys), Sequent(
                    fill(ctx, path[:-1], par([pair[1], leaf(f.right)])), succ, sys)]

    def _res_l(self, rule: Rule) -> Iterator[list[Sequent]]:
        """LresL and RresL, by the connective in ``RULES``."""
        sys = self.system
        kind = RULES[rule.name].kinds[0]
        left_residual = kind is Lres
        for f, path in self.leaves():
            if not isinstance(f, kind):
                continue
            arg, res = (f.left, f.right) if left_residual else (f.right, f.left)
            for gamma, rest, _ in _arg_groups(self.ctx, path, res, left_residual):
                yield [Sequent(gamma, arg, sys), Sequent(rest, self.succ, sys)]

    # -- modal rules -----------------------------------------------------------

    def _converse(self, rule: Rule) -> Iterator[list[Sequent]]:
        """BoxRe and BringsRe, by the connective in ``RULES``: A ⊢ B and
        B ⊢ A below []A ⊢ []B; an ``E[a]`` pair only for the rule's agent."""
        body, g, kind = singleton_body(self.ctx), self.succ, RULES[rule.name].kinds[0]
        if not (isinstance(body, kind) and isinstance(g, kind)):
            return
        if rule.agent is not None and not body.agent == g.agent == rule.agent:
            return
        a, b, sys = body.body, g.body, self.system
        yield [Sequent(leaf(a), b, sys), Sequent(leaf(b), a, sys)]

    def _not_nec(self, rule: Rule) -> Iterator[list[Sequent]]:
        body = singleton_body(self.ctx)
        if self.succ == BOT and isinstance(body, Brings) and body.agent == rule.agent:
            yield [Sequent(EMPTY, body.body, self.system)]


# each rule's premise enumerator, by name; Cut has none
_DISPATCH = {
    AX: _Matcher._ax,
    ONE_R: _Matcher._one_r,
    TENSOR_L: _Matcher._left_unary,
    ODOT_L: _Matcher._left_unary,
    ONE_L: _Matcher._left_unary,
    WITH_L1: _Matcher._left_unary,
    WITH_L2: _Matcher._left_unary,
    WITH_R: _Matcher._pair_right,
    LIMP_R: _Matcher._imp_r,
    LRES_R: _Matcher._imp_r,
    RRES_R: _Matcher._imp_r,
    TENSOR_R: _Matcher._pair_right,
    ODOT_R: _Matcher._pair_right,
    LIMP_L: _Matcher._limp_l,
    LRES_L: _Matcher._res_l,
    RRES_L: _Matcher._res_l,
    BOX_RE: _Matcher._converse,
    BRINGS_RE: _Matcher._converse,
    BRINGS_REFL: _Matcher._left_unary,
    BRINGS_TENSOR: _Matcher._pair_right,
    BRINGS_ODOT: _Matcher._pair_right,
    BRINGS_WITH: _Matcher._pair_right,
    NOT_NEC: _Matcher._not_nec,
}


# the rules whose enumerators can list one premise list twice
_REPEATING = (ONE_L, LRES_L, RRES_L)


def _once(lists: Iterator[list[Sequent]]) -> Iterator[list[Sequent]]:
    """``lists`` without repeats, in order."""
    seen: set[tuple[Sequent, ...]] = set()
    for premises in lists:
        key = tuple(premises)
        if key not in seen:
            seen.add(key)
            yield premises


def apply_rule(goal: Sequent, rule: Rule) -> list[list[Sequent]]:
    """The premise lists from which ``rule`` concludes ``goal``: the
    reference, listing every split, those that search refutes by charge
    unbuilt included.

    In the multiset systems these are all of them.  In the tree systems
    they are the maximal ones, beside a few that a listed one dominates:
    any premise list that ``rule`` gives at a structural preimage of the
    goal has each premise below (by entropy) the matching premise of a
    listed one, so a provable list there makes a listed one provable.
    ``Cut``, whose premises are not read off the goal, raises
    ``ValueError`` as an inadmissible rule does.
    """
    if not rule_admissible(rule, goal.system):
        raise ValueError(f"rule {rule} not admissible in {goal.system}")
    if rule.name not in _DISPATCH:
        raise ValueError(f"rule {rule} is not applied backward")
    return list(_Matcher(goal).run(rule))


# ---------------------------------------------------------------------------
# Serialization


def proof_to_json(p: Proof) -> dict:
    def node(n: Proof, premises: list[dict]) -> dict:
        d: dict = {"sequent": print_sequent(n.conclusion), "rule": n.rule.name}
        if n.rule.agent is not None:
            d["agent"] = n.rule.agent
        d["premises"] = premises
        return d

    sys = p.conclusion.system
    return {
        "system": sys.ident.value,
        "agents": list(sys.agents),
        "proof": fold_tree(p, lambda n: n.premises, node),
    }


def proof_from_json(data: dict) -> Proof:
    """The proof a :func:`proof_to_json` object describes; ValueError
    when it has any other shape.  A sequent text that recurs is parsed
    once, and its nodes share the one ``Sequent``."""
    sequents: dict[str, Sequent] = {}

    def node(d: dict, premises: list[Proof]) -> Proof:
        name, agent, text = d["rule"], d.get("agent"), d["sequent"]
        if not isinstance(name, str) or \
                not isinstance(agent, (str, type(None))):
            raise ValueError(f"bad rule {name!r} with agent {agent!r}")
        got = sequents.get(text)
        if got is None:
            got = sequents[text] = parse_sequent(text, system)
        return Proof(got, Rule.of(name, agent), tuple(premises))

    try:
        agents = data.get("agents", [])
        if not isinstance(agents, list) or not all(isinstance(a, str) for a in agents):
            raise TypeError(f"agents {agents!r} is not a list of strings")
        system = System(SystemId(data["system"]), tuple(agents))
        return fold_tree(data["proof"], lambda d: d.get("premises", ()), node)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed proof object: {exc}") from None
