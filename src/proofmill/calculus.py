"""Backward rule application for proof search, proof measures, and
proof serialization.

Rule application is read backward: ``apply_rule(goal, rule)`` lists
every ordered premise tuple from which ``rule`` can conclude ``goal``.
For the tree systems the goal's antecedent is first expanded through
``structural_preimages`` (the entropy rule read backward), so entropy
is folded into ordinary rule matching; an explicit ``Ent`` step is
listed as well.

Proofs are checked elsewhere: ``check_proof`` is the independent kernel
in ``kernel.py``, which reads each inference forward and never calls
this enumerator.  The rule names, ``Rule``, ``Proof``, ``SYSTEM_RULES``
and the checker are defined there and re-exported here.  Premise order
follows the rule schemas listed in ``kernel.py``.
"""
from __future__ import annotations

from .context import (
    EMPTY,
    Context,
    EmptyCtx,
    Leaf,
    MSet,
    Par,
    Sequent,
    Ser,
    fill,
    leaf,
    mset,
    par,
    positions,
    ser,
    split_parallel,
    split_serial,
    structural_preimages,
    DEFAULT_STRUCTURAL_BOUND,
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
    ENT,
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
    proof_nodes,
    rule_admissible,
)
from .syntax import (
    BOT,
    Box,
    Brings,
    Formula,
    Limp,
    Lres,
    Odot,
    Rres,
    System,
    SystemId,
    Tensor,
    Unit,
    With,
    brings,
)

def proof_size(p: Proof) -> int:
    return sum(1 for _ in proof_nodes(p))


def cut_count(p: Proof) -> int:
    return sum(1 for _, n in proof_nodes(p) if n.rule.name == CUT)


def cut_formula(node: Proof) -> Formula:
    if node.rule.name != CUT:
        raise ValueError("not a cut node")
    return node.premises[1].conclusion.succ


def cutrank(p: Proof) -> int:
    ranks = [cut_formula(n).size for _, n in proof_nodes(p) if n.rule.name == CUT]
    return max(ranks, default=0)


# ---------------------------------------------------------------------------
# Backward rule application


def _seq(ctx: Context, succ: Formula, system: System) -> Sequent:
    return Sequent(ctx, succ, system)


def _mset_without(ms: MSet, f: Formula) -> MSet:
    i = ms.formulas.index(f)
    return mset(ms.formulas[:i] + ms.formulas[i + 1 :])


def _mset_with(ms: MSet, *fs: Formula) -> MSet:
    return mset(ms.formulas + fs)


def _singleton_body(ctx: Context) -> Formula | None:
    """The sole antecedent formula, when the antecedent is a singleton."""
    if isinstance(ctx, MSet):
        return ctx.formulas[0] if len(ctx.formulas) == 1 else None
    if isinstance(ctx, Leaf):
        return ctx.formula
    return None


def _is_empty(ctx: Context) -> bool:
    if isinstance(ctx, MSet):
        return not ctx.formulas
    return isinstance(ctx, EmptyCtx)


def _distinct_members(ctx: Context):
    """Distinct principal candidates: (formula, occurrence handle)."""
    if isinstance(ctx, MSet):
        seen = set()
        for f in ctx.formulas:
            if f not in seen:
                seen.add(f)
                yield f, None
    else:
        for path, node in positions(ctx):
            if isinstance(node, Leaf):
                yield node.formula, path


def _replace(ctx: Context, f: Formula, handle, repl: Context) -> Context:
    """Replace one occurrence of ``f`` (at ``handle`` for trees) by a
    subcontext, splicing multisets."""
    if isinstance(ctx, MSet):
        assert isinstance(repl, MSet)
        base = _mset_without(ctx, f)
        return mset(base.formulas + repl.formulas)
    return fill(ctx, handle, repl)


class _Matcher:
    """Premise enumeration for one goal, sharing the preimage expansion."""

    def __init__(self, goal: Sequent, bound: int):
        self.goal = goal
        self.system = goal.system
        self.succ = goal.succ
        self.bound = bound
        pres, overflow = structural_preimages(goal.ctx, bound)
        self.preimages = pres
        self.overflow = overflow
        self._out: list[list[Sequent]] = []
        self._seen: set[tuple[str, ...]] = set()

    def emit(self, premises: list[Sequent]) -> None:
        key = tuple(s.key for s in premises)
        if key not in self._seen:
            self._seen.add(key)
            self._out.append(premises)

    def run(self, rule: Rule) -> list[list[Sequent]]:
        self._out = []
        self._seen = set()
        fn = _DISPATCH[rule.name]
        fn(self, rule)
        return self._out

    # -- leaves ------------------------------------------------------------

    def _ax(self, rule: Rule) -> None:
        if _singleton_body(self.goal.ctx) == self.succ:
            self.emit([])

    def _one_r(self, rule: Rule) -> None:
        if isinstance(self.succ, Unit) and _is_empty(self.goal.ctx):
            self.emit([])

    # -- unary left rules ----------------------------------------------------

    def _left_unary(self, pick) -> None:
        """Apply a left rule replacing one principal occurrence; ``pick``
        maps a formula to the replacement subcontext (or None)."""
        sys = self.system
        for ctx in self.preimages:
            for f, handle in _distinct_members(ctx):
                repl = pick(f)
                if repl is None:
                    continue
                self.emit([_seq(_replace(ctx, f, handle, repl), self.succ, sys)])

    def _tensor_l(self, rule: Rule) -> None:
        tree = self.system.is_tree

        def pick(f: Formula):
            if not isinstance(f, Tensor):
                return None
            if tree:
                return par([leaf(f.left), leaf(f.right)])
            return mset([f.left, f.right])

        self._left_unary(pick)

    def _odot_l(self, rule: Rule) -> None:
        def pick(f: Formula):
            if not isinstance(f, Odot):
                return None
            return ser([leaf(f.left), leaf(f.right)])

        self._left_unary(pick)

    def _one_l(self, rule: Rule) -> None:
        tree = self.system.is_tree

        def pick(f: Formula):
            if not isinstance(f, Unit):
                return None
            return EMPTY if tree else mset([])

        self._left_unary(pick)

    def _with_l(self, rule: Rule, first: bool) -> None:
        tree = self.system.is_tree

        def pick(f: Formula):
            if not isinstance(f, With):
                return None
            side = f.left if first else f.right
            return leaf(side) if tree else mset([side])

        self._left_unary(pick)

    def _brings_refl(self, rule: Rule) -> None:
        tree = self.system.is_tree
        agent = rule.agent

        def pick(f: Formula):
            if not isinstance(f, Brings) or f.agent != agent:
                return None
            return leaf(f.body) if tree else mset([f.body])

        self._left_unary(pick)

    # -- right rules ---------------------------------------------------------

    def _with_r(self, rule: Rule) -> None:
        if not isinstance(self.succ, With):
            return
        sys = self.system
        for ctx in self.preimages:
            self.emit(
                [_seq(ctx, self.succ.left, sys), _seq(ctx, self.succ.right, sys)]
            )

    def _limp_r(self, rule: Rule) -> None:
        if not isinstance(self.succ, Limp):
            return
        sys = self.system
        a, b = self.succ.left, self.succ.right
        for ctx in self.preimages:
            if sys.is_tree:
                prem = par([ctx, leaf(a)])  # type: ignore[list-item]
            else:
                prem = _mset_with(ctx, a)  # type: ignore[arg-type]
            self.emit([_seq(prem, b, sys)])

    def _lres_r(self, rule: Rule) -> None:
        if not isinstance(self.succ, Lres):
            return
        sys = self.system
        for ctx in self.preimages:
            self.emit([_seq(ser([leaf(self.succ.left), ctx]), self.succ.right, sys)])  # type: ignore[list-item]

    def _rres_r(self, rule: Rule) -> None:
        if not isinstance(self.succ, Rres):
            return
        sys = self.system
        for ctx in self.preimages:
            self.emit([_seq(ser([ctx, leaf(self.succ.right)]), self.succ.left, sys)])  # type: ignore[list-item]

    def _split_pair(self, left_succ: Formula, right_succ: Formula, serial: bool) -> None:
        sys = self.system
        for ctx in self.preimages:
            pairs = split_serial(ctx) if serial else split_parallel(ctx)
            for lctx, rctx in pairs:
                self.emit(
                    [_seq(lctx, left_succ, sys), _seq(rctx, right_succ, sys)]
                )

    def _tensor_r(self, rule: Rule) -> None:
        if isinstance(self.succ, Tensor):
            self._split_pair(self.succ.left, self.succ.right, serial=False)

    def _odot_r(self, rule: Rule) -> None:
        if isinstance(self.succ, Odot):
            self._split_pair(self.succ.left, self.succ.right, serial=True)

    # -- implication left rules ----------------------------------------------

    def _limp_l(self, rule: Rule) -> None:
        sys = self.system
        succ = self.succ
        if not sys.is_tree:
            ctx = self.goal.ctx
            assert isinstance(ctx, MSet)
            for f, _ in _distinct_members(ctx):
                if not isinstance(f, Limp):
                    continue
                rest = _mset_without(ctx, f)
                for gamma, delta in split_parallel(rest):
                    self.emit(
                        [
                            _seq(gamma, f.left, sys),
                            _seq(_mset_with(delta, f.right), succ, sys),  # type: ignore[arg-type]
                        ]
                    )
            return
        for ctx in self.preimages:
            for path, node in positions(ctx):
                if not isinstance(node, Leaf) or not isinstance(node.formula, Limp):
                    continue
                f = node.formula
                # the implication alone, with an empty argument group
                self.emit(
                    [
                        _seq(EMPTY, f.left, sys),
                        _seq(fill(ctx, path, leaf(f.right)), succ, sys),
                    ]
                )
                if len(path) == 0:
                    continue
                parent = ctx
                for step in path[:-1]:
                    parent = parent.children[step]  # type: ignore[union-attr]
                if not isinstance(parent, Par):
                    continue
                i = path[-1]
                kids = parent.children
                others = [k for j, k in enumerate(kids) if j != i]
                n = len(others)
                for mask in range(1, 1 << n):
                    gamma = par([others[j] for j in range(n) if mask >> j & 1])
                    keep = [others[j] for j in range(n) if not mask >> j & 1]
                    new_parent = par(keep + [leaf(f.right)])
                    self.emit(
                        [
                            _seq(gamma, f.left, sys),
                            _seq(fill(ctx, path[:-1], new_parent), succ, sys),
                        ]
                    )

    def _res_l(self, rule: Rule, left_residual: bool) -> None:
        sys = self.system
        succ = self.succ
        want = Lres if left_residual else Rres
        for ctx in self.preimages:
            for path, node in positions(ctx):
                if not isinstance(node, Leaf) or not isinstance(node.formula, want):
                    continue
                f = node.formula
                arg = f.left if left_residual else f.right
                res = f.right if left_residual else f.left
                # empty argument group: Δ(; A\B) = Δ(A\B)
                self.emit(
                    [
                        _seq(EMPTY, arg, sys),
                        _seq(fill(ctx, path, leaf(res)), succ, sys),
                    ]
                )
                if len(path) == 0:
                    continue
                parent = ctx
                for step in path[:-1]:
                    parent = parent.children[step]  # type: ignore[union-attr]
                if not isinstance(parent, Ser):
                    continue
                i = path[-1]
                kids = parent.children
                if left_residual:
                    runs = [(start, i) for start in range(i)]
                else:
                    runs = [(i + 1, end) for end in range(i + 2, len(kids) + 1)]
                for lo, hi in runs:
                    gamma = ser(kids[lo:hi])
                    if left_residual:
                        new_kids = list(kids[:lo]) + [leaf(res)] + list(kids[i + 1 :])
                    else:
                        new_kids = list(kids[:i]) + [leaf(res)] + list(kids[hi:])
                    self.emit(
                        [
                            _seq(gamma, arg, sys),
                            _seq(fill(ctx, path[:-1], ser(new_kids)), succ, sys),
                        ]
                    )

    def _lres_l(self, rule: Rule) -> None:
        self._res_l(rule, left_residual=True)

    def _rres_l(self, rule: Rule) -> None:
        self._res_l(rule, left_residual=False)

    # -- modal rules -----------------------------------------------------------

    def _box_re(self, rule: Rule) -> None:
        body = _singleton_body(self.goal.ctx)
        if body is None or not isinstance(body, Box) or not isinstance(self.succ, Box):
            return
        sys = self.system
        a, b = body.body, self.succ.body
        single = leaf if sys.is_tree else (lambda f: mset([f]))
        self.emit([_seq(single(a), b, sys), _seq(single(b), a, sys)])

    def _brings_re(self, rule: Rule) -> None:
        body = _singleton_body(self.goal.ctx)
        if (
            body is None
            or not isinstance(body, Brings)
            or not isinstance(self.succ, Brings)
            or body.agent != rule.agent
            or self.succ.agent != rule.agent
        ):
            return
        sys = self.system
        a, b = body.body, self.succ.body
        single = leaf if sys.is_tree else (lambda f: mset([f]))
        self.emit([_seq(single(a), b, sys), _seq(single(b), a, sys)])

    def _not_nec(self, rule: Rule) -> None:
        body = _singleton_body(self.goal.ctx)
        if (
            self.succ != BOT
            or body is None
            or not isinstance(body, Brings)
            or body.agent != rule.agent
        ):
            return
        sys = self.system
        empty = EMPTY if sys.is_tree else mset([])
        self.emit([_seq(empty, body.body, sys)])

    def _brings_pair(self, rule: Rule, shape, serial: bool) -> None:
        succ = self.succ
        if (
            not isinstance(succ, Brings)
            or succ.agent != rule.agent
            or not isinstance(succ.body, shape)
        ):
            return
        la = brings(rule.agent, succ.body.left)
        ra = brings(rule.agent, succ.body.right)
        self._split_pair(la, ra, serial=serial)

    def _brings_tensor(self, rule: Rule) -> None:
        self._brings_pair(rule, Tensor, serial=False)

    def _brings_odot(self, rule: Rule) -> None:
        self._brings_pair(rule, Odot, serial=True)

    def _brings_with(self, rule: Rule) -> None:
        succ = self.succ
        if (
            not isinstance(succ, Brings)
            or succ.agent != rule.agent
            or not isinstance(succ.body, With)
        ):
            return
        sys = self.system
        la = brings(rule.agent, succ.body.left)
        ra = brings(rule.agent, succ.body.right)
        for ctx in self.preimages:
            self.emit([_seq(ctx, la, sys), _seq(ctx, ra, sys)])

    def _ent(self, rule: Rule) -> None:
        sys = self.system
        for ctx in self.preimages[1:]:
            self.emit([_seq(ctx, self.succ, sys)])

    def _cut(self, rule: Rule) -> None:
        # not enumerable backward (any cut formula); search never uses it
        return


_DISPATCH = {
    AX: _Matcher._ax,
    ONE_R: _Matcher._one_r,
    TENSOR_L: _Matcher._tensor_l,
    ODOT_L: _Matcher._odot_l,
    ONE_L: _Matcher._one_l,
    WITH_L1: lambda m, r: _Matcher._with_l(m, r, True),
    WITH_L2: lambda m, r: _Matcher._with_l(m, r, False),
    WITH_R: _Matcher._with_r,
    LIMP_R: _Matcher._limp_r,
    LRES_R: _Matcher._lres_r,
    RRES_R: _Matcher._rres_r,
    TENSOR_R: _Matcher._tensor_r,
    ODOT_R: _Matcher._odot_r,
    LIMP_L: _Matcher._limp_l,
    LRES_L: _Matcher._lres_l,
    RRES_L: _Matcher._rres_l,
    BOX_RE: _Matcher._box_re,
    BRINGS_RE: _Matcher._brings_re,
    BRINGS_REFL: _Matcher._brings_refl,
    BRINGS_TENSOR: _Matcher._brings_tensor,
    BRINGS_ODOT: _Matcher._brings_odot,
    BRINGS_WITH: _Matcher._brings_with,
    NOT_NEC: _Matcher._not_nec,
    ENT: _Matcher._ent,
    CUT: _Matcher._cut,
}


def apply_rule(
    goal: Sequent, rule: Rule, bound: int = DEFAULT_STRUCTURAL_BOUND
) -> list[list[Sequent]]:
    """All premise lists from which ``rule`` concludes ``goal``."""
    if not rule_admissible(rule, goal.system):
        raise ValueError(f"rule {rule} not admissible in {goal.system}")
    return _Matcher(goal, bound).run(rule)


# ---------------------------------------------------------------------------
# Serialization


def proof_to_json(p: Proof) -> dict:
    def node(n: Proof) -> dict:
        d: dict = {"sequent": n.conclusion.key, "rule": n.rule.name}
        if n.rule.agent is not None:
            d["agent"] = n.rule.agent
        d["premises"] = [node(q) for q in n.premises]
        return d

    sys = p.conclusion.system
    return {
        "system": sys.ident.value,
        "agents": list(sys.agents),
        "proof": node(p),
    }


def proof_from_json(data: dict) -> Proof:
    from .context import parse_sequent

    system = System(SystemId(data["system"]), tuple(data.get("agents", ())))

    def node(d: dict) -> Proof:
        rule = Rule(d["rule"], d.get("agent"))
        prems = tuple(node(q) for q in d.get("premises", ()))
        return Proof(parse_sequent(d["sequent"], system), rule, prems)

    return node(data["proof"])
