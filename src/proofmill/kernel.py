"""The proof kernel: the rule table, proof objects and the proof checker.

``RULES`` holds one row per sequent rule: the side of its principal
formula, the connectives it introduces, its forward check and, for the
six one-premise left rules, which operands of the principal formula the
rule puts back (``parts``: both for TensorL and OdotL, the left for
WithL1, the right for WithL2, the body for BringsRefl, none for OneL).
The rest is read off it: a system's rules (``SYSTEM_RULES``,
``rule_admissible``) are those whose connectives lie in the system's
language, and the agent rules (``AGENT_RULES``) those of ``E[a]``.
Search's premise enumerator and cut elimination read the same rows.

``check_proof`` checks every inference on its own by reading the rule
forward.  From a node's premises it computes the antecedent X that the
rule concludes, one X per choice of principal occurrence (the principal
formula of a left rule is taken from the conclusion's leaves), and
accepts the node when X is the conclusion's antecedent or, in the tree
systems, when the conclusion follows from X by entropy
(``entropy_le``).  Cut works the same way: X is the first premise's
antecedent with the second premise's put in place of one occurrence of
the cut formula.  Entropy is thus a structural rule that every rule
absorbs, and there is no entropy step.  Ax, OneR, BoxRe, BringsRe and
NotNec read the conclusion as it stands in every system.  The kernel
imports only ``syntax`` and ``context``: it shares nothing with the
premise enumerator that proof search uses.

A row's check takes the row and lists those antecedents X (one check,
``_left_unary``, serves the six rules with ``parts``, and one,
``_imp_r``, the three implication right rules), and ``infers`` judges
one node by it alone, entropy included: the premises' own proofs and
the language go untested.  ``check_proof`` reads the system's language
(the connectives outside it and its agents), whether entropy applies,
and the rule table once per call.  Per node it tests the succedent and
the rule against the language, the antecedent only when the call has
not yet found it inside (``language_error`` runs only to word a
failure), and then makes the test that ``infers`` makes.

``check_proof`` checks each distinct node object once per call, so a
proof whose subtrees are shared (search reuses the proof of a sequent
it met before) costs its distinct nodes, not its tree size.  Nodes are
immutable, so a check that passes marks each node it visited with the
rule table it read, and a later check skips a node so marked, with its
subtree, when the node's system is the root's: a node is checked once
per rule table, and re-checking an accepted proof is one lookup.

Premise order follows the rule schemas:

    Cut          Δ(A) ⊢ C   and   Γ ⊢ A       then  Δ(Γ) ⊢ C
    TensorR      Γ ⊢ A      and   Γ′ ⊢ B      then  Γ, Γ′ ⊢ A ⊗ B
    LimpL        Γ ⊢ A      and   Δ, B ⊢ C    then  Δ, Γ, A -o B ⊢ C
    LresL        Γ ⊢ A      and   Δ(B) ⊢ C    then  Δ(Γ; A \\ B) ⊢ C
    RresL        Γ ⊢ A      and   Δ(B) ⊢ C    then  Δ(B / A; Γ) ⊢ C
    BoxRe        A ⊢ B      and   B ⊢ A       then  []A ⊢ []B
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, NamedTuple

from .context import (
    EMPTY,
    Context,
    Leaf,
    Par,
    Sequent,
    Ser,
    context_formulas,
    entropy_le,
    fill,
    join,
    leaf,
    leaf_paths,
    par,
    positions,
    ser,
    singleton_body,
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
    _OUTSIDE,
    brings,
    language_error,
    operands,
)

# ---------------------------------------------------------------------------
# Rule identifiers

AX = "Ax"
CUT = "Cut"
TENSOR_L = "TensorL"
TENSOR_R = "TensorR"
LIMP_L = "LimpL"
LIMP_R = "LimpR"
WITH_L1 = "WithL1"
WITH_L2 = "WithL2"
WITH_R = "WithR"
ONE_L = "OneL"
ONE_R = "OneR"
BOX_RE = "BoxRe"
ODOT_L = "OdotL"
ODOT_R = "OdotR"
LRES_L = "LresL"
LRES_R = "LresR"
RRES_L = "RresL"
RRES_R = "RresR"
BRINGS_RE = "BringsRe"
BRINGS_REFL = "BringsRefl"
BRINGS_TENSOR = "BringsTensor"
BRINGS_WITH = "BringsWith"
BRINGS_ODOT = "BringsOdot"
NOT_NEC = "NotNec"


@dataclass(frozen=True)
class Rule:
    name: str
    agent: str | None = None

    def __post_init__(self) -> None:
        if (self.agent is not None) != (self.name in AGENT_RULES):
            raise ValueError(f"rule {self.name} and agent {self.agent!r} mismatch")

    def __str__(self) -> str:
        return self.name if self.agent is None else f"{self.name}[{self.agent}]"

    @staticmethod
    def of(name: str, agent: str | None = None) -> Rule:
        """The one ``Rule`` of ``name`` and ``agent``, built and validated
        once: proof nodes share it."""
        got = _SHARED_RULES.get((name, agent))
        if got is None:
            got = _SHARED_RULES[name, agent] = Rule(name, agent)
        return got


_SHARED_RULES: dict[tuple[str, str | None], Rule] = {}


@dataclass(frozen=True, eq=False, slots=True)
class Proof:
    """A proof tree.  Equality compares the trees node by node on an
    explicit stack, and the hash reads the root's conclusion and rule
    alone, so neither is limited by the recursion limit."""

    conclusion: Sequent
    rule: Rule
    premises: tuple["Proof", ...] = ()
    # set by ``check_proof``: the RULES that accepted this subtree
    _accepted: dict | None = field(default=None, init=False, repr=False)

    @property
    def system(self) -> System:
        return self.conclusion.system

    def _own(self) -> tuple:
        """What this node holds beside its premises."""
        return self.conclusion, self.rule

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Proof):
            return NotImplemented
        return same_tree(self, other)

    def __hash__(self) -> int:
        return hash(self._own())

    def __reduce__(self):  # the mark names this process's RULES: a copy starts unchecked
        return Proof, (self.conclusion, self.rule, self.premises)


def proof_nodes(p: Proof):
    """Preorder (path, node) traversal of any tree with ``premises``."""
    stack: list[tuple[tuple[int, ...], Proof]] = [((), p)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in reversed(range(len(node.premises))):
            stack.append((path + (i,), node.premises[i]))


def same_tree(a, b) -> bool:
    """Whether the trees under ``a`` and ``b`` hold the same ``_own()``
    at every node, compared on an explicit stack: the trees' depth is
    not bounded by the recursion limit."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if x._own() != y._own() or len(x.premises) != len(y.premises):
            return False
        todo += zip(x.premises, y.premises)
    return True


def fold_tree(root, children, build):
    """``build(node, results for its children)`` over the tree under
    ``root``, children first, on an explicit stack: the tree's depth is
    not bounded by the recursion limit."""
    done: list = []
    todo = [(root, False)]
    while todo:
        node, ready = todo.pop()
        kids = children(node)
        if not ready:
            todo.append((node, True))
            todo += [(k, False) for k in reversed(kids)]
            continue
        cut = len(done) - len(kids)
        built = build(node, done[cut:])
        del done[cut:]
        done.append(built)
    return done[0]


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violations: tuple[tuple[tuple[int, ...], str], ...]

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Antecedent helpers


def _unfill(y: Context, parts: tuple[Formula, ...], serial: bool, f: Formula):
    """Every antecedent with an occurrence of ``f`` at which putting the
    parallel (or serial) composition of ``parts`` gives ``y``; with no
    parts, the composition is ``()`` and ``f`` is deleted."""
    if not parts:
        yield from _with_leaf(y, leaf(f))
        return
    if len(parts) == 1:
        for pt in leaf_paths(y, parts[0]):
            yield fill(y, pt, leaf(f))
        return
    # two parts: a Par node holding both leaves (the composition was
    # flattened into it or is the node itself), or a Ser node holding
    # them as a consecutive run
    a, b = leaf(parts[0]), leaf(parts[1])
    for pt, n in positions(y):
        if serial and isinstance(n, Ser):
            kids = n.children
            for i in range(len(kids) - 1):
                if kids[i] is a and kids[i + 1] is b:
                    yield fill(y, pt, ser(kids[:i] + (leaf(f),) + kids[i + 2 :]))
        elif not serial and isinstance(n, Par) and a in n.children:
            kids = list(n.children)
            kids.remove(a)
            if b in kids:
                kids.remove(b)
                yield fill(y, pt, par(kids + [leaf(f)]))


# ---------------------------------------------------------------------------
# Forward instantiation.  Each check takes its rule's row in ``RULES``,
# the node's conclusion, its premises' conclusions and the rule's agent,
# and lists the antecedents that the rule concludes from those premises:
# none when they fit no instance of it, and the conclusion's own
# antecedent for a rule that reads it as it stands.


def _ax(row, c: Sequent, ps: list[Sequent], agent):
    return (c.ctx,) if not ps and singleton_body(c.ctx) == c.succ else ()


def _one_r(row, c: Sequent, ps: list[Sequent], agent):
    return (c.ctx,) if not ps and isinstance(c.succ, row.kinds[0]) and c.ctx is EMPTY else ()


def _cut(row, c: Sequent, ps: list[Sequent], agent):
    """The first premise's antecedent with the second premise's put in
    place of one occurrence of the cut formula."""
    if len(ps) != 2 or ps[0].succ != c.succ:
        return ()
    y, gamma = ps[0].ctx, ps[1].ctx
    return (fill(y, pt, gamma) for pt in leaf_paths(y, ps[1].succ))


def _left_unary(row, c: Sequent, ps: list[Sequent], agent):
    """A one-premise left rule putting the operands ``row.parts`` of one
    principal ``f`` in its place, in series when ``f`` is a ``@``; an
    ``E[a]`` is principal only for the rule's agent."""
    if len(ps) != 1 or ps[0].succ != c.succ:
        return
    kind, parts = row.kinds[0], row.parts
    for f in dict.fromkeys(context_formulas(c.ctx)):
        if not isinstance(f, kind) or \
                kind is Brings and f.agent != agent:  # type: ignore[attr-defined]
            continue
        yield from _unfill(ps[0].ctx, operands(f)[parts], kind is Odot, f)


def _with_leaf(y: Context, u: Leaf):
    """Every tree from which deleting one occurrence of ``u`` leaves the
    tree ``y``.  Deleting a leaf collapses its parent when one sibling
    is left, and that sibling may then flatten into its grandparent, so
    ``u`` may sit beside any node, inside any serial node, or beside a
    proper run (serial) or group (parallel) of a node's children.
    ``u`` beside the whole of ``y`` comes first: in a multiset it is
    the only place.  Each tree is listed once."""

    def places():
        yield par([y, u])
        for pt, n in positions(y):
            yield fill(y, pt, par([n, u]))
            yield fill(y, pt, ser([u, n]))
            yield fill(y, pt, ser([n, u]))
            if isinstance(n, Ser):
                kids = n.children
                for i in range(1, len(kids)):
                    yield fill(y, pt, ser(kids[:i] + (u,) + kids[i:]))
                for i in range(len(kids)):
                    for j in range(i + 2, len(kids) + 1):
                        if j - i < len(kids):
                            run = par([ser(kids[i:j]), u])
                            yield fill(y, pt, ser(kids[:i] + (run,) + kids[j:]))
            elif isinstance(n, Par):
                kids = n.children
                for k in range(2, len(kids)):
                    for group in combinations(range(len(kids)), k):
                        rest = [ch for i, ch in enumerate(kids) if i not in group]
                        g = par([kids[i] for i in group])
                        yield fill(y, pt, par(rest + [ser([u, g])]))
                        yield fill(y, pt, par(rest + [ser([g, u])]))

    seen: set[Context] = set()
    for x in places():
        if x not in seen:
            seen.add(x)
            yield x


def _pair_right(row, c: Sequent, ps: list[Sequent], agent):
    """TensorR, OdotR, WithR and their E[a] forms: premises prove the two
    halves, over the shared antecedent (``&``) or over two joined ones,
    in series for ``@``."""
    g, kind = c.succ, row.kinds[-1]
    agentive = row.kinds[0] is Brings
    if agentive:
        if not isinstance(g, Brings) or g.agent != agent:
            return ()
        g = g.body
    if len(ps) != 2 or not isinstance(g, kind):
        return ()
    want = (g.left, g.right)
    if agentive:
        want = (brings(agent, g.left), brings(agent, g.right))
    if (ps[0].succ, ps[1].succ) != want:
        return ()
    if kind is With:
        return (ps[0].ctx,) if ps[0].ctx == ps[1].ctx else ()
    return (join(ps[0].ctx, ps[1].ctx, kind is Odot),)


def _imp_r(row, c: Sequent, ps: list[Sequent], agent):
    """LimpR, LresR and RresR: the premise's antecedent with the
    argument leaf taken out, from among its parallel children for
    ``-o``, first in series for ``\\`` and last in series for ``/``."""
    g, kind = c.succ, row.kinds[0]
    if len(ps) != 1 or not isinstance(g, kind):
        return ()
    arg, res = (g.right, g.left) if kind is Rres else (g.left, g.right)
    if ps[0].succ != res:
        return ()
    y, u = ps[0].ctx, leaf(arg)
    kids = list(y.children) if isinstance(y, Par if kind is Limp else Ser) else [y]
    if kind is Limp:
        at = kids.index(u) if u in kids else 0
    else:
        at = 0 if kind is Lres else -1
    if kids[at] != u:
        return ()
    del kids[at]
    return ((par if kind is Limp else ser)(kids),)


def _imp_left(row, c: Sequent, ps: list[Sequent], agent):
    """LimpL, LresL, RresL: the second premise holds the residue where
    the conclusion holds ``Γ, A -o B``, ``Γ; A \\ B`` or ``B / A; Γ``,
    Γ being the first premise's antecedent and A the argument."""
    if len(ps) != 2 or ps[1].succ != c.succ:
        return
    gamma, y = ps[0].ctx, ps[1].ctx
    kind = row.kinds[0]
    for f in dict.fromkeys(context_formulas(c.ctx)):
        if not isinstance(f, kind):
            continue
        arg, res = (f.right, f.left) if kind is Rres else (f.left, f.right)
        if arg != ps[0].succ:
            continue
        u = leaf(f)
        block = par([gamma, u]) if kind is Limp else \
            ser([u, gamma] if kind is Rres else [gamma, u])
        for pt in leaf_paths(y, res):
            yield fill(y, pt, block)


def _converse(row, c: Sequent, ps: list[Sequent], agent):
    """BoxRe and BringsRe: []A ⊢ []B from A ⊢ B and B ⊢ A."""
    body, g, kind = singleton_body(c.ctx), c.succ, row.kinds[0]
    if not (isinstance(body, kind) and isinstance(g, kind)):
        return ()
    if agent is not None and not body.agent == g.agent == agent:
        return ()
    a, b = body.body, g.body
    ok = [(s.ctx, s.succ) for s in ps] == [(leaf(a), b), (leaf(b), a)]
    return (c.ctx,) if ok else ()


def _not_nec(row, c: Sequent, ps: list[Sequent], agent):
    body = singleton_body(c.ctx)
    if c.succ != BOT or not isinstance(body, row.kinds[0]) or body.agent != agent:
        return ()
    return (c.ctx,) if [(s.ctx, s.succ) for s in ps] == [(EMPTY, body.body)] else ()


# ---------------------------------------------------------------------------
# The rule table

# the side of a rule's principal formula: an antecedent leaf or the succedent
LEAF, SUCC = "leaf", "succ"


class RuleRow(NamedTuple):
    """One rule: the side of its principal formula (None for Ax and
    Cut), the connectives it introduces, principal first, the sum of
    their ``Formula.bit``, its forward check, which takes the row and
    lists the antecedents that the rule concludes, and, for a
    one-premise left rule, which operands of its principal formula it
    puts in the formula's place (a slice of ``syntax.operands``; None
    for every other rule)."""

    side: str | None
    kinds: tuple[type, ...]
    uses: int
    check: Callable[..., Iterable[Context]]
    parts: slice | None


# the operands that a one-premise left rule puts back: both, the first
# (or a modality's body), the second, none
BOTH, FIRST, SECOND, NEITHER = slice(None), slice(1), slice(1, None), slice(0)


def _row(side: str | None, kinds, check, parts: slice | None = None) -> RuleRow:
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    return RuleRow(side, kinds, sum(k.bit for k in kinds), check, parts)


RULES: dict[str, RuleRow] = {
    AX: _row(None, (), _ax),
    CUT: _row(None, (), _cut),
    TENSOR_L: _row(LEAF, Tensor, _left_unary, BOTH),
    TENSOR_R: _row(SUCC, Tensor, _pair_right),
    LIMP_L: _row(LEAF, Limp, _imp_left),
    LIMP_R: _row(SUCC, Limp, _imp_r),
    WITH_L1: _row(LEAF, With, _left_unary, FIRST),
    WITH_L2: _row(LEAF, With, _left_unary, SECOND),
    WITH_R: _row(SUCC, With, _pair_right),
    ONE_L: _row(LEAF, Unit, _left_unary, NEITHER),
    ONE_R: _row(SUCC, Unit, _one_r),
    BOX_RE: _row(SUCC, Box, _converse),
    BRINGS_RE: _row(SUCC, Brings, _converse),
    BRINGS_REFL: _row(LEAF, Brings, _left_unary, FIRST),
    BRINGS_TENSOR: _row(SUCC, (Brings, Tensor), _pair_right),
    BRINGS_WITH: _row(SUCC, (Brings, With), _pair_right),
    NOT_NEC: _row(LEAF, Brings, _not_nec),
    ODOT_L: _row(LEAF, Odot, _left_unary, BOTH),
    ODOT_R: _row(SUCC, Odot, _pair_right),
    LRES_L: _row(LEAF, Lres, _imp_left),
    LRES_R: _row(SUCC, Lres, _imp_r),
    RRES_L: _row(LEAF, Rres, _imp_left),
    RRES_R: _row(SUCC, Rres, _imp_r),
    BRINGS_ODOT: _row(SUCC, (Brings, Odot), _pair_right),
}

# a system's rules are those whose connectives lie in its language, in
# table order; the agent rules are those of E[a]
SYSTEM_RULES: dict[SystemId, tuple[str, ...]] = {
    ident: tuple(name for name, row in RULES.items() if not row.uses & _OUTSIDE[ident])
    for ident in SystemId
}
AGENT_RULES = frozenset(name for name, row in RULES.items() if row.kinds[:1] == (Brings,))


def rule_admissible(rule: Rule, system: System) -> bool:
    row = RULES.get(rule.name)
    if row is None or row.uses & system.outside:
        return False
    return rule.agent is None or rule.agent in system.agents


def rule_instances(system: System, names: Iterable[str] = RULES) -> tuple[Rule, ...]:
    """The rules named in ``names`` that ``system`` admits, in order,
    each agent rule once per agent of ``system``."""
    outside = system.outside
    return tuple(
        Rule.of(name, agent) for name in names if not RULES[name].uses & outside
        for agent in (system.agents if name in AGENT_RULES else (None,)))


_PASSED = CheckReport(True, ())


def _failure(rule: Rule, c: Sequent, ps: list[Sequent]) -> str:
    """Why no antecedent that ``rule`` concludes from ``ps`` gives ``c``."""
    if rule.name == CUT:
        if len(ps) != 2:
            return "Cut needs two premises"
        if ps[0].succ != c.succ:
            return "Cut conclusion succedent differs from first premise"
        return "no cut-formula occurrence reproduces the conclusion antecedent"
    if rule.name == BOX_RE and len(ps) == 1:
        return "missing converse premise"
    return f"premises do not instantiate {rule}"


def _infers(row: RuleRow, c: Sequent, ps: list[Sequent], agent, tree: bool) -> bool:
    """Whether some antecedent that ``row`` concludes from ``ps`` is the
    antecedent of ``c`` or, in a tree system, reaches it by entropy."""
    ctx = c.ctx
    for x in row.check(row, c, ps, agent):
        if x is ctx or tree and entropy_le(x, ctx):
            return True
    return False


def infers(node: Proof) -> bool:
    """Whether ``node`` is an inference of its system: its rule is
    admissible and concludes its conclusion from its premises'
    conclusions.  Neither the premises' own proofs nor the language of
    the sequents is tested."""
    c, rule = node.conclusion, node.rule
    system = c.system
    ps = [q.conclusion for q in node.premises]
    if not rule_admissible(rule, system) or any(s.system != system for s in ps):
        return False
    return _infers(RULES[rule.name], c, ps, rule.agent, system.is_tree)


def check_proof(p: Proof) -> CheckReport:
    """Check each distinct node of ``p`` once.  A node object reached
    again on another path (search and cut elimination share subtrees)
    is skipped with its subtree, so a shared bad node is reported once,
    at its first path in preorder.  So is a node that a former check
    accepted under the same ``RULES`` table, when its system is the
    root's.  A passing check marks the nodes it visited; a failing one
    marks none."""
    system = p.conclusion.system
    # read once per call, not once per node
    outside, agents, tree, rules = system.outside, system.agents, system.is_tree, RULES
    inside: set[Context] = set()  # antecedents found inside the language
    visited: dict[int, Proof] = {}  # the nodes visited, by id
    violations: list[tuple[tuple[int, ...], str]] = []
    stack: list[tuple[tuple[int, ...], Proof]] = [((), p)]
    while stack:
        path, node = stack.pop()
        if id(node) in visited or node._accepted is rules and node.conclusion.system == system:
            continue
        visited[id(node)] = node
        prems = node.premises
        for i in range(len(prems) - 1, -1, -1):
            stack.append((path + (i,), prems[i]))
        c = node.conclusion
        if c.system is not system and c.system != system:
            violations.append((path, "mixed systems in one proof"))
            continue
        ctx, g = c.ctx, c.succ
        if ctx not in inside:
            for f in context_formulas(ctx):
                if f.uses & outside or f.agents and not f.agents.issubset(agents):
                    break
            else:
                inside.add(ctx)
        if ctx not in inside or g.uses & outside or \
                g.agents and not g.agents.issubset(agents):
            err = language_error((*context_formulas(ctx), g), system)
            violations.append((path, f"ill-formed sequent: {err}"))
            continue
        rule = node.rule
        row = rules.get(rule.name)  # rule_admissible's test, on the hoisted language
        if row is None or row.uses & outside or \
                rule.agent is not None and rule.agent not in agents:
            violations.append((path, f"{rule} not admissible in {system}"))
            continue
        ps = []
        for q in prems:
            if q.conclusion.system is not system and q.conclusion.system != system:
                break  # reported at the premise itself
            ps.append(q.conclusion)
        else:
            if not _infers(row, c, ps, rule.agent, tree):
                violations.append((path, _failure(rule, c, ps)))
    if violations:
        return CheckReport(False, tuple(violations))
    for node in visited.values():
        object.__setattr__(node, "_accepted", rules)
    return _PASSED
