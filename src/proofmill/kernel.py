"""The proof kernel: rule names, proof objects and the proof checker.

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

``check_proof`` checks each distinct node object once per call, so a
proof whose subtrees are shared (search reuses the proof of a sequent
it met before) costs its distinct nodes, not its tree size.  A
``CheckSession`` carries that across calls over proofs that share
subtrees (cut elimination builds each candidate from checked parts of
the proof and reuses them in the next one): a check that
passes records every node it visited, and a later check in the same
session skips any subtree so recorded.

Premise order follows the rule schemas:

    Cut          Δ(A) ⊢ C   and   Γ ⊢ A       then  Δ(Γ) ⊢ C
    TensorR      Γ ⊢ A      and   Γ′ ⊢ B      then  Γ, Γ′ ⊢ A ⊗ B
    LimpL        Γ ⊢ A      and   Δ, B ⊢ C    then  Δ, Γ, A -o B ⊢ C
    LresL        Γ ⊢ A      and   Δ(B) ⊢ C    then  Δ(Γ; A \\ B) ⊢ C
    RresL        Γ ⊢ A      and   Δ(B) ⊢ C    then  Δ(B / A; Γ) ⊢ C
    BoxRe        A ⊢ B      and   B ⊢ A       then  []A ⊢ []B
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

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
    brings,
    language_error,
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

AGENT_RULES = frozenset(
    {BRINGS_RE, BRINGS_REFL, BRINGS_TENSOR, BRINGS_WITH, BRINGS_ODOT, NOT_NEC}
)

_CORE = (
    AX,
    CUT,
    TENSOR_L,
    TENSOR_R,
    LIMP_L,
    LIMP_R,
    WITH_L1,
    WITH_L2,
    WITH_R,
    ONE_L,
    ONE_R,
)
_SERIAL = (ODOT_L, ODOT_R, LRES_L, LRES_R, RRES_L, RRES_R)
_BRINGS = (BRINGS_RE, BRINGS_REFL, BRINGS_TENSOR, BRINGS_WITH, NOT_NEC)

SYSTEM_RULES: dict[SystemId, tuple[str, ...]] = {
    SystemId.MILL: _CORE + (BOX_RE,),
    SystemId.PCMILL: _CORE + (BOX_RE,) + _SERIAL,
    SystemId.RSBIAT: _CORE + _BRINGS,
    SystemId.SRSBIAT: _CORE + _BRINGS + _SERIAL + (BRINGS_ODOT,),
}


@dataclass(frozen=True)
class Rule:
    name: str
    agent: str | None = None

    def __post_init__(self) -> None:
        if (self.agent is not None) != (self.name in AGENT_RULES):
            raise ValueError(f"rule {self.name} and agent {self.agent!r} mismatch")

    def __str__(self) -> str:
        return self.name if self.agent is None else f"{self.name}[{self.agent}]"


_ALLOWED = {ident: frozenset(names) for ident, names in SYSTEM_RULES.items()}


def rule_admissible(rule: Rule, system: System) -> bool:
    if rule.name not in _ALLOWED[system.ident]:
        return False
    if rule.name in AGENT_RULES and rule.agent not in system.agents:
        return False
    return True


@dataclass(frozen=True, eq=False)
class Proof:
    """A proof tree.  Equality compares the trees node by node on an
    explicit stack, and the hash reads the root's conclusion and rule
    alone, so neither is limited by the recursion limit."""

    conclusion: Sequent
    rule: Rule
    premises: tuple["Proof", ...] = ()

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


class CheckSession:
    """Nodes accepted by earlier ``check_proof`` calls, for proofs of one
    system.

    Only ``check_proof`` fills a session, and only from a check that
    passes: a check with violations records no node.  Nodes are held by
    reference, so their ``id`` is not reused while the session lives.
    A verdict on a node depends on the node, its premises' conclusions
    and the system alone, so a recorded subtree needs no second look.
    """

    __slots__ = ("_system", "_accepted")

    def __init__(self) -> None:
        self._system: System | None = None
        self._accepted: dict[int, Proof] = {}


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    violations: tuple[tuple[tuple[int, ...], str], ...]

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# Antecedent helpers


def _principals(c: Sequent, kind) -> list[Formula]:
    """Distinct leaves of the conclusion with main connective ``kind``."""
    return list(dict.fromkeys(f for f in context_formulas(c.ctx) if isinstance(f, kind)))


def _leaf_paths(ctx: Context, f: Formula) -> list[tuple[int, ...]]:
    return [pt for pt, n in positions(ctx) if isinstance(n, Leaf) and n.formula == f]


def _fits(x: Context, c: Sequent) -> bool:
    """The rule concludes antecedent ``x``; does ``c`` follow from it?"""
    return entropy_le(x, c.ctx) if c.system.is_tree else x == c.ctx


def _unfill(y: Context, parts: tuple[Formula, ...], serial: bool, f: Formula):
    """Every antecedent with an occurrence of ``f`` at which putting the
    parallel (or serial) composition of ``parts`` gives ``y``; with no
    parts, the composition is ``()`` and ``f`` is deleted."""
    if not parts:
        yield from _with_leaf(y, leaf(f))
        return
    if len(parts) == 1:
        for pt in _leaf_paths(y, parts[0]):
            yield fill(y, pt, leaf(f))
        return
    # two parts: a Par node holding both leaves (the composition was
    # flattened into it or is the node itself), or a Ser node holding
    # them as a consecutive run
    want = [leaf(g) for g in parts]
    for pt, n in positions(y):
        if serial and isinstance(n, Ser):
            kids = n.children
            for i in range(len(kids) - 1):
                if list(kids[i : i + 2]) == want:
                    yield fill(y, pt, ser(kids[:i] + (leaf(f),) + kids[i + 2 :]))
        elif not serial and isinstance(n, Par):
            left = Counter(n.children)
            left.subtract(want)
            if min(left.values()) >= 0:
                yield fill(y, pt, par(list(left.elements()) + [leaf(f)]))


# ---------------------------------------------------------------------------
# Forward instantiation, one function per rule.  Each takes the node's
# conclusion, its premises' conclusions and the rule's agent.


def _ax(c: Sequent, ps: list[Sequent], agent) -> bool:
    return not ps and singleton_body(c.ctx) == c.succ


def _one_r(c: Sequent, ps: list[Sequent], agent) -> bool:
    return not ps and isinstance(c.succ, Unit) and c.ctx is EMPTY


def _left_unary(kind, parts, serial: bool = False, agentive: bool = False):
    """A left rule putting ``parts(f)`` in place of one principal ``f``."""

    def check(c: Sequent, ps: list[Sequent], agent) -> bool:
        if len(ps) != 1 or ps[0].succ != c.succ:
            return False
        for f in _principals(c, kind):
            if agentive and f.agent != agent:  # type: ignore[attr-defined]
                continue
            for x in _unfill(ps[0].ctx, parts(f), serial, f):
                if _fits(x, c):
                    return True
        return False

    return check


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


def _pair_right(kind, serial: bool, shared: bool, agentive: bool = False):
    """TensorR, OdotR, WithR and their E[a] forms: premises prove the two
    halves, over the shared antecedent or over two joined ones."""

    def check(c: Sequent, ps: list[Sequent], agent) -> bool:
        g = c.succ
        if agentive:
            if not isinstance(g, Brings) or g.agent != agent:
                return False
            g = g.body
        if len(ps) != 2 or not isinstance(g, kind):
            return False
        want = (g.left, g.right)
        if agentive:
            want = (brings(agent, g.left), brings(agent, g.right))
        if (ps[0].succ, ps[1].succ) != want:
            return False
        if shared:
            return ps[0].ctx == ps[1].ctx and _fits(ps[0].ctx, c)
        return _fits(join(ps[0].ctx, ps[1].ctx, serial), c)

    return check


def _limp_r(c: Sequent, ps: list[Sequent], agent) -> bool:
    g = c.succ
    if len(ps) != 1 or not isinstance(g, Limp) or ps[0].succ != g.right:
        return False
    y = ps[0].ctx
    a = leaf(g.left)
    if y == a:
        return _fits(EMPTY, c)
    if not isinstance(y, Par) or a not in y.children:
        return False
    kids = list(y.children)
    kids.remove(a)
    return _fits(par(kids), c)


def _res_r(c: Sequent, ps: list[Sequent], agent) -> bool:
    g = c.succ
    if len(ps) != 1 or not isinstance(g, (Lres, Rres)):
        return False
    # A \ B reads A; Γ ⊢ B, and B / A reads Γ; A ⊢ B
    lres = isinstance(g, Lres)
    arg, res = (g.left, g.right) if lres else (g.right, g.left)
    if ps[0].succ != res:
        return False
    y = ps[0].ctx
    kids = y.children if isinstance(y, Ser) else (y,)
    end = 0 if lres else -1
    if kids[end] != leaf(arg):
        return False
    return _fits(ser(kids[1:] if lres else kids[:-1]), c)


def _imp_left(kind, arg_of, res_of, block):
    """LimpL, LresL, RresL: the second premise holds the residue where
    the conclusion holds ``block(Γ, f)``, Γ being the first premise's
    antecedent and f the principal implication."""

    def check(c: Sequent, ps: list[Sequent], agent) -> bool:
        if len(ps) != 2 or ps[1].succ != c.succ:
            return False
        gamma, y = ps[0].ctx, ps[1].ctx
        for f in _principals(c, kind):
            if arg_of(f) != ps[0].succ:
                continue
            res = res_of(f)
            for pt in _leaf_paths(y, res):
                if _fits(fill(y, pt, block(gamma, leaf(f))), c):
                    return True
        return False

    return check


def _converse(c: Sequent, ps: list[Sequent], agent) -> bool:
    """BoxRe and BringsRe: []A ⊢ []B from A ⊢ B and B ⊢ A."""
    body, g = singleton_body(c.ctx), c.succ
    if agent is None:
        if not isinstance(body, Box) or not isinstance(g, Box):
            return False
    elif not (
        isinstance(body, Brings)
        and isinstance(g, Brings)
        and body.agent == agent
        and g.agent == agent
    ):
        return False
    a, b = body.body, g.body
    want = [(leaf(a), b), (leaf(b), a)]
    return [(s.ctx, s.succ) for s in ps] == want


def _not_nec(c: Sequent, ps: list[Sequent], agent) -> bool:
    body = singleton_body(c.ctx)
    if c.succ != BOT or not isinstance(body, Brings) or body.agent != agent:
        return False
    return [(s.ctx, s.succ) for s in ps] == [(EMPTY, body.body)]


_CHECKS = {
    AX: _ax,
    ONE_R: _one_r,
    TENSOR_L: _left_unary(Tensor, lambda f: (f.left, f.right)),
    ODOT_L: _left_unary(Odot, lambda f: (f.left, f.right), serial=True),
    ONE_L: _left_unary(Unit, lambda f: ()),
    WITH_L1: _left_unary(With, lambda f: (f.left,)),
    WITH_L2: _left_unary(With, lambda f: (f.right,)),
    BRINGS_REFL: _left_unary(Brings, lambda f: (f.body,), agentive=True),
    WITH_R: _pair_right(With, serial=False, shared=True),
    TENSOR_R: _pair_right(Tensor, serial=False, shared=False),
    ODOT_R: _pair_right(Odot, serial=True, shared=False),
    BRINGS_WITH: _pair_right(With, serial=False, shared=True, agentive=True),
    BRINGS_TENSOR: _pair_right(Tensor, serial=False, shared=False, agentive=True),
    BRINGS_ODOT: _pair_right(Odot, serial=True, shared=False, agentive=True),
    LIMP_R: _limp_r,
    LRES_R: _res_r,
    RRES_R: _res_r,
    LIMP_L: _imp_left(
        Limp, lambda f: f.left, lambda f: f.right, lambda g, f: par([g, f])
    ),
    LRES_L: _imp_left(
        Lres, lambda f: f.left, lambda f: f.right, lambda g, f: ser([g, f])
    ),
    RRES_L: _imp_left(
        Rres, lambda f: f.right, lambda f: f.left, lambda g, f: ser([f, g])
    ),
    BOX_RE: _converse,
    BRINGS_RE: _converse,
    NOT_NEC: _not_nec,
}


def _check_cut(node: Proof) -> str | None:
    if len(node.premises) != 2:
        return "Cut needs two premises"
    consumer, producer = node.premises[0].conclusion, node.premises[1].conclusion
    a = producer.succ
    concl = node.conclusion
    if consumer.succ != concl.succ:
        return "Cut conclusion succedent differs from first premise"
    for path in _leaf_paths(consumer.ctx, a):
        if _fits(fill(consumer.ctx, path, producer.ctx), concl):
            return None
    return "no cut-formula occurrence reproduces the conclusion antecedent"


def check_proof(p: Proof, session: CheckSession | None = None) -> CheckReport:
    """Check each distinct node of ``p`` once.  A node object reached
    again on another path (search and cut elimination share subtrees)
    is skipped with its subtree, so a shared bad node is reported once,
    at its first path in preorder.  With a ``session``, also skip each
    subtree that a passing check in the session visited; the report is
    the one a check without the session gives, which is a check with a
    fresh session."""
    if session is None:
        session = CheckSession()
    violations: list[tuple[tuple[int, ...], str]] = []
    system = p.conclusion.system
    if session._system is None:
        session._system = system
    elif session._system != system:
        raise ValueError(f"session checks {session._system} proofs, not {system}")
    accepted = session._accepted
    visited: dict[int, Proof] = {}  # nodes visited in this call, by id

    stack: list[tuple[tuple[int, ...], Proof]] = [((), p)]
    while stack:
        path, node = stack.pop()
        if id(node) in accepted or id(node) in visited:
            continue
        visited[id(node)] = node
        for i in reversed(range(len(node.premises))):
            stack.append((path + (i,), node.premises[i]))
        c = node.conclusion
        if c.system is not system and c.system != system:
            violations.append((path, "mixed systems in one proof"))
            continue
        err = language_error((*context_formulas(c.ctx), c.succ), system)
        if err is not None:
            violations.append((path, f"ill-formed sequent: {err}"))
            continue
        rule = node.rule
        if not rule_admissible(rule, system):
            violations.append((path, f"{rule} not admissible in {system}"))
            continue
        prems = [q.conclusion for q in node.premises]
        if any(s.system is not system and s.system != system for s in prems):
            continue  # reported at the premise itself
        if rule.name == CUT:
            err = _check_cut(node)
        elif _CHECKS[rule.name](node.conclusion, prems, rule.agent):
            continue
        elif rule.name == BOX_RE and len(prems) == 1:
            err = "missing converse premise"
        else:
            err = f"premises do not instantiate {rule}"
        if err:
            violations.append((path, err))
    if not violations:
        accepted.update(visited)
    return CheckReport(not violations, tuple(violations))
