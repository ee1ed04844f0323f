"""Stepwise cut elimination with reduction traces.

``eliminate_cuts`` repeatedly rewrites a topmost cut (one whose
premises are already cut-free, first in preorder) until no cut
remains.  Each rewrite either reduces a principal pair, replacing the
cut by cuts on strictly smaller formulas, or permutes the cut upward
past a rule that does not touch the cut formula.  Candidate subtrees
are built semantically and verified with the proof checker before
being spliced in, so context bookkeeping mistakes cannot slip through.

The agent systems admit five principal pairs with no reduction: a
``NotNec`` or ``BringsRe`` step consuming a formula that the producer
assembled with ``BringsTensor``, ``BringsWith``, or ``BringsOdot``.
Two of the combinations are actually harmless (``NotNec`` against
``BringsWith`` resolves by inverting the empty-antecedent premise, and
every pairing against a ``BringsRefl`` consumer resolves through small
auxiliary cuts), but the remaining five are genuine dead ends: there
are sequents provable with cut whose cut-free search space is finite
and exhausted, for instance

    E[a](p -o p), E[a](p -o p) |- bot
    E[a]p, E[a]q |- E[a](1 * (p * q))

Eliminating a cut from such a proof raises ``CutEliminationError``
naming the offending pair.  See docs/cut_elimination.md for the full
case table.
"""
from __future__ import annotations

from dataclasses import dataclass

from .calculus import (
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
    TENSOR_L,
    TENSOR_R,
    WITH_L1,
    WITH_L2,
    WITH_R,
    Proof,
    Rule,
    check_proof,
    cut_count,
)
from .context import (
    Context,
    Leaf,
    MSet,
    Sequent,
    fill,
    join,
    positions,
    single,
)
from .syntax import BOT, Formula, brings, odot, tensor, with_

STEP_CAP = 1_000_000

# right rules introducing the succedent connective; a producer ending in
# one of these is ready for a principal reduction
_RIGHT_INTRO = frozenset(
    {
        TENSOR_R,
        ODOT_R,
        LIMP_R,
        LRES_R,
        RRES_R,
        WITH_R,
        ONE_R,
        BOX_RE,
        BRINGS_RE,
        BRINGS_TENSOR,
        BRINGS_WITH,
        BRINGS_ODOT,
    }
)

# principal pairs with no reduction; see the module docstring
DEFECTIVE_PAIRS = frozenset(
    {
        (NOT_NEC, BRINGS_TENSOR),
        (NOT_NEC, BRINGS_ODOT),
        (BRINGS_RE, BRINGS_TENSOR),
        (BRINGS_RE, BRINGS_WITH),
        (BRINGS_RE, BRINGS_ODOT),
    }
)


class CutEliminationError(Exception):
    def __init__(
        self,
        message: str,
        *,
        pair: tuple[str, str] | None = None,
        formula: Formula | None = None,
        path: tuple[int, ...] | None = None,
    ):
        detail = message
        if pair:
            detail += f" (consumer {pair[0]} against producer {pair[1]})"
        if formula is not None:
            detail += f" on cut formula {formula.key}"
        super().__init__(detail)
        self.pair = pair
        self.formula = formula
        self.path = path


@dataclass(frozen=True)
class ReductionStep:
    kind: str  # "principal" | "permutation"
    formula: Formula
    path: tuple[int, ...]


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...]
    final: Proof

    def __len__(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# helpers


def _subproof(p: Proof, path: tuple[int, ...]) -> Proof:
    for i in path:
        p = p.premises[i]
    return p


def _splice(p: Proof, path: tuple[int, ...], new: Proof) -> Proof:
    if not path:
        return new
    i = path[0]
    prems = list(p.premises)
    prems[i] = _splice(prems[i], path[1:], new)
    return Proof(p.conclusion, p.rule, tuple(prems))


def _occurrences(ctx: Context, f: Formula) -> list[tuple[int, ...] | int]:
    if isinstance(ctx, MSet):
        return [i for i, g in enumerate(ctx.formulas) if g == f]
    return [pt for pt, n in positions(ctx) if isinstance(n, Leaf) and n.formula == f]


def _replace_occ(ctx: Context, occ, repl: Context) -> Context:
    if isinstance(ctx, MSet):
        return fill(ctx, (occ,), repl)
    return fill(ctx, occ, repl)


class _NoOccurrence(Exception):
    """Raised while building a candidate whose sub-cut formula does not
    occur where the construction expects it.  This happens when the rule
    under a cut merely shares its name with the principal case (it acted
    on a different formula); such candidates cannot exist, and the
    permutation candidates take over."""


def _mk_cut(consumer: Proof, producer: Proof, occ=None) -> Proof:
    """A cut node combining the two subproofs at the given occurrence of
    the cut formula (first occurrence when unspecified)."""
    a = producer.conclusion.succ
    cctx = consumer.conclusion.ctx
    if occ is None:
        occs = _occurrences(cctx, a)
        if not occs:
            raise _NoOccurrence(a.key)
        occ = occs[0]
    concl = Sequent(
        _replace_occ(cctx, occ, producer.conclusion.ctx),
        consumer.conclusion.succ,
        consumer.conclusion.system,
    )
    return Proof(concl, Rule(CUT), (consumer, producer))


def _close_ctx(cand: Proof, want: Sequent) -> Proof | None:
    """Adapt a candidate to the wanted conclusion, inserting an entropy
    step when only the antecedent grouping differs."""
    if cand.conclusion == want:
        return cand
    if (
        cand.conclusion.succ == want.succ
        and want.system.is_tree
        and cand.conclusion.ctx != want.ctx
    ):
        return Proof(want, Rule(ENT), (cand,))
    return None


def _refl_ax(agent: str, f: Formula, system) -> Proof:
    """E[a]f |- f by reflexive elimination over an axiom."""
    inner = Sequent(single(f, system.is_tree), f, system)
    outer = Sequent(single(brings(agent, f), system.is_tree), f, system)
    return Proof(outer, Rule(BRINGS_REFL, agent), (Proof(inner, Rule(AX)),))


# ---------------------------------------------------------------------------
# candidate constructions


def _principal_candidates(node: Proof) -> list[Proof]:
    consumer, producer = node.premises
    a = producer.conclusion.succ
    system = node.conclusion.system
    cname, pname = consumer.rule.name, producer.rule.name
    out: list[Proof] = []

    if cname == TENSOR_L and pname == TENSOR_R:
        cp = consumer.premises[0]
        p1, p2 = producer.premises
        cut1 = _mk_cut(cp, p1)
        out.append(_mk_cut(cut1, p2))
    elif cname == ODOT_L and pname == ODOT_R:
        cp = consumer.premises[0]
        p1, p2 = producer.premises
        cut1 = _mk_cut(cp, p1)
        out.append(_mk_cut(cut1, p2))
    elif cname == ONE_L and pname == ONE_R:
        out.append(consumer.premises[0])
    elif cname in (WITH_L1, WITH_L2) and pname == WITH_R:
        side = producer.premises[0 if cname == WITH_L1 else 1]
        out.append(_mk_cut(consumer.premises[0], side))
    elif cname == LIMP_L and pname == LIMP_R:
        arg, body = consumer.premises  # Σ |- X and Δ(Y) |- C
        q = producer.premises[0]  # (Γ', X) |- Y
        cut1 = _mk_cut(q, arg)
        out.append(_mk_cut(body, cut1))
    elif cname in (LRES_L, RRES_L) and pname in (LRES_R, RRES_R):
        arg, body = consumer.premises
        q = producer.premises[0]
        cut1 = _mk_cut(q, arg)
        out.append(_mk_cut(body, cut1))
    elif cname == BOX_RE and pname == BOX_RE:
        c1, c2 = consumer.premises  # X |- W, W |- X
        d1, d2 = producer.premises  # Z |- X, X |- Z
        left = _mk_cut(c1, d1)  # Z |- W
        right = _mk_cut(d2, c2)  # W |- Z
        out.append(Proof(node.conclusion, Rule(BOX_RE), (left, right)))
    elif cname == BRINGS_RE and pname == BRINGS_RE:
        agent = consumer.rule.agent
        c1, c2 = consumer.premises
        d1, d2 = producer.premises
        left = _mk_cut(c1, d1)
        right = _mk_cut(d2, c2)
        out.append(Proof(node.conclusion, Rule(BRINGS_RE, agent), (left, right)))
    elif cname == BRINGS_REFL and pname == BRINGS_RE:
        agent = consumer.rule.agent
        cp = consumer.premises[0]  # Γ(X) |- C
        d1, d2 = producer.premises  # Z |- X, X |- Z
        cut1 = _mk_cut(cp, d1)  # Γ(Z) |- C
        out.append(Proof(node.conclusion, Rule(BRINGS_REFL, agent), (cut1,)))
    elif cname == BRINGS_REFL and pname in (BRINGS_TENSOR, BRINGS_ODOT, BRINGS_WITH):
        agent = consumer.rule.agent
        cp = consumer.premises[0]  # Γ(X op Y) |- C
        p1, p2 = producer.premises  # Γ1 |- E[a]X, Γ2 |- E[a]Y
        x = p1.conclusion.succ.body
        y = p2.conclusion.succ.body
        cut_x = _mk_cut(_refl_ax(agent, x, system), p1)  # Γ1 |- X
        cut_y = _mk_cut(_refl_ax(agent, y, system), p2)  # Γ2 |- Y
        if pname == BRINGS_WITH:
            comb = Proof(
                Sequent(cut_x.conclusion.ctx, with_(x, y), system),
                Rule(WITH_R),
                (cut_x, cut_y),
            )
        else:
            serial = pname == BRINGS_ODOT
            ctx = join(cut_x.conclusion.ctx, cut_y.conclusion.ctx, serial)
            comb = Proof(
                Sequent(ctx, odot(x, y) if serial else tensor(x, y), system),
                Rule(ODOT_R if serial else TENSOR_R),
                (cut_x, cut_y),
            )
        out.append(_mk_cut(cp, comb))
    elif cname == NOT_NEC and pname == BRINGS_RE:
        agent = consumer.rule.agent
        cp = consumer.premises[0]  # |- W
        d2 = producer.premises[1]  # W |- Z
        cut1 = _mk_cut(d2, cp)  # |- Z
        out.append(Proof(node.conclusion, Rule(NOT_NEC, agent), (cut1,)))
    elif cname == NOT_NEC and pname == BRINGS_WITH:
        agent = consumer.rule.agent
        cp = consumer.premises[0]  # |- U & V, cut-free, must end in WithR
        if cp.rule.name == WITH_R:
            first = cp.premises[0]  # |- U
            u = first.conclusion.succ
            nn = Proof(
                Sequent(single(brings(agent, u), system.is_tree), BOT, system),
                Rule(NOT_NEC, agent),
                (first,),
            )
            out.append(_mk_cut(nn, producer.premises[0]))
    return out


def _permute_into_producer(node: Proof) -> list[Proof]:
    consumer, producer = node.premises
    out: list[Proof] = []
    rule = producer.rule
    if rule.name in (TENSOR_L, ODOT_L, ONE_L, WITH_L1, WITH_L2, BRINGS_REFL, ENT):
        inner = _mk_cut(consumer, producer.premises[0])
        out.append(Proof(node.conclusion, rule, (inner,)))
    elif rule.name in (LIMP_L, LRES_L, RRES_L):
        arg, body = producer.premises
        inner = _mk_cut(consumer, body)
        out.append(Proof(node.conclusion, rule, (arg, inner)))
    return out


def _permute_into_consumer(node: Proof) -> list[Proof]:
    consumer, producer = node.premises
    a = producer.conclusion.succ
    out: list[Proof] = []
    rule = consumer.rule
    prems = consumer.premises
    if rule.name in (WITH_R, BRINGS_WITH):
        # the antecedent is shared: cut into both premises
        occs = _occurrences(prems[0].conclusion.ctx, a)
        for occ in occs[:4]:
            new = tuple(_mk_cut(pr, producer, occ) for pr in prems)
            out.append(Proof(node.conclusion, rule, new))
        return out
    for i, pr in enumerate(prems):
        occs = _occurrences(pr.conclusion.ctx, a)
        for occ in occs[:4]:
            inner = _mk_cut(pr, producer, occ)
            new = tuple(inner if j == i else q for j, q in enumerate(prems))
            out.append(Proof(node.conclusion, rule, new))
    return out


# ---------------------------------------------------------------------------
# the reduction driver


def _topmost_cut(p: Proof) -> tuple[int, ...] | None:
    """The first cut in postorder.  Its premises are cut-free, and since
    cuts with cut-free premises never nest, it is also the first such
    cut in preorder."""
    stack: list[tuple[tuple[int, ...], Proof, bool]] = [((), p, False)]
    while stack:
        path, node, done = stack.pop()
        if done:
            if node.rule.name == CUT:
                return path
            continue
        stack.append((path, node, True))
        for i in reversed(range(len(node.premises))):
            stack.append((path + (i,), node.premises[i], False))
    return None


def reduce_once(
    p: Proof, path: tuple[int, ...] | None = None
) -> tuple[Proof, ReductionStep]:
    """Rewrite one topmost cut (or the cut at ``path``) and return the
    new proof together with the step taken."""
    if path is None:
        path = _topmost_cut(p)
        if path is None:
            raise ValueError("proof is cut-free")
    node = _subproof(p, path)
    if node.rule.name != CUT:
        raise ValueError(f"no cut at {path}")
    if cut_count(node) != 1:
        raise ValueError(f"cut at {path} has cuts above it")
    consumer, producer = node.premises
    a = producer.conclusion.succ

    candidates: list[tuple[str, Proof]] = []
    if consumer.rule.name == AX:
        candidates.append(("principal", producer))
    elif producer.rule.name == AX:
        candidates.append(("principal", consumer))
    elif producer.rule.name not in _RIGHT_INTRO:
        # a left rule or entropy on the producer side; lift the cut past
        # it, falling back to the consumer side (needed when the producer
        # ends in NotNec, whose premise loses the cut formula)
        candidates.extend(
            ("permutation", c) for c in _permute_into_producer(node)
        )
        candidates.extend(
            ("permutation", c) for c in _permute_into_consumer(node)
        )
    else:
        pair = (consumer.rule.name, producer.rule.name)
        if pair in DEFECTIVE_PAIRS:
            raise CutEliminationError(
                "irreducible principal pair",
                pair=pair,
                formula=a,
                path=path,
            )
        try:
            principal = _principal_candidates(node)
        except _NoOccurrence:
            principal = []
        candidates.extend(("principal", c) for c in principal)
        candidates.extend(
            ("permutation", c) for c in _permute_into_consumer(node)
        )

    for kind, cand in candidates:
        closed = _close_ctx(cand, node.conclusion)
        if closed is None:
            continue
        if check_proof(closed).ok:
            return _splice(p, path, closed), ReductionStep(kind, a, path)
    raise CutEliminationError(
        "no verified reduction applies",
        pair=(consumer.rule.name, producer.rule.name),
        formula=a,
        path=path,
    )


def eliminate_cuts(
    p: Proof, step_cap: int = STEP_CAP
) -> tuple[Proof, ReductionTrace]:
    """Drive ``reduce_once`` to a cut-free proof of the same sequent."""
    report = check_proof(p)
    if not report.ok:
        raise ValueError(f"input proof does not check: {report.violations[:3]}")
    steps: list[ReductionStep] = []
    current = p
    while True:
        path = _topmost_cut(current)
        if path is None:
            break
        if len(steps) >= step_cap:
            raise CutEliminationError(
                f"no normal form within {step_cap} steps", path=path
            )
        current, step = reduce_once(current, path)
        steps.append(step)
    return current, ReductionTrace(tuple(steps), current)
