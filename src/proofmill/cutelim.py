"""Stepwise cut elimination with reduction traces.

``eliminate_cuts`` is one postorder fold over the distinct nodes of a
proof: a node's premises reach normal form first, and a cut over
normal premises goes to ``reduce_once(cut, session=None)``, which
rewrites the cut at the root of its argument; the reduct is then
folded in turn.  Each rewrite either reduces a principal pair,
replacing the cut by cuts on strictly smaller formulas, or permutes
the cut upward past a rule that does not touch the cut formula.  A
producer is ready for a principal reduction when its last rule is
principal on the succedent (the side that the kernel's ``RULES``
gives it); otherwise the cut is permuted.
Candidate subtrees are built semantically and verified with the proof
checker before one is taken, so context bookkeeping mistakes cannot
slip through.  Normal forms are memoised by node identity, and cuts by
their normal premises and conclusion, so a shared subproof is reduced
once, its normal form stays shared, and the trace lists its reduction
once, at the first path where the fold reaches it.  One
``CheckSession`` serves the whole elimination, so each candidate check
covers only the nodes that no earlier check in it accepted.

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
from typing import Iterable, Iterator

from .calculus import (
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
    TENSOR_L,
    TENSOR_R,
    WITH_L1,
    WITH_L2,
    WITH_R,
    CheckSession,
    Proof,
    Rule,
    check_proof,
    cut_count,
)
from .context import (
    Context,
    Leaf,
    Sequent,
    fill,
    join,
    leaf,
    positions,
)
from .kernel import RULES, SUCC
from .syntax import BOT, Formula, brings, odot, tensor, with_

STEP_CAP = 1_000_000

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


def _cut(consumer: Proof, producer: Proof, ctx: Context) -> Proof:
    """The cut of ``producer`` into ``consumer`` concluding antecedent ``ctx``."""
    c = consumer.conclusion
    return Proof(Sequent(ctx, c.succ, c.system), Rule(CUT), (consumer, producer))


def _cuts(consumer: Proof, producer: Proof, early: int = 1) -> Iterator[tuple[bool, Proof]]:
    """The cuts of ``producer`` into ``consumer``, one per occurrence of
    the cut formula in preorder, skipping an occurrence whose replacement
    gives an antecedent already listed (as all occurrences of a formula
    in one parallel node do).  Yields ``(late, cut)``; ``late`` marks an
    occurrence after the first ``early`` ones."""
    a = producer.conclusion.succ
    cctx = consumer.conclusion.ctx
    occs = [pt for pt, n in positions(cctx) if isinstance(n, Leaf) and n.formula == a]
    seen: set[Context] = set()
    for i, pt in enumerate(occs):
        ctx = fill(cctx, pt, producer.conclusion.ctx)
        if ctx not in seen:
            seen.add(ctx)
            yield i >= early, _cut(consumer, producer, ctx)


def _then(cuts: Iterable[tuple[bool, Proof]], build) -> Iterator[tuple[bool, Proof]]:
    """``build(cut)`` for each of ``cuts``, late when either step is."""
    for late, cut in cuts:
        for later, out in build(cut):
            yield late or later, out


def _close_ctx(cand: Proof, want: Sequent) -> Proof | None:
    """The candidate concluding the wanted sequent.  In a tree system a
    candidate with the same succedent is re-rooted at it: its last rule
    may reach the wanted antecedent by entropy, and the kernel decides."""
    if cand.conclusion == want:
        return cand
    if cand.conclusion.succ == want.succ and want.system.is_tree:
        return Proof(want, cand.rule, cand.premises)
    return None


def _refl_ax(agent: str, f: Formula, system) -> Proof:
    """E[a]f |- f by reflexive elimination over an axiom."""
    inner = Sequent(leaf(f), f, system)
    outer = Sequent(leaf(brings(agent, f)), f, system)
    return Proof(outer, Rule(BRINGS_REFL, agent), (Proof(inner, Rule(AX)),))


# ---------------------------------------------------------------------------
# candidate constructions


def _principal_candidates(node: Proof) -> Iterator[tuple[bool, Proof]]:
    """Principal reductions of a cut, each sub-cut at every occurrence of
    its formula; the one at the first occurrences comes first and is the
    only early one."""
    consumer, producer = node.premises
    system = node.conclusion.system
    cname, pname = consumer.rule.name, producer.rule.name
    agent = consumer.rule.agent

    if (cname, pname) in ((TENSOR_L, TENSOR_R), (ODOT_L, ODOT_R)):
        p1, p2 = producer.premises
        yield from _then(_cuts(consumer.premises[0], p1), lambda cut1: _cuts(cut1, p2))
    elif cname == ONE_L and pname == ONE_R:
        yield False, consumer.premises[0]
    elif cname in (WITH_L1, WITH_L2) and pname == WITH_R:
        side = producer.premises[0 if cname == WITH_L1 else 1]
        yield from _cuts(consumer.premises[0], side)
    elif (cname, pname) == (LIMP_L, LIMP_R) or (
        cname in (LRES_L, RRES_L) and pname in (LRES_R, RRES_R)
    ):
        arg, body = consumer.premises  # Σ |- X and Δ(Y) |- C
        q = producer.premises[0]  # (Γ', X) |- Y
        yield from _then(_cuts(q, arg), lambda cut1: _cuts(body, cut1))
    elif cname == pname and cname in (BOX_RE, BRINGS_RE):
        c1, c2 = consumer.premises  # X |- W, W |- X
        d1, d2 = producer.premises  # Z |- X, X |- Z
        for late, left in _cuts(c1, d1):  # Z |- W
            for later, right in _cuts(d2, c2):  # W |- Z
                yield late or later, Proof(node.conclusion, Rule(cname, agent), (left, right))
    elif cname == BRINGS_REFL and pname == BRINGS_RE:
        d1 = producer.premises[0]  # Z |- X
        for late, cut1 in _cuts(consumer.premises[0], d1):  # Γ(Z) |- C
            yield late, Proof(node.conclusion, Rule(BRINGS_REFL, agent), (cut1,))
    elif cname == BRINGS_REFL and pname in (BRINGS_TENSOR, BRINGS_ODOT, BRINGS_WITH):
        cp = consumer.premises[0]  # Γ(X op Y) |- C
        p1, p2 = producer.premises  # Γ1 |- E[a]X, Γ2 |- E[a]Y
        x = p1.conclusion.succ.body
        y = p2.conclusion.succ.body
        cut_x = _cut(_refl_ax(agent, x, system), p1, p1.conclusion.ctx)  # Γ1 |- X
        cut_y = _cut(_refl_ax(agent, y, system), p2, p2.conclusion.ctx)  # Γ2 |- Y
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
        yield from _cuts(cp, comb)
    elif cname == NOT_NEC and pname == BRINGS_RE:
        d2 = producer.premises[1]  # W |- Z
        for late, cut1 in _cuts(d2, consumer.premises[0]):  # |- Z
            yield late, Proof(node.conclusion, Rule(NOT_NEC, agent), (cut1,))
    elif cname == NOT_NEC and pname == BRINGS_WITH:
        cp = consumer.premises[0]  # |- U & V, cut-free, must end in WithR
        if cp.rule.name == WITH_R:
            first = cp.premises[0]  # |- U
            u = first.conclusion.succ
            nn = Proof(
                Sequent(leaf(brings(agent, u)), BOT, system),
                Rule(NOT_NEC, agent),
                (first,),
            )
            yield from _cuts(nn, producer.premises[0])


def _permute_into_producer(node: Proof) -> Iterator[tuple[bool, Proof]]:
    consumer, producer = node.premises
    rule = producer.rule
    if rule.name in (TENSOR_L, ODOT_L, ONE_L, WITH_L1, WITH_L2, BRINGS_REFL):
        for late, inner in _cuts(consumer, producer.premises[0]):
            yield late, Proof(node.conclusion, rule, (inner,))
    elif rule.name in (LIMP_L, LRES_L, RRES_L):
        arg, body = producer.premises
        for late, inner in _cuts(consumer, body):
            yield late, Proof(node.conclusion, rule, (arg, inner))


def _permute_into_consumer(node: Proof) -> Iterator[tuple[bool, Proof]]:
    """The cut moved into a premise of the consumer, at each occurrence;
    the first four occurrences in each premise are early."""
    consumer, producer = node.premises
    rule = consumer.rule
    prems = consumer.premises
    if rule.name in (WITH_R, BRINGS_WITH):
        # the antecedent is shared: cut into both premises at one occurrence
        for (late, left), (_, right) in zip(
            _cuts(prems[0], producer, 4), _cuts(prems[1], producer, 4)
        ):
            yield late, Proof(node.conclusion, rule, (left, right))
        return
    for i, pr in enumerate(prems):
        for late, inner in _cuts(pr, producer, 4):
            new = tuple(inner if j == i else q for j, q in enumerate(prems))
            yield late, Proof(node.conclusion, rule, new)


def _early_first(sources) -> Iterator[tuple[str, Proof]]:
    """The ``(kind, candidate)`` pairs of each ``(kind, candidates)``
    source in order, every early candidate before every late one."""
    late: list[tuple[str, Proof]] = []
    for kind, cands in sources:
        for is_late, cand in cands:
            if is_late:
                late.append((kind, cand))
            else:
                yield kind, cand
    yield from late


# ---------------------------------------------------------------------------
# the reduction driver


def reduce_once(
    cut: Proof, session: CheckSession | None = None
) -> tuple[Proof, ReductionStep]:
    """Rewrite the cut at the root of ``cut``, whose premises are
    cut-free, and return its reduct together with the step taken (at
    path ``()``).

    ``eliminate_cuts`` passes its ``session``: candidates are checked in
    it, and the premises are taken to be cut-free, as its fold makes
    them, without counting their cuts."""
    if cut.rule.name != CUT:
        raise ValueError("no cut at the root")
    if session is None and cut_count(cut) != 1:
        raise ValueError("the cut has cuts above it")
    consumer, producer = cut.premises
    a = producer.conclusion.succ

    if consumer.rule.name == AX:
        sources = [("principal", [(False, producer)])]
    elif producer.rule.name == AX:
        sources = [("principal", [(False, consumer)])]
    elif RULES[producer.rule.name].side != SUCC:
        # a left rule on the producer side; lift the cut past
        # it, falling back to the consumer side (needed when the producer
        # ends in NotNec, whose premise loses the cut formula)
        sources = [
            ("permutation", _permute_into_producer(cut)),
            ("permutation", _permute_into_consumer(cut)),
        ]
    else:
        pair = (consumer.rule.name, producer.rule.name)
        if pair in DEFECTIVE_PAIRS:
            raise CutEliminationError(
                "irreducible principal pair", pair=pair, formula=a, path=()
            )
        sources = [
            ("principal", _principal_candidates(cut)),
            ("permutation", _permute_into_consumer(cut)),
        ]

    # every occurrence of the cut formula is tried, but the candidates
    # at the first one (the first four, into the consumer) come first
    for kind, cand in _early_first(sources):
        closed = _close_ctx(cand, cut.conclusion)
        if closed is None:
            continue
        if check_proof(closed, session).ok:
            return closed, ReductionStep(kind, a, ())
    raise CutEliminationError(
        "no verified reduction applies",
        pair=(consumer.rule.name, producer.rule.name),
        formula=a,
        path=(),
    )


def eliminate_cuts(p: Proof) -> tuple[Proof, ReductionTrace]:
    """A cut-free proof of the same sequent and its trace, by the fold
    described in the module docstring.  A node is rebuilt only when the
    normal form of a premise is another object.

    One check session lives for the call: the input is checked in it,
    and so is every candidate, so a node is checked at most once."""
    session = CheckSession()
    report = check_proof(p, session)
    if not report.ok:
        raise ValueError(f"input proof does not check: {report.violations[:3]}")
    steps: list[ReductionStep] = []
    # id(node) -> its normal form, and (id(consumer), id(producer),
    # conclusion) of a cut over normal premises -> the cut's reduct.
    # Every node keyed by id stays alive while they do: an input node
    # is held by ``p``, a node of a reduct by ``reducts``, and a normal
    # form by ``normal``, so no id is reused
    normal: dict[int, Proof] = {}
    reducts: dict[tuple[int, int, Sequent], Proof] = {}
    todo: list[tuple[Proof, tuple[int, ...], bool]] = [(p, (), False)]
    while todo:
        node, path, ready = todo.pop()
        prems = node.premises
        if not ready:
            if id(node) in normal:
                continue
            if not prems:
                normal[id(node)] = node
                continue
            todo.append((node, path, True))
            for i in range(len(prems) - 1, -1, -1):
                todo.append((prems[i], path + (i,), False))
            continue
        out = node
        for q in prems:
            if normal[id(q)] is not q:
                new = tuple([normal[id(q)] for q in prems])
                out = Proof(node.conclusion, node.rule, new)
                break
        if node.rule.name == CUT:
            consumer, producer = out.premises
            key = (id(consumer), id(producer), node.conclusion)
            reduct = reducts.get(key)
            if reduct is None:
                if len(steps) >= STEP_CAP:
                    raise CutEliminationError(
                        f"no normal form within {STEP_CAP} steps", path=path
                    )
                try:
                    reduct, step = reduce_once(out, session)
                except CutEliminationError as exc:
                    exc.path = path
                    raise
                steps.append(ReductionStep(step.kind, step.formula, path))
                reducts[key] = reduct
                # the cut again, once its reduct is folded
                todo.append((node, path, True))
                todo.append((reduct, path, False))
                continue
            out = normal[id(reduct)]
        elif out is not node:
            normal[id(out)] = out
        normal[id(node)] = out
    final = normal[id(p)]
    return final, ReductionTrace(tuple(steps), final)
