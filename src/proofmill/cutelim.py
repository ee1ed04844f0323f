"""Stepwise cut elimination with reduction traces.

``eliminate_cuts`` is one postorder fold over the distinct nodes of a
proof: a node's premises reach normal form first, and a cut over
normal premises is rewritten at its root; the reduct is then folded in
turn.  Each rewrite either reduces a principal pair, replacing the cut
by cuts on strictly smaller formulas, or permutes the cut upward past
a rule that does not touch the cut formula.  A producer is ready for a
principal reduction when its last rule is principal on the succedent
(the side that the kernel's ``RULES`` gives it); otherwise the cut is
permuted.  Most pairs are read off the kernel's ``RULES`` as well: a
one-premise left rule other than BringsRefl against the right rule of
its connective cuts in the producer premises that its row's ``parts``
names, and an implication left rule against its right rule cuts the
argument's proof into the producer's premise and that into the result's
proof.  The modal pairs are written out one by one; the node that
combines the halves of a ``BringsTensor``, ``BringsOdot`` or
``BringsWith`` producer is the right rule of its inner connective, read
off ``RULES``.

A proof node does not say which occurrence of a formula its rule was
principal on, so a rewrite builds one candidate reduct per occurrence
of the cut formula, in preorder, and takes the first whose root the
kernel accepts as an inference (``kernel.infers``).  A candidate that
concludes another sequent than the cut is re-rooted at the cut's
sequent, in every system, and the kernel alone decides whether its
last rule reaches it (by entropy, in a tree system).  Every other node
of a candidate is a node of the cut or built to be sound, so
``eliminate_cuts`` checks its input and then its normal form once, with
``check_proof``: a bookkeeping mistake fails that check and raises
``RuntimeError`` instead of returning a proof.  The kernel skips the
nodes that the check of the input accepted, so the final check judges
only the nodes that the fold built.  ``reduce_once``, the same rewrite
on its own, checks its reduct the same way.  Normal forms
are memoised by node identity, and cuts by their normal premises and
conclusion, so a shared subproof is reduced once, its normal form
stays shared, and the trace lists its reduction once, at the first
path where the fold reaches it.

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
naming the offending pair.  Every other cut has a reduct, so a cut for
which no candidate's root is an inference is a fault of this module and
raises ``RuntimeError``.  See docs/cut_elimination.md for the full case
table.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .calculus import (
    AX,
    BOX_RE,
    BRINGS_ODOT,
    BRINGS_RE,
    BRINGS_REFL,
    BRINGS_TENSOR,
    BRINGS_WITH,
    CUT,
    NOT_NEC,
    WITH_R,
    Proof,
    Rule,
    check_proof,
    cut_count,
)
from .context import (
    Context,
    Sequent,
    fill,
    join,
    leaf,
    leaf_paths,
)
from .kernel import LEAF, RULES, SUCC, infers
from .syntax import BOT, Formula, Limp, Lres, Odot, Rres, With, brings

STEP_CAP = 1_000_000

# the connectives of LimpL/R, LresL/R and RresL/R, whose left rules take
# the argument's proof and the result's
_ARROWS = (Limp, Lres, Rres)

# the right rule of each connective, by its row's ``kinds``
_RIGHT_RULE = {row.kinds: name for name, row in RULES.items() if row.side == SUCC}

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
    return Proof(Sequent(ctx, c.succ, c.system), Rule.of(CUT), (consumer, producer))


def _cuts(consumer: Proof, producer: Proof) -> Iterator[Proof]:
    """The cuts of ``producer`` into ``consumer``, one per occurrence of
    the cut formula in preorder, skipping an occurrence whose replacement
    gives an antecedent already listed (as ``x ; x`` does for either
    ``x`` when the producer's antecedent is empty)."""
    cctx, gamma = consumer.conclusion.ctx, producer.conclusion.ctx
    seen: set[Context] = set()
    for pt in leaf_paths(cctx, producer.conclusion.succ):
        ctx = fill(cctx, pt, gamma)
        if ctx not in seen:
            seen.add(ctx)
            yield _cut(consumer, producer, ctx)


def _cut_each(consumer: Proof, producers: tuple[Proof, ...]) -> Iterator[Proof]:
    """The producers cut into ``consumer`` one after another, each at
    every occurrence of its formula, the first occurrences first."""
    if not producers:
        yield consumer
        return
    for cut1 in _cuts(consumer, producers[0]):
        yield from _cut_each(cut1, producers[1:])


def _refl_ax(agent: str, f: Formula, system) -> Proof:
    """E[a]f |- f by reflexive elimination over an axiom."""
    inner = Sequent(leaf(f), f, system)
    outer = Sequent(leaf(brings(agent, f)), f, system)
    return Proof(outer, Rule.of(BRINGS_REFL, agent), (Proof(inner, Rule.of(AX)),))


# ---------------------------------------------------------------------------
# candidate constructions


def _principal_candidates(node: Proof) -> Iterator[Proof]:
    """Principal reductions of a cut, each sub-cut at every occurrence of
    its formula, the first occurrences first."""
    consumer, producer = node.premises
    system = node.conclusion.system
    cname, pname = consumer.rule.name, producer.rule.name
    crow, prow = RULES[cname], RULES[pname]
    agent = consumer.rule.agent

    # a left rule against a right rule of its connective
    paired = crow.side == LEAF and crow.kinds == prow.kinds
    if paired and crow.parts is not None and cname != BRINGS_REFL:
        # TensorL, OdotL, OneL, WithL1 or WithL2, whose producer's
        # premises prove the operands in order: those that the consumer
        # puts back are cut in one after another
        yield from _cut_each(consumer.premises[0], producer.premises[crow.parts])
    elif paired and crow.kinds[0] in _ARROWS:
        arg, body = consumer.premises  # Σ |- X and Δ(Y) |- C
        q = producer.premises[0]  # (Γ', X) |- Y
        for cut1 in _cuts(q, arg):
            yield from _cuts(body, cut1)
    elif cname == pname and cname in (BOX_RE, BRINGS_RE):
        c1, c2 = consumer.premises  # X |- W, W |- X
        d1, d2 = producer.premises  # Z |- X, X |- Z
        for left in _cuts(c1, d1):  # Z |- W
            for right in _cuts(d2, c2):  # W |- Z
                yield Proof(node.conclusion, Rule.of(cname, agent), (left, right))
    elif cname == BRINGS_REFL and pname == BRINGS_RE:
        d1 = producer.premises[0]  # Z |- X
        for cut1 in _cuts(consumer.premises[0], d1):  # Γ(Z) |- C
            yield Proof(node.conclusion, Rule.of(BRINGS_REFL, agent), (cut1,))
    elif cname == BRINGS_REFL and len(prow.kinds) == 2:
        # BringsTensor, BringsOdot or BringsWith: the right rule of the
        # producer's inner connective combines the two halves
        cp = consumer.premises[0]  # Γ(X op Y) |- C
        p1, p2 = producer.premises  # Γ1 |- E[a]X, Γ2 |- E[a]Y
        g1, g2 = p1.conclusion, p2.conclusion
        cut_x = _cut(_refl_ax(agent, g1.succ.body, system), p1, g1.ctx)  # Γ1 |- X
        cut_y = _cut(_refl_ax(agent, g2.succ.body, system), p2, g2.ctx)  # Γ2 |- Y
        kind = prow.kinds[-1]
        ctx = g1.ctx if kind is With else join(g1.ctx, g2.ctx, kind is Odot)
        comb = Proof(Sequent(ctx, producer.conclusion.succ.body, system),
                     Rule.of(_RIGHT_RULE[prow.kinds[1:]]), (cut_x, cut_y))
        yield from _cuts(cp, comb)
    elif cname == NOT_NEC and pname == BRINGS_RE:
        d2 = producer.premises[1]  # W |- Z
        for cut1 in _cuts(d2, consumer.premises[0]):  # |- Z
            yield Proof(node.conclusion, Rule.of(NOT_NEC, agent), (cut1,))
    elif cname == NOT_NEC and pname == BRINGS_WITH:
        cp = consumer.premises[0]  # |- U & V, cut-free, must end in WithR
        if cp.rule.name == WITH_R:
            first = cp.premises[0]  # |- U
            u = first.conclusion.succ
            nn = Proof(
                Sequent(leaf(brings(agent, u)), BOT, system),
                Rule.of(NOT_NEC, agent),
                (first,),
            )
            yield from _cuts(nn, producer.premises[0])


def _permute_into_producer(node: Proof) -> Iterator[Proof]:
    """The cut moved above the producer's left rule, into its only
    premise or the second premise of an implication rule, at each
    occurrence."""
    consumer, producer = node.premises
    rule = producer.rule
    row = RULES[rule.name]
    if row.parts is not None:
        for inner in _cuts(consumer, producer.premises[0]):
            yield Proof(node.conclusion, rule, (inner,))
    elif row.kinds[0] in _ARROWS:
        arg, body = producer.premises
        for inner in _cuts(consumer, body):
            yield Proof(node.conclusion, rule, (arg, inner))


def _permute_into_consumer(node: Proof) -> Iterator[Proof]:
    """The cut moved into a premise of the consumer, at each occurrence."""
    consumer, producer = node.premises
    rule = consumer.rule
    prems = consumer.premises
    if rule.name in (WITH_R, BRINGS_WITH):
        # the antecedent is shared: cut into both premises at one occurrence
        for left, right in zip(_cuts(prems[0], producer), _cuts(prems[1], producer)):
            yield Proof(node.conclusion, rule, (left, right))
        return
    for i, pr in enumerate(prems):
        for inner in _cuts(pr, producer):
            yield Proof(node.conclusion, rule, prems[:i] + (inner,) + prems[i + 1 :])


# ---------------------------------------------------------------------------
# the reduction driver


def _certified(p: Proof) -> Proof:
    """``p`` once the kernel accepts it.  Every input was checked, so a
    proof built from it that fails is a fault of this module: a
    RuntimeError, not a ``CutEliminationError``."""
    report = check_proof(p)
    if not report.ok:
        raise RuntimeError(f"cut elimination built a proof that does not check: "
                           f"{report.violations[:3]}")
    return p


def _checked_input(p: Proof) -> None:
    report = check_proof(p)
    if not report.ok:
        raise ValueError(f"input proof does not check: {report.violations[:3]}")


def _reduce(cut: Proof) -> tuple[Proof, ReductionStep]:
    """Rewrite the cut at the root of ``cut``, whose premises are cut-free:
    the first candidate reduct whose root the kernel accepts as an
    inference (``infers``).  Every other node of a candidate is a node of
    ``cut`` or built to be sound, so only the root is judged here."""
    consumer, producer = cut.premises
    a = producer.conclusion.succ

    if consumer.rule.name == AX:
        sources = [("principal", [producer])]
    elif producer.rule.name == AX:
        sources = [("principal", [consumer])]
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

    want = cut.conclusion
    for kind, cands in sources:
        for cand in cands:
            if cand.conclusion != want:
                cand = Proof(want, cand.rule, cand.premises)
            if infers(cand):
                return cand, ReductionStep(kind, a, ())
    # every pair outside DEFECTIVE_PAIRS has a reduction, so a cut that
    # gets none met a fault of this module, not a dead end
    raise RuntimeError(f"no verified reduction applies (consumer {consumer.rule.name} "
                       f"against producer {producer.rule.name}) on cut formula {a.key}")


def reduce_once(cut: Proof) -> tuple[Proof, ReductionStep]:
    """Rewrite the cut at the root of ``cut``, a proof whose only cut is
    that one, and return its reduct, checked by the kernel, together
    with the step taken (at path ``()``)."""
    if cut.rule.name != CUT:
        raise ValueError("no cut at the root")
    if cut_count(cut) != 1:
        raise ValueError("the cut has cuts above it")
    _checked_input(cut)
    reduct, step = _reduce(cut)
    return _certified(reduct), step


def eliminate_cuts(p: Proof) -> tuple[Proof, ReductionTrace]:
    """A cut-free proof of the same sequent and its trace, by the fold
    described in the module docstring.  A node is rebuilt only when the
    normal form of a premise is another object.  The input is checked
    first and the normal form once at the end."""
    _checked_input(p)
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
                    reduct, step = _reduce(out)
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
    final = _certified(normal[id(p)])
    return final, ReductionTrace(tuple(steps), final)
