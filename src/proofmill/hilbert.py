"""Hilbert-style deductions for MILL and RSBIAT.

A :class:`DeductionTree` derives a formula from a positional list of
assumptions.  Leaves are single assumptions ``A |- A`` or axiom-schema
instances ``|- B``; internal nodes are modus ponens, additive pairing,
the rule of equivalents for ``[]`` (or ``E[a]``), and the
anti-necessitation rule for ``E[a]``.  Assumptions are concatenated at
modus ponens and shared verbatim at pairing, so every assumption
occurrence is consumed exactly once.

Each node kind is defined once, in ``_KINDS``: its premise count, its
systems, whether it takes an agent, and the function that computes its
conclusion from its premises.  The factories build with that function
and :func:`check_deduction` compares every node's claim with it.  Axiom
schemata are formulas whose atoms ``A``, ``B`` and ``C`` are the
metavariables and whose ``E[x]`` stands for the instance's agent.

Only MILL and RSBIAT have Hilbert presentations here; the tree systems
(PCMILL, SRSBIAT) do not.

:func:`deduction_theorem` discharges one assumption occurrence into an
implication, preserving the order of the remaining assumptions exactly.
:func:`hilbert_to_sequent` translates a checked tree into a sequent
proof (with cuts; pipe through ``eliminate_cuts`` if unwanted).  Every
walk over a tree uses an explicit stack, so depth is not limited by
Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .calculus import (
    AX,
    BOX_RE,
    BRINGS_RE,
    CUT,
    LIMP_L,
    LIMP_R,
    NOT_NEC,
    WITH_R,
    CheckReport,
    Proof,
    Rule,
)
from .context import Sequent, mset, sequent
from .kernel import fold_tree, proof_nodes, same_tree
from .search import Proved, prove
from .syntax import (
    BOT,
    Atom,
    Brings,
    Formula,
    Limp,
    System,
    SystemId,
    box,
    brings,
    formula_agents,
    language_error,
    limp,
    operands,
    parse_formula,
    print_formula,
    substitute,
    with_,
)

ASSUMPTION = "Assumption"
AXIOM_LEAF = "AxiomLeaf"
LIMP_RULE = "LimpRule"
WITH_RULE = "WithRule"
BOX_RE_RULE = "BoxReRule"
BRINGS_RE_RULE = "BringsReRule"
NOT_NEC_RULE = "NotNecRule"

HILBERT_SYSTEMS = (SystemId.MILL, SystemId.RSBIAT)


def _require_hilbert(system: System) -> None:
    if system.ident not in HILBERT_SYSTEMS:
        raise ValueError(f"no Hilbert system for {system.ident.value}")


# ---------------------------------------------------------------------------
# axiom schemata

_AGENT = "x"  # the agent of a template's E[x]; one agent per instance


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    template: Formula
    systems: tuple[SystemId, ...]

    @property
    def metavariables(self) -> tuple[str, ...]:
        """The template's atoms, in order of first occurrence."""
        seen: dict[str, None] = {}
        todo = [self.template]
        while todo:
            g = todo.pop()
            if isinstance(g, Atom):
                seen.setdefault(g.name)
            todo += reversed(operands(g))
        return tuple(seen)

    def instantiate(self, subst: dict[str, Formula],
                    agent: str | None = None) -> Formula:
        if agent is None and formula_agents(self.template):
            raise ValueError(f"schema {self.name} needs an agent")
        atoms = {v: subst[v] for v in self.metavariables}
        return substitute(self.template, atoms, {_AGENT: agent})


_BOTH = HILBERT_SYSTEMS
_RS_ONLY = (SystemId.RSBIAT,)

AXIOM_SCHEMATA: tuple[AxiomSchema, ...] = tuple(
    AxiomSchema(name, parse_formula(text), systems)
    for name, text, systems in (
        ("identity", "A -o A", _BOTH),
        ("composition", "(A -o B) -o (B -o C) -o A -o C", _BOTH),
        ("permutation", "(A -o B -o C) -o B -o A -o C", _BOTH),
        ("tensor-intro", "A -o B -o A * B", _BOTH),
        ("tensor-elim", "(A -o B -o C) -o A * B -o C", _BOTH),
        ("unit", "1", _BOTH),
        ("unit-identity", "1 -o A -o A", _BOTH),
        ("with-left", "A & B -o A", _BOTH),
        ("with-right", "A & B -o B", _BOTH),
        ("with-pairing", "(A -o B) & (A -o C) -o A -o B & C", _BOTH),
        ("brings-success", "E[x]A -o A", _RS_ONLY),
        ("brings-tensor", "E[x]A * E[x]B -o E[x](A * B)", _RS_ONLY),
        ("brings-with", "E[x]A & E[x]B -o E[x](A & B)", _RS_ONLY),
    )
)

_SCHEMA_BY_NAME = {s.name: s for s in AXIOM_SCHEMATA}


def schema(name: str) -> AxiomSchema:
    try:
        return _SCHEMA_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown axiom schema {name!r}") from None


@dataclass(frozen=True)
class AxiomMatch:
    name: str
    subst: dict[str, Formula] = field(compare=False)
    agent: str | None = None


def _match(template: Formula, f: Formula) -> tuple[dict, str | None] | None:
    """The bindings and agent that make ``template`` into ``f``, or None."""
    subst: dict[str, Formula] = {}
    agent = None
    todo = [(template, f)]
    while todo:
        t, g = todo.pop()
        if isinstance(t, Atom):
            if subst.setdefault(t.name, g) is not g:
                return None
            continue
        if type(g) is not type(t):
            return None
        if isinstance(g, Brings):
            if agent is None:
                agent = g.agent
            elif g.agent != agent:
                return None
        todo += zip(operands(t)[::-1], operands(g)[::-1])
    return subst, agent


def match_axiom(f: Formula, system: System) -> AxiomMatch | None:
    """Match ``f`` against the schema table, first hit wins."""
    _require_hilbert(system)
    for sc in AXIOM_SCHEMATA:
        if system.ident in sc.systems:
            found = _match(sc.template, f)
            if found is not None:
                return AxiomMatch(sc.name, *found)
    return None


# ---------------------------------------------------------------------------
# deduction trees


@dataclass(frozen=True, eq=False)
class DeductionTree:
    """One node of a Hilbert derivation, claiming ``assumptions |- formula``.

    Claims are stored, not trusted: :func:`check_deduction` verifies
    every node against its premises.  Use the factory functions below to
    build trees whose claims are correct by construction.  Equality
    compares the trees node by node on an explicit stack, and the hash
    reads the root's own fields alone, so neither is limited by the
    recursion limit.
    """

    rule: str
    assumptions: tuple[Formula, ...]
    formula: Formula
    premises: tuple[DeductionTree, ...] = ()
    agent: str | None = None

    def __post_init__(self) -> None:
        if self.rule not in _KINDS:
            raise ValueError(f"unknown deduction node kind {self.rule!r}")

    def _own(self) -> tuple:
        """What this node holds beside its premises."""
        return self.rule, self.assumptions, self.formula, self.agent

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeductionTree):
            return NotImplemented
        return same_tree(self, other)

    def __hash__(self) -> int:
        return hash(self._own())

    def statement(self) -> str:
        return _statement(self.assumptions, self.formula)

    def __str__(self) -> str:
        return self.statement()


def _statement(assumptions: tuple[Formula, ...], formula: Formula) -> str:
    left = ", ".join(print_formula(a) for a in assumptions)
    return f"{left} |- {print_formula(formula)}"


# Each kind's conclusion ``(assumptions, formula)``, computed from the
# node's premises, agent, claimed formula (read by the leaves alone) and
# system; ValueError says why the premises conclude nothing.  The
# factories below state each rule.

Conclusion = tuple[tuple[Formula, ...], Formula]


def _assumed(premises, agent, formula, system) -> Conclusion:
    return (formula,), formula


def _axiom(premises, agent, formula, system) -> Conclusion:
    if match_axiom(formula, system) is None:
        raise ValueError(f"not an axiom instance: {print_formula(formula)}")
    return (), formula


def _modus_ponens(premises, agent, formula, system) -> Conclusion:
    minor, major = premises
    mf = major.formula
    if not isinstance(mf, Limp) or mf.left is not minor.formula:
        raise ValueError(
            f"modus ponens mismatch: {print_formula(minor.formula)} vs "
            f"{print_formula(mf)}"
        )
    return minor.assumptions + major.assumptions, mf.right


def _pairing(premises, agent, formula, system) -> Conclusion:
    left, right = premises
    if left.assumptions != right.assumptions:
        raise ValueError("pairing premises must share assumptions verbatim")
    return left.assumptions, with_(left.formula, right.formula)


def _equivalents(premises, agent, formula, system) -> Conclusion:
    # []A -o []B without an agent, E[a]A -o E[a]B with one
    fwd, bwd = premises
    if fwd.assumptions or bwd.assumptions:
        raise ValueError("equivalence premises must be assumption-free")
    ff, bf = fwd.formula, bwd.formula
    if (not isinstance(ff, Limp) or not isinstance(bf, Limp)
            or ff.left is not bf.right or ff.right is not bf.left):
        raise ValueError("equivalence premises must be converse implications")
    if agent is None:
        return (), limp(box(ff.left), box(ff.right))
    return (), limp(brings(agent, ff.left), brings(agent, ff.right))


def _anti_necessitation(premises, agent, formula, system) -> Conclusion:
    (premise,) = premises
    if premise.assumptions:
        raise ValueError("anti-necessitation premise must be assumption-free")
    return (), limp(brings(agent, premise.formula), BOT)


class _Kind(NamedTuple):
    arity: int
    systems: tuple[SystemId, ...]
    takes_agent: bool
    conclude: Callable[..., Conclusion]


_KINDS: dict[str, _Kind] = {
    ASSUMPTION: _Kind(0, _BOTH, False, _assumed),
    AXIOM_LEAF: _Kind(0, _BOTH, False, _axiom),
    LIMP_RULE: _Kind(2, _BOTH, False, _modus_ponens),
    WITH_RULE: _Kind(2, _BOTH, False, _pairing),
    BOX_RE_RULE: _Kind(2, (SystemId.MILL,), False, _equivalents),
    BRINGS_RE_RULE: _Kind(2, _RS_ONLY, True, _equivalents),
    NOT_NEC_RULE: _Kind(1, _RS_ONLY, True, _anti_necessitation),
}


def _derive(rule: str, premises: tuple[DeductionTree, ...] = (),
            agent: str | None = None, formula: Formula | None = None,
            system: System | None = None) -> DeductionTree:
    assumptions, formula = _KINDS[rule].conclude(
        premises, agent, formula, system)
    return DeductionTree(rule, assumptions, formula, premises, agent)


def assumption(f: Formula) -> DeductionTree:
    return _derive(ASSUMPTION, formula=f)


def axiom_leaf(f: Formula, system: System) -> DeductionTree:
    return _derive(AXIOM_LEAF, formula=f, system=system)


def modus_ponens(minor: DeductionTree, major: DeductionTree) -> DeductionTree:
    """From ``Γ |- A`` and ``Γ' |- A -o B`` conclude ``Γ, Γ' |- B``."""
    return _derive(LIMP_RULE, (minor, major))


def with_rule(left: DeductionTree, right: DeductionTree) -> DeductionTree:
    """From ``Γ |- A`` and ``Γ |- B`` (same Γ, verbatim) conclude ``Γ |- A & B``."""
    return _derive(WITH_RULE, (left, right))


def box_re_rule(fwd: DeductionTree, bwd: DeductionTree) -> DeductionTree:
    """From ``|- A -o B`` and ``|- B -o A`` conclude ``|- []A -o []B``."""
    return _derive(BOX_RE_RULE, (fwd, bwd))


def brings_re_rule(agent: str, fwd: DeductionTree,
                   bwd: DeductionTree) -> DeductionTree:
    """From ``|- A -o B`` and ``|- B -o A`` conclude ``|- E[a]A -o E[a]B``."""
    return _derive(BRINGS_RE_RULE, (fwd, bwd), agent)


def not_nec_rule(agent: str, premise: DeductionTree) -> DeductionTree:
    """From ``|- A`` conclude ``|- E[a]A -o bot``."""
    return _derive(NOT_NEC_RULE, (premise,), agent)


# ---------------------------------------------------------------------------
# checking


def check_deduction(d: DeductionTree, system: System) -> CheckReport:
    """Verify every node's claim; reports (path, message) violations."""
    _require_hilbert(system)
    violations = sorted(
        (path, msg) for path, node in proof_nodes(d)
        if (msg := _violation(node, system)) is not None
    )
    return CheckReport(not violations, tuple(violations))


def _violation(node: DeductionTree, system: System) -> str | None:
    """Why ``node`` does not follow from its premises' claims, or None."""
    kind = _KINDS[node.rule]
    err = language_error((node.formula, *node.assumptions), system)
    if err is not None:
        return err
    if len(node.premises) != kind.arity:
        return (f"{node.rule} expects {kind.arity} premises, "
                f"got {len(node.premises)}")
    if system.ident not in kind.systems:
        return f"{node.rule} not available in {system.ident.value}"
    if not kind.takes_agent:
        if node.agent is not None:
            return f"{node.rule} takes no agent"
    elif node.agent is None:
        return f"{node.rule} needs an agent"
    elif node.agent not in system.agents:
        return f"agent {node.agent!r} not in alphabet {list(system.agents)}"
    try:
        want = kind.conclude(node.premises, node.agent, node.formula, system)
    except ValueError as e:
        return str(e)
    if want != (node.assumptions, node.formula):
        return f"{node.rule} concludes {_statement(*want)}, not {node.statement()}"
    return None


# ---------------------------------------------------------------------------
# deduction theorem

def _ax_inst(name: str, system: System, **subst: Formula) -> DeductionTree:
    return axiom_leaf(schema(name).instantiate(subst), system)


def deduction_theorem(
    d: DeductionTree, pick: int, system: System
) -> DeductionTree:
    """Discharge the assumption occurrence at position ``pick``.

    From a tree with conclusion ``Γ, A, Γ' |- B`` (A at index ``pick``)
    build one with conclusion ``Γ, Γ' |- A -o B``.  The remaining
    assumptions keep their exact order.
    """
    if not 0 <= pick < len(d.assumptions):
        raise ValueError(
            f"occurrence not found: index {pick} in {d.statement()!r}"
        )
    _require_hilbert(system)
    return fold_tree(
        (d, pick), _occurrence_holders,
        lambda at, subs: _discharge(at, subs, system),
    )


def _occurrence_holders(
    at: tuple[DeductionTree, int]
) -> list[tuple[DeductionTree, int]]:
    """The premises holding the occurrence ``at`` names, with its index
    in each."""
    d, pick = at
    if d.rule == LIMP_RULE:
        minor, major = d.premises
        n = len(minor.assumptions)
        return [(minor, pick)] if pick < n else [(major, pick - n)]
    if d.rule == WITH_RULE:
        # same Γ verbatim in both premises, so the index transfers
        return [(p, pick) for p in d.premises]
    return []


def _discharge(
    at: tuple[DeductionTree, int], subs: list[DeductionTree], system: System
) -> DeductionTree:
    """``d`` with the occurrence at ``pick`` discharged, given the
    premises in :func:`_occurrence_holders` discharged as ``subs``."""
    d, pick = at
    a = d.assumptions[pick]
    if d.rule == ASSUMPTION:
        # A |- A  becomes  |- A -o A
        return _ax_inst("identity", system, A=a)

    if d.rule == LIMP_RULE:
        minor, major = d.premises
        mf = major.formula  # C -o B
        c, b = mf.left, mf.right
        (sub,) = subs
        if pick < len(minor.assumptions):
            # sub is  Γ0 |- A -o C:  compose it with the major premise.
            # |- (C -o B) -o ((A -o C) -o (A -o B)), a flipped composition
            flip = modus_ponens(
                _ax_inst("composition", system, A=a, B=c, C=b),
                _ax_inst("permutation", system,
                         A=limp(a, c), B=limp(c, b), C=limp(a, b)),
            )
            return modus_ponens(sub, modus_ponens(major, flip))
        # sub is  Γ0' |- A -o (C -o B):  swap the arguments, and refeed
        # the minor premise.
        swapped = modus_ponens(
            sub, _ax_inst("permutation", system, A=a, B=c, C=b)
        )
        return modus_ponens(minor, swapped)

    if d.rule == WITH_RULE:
        lp, rp = d.premises
        paired = with_rule(*subs)  # Γ0 |- (A -o U) & (A -o V)
        return modus_ponens(
            paired,
            _ax_inst("with-pairing", system,
                     A=a, B=lp.formula, C=rp.formula),
        )

    # axiom leaves and the assumption-free modal rules have no
    # assumptions, so the occurrence cannot live here
    raise ValueError(
        f"occurrence not found: index {pick} in {d.statement()!r}"
    )


# ---------------------------------------------------------------------------
# translation to sequent proofs


def _searched(f: Formula, system: System,
              memo: dict[Formula, Proof]) -> Proof:
    got = memo.get(f)
    if got is None:
        result = prove(sequent(mset(()), f, system))
        if not isinstance(result, Proved):
            # every axiom instance is provable, so this is a fault in
            # search, not a verdict on the deduction
            raise RuntimeError(
                f"no sequent proof found for |- {print_formula(f)}"
            )
        got = memo[f] = result.proof
    return got


def _mp_lemma(a: Formula, b: Formula, system: System) -> Proof:
    """The two-axiom proof of  A, A -o B |- B."""
    return Proof(
        sequent(mset((a, limp(a, b))), b, system),
        Rule.of(LIMP_L),
        (
            Proof(sequent(mset((a,)), a, system), Rule.of(AX)),
            Proof(sequent(mset((b,)), b, system), Rule.of(AX)),
        ),
    )


def _cut(consumer: Proof, producer: Proof, conclusion: Sequent) -> Proof:
    return Proof(conclusion, Rule.of(CUT), (consumer, producer))


def _from_implication(p: Proof, system: System) -> Proof:
    """Turn a proof of ``|- A -o B`` into one of ``A |- B``."""
    f = p.conclusion.succ
    a, b = f.left, f.right
    lemma = _mp_lemma(a, b, system)
    return _cut(lemma, p, sequent(mset((a,)), b, system))


# the sequent rule that proves each modal rule's L |- R
_SEQUENT_RULE = {BOX_RE_RULE: BOX_RE, BRINGS_RE_RULE: BRINGS_RE, NOT_NEC_RULE: NOT_NEC}


def hilbert_to_sequent(d: DeductionTree, system: System) -> Proof:
    """Translate a checked deduction tree into a sequent proof.

    The result proves the same statement and passes ``check_proof``, but
    generally contains cuts (one or two per modus ponens).
    """
    report = check_deduction(d, system)
    if not report.ok:
        path, msg = report.violations[0]
        raise ValueError(f"deduction does not check at {list(path)}: {msg}")
    memo: dict[Formula, Proof] = {}
    return fold_tree(d, lambda n: n.premises,
                 lambda n, subs: _translate(n, subs, system, memo))


def _translate(d: DeductionTree, subs: list[Proof], system: System,
               memo: dict[Formula, Proof]) -> Proof:
    """The sequent proof of node ``d``, given those of its premises."""
    if d.rule == ASSUMPTION:
        return Proof(
            sequent(mset(d.assumptions), d.formula, system), Rule.of(AX)
        )
    if d.rule == AXIOM_LEAF:
        return _searched(d.formula, system, memo)
    if d.rule == LIMP_RULE:
        minor, major = d.premises
        mp, jp = subs
        a = minor.formula
        b = major.formula.right
        lemma = _mp_lemma(a, b, system)
        # cut the minor premise into  A, A -o B |- B
        mid = _cut(
            lemma, mp,
            sequent(mset(minor.assumptions + (limp(a, b),)), b,
                    system),
        )
        return _cut(
            mid, jp,
            sequent(mset(d.assumptions), b, system),
        )
    if d.rule == WITH_RULE:
        return Proof(
            sequent(mset(d.assumptions), d.formula, system),
            Rule.of(WITH_R), tuple(subs),
        )
    # a modal rule: L -o R over L |- R, proved by the sequent rule of
    # the same name, over A |- B and B |- A for the converse rules
    f = d.formula
    prems = subs if d.rule == NOT_NEC_RULE else [_from_implication(p, system) for p in subs]
    inner = Proof(sequent(mset((f.left,)), f.right, system),
                  Rule.of(_SEQUENT_RULE[d.rule], d.agent), tuple(prems))
    return Proof(sequent(mset(()), f, system), Rule.of(LIMP_R), (inner,))


# ---------------------------------------------------------------------------
# serialization


def _node_to_json(d: DeductionTree, premises: list[dict]) -> dict:
    obj: dict = {
        "rule": d.rule,
        "assumptions": [print_formula(a) for a in d.assumptions],
        "formula": print_formula(d.formula),
    }
    if d.agent is not None:
        obj["agent"] = d.agent
    if premises:
        obj["premises"] = premises
    return obj


def deduction_to_json(d: DeductionTree, system: System) -> dict:
    return {
        "system": system.ident.value,
        "agents": list(system.agents),
        "tree": fold_tree(d, lambda n: n.premises, _node_to_json),
    }


def deduction_from_json(obj: dict) -> tuple[DeductionTree, System]:
    """The deduction and system a :func:`deduction_to_json` object
    describes; ValueError when it has any other shape."""

    def node(o: dict, premises: list[DeductionTree]) -> DeductionTree:
        agent = o.get("agent")
        if agent is not None and not isinstance(agent, str):
            raise ValueError(f"agent must be a string, got {agent!r}")
        texts = o.get("assumptions", [])
        if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
            raise TypeError(f"assumptions {texts!r} is not a list of strings")
        return DeductionTree(
            o["rule"],
            tuple(parse_formula(t, system) for t in texts),
            parse_formula(o["formula"], system),
            tuple(premises),
            agent,
        )

    try:
        agents = obj.get("agents", [])
        if not isinstance(agents, list) or not all(isinstance(a, str) for a in agents):
            raise TypeError(f"agents {agents!r} is not a list of strings")
        # each string names one agent as it stands, as in a proof object
        try:
            system = System(SystemId(obj["system"]), tuple(agents))
        except ValueError as exc:
            raise ValueError(f"malformed deduction object: {exc}") from None
        _require_hilbert(system)
        tree = fold_tree(obj["tree"], lambda o: o.get("premises", ()), node)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed deduction object: {exc}") from None
    return tree, system
