"""Hilbert-style deductions for MILL and RSBIAT.

A :class:`DeductionTree` derives a formula from a positional list of
assumptions.  Leaves are single assumptions ``A |- A`` or axiom-schema
instances ``|- B``; internal nodes are modus ponens, additive pairing,
the rule of equivalents for ``[]`` (or ``E[a]``), and the
anti-necessitation rule for ``E[a]``.  Assumptions are concatenated at
modus ponens and shared verbatim at pairing, so every assumption
occurrence is consumed exactly once.

Only MILL and RSBIAT have Hilbert presentations here; the tree systems
(PCMILL, SRSBIAT) do not.

:func:`deduction_theorem` discharges one assumption occurrence into an
implication, preserving the order of the remaining assumptions exactly.
:func:`hilbert_to_sequent` translates a checked tree into a sequent
proof (with cuts; pipe through ``eliminate_cuts`` if unwanted).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from .search import Proved, prove
from .syntax import (
    BOT,
    Brings,
    Formula,
    Limp,
    System,
    SystemId,
    SystemMismatchError,
    Tensor,
    With,
    box,
    brings,
    limp,
    parse_formula,
    parse_system,
    print_formula,
    tensor,
    unit,
    validate_formula,
    with_,
)

ASSUMPTION = "Assumption"
AXIOM_LEAF = "AxiomLeaf"
LIMP_RULE = "LimpRule"
WITH_RULE = "WithRule"
BOX_RE_RULE = "BoxReRule"
BRINGS_RE_RULE = "BringsReRule"
NOT_NEC_RULE = "NotNecRule"

NODE_KINDS = (
    ASSUMPTION,
    AXIOM_LEAF,
    LIMP_RULE,
    WITH_RULE,
    BOX_RE_RULE,
    BRINGS_RE_RULE,
    NOT_NEC_RULE,
)

HILBERT_SYSTEMS = (SystemId.MILL, SystemId.RSBIAT)


def _require_hilbert(system: System) -> None:
    if system.ident not in HILBERT_SYSTEMS:
        raise ValueError(f"no Hilbert system for {system.ident.value}")


# ---------------------------------------------------------------------------
# axiom schemata

# Templates are nested tuples; strings are metavariables.  All E[_]
# occurrences within one schema share the single matched agent.
_ID = ("limp", "A", "A")
_COMP = ("limp", ("limp", "A", "B"),
         ("limp", ("limp", "B", "C"), ("limp", "A", "C")))
_PERM = ("limp", ("limp", "A", ("limp", "B", "C")),
         ("limp", "B", ("limp", "A", "C")))
_TENS_I = ("limp", "A", ("limp", "B", ("tensor", "A", "B")))
_TENS_E = ("limp", ("limp", "A", ("limp", "B", "C")),
           ("limp", ("tensor", "A", "B"), "C"))
_UNIT = ("one",)
_UNIT_ID = ("limp", ("one",), ("limp", "A", "A"))
_WITH_L = ("limp", ("with", "A", "B"), "A")
_WITH_R = ("limp", ("with", "A", "B"), "B")
_PAIRING = ("limp", ("with", ("limp", "A", "B"), ("limp", "A", "C")),
            ("limp", "A", ("with", "B", "C")))
_E_SUCCESS = ("limp", ("brings", "A"), "A")
_E_TENSOR = ("limp", ("tensor", ("brings", "A"), ("brings", "B")),
             ("brings", ("tensor", "A", "B")))
_E_WITH = ("limp", ("with", ("brings", "A"), ("brings", "B")),
           ("brings", ("with", "A", "B")))


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    template: tuple
    systems: tuple[SystemId, ...]

    @property
    def metavariables(self) -> tuple[str, ...]:
        seen: list[str] = []

        def walk(t):
            if isinstance(t, str):
                if t not in seen:
                    seen.append(t)
            else:
                for part in t[1:]:
                    walk(part)

        walk(self.template)
        return tuple(seen)

    def instantiate(
        self, subst: dict[str, Formula], agent: str | None = None
    ) -> Formula:
        def build(t):
            if isinstance(t, str):
                return subst[t]
            tag = t[0]
            if tag == "limp":
                return limp(build(t[1]), build(t[2]))
            if tag == "tensor":
                return tensor(build(t[1]), build(t[2]))
            if tag == "with":
                return with_(build(t[1]), build(t[2]))
            if tag == "one":
                return unit()
            if tag == "brings":
                if agent is None:
                    raise ValueError(f"schema {self.name} needs an agent")
                return brings(agent, build(t[1]))
            raise AssertionError(tag)

        return build(self.template)


_BOTH = (SystemId.MILL, SystemId.RSBIAT)
_RS_ONLY = (SystemId.RSBIAT,)

AXIOM_SCHEMATA: tuple[AxiomSchema, ...] = (
    AxiomSchema("identity", _ID, _BOTH),
    AxiomSchema("composition", _COMP, _BOTH),
    AxiomSchema("permutation", _PERM, _BOTH),
    AxiomSchema("tensor-intro", _TENS_I, _BOTH),
    AxiomSchema("tensor-elim", _TENS_E, _BOTH),
    AxiomSchema("unit", _UNIT, _BOTH),
    AxiomSchema("unit-identity", _UNIT_ID, _BOTH),
    AxiomSchema("with-left", _WITH_L, _BOTH),
    AxiomSchema("with-right", _WITH_R, _BOTH),
    AxiomSchema("with-pairing", _PAIRING, _BOTH),
    AxiomSchema("brings-success", _E_SUCCESS, _RS_ONLY),
    AxiomSchema("brings-tensor", _E_TENSOR, _RS_ONLY),
    AxiomSchema("brings-with", _E_WITH, _RS_ONLY),
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


def _match(t, f: Formula, env: dict) -> bool:
    if isinstance(t, str):
        bound = env.get(t)
        if bound is None:
            env[t] = f
            return True
        return bound is f
    tag = t[0]
    if tag == "limp":
        return (isinstance(f, Limp)
                and _match(t[1], f.left, env)
                and _match(t[2], f.right, env))
    if tag == "tensor":
        return (isinstance(f, Tensor)
                and _match(t[1], f.left, env)
                and _match(t[2], f.right, env))
    if tag == "with":
        return (isinstance(f, With)
                and _match(t[1], f.left, env)
                and _match(t[2], f.right, env))
    if tag == "one":
        return f is unit()
    if tag == "brings":
        if not isinstance(f, Brings):
            return False
        bound = env.get("#agent")
        if bound is None:
            env["#agent"] = f.agent
        elif bound != f.agent:
            return False
        return _match(t[1], f.body, env)
    raise AssertionError(tag)


def match_axiom(f: Formula, system: System) -> AxiomMatch | None:
    """Match ``f`` against the schema table, first hit wins."""
    _require_hilbert(system)
    for sc in AXIOM_SCHEMATA:
        if system.ident not in sc.systems:
            continue
        env: dict = {}
        if _match(sc.template, f, env):
            agent = env.pop("#agent", None)
            return AxiomMatch(sc.name, env, agent)
    return None


# ---------------------------------------------------------------------------
# deduction trees


@dataclass(frozen=True)
class DeductionTree:
    """One node of a Hilbert derivation, claiming ``assumptions |- formula``.

    Claims are stored, not trusted: :func:`check_deduction` verifies
    every node against its premises.  Use the factory functions below to
    build trees whose claims are correct by construction.
    """

    rule: str
    assumptions: tuple[Formula, ...]
    formula: Formula
    premises: tuple[DeductionTree, ...] = ()
    agent: str | None = None

    def __post_init__(self) -> None:
        if self.rule not in NODE_KINDS:
            raise ValueError(f"unknown deduction node kind {self.rule!r}")

    def statement(self) -> str:
        left = ", ".join(print_formula(a) for a in self.assumptions)
        return f"{left} |- {print_formula(self.formula)}"

    def __str__(self) -> str:
        return self.statement()


def assumption(f: Formula) -> DeductionTree:
    return DeductionTree(ASSUMPTION, (f,), f)


def axiom_leaf(f: Formula, system: System) -> DeductionTree:
    if match_axiom(f, system) is None:
        raise ValueError(f"not an axiom instance: {print_formula(f)}")
    return DeductionTree(AXIOM_LEAF, (), f)


def modus_ponens(minor: DeductionTree, major: DeductionTree) -> DeductionTree:
    """From ``Γ |- A`` and ``Γ' |- A -o B`` conclude ``Γ, Γ' |- B``."""
    mf = major.formula
    if not isinstance(mf, Limp) or mf.left is not minor.formula:
        raise ValueError(
            f"modus ponens mismatch: {print_formula(minor.formula)} vs "
            f"{print_formula(mf)}"
        )
    return DeductionTree(
        LIMP_RULE, minor.assumptions + major.assumptions, mf.right,
        (minor, major),
    )


def with_rule(left: DeductionTree, right: DeductionTree) -> DeductionTree:
    """From ``Γ |- A`` and ``Γ |- B`` (same Γ, verbatim) conclude ``Γ |- A & B``."""
    if left.assumptions != right.assumptions:
        raise ValueError("pairing premises must share assumptions verbatim")
    return DeductionTree(
        WITH_RULE, left.assumptions, with_(left.formula, right.formula),
        (left, right),
    )


def _equiv_premises(fwd: DeductionTree, bwd: DeductionTree, what: str):
    if fwd.assumptions or bwd.assumptions:
        raise ValueError(f"{what} premises must be assumption-free")
    ff, bf = fwd.formula, bwd.formula
    if (not isinstance(ff, Limp) or not isinstance(bf, Limp)
            or ff.left is not bf.right or ff.right is not bf.left):
        raise ValueError(f"{what} premises must be converse implications")
    return ff.left, ff.right


def box_re_rule(fwd: DeductionTree, bwd: DeductionTree) -> DeductionTree:
    """From ``|- A -o B`` and ``|- B -o A`` conclude ``|- []A -o []B``."""
    a, b = _equiv_premises(fwd, bwd, "box equivalence")
    return DeductionTree(
        BOX_RE_RULE, (), limp(box(a), box(b)), (fwd, bwd)
    )


def brings_re_rule(
    agent: str, fwd: DeductionTree, bwd: DeductionTree
) -> DeductionTree:
    """From ``|- A -o B`` and ``|- B -o A`` conclude ``|- E[a]A -o E[a]B``."""
    a, b = _equiv_premises(fwd, bwd, "brings equivalence")
    return DeductionTree(
        BRINGS_RE_RULE, (), limp(brings(agent, a), brings(agent, b)),
        (fwd, bwd), agent,
    )


def not_nec_rule(agent: str, premise: DeductionTree) -> DeductionTree:
    """From ``|- A`` conclude ``|- E[a]A -o bot``."""
    if premise.assumptions:
        raise ValueError("anti-necessitation premise must be assumption-free")
    return DeductionTree(
        NOT_NEC_RULE, (), limp(brings(agent, premise.formula), BOT),
        (premise,), agent,
    )


# ---------------------------------------------------------------------------
# checking

_ARITY = {
    ASSUMPTION: 0,
    AXIOM_LEAF: 0,
    LIMP_RULE: 2,
    WITH_RULE: 2,
    BOX_RE_RULE: 2,
    BRINGS_RE_RULE: 2,
    NOT_NEC_RULE: 1,
}

Path = tuple[int, ...]


def deduction_nodes(d: DeductionTree) -> list[tuple[Path, DeductionTree]]:
    out: list[tuple[Path, DeductionTree]] = []
    stack: list[tuple[Path, DeductionTree]] = [((), d)]
    while stack:
        path, node = stack.pop()
        out.append((path, node))
        for i in range(len(node.premises) - 1, -1, -1):
            stack.append((path + (i,), node.premises[i]))
    return out


def check_deduction(d: DeductionTree, system: System) -> CheckReport:
    """Verify every node's claim; reports (path, message) violations."""
    _require_hilbert(system)
    violations: list[tuple[Path, str]] = []

    def bad(path: Path, msg: str) -> None:
        violations.append((path, msg))

    for path, node in deduction_nodes(d):
        try:
            for f in (node.formula, *node.assumptions):
                validate_formula(f, system)
        except SystemMismatchError as e:
            bad(path, str(e))
            continue
        if len(node.premises) != _ARITY[node.rule]:
            bad(path, f"{node.rule} expects {_ARITY[node.rule]} premises, "
                f"got {len(node.premises)}")
            continue
        needs_agent = node.rule in (BRINGS_RE_RULE, NOT_NEC_RULE)
        if needs_agent and system.ident is not SystemId.RSBIAT:
            bad(path, f"{node.rule} not available in {system.ident.value}")
            continue
        if node.rule == BOX_RE_RULE and system.ident is not SystemId.MILL:
            bad(path, f"{node.rule} not available in {system.ident.value}")
            continue
        if needs_agent:
            if node.agent is None:
                bad(path, f"{node.rule} needs an agent")
                continue
            if node.agent not in system.agents:
                bad(path, f"agent {node.agent!r} not in alphabet "
                    f"{list(system.agents)}")
                continue
        elif node.agent is not None:
            bad(path, f"{node.rule} takes no agent")
            continue

        if node.rule == ASSUMPTION:
            if node.assumptions != (node.formula,):
                bad(path, "assumption leaf must claim A |- A")
        elif node.rule == AXIOM_LEAF:
            if node.assumptions:
                bad(path, "axiom leaf must be assumption-free")
            elif match_axiom(node.formula, system) is None:
                bad(path, f"not an axiom instance: "
                    f"{print_formula(node.formula)}")
        elif node.rule == LIMP_RULE:
            minor, major = node.premises
            mf = major.formula
            if not isinstance(mf, Limp):
                bad(path, "second premise of modus ponens must prove an "
                    "implication")
            elif mf.left is not minor.formula:
                bad(path, f"modus ponens argument mismatch: "
                    f"{print_formula(minor.formula)} vs {print_formula(mf)}")
            else:
                if node.formula is not mf.right:
                    bad(path, "modus ponens conclusion must be the "
                        "consequent of the implication")
                if node.assumptions != minor.assumptions + major.assumptions:
                    bad(path, "modus ponens must concatenate premise "
                        "assumptions in order")
        elif node.rule == WITH_RULE:
            lp, rp = node.premises
            if lp.assumptions != rp.assumptions:
                bad(path, "pairing premises must share assumptions verbatim")
            if node.formula is not with_(lp.formula, rp.formula):
                bad(path, "pairing conclusion must be the & of the premises")
            if node.assumptions != lp.assumptions:
                bad(path, "pairing must keep the shared assumptions")
        elif node.rule in (BOX_RE_RULE, BRINGS_RE_RULE):
            fwd, bwd = node.premises
            if fwd.assumptions or bwd.assumptions:
                bad(path, "equivalence premises must be assumption-free")
                continue
            ff, bf = fwd.formula, bwd.formula
            if (not isinstance(ff, Limp) or not isinstance(bf, Limp)
                    or ff.left is not bf.right or ff.right is not bf.left):
                bad(path, "equivalence premises must be converse "
                    "implications")
                continue
            if node.rule == BOX_RE_RULE:
                want = limp(box(ff.left), box(ff.right))
            else:
                want = limp(brings(node.agent, ff.left),
                            brings(node.agent, ff.right))
            if node.formula is not want or node.assumptions:
                bad(path, f"conclusion must be |- {print_formula(want)}")
        elif node.rule == NOT_NEC_RULE:
            (premise,) = node.premises
            if premise.assumptions:
                bad(path, "anti-necessitation premise must be "
                    "assumption-free")
                continue
            want = limp(brings(node.agent, premise.formula), BOT)
            if node.formula is not want or node.assumptions:
                bad(path, f"conclusion must be |- {print_formula(want)}")

    violations.sort(key=lambda v: v[0])
    return CheckReport(not violations, tuple(violations))


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
    return _discharge(d, pick, system)


def _discharge(d: DeductionTree, pick: int, system: System) -> DeductionTree:
    a = d.assumptions[pick]

    if d.rule == ASSUMPTION:
        # A |- A  becomes  |- A -o A
        return _ax_inst("identity", system, A=a)

    if d.rule == LIMP_RULE:
        minor, major = d.premises
        mf = major.formula  # C -o B
        c, b = mf.left, mf.right
        if pick < len(minor.assumptions):
            # discharge inside  Γ |- C:  get  Γ0 |- A -o C, then compose.
            sub = _discharge(minor, pick, system)
            # |- (C -o B) -o ((A -o C) -o (A -o B)), a flipped composition
            flip = modus_ponens(
                _ax_inst("composition", system, A=a, B=c, C=b),
                _ax_inst("permutation", system,
                         A=limp(a, c), B=limp(c, b), C=limp(a, b)),
            )
            return modus_ponens(sub, modus_ponens(major, flip))
        # discharge inside  Γ' |- C -o B:  get  Γ0' |- A -o (C -o B),
        # swap the arguments, and refeed the minor premise.
        sub = _discharge(major, pick - len(minor.assumptions), system)
        swapped = modus_ponens(
            sub, _ax_inst("permutation", system, A=a, B=c, C=b)
        )
        return modus_ponens(minor, swapped)

    if d.rule == WITH_RULE:
        lp, rp = d.premises
        # same Γ verbatim in both premises, so the index transfers
        ls = _discharge(lp, pick, system)
        rs = _discharge(rp, pick, system)
        paired = with_rule(ls, rs)  # Γ0 |- (A -o U) & (A -o V)
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
        Rule(LIMP_L),
        (
            Proof(sequent(mset((a,)), a, system), Rule(AX)),
            Proof(sequent(mset((b,)), b, system), Rule(AX)),
        ),
    )


def _cut(consumer: Proof, producer: Proof, conclusion: Sequent) -> Proof:
    return Proof(conclusion, Rule(CUT), (consumer, producer))


def _from_implication(p: Proof, system: System) -> Proof:
    """Turn a proof of ``|- A -o B`` into one of ``A |- B``."""
    f = p.conclusion.succ
    a, b = f.left, f.right
    lemma = _mp_lemma(a, b, system)
    return _cut(lemma, p, sequent(mset((a,)), b, system))


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
    return _translate(d, system, memo)


def _translate(d: DeductionTree, system: System,
               memo: dict[Formula, Proof]) -> Proof:
    if d.rule == ASSUMPTION:
        return Proof(
            sequent(mset(d.assumptions), d.formula, system), Rule(AX)
        )
    if d.rule == AXIOM_LEAF:
        return _searched(d.formula, system, memo)
    if d.rule == LIMP_RULE:
        minor, major = d.premises
        mp = _translate(minor, system, memo)
        jp = _translate(major, system, memo)
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
        lp, rp = d.premises
        return Proof(
            sequent(mset(d.assumptions), d.formula, system),
            Rule(WITH_R),
            (_translate(lp, system, memo), _translate(rp, system, memo)),
        )
    if d.rule in (BOX_RE_RULE, BRINGS_RE_RULE):
        fwd, bwd = d.premises
        fp = _from_implication(_translate(fwd, system, memo), system)
        bp = _from_implication(_translate(bwd, system, memo), system)
        a = fwd.formula.left
        if d.rule == BOX_RE_RULE:
            boxed_a, boxed_b = box(a), box(fwd.formula.right)
            rule = Rule(BOX_RE)
        else:
            boxed_a = brings(d.agent, a)
            boxed_b = brings(d.agent, fwd.formula.right)
            rule = Rule(BRINGS_RE, d.agent)
        inner = Proof(
            sequent(mset((boxed_a,)), boxed_b, system), rule, (fp, bp)
        )
        return Proof(
            sequent(mset(()), d.formula, system), Rule(LIMP_R),
            (inner,),
        )
    if d.rule == NOT_NEC_RULE:
        (premise,) = d.premises
        pp = _translate(premise, system, memo)
        ea = brings(d.agent, premise.formula)
        inner = Proof(
            sequent(mset((ea,)), BOT, system),
            Rule(NOT_NEC, d.agent), (pp,),
        )
        return Proof(
            sequent(mset(()), d.formula, system), Rule(LIMP_R),
            (inner,),
        )
    raise AssertionError(d.rule)


# ---------------------------------------------------------------------------
# serialization


def _node_to_json(d: DeductionTree) -> dict:
    obj: dict = {
        "rule": d.rule,
        "assumptions": [print_formula(a) for a in d.assumptions],
        "formula": print_formula(d.formula),
    }
    if d.agent is not None:
        obj["agent"] = d.agent
    if d.premises:
        obj["premises"] = [_node_to_json(p) for p in d.premises]
    return obj


def deduction_to_json(d: DeductionTree, system: System) -> dict:
    return {
        "system": system.ident.value,
        "agents": list(system.agents),
        "tree": _node_to_json(d),
    }


def _node_from_json(obj: dict, system: System) -> DeductionTree:
    return DeductionTree(
        obj["rule"],
        tuple(parse_formula(t, system) for t in obj.get("assumptions", ())),
        parse_formula(obj["formula"], system),
        tuple(_node_from_json(p, system) for p in obj.get("premises", ())),
        obj.get("agent"),
    )


def deduction_from_json(obj: dict) -> tuple[DeductionTree, System]:
    name = obj["system"]
    agents = obj.get("agents", ())
    text = name if not agents else f"{name}:{','.join(agents)}"
    system = parse_system(text)
    return _node_from_json(obj["tree"], system), system
