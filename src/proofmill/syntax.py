r"""Formula syntax: AST, parser, printer, complexity.

Connectives, loosest to tightest binding:

    -o  \  /        implications, mutually non-mixable without parentheses
                    (-o and \ associate right, / associates left)
    &               additive conjunction, left associative
    *               multiplicative conjunction, left associative
    @               serial conjunction, left associative
    [] E[a] ~       prefix operators, tightest

Atoms are ``[A-Za-z0-9_]+``; the bare token ``1`` is the multiplicative
unit and ``bot`` is an ordinary atom that the ``~`` sugar targets:
``~A`` parses to ``A -o bot``.  ``print_formula`` emits the fewest
parentheses that parse back, so ``parse_formula(print_formula(f)) is f``
always holds; ``Formula.key`` is the fully parenthesized form.

Formulas are hash-consed: every builder (``atom``, ``tensor``, ...)
returns the one object that ``_INTERN`` holds for its printed form, so
two formulas of the same shape are the same object, and ``==`` and
``hash`` are object identity.  That rests on one rule: a live formula is
always the interned one.  Nothing may build a ``Formula`` past the
builders (a pickled formula loads through them too), and a bound on
``_INTERN`` may drop entries through weak references but may never
clear the table while its formulas live.  The parser tries the table
first: a text whose stripped form is the key of a formula of size at
most ``MAX_NESTING // 2`` (a connective nests at most two levels) is
that formula, so ``parse_formula(f.key) is f``; other texts are parsed.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, NoReturn


class SystemId(Enum):
    MILL = "MILL"
    PCMILL = "PCMILL"
    RSBIAT = "RSBIAT"
    SRSBIAT = "SRSBIAT"


# Which systems read antecedents as ordered trees (the others read
# multisets), and which modality their language admits.
TREE_SYSTEMS = (SystemId.PCMILL, SystemId.SRSBIAT)
BOX_SYSTEMS = (SystemId.MILL, SystemId.PCMILL)
AGENT_SYSTEMS = (SystemId.RSBIAT, SystemId.SRSBIAT)
SERIAL_SYSTEMS = TREE_SYSTEMS

_NAME_RE = re.compile(r"[A-Za-z0-9_]+")
_NO_AGENTS: frozenset[str] = frozenset()


@dataclass(frozen=True)
class System:
    """A system identifier plus, for the agent systems, its alphabet."""

    ident: SystemId
    agents: tuple[str, ...] = ()
    # read by every parse and search, so set once (and never pickled)
    outside: int = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.ident in AGENT_SYSTEMS:
            if not self.agents:
                raise ValueError(f"{self.ident.value} needs a nonempty agent alphabet")
            for a in self.agents:
                if not _NAME_RE.fullmatch(a):
                    raise ValueError(f"bad agent name {a!r}")
            if len(set(self.agents)) != len(self.agents):
                raise ValueError("duplicate agent names")
        elif self.agents:
            raise ValueError(f"{self.ident.value} does not take agents")
        object.__setattr__(self, "outside", _OUTSIDE[self.ident])
        object.__setattr__(self, "_hash", hash((self.ident, self.agents)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return System, (self.ident, self.agents)

    @property
    def is_tree(self) -> bool:
        return self.ident in TREE_SYSTEMS

    @property
    def has_box(self) -> bool:
        return self.ident in BOX_SYSTEMS

    def __str__(self) -> str:
        if self.agents:
            return f"{self.ident.value}:{','.join(self.agents)}"
        return self.ident.value


def parse_system(text: str) -> System:
    """Parse ``MILL`` or ``RSBIAT:i,s`` style system descriptors."""
    name, _, agents = text.partition(":")
    try:
        ident = SystemId(name.strip())
    except ValueError:
        raise ValueError(f"unknown system {name.strip()!r}") from None
    if agents.strip():
        return System(ident, tuple(a.strip() for a in agents.split(",")))
    if ident in AGENT_SYSTEMS:
        raise ValueError(f"{ident.value} needs agents, e.g. {ident.value}:a,b")
    return System(ident)


# ---------------------------------------------------------------------------
# Charges

# the most values a charge holds; a formula or context with more has none
CHARGE_CAP = 16


class ChargeSet:
    """A charge of two to ``CHARGE_CAP`` ``values``, ascending, any one
    of which the formula may take (one per conjunct it keeps at each
    ``&``).  ``==`` asks whether two charges share a value, with an
    ``int`` read as the set of itself, so it is no equivalence and a
    ``ChargeSet`` is never hashed.  ``_charge_set`` interns them: one
    object per value set, whose tuple is its key in ``_CHARGE_SETS``."""

    __slots__ = ("values",)
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, values: tuple[int, ...]):
        self.values = values

    def __eq__(self, other: object) -> bool:
        if other.__class__ is int:
            return other in self.values
        if other.__class__ is ChargeSet:
            return not set(self.values).isdisjoint(other.values)  # type: ignore[attr-defined]
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __repr__(self) -> str:
        return f"ChargeSet{self.values}"


Charge = int | ChargeSet | None
_CHARGE_SETS: dict[tuple[int, ...], ChargeSet] = {}


def _charge_set(values: set[int]) -> Charge:
    """The charge whose values are ``values``: the value itself when
    there is one, None past ``CHARGE_CAP``, else the interned set."""
    if len(values) == 1:
        return next(iter(values))
    if len(values) > CHARGE_CAP:
        return None
    key = tuple(sorted(values))
    got = _CHARGE_SETS.get(key)
    if got is None:
        got = _CHARGE_SETS[key] = ChargeSet(key)
    return got


def combine_charges(l: Charge, r: Charge, signs: tuple[int, int] | None) -> Charge:
    """The union of ``l`` and ``r`` (``signs`` None, for ``&``), or their
    elementwise signed sum; None when either has none."""
    if l is None or r is None:
        return None
    ls = (l,) if l.__class__ is int else l.values  # type: ignore[union-attr]
    rs = (r,) if r.__class__ is int else r.values  # type: ignore[union-attr]
    if signs is None:
        return _charge_set({*ls, *rs})
    a, b = signs
    return _charge_set({a * x + b * y for x in ls for y in rs})


def charges_meet(a: Charge, b: Charge) -> bool:
    """Whether charges ``a`` and ``b`` can agree: False only when both
    are known and share no value.  Every refutation by charge asks this."""
    return a is None or b is None or a == b


# ---------------------------------------------------------------------------
# Formula AST


class Formula:
    """Base class.  ``key`` is the fully parenthesized printed form, the
    intern table's key and the sort order of parallel contexts; ``size``
    is the complexity measure (connective/atom count); ``text`` is the
    ``print_formula`` form, kept once printed.  ``charge`` is the sum of
    the atoms' weights (``bot`` weighs 0), signed by polarity: ``[]A``
    and ``E[a]A`` carry ``A``'s, ``A & B`` the union of its conjuncts'
    (a ``ChargeSet`` when they differ), and the other connectives the
    elementwise signed sums of their operands'; None past ``CHARGE_CAP``
    values.  ``bit``, one per class, marks the main connective;
    ``uses`` is the OR of ``bit`` over the subformulas and ``agents`` the
    set of agents that their ``E[a]`` name, so whether a formula lies in
    a system's language is read off these two fields."""

    __slots__ = ("key", "size", "text", "charge", "uses", "agents")
    key: str
    size: int
    text: str | None
    charge: Charge
    uses: int
    agents: frozenset[str]
    bit: int

    def __repr__(self) -> str:
        return self.key


class Atom(Formula):
    __slots__ = ("name",)
    bit = 1 << 0

    def __init__(self, name: str, key: str):
        self.name = name
        self.key = self.text = key
        self.size = 1
        self.uses, self.agents = self.bit, _NO_AGENTS
        # the weight, whatever the hash seed: FNV-1a of the name, then the
        # splitmix64 finalizer, so names a byte apart get unrelated weights
        h = 0xCBF29CE484222325
        for b in name.encode():
            h = (h ^ b) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            h = (h ^ h >> shift) * mult & 0xFFFFFFFFFFFFFFFF
        # bot weighs 0, so that NotNec (|- A over E[a]A |- bot) balances
        self.charge = 0 if name == "bot" else h ^ h >> 31

    def __reduce__(self):
        return atom, (self.name,)


class Unit(Formula):
    __slots__ = ()
    bit = 1 << 1

    def __init__(self) -> None:
        self.key = self.text = "1"
        self.size = 1
        self.uses, self.agents = self.bit, _NO_AGENTS
        self.charge = 0

    def __reduce__(self):
        return unit, ()


class BinOp(Formula):
    __slots__ = ("left", "right")
    op: str = ""
    # the signs of the operands' charges, None for & (their union)
    signs: tuple[int, int] | None = (1, 1)

    def __init__(self, left: Formula, right: Formula, key: str):
        self.left = left
        self.right = right
        self.key = key
        self.size = 1 + left.size + right.size
        self.text = None
        self.uses = self.bit | left.uses | right.uses
        a, b = left.agents, right.agents
        self.agents = a if b <= a else b if a <= b else a | b
        s, l, r = self.signs, left.charge, right.charge
        if s is not None and l.__class__ is int and r.__class__ is int:
            self.charge = s[0] * l + s[1] * r
        else:  # an &, or an operand with no charge or a value set
            self.charge = combine_charges(l, r, s)

    def __reduce__(self):
        return _binary, (type(self), self.left, self.right)


class Tensor(BinOp):
    __slots__ = ()
    bit = 1 << 2
    op = "*"


class With(BinOp):
    __slots__ = ()
    bit = 1 << 3
    op = "&"
    signs = None


class Limp(BinOp):
    __slots__ = ()
    bit = 1 << 4
    op = "-o"
    signs = (-1, 1)


class Odot(BinOp):
    __slots__ = ()
    bit = 1 << 5
    op = "@"


class Lres(BinOp):
    """Left residual ``A \\ B``: consume an A on the left to yield B."""

    __slots__ = ()
    bit = 1 << 6
    op = "\\"
    signs = (-1, 1)


class Rres(BinOp):
    """Right residual ``B / A``: yields B when an A follows on the right."""

    __slots__ = ()
    bit = 1 << 7
    op = "/"
    signs = (1, -1)


class Box(Formula):
    __slots__ = ("body",)
    bit = 1 << 8

    def __init__(self, body: Formula, key: str):
        self.body = body
        self.key = key
        self.size = 1 + body.size
        self.text = None
        self.uses, self.agents = self.bit | body.uses, body.agents
        self.charge = body.charge

    def __reduce__(self):
        return box, (self.body,)


class Brings(Formula):
    __slots__ = ("agent", "body")
    bit = 1 << 9

    def __init__(self, agent: str, body: Formula, key: str):
        self.agent = agent
        self.body = body
        self.key = key
        self.size = 1 + body.size
        self.text = None
        self.uses = self.bit | body.uses
        self.agents = body.agents | {agent}
        self.charge = body.charge

    def __reduce__(self):
        return brings, (self.agent, self.body)


_INTERN: dict[str, Formula] = {}


def _interned(key: str, build) -> Formula:
    f = _INTERN.get(key)
    if f is None:
        f = build()
        _INTERN[key] = f
    return f


def atom(name: str) -> Formula:
    if name == "1" or not _NAME_RE.fullmatch(name):
        raise ValueError(f"bad atom name {name!r}")
    return _interned(name, lambda: Atom(name, name))


def unit() -> Formula:
    return _interned("1", Unit)


def _binary(cls, left: Formula, right: Formula) -> Formula:
    key = f"({left.key} {cls.op} {right.key})"
    f = _INTERN.get(key)
    if f is None:
        f = _INTERN[key] = cls(left, right, key)
    return f


def tensor(l: Formula, r: Formula) -> Formula:
    return _binary(Tensor, l, r)


def with_(l: Formula, r: Formula) -> Formula:
    return _binary(With, l, r)


def limp(l: Formula, r: Formula) -> Formula:
    return _binary(Limp, l, r)


def odot(l: Formula, r: Formula) -> Formula:
    return _binary(Odot, l, r)


def lres(l: Formula, r: Formula) -> Formula:
    return _binary(Lres, l, r)


def rres(l: Formula, r: Formula) -> Formula:
    return _binary(Rres, l, r)


def box(body: Formula) -> Formula:
    key = f"[]({body.key})"
    return _interned(key, lambda: Box(body, key))


def brings(agent: str, body: Formula) -> Formula:
    if not _NAME_RE.fullmatch(agent):
        raise ValueError(f"bad agent name {agent!r}")
    key = f"E[{agent}]({body.key})"
    return _interned(key, lambda: Brings(agent, body, key))


BOT = atom("bot")


def neg(f: Formula) -> Formula:
    """``~A`` desugars to ``A -o bot``."""
    return limp(f, BOT)


def complexity(f: Formula) -> int:
    return f.size


def operands(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of ``f``, left to right."""
    if isinstance(f, BinOp):
        return (f.left, f.right)
    if isinstance(f, (Box, Brings)):
        return (f.body,)
    return ()


def subformulas(f: Formula) -> set[Formula]:
    out: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in out:
            continue
        out.add(g)
        if isinstance(g, BinOp):
            stack.append(g.left)
            stack.append(g.right)
        elif isinstance(g, (Box, Brings)):
            stack.append(g.body)
    return out


def substitute(f: Formula, atoms: dict[str, Formula],
               agents: dict[str, str] | None = None) -> Formula:
    """``f`` with each atom named in ``atoms`` replaced by its formula and
    each ``E[a]`` with ``a`` in ``agents`` renamed, rebuilt bottom-up.
    Replacements are not themselves rewritten."""
    agents = agents or {}
    done: dict[Formula, Formula] = {}
    todo = [f]
    while todo:
        g = todo[-1]
        kids = [k for k in operands(g) if k not in done]
        if kids:
            todo += kids
            continue
        todo.pop()
        if isinstance(g, BinOp):
            done[g] = _binary(type(g), done[g.left], done[g.right])
        elif isinstance(g, Box):
            done[g] = box(done[g.body])
        elif isinstance(g, Brings):
            done[g] = brings(agents.get(g.agent, g.agent), done[g.body])
        else:
            done[g] = atoms.get(g.name, g) if isinstance(g, Atom) else g
    return done[f]


def formula_atoms(f: Formula) -> set[str]:
    return {g.name for g in subformulas(f) if isinstance(g, Atom)}


def formula_agents(f: Formula) -> set[str]:
    return {g.agent for g in subformulas(f) if isinstance(g, Brings)}


class SystemMismatchError(ValueError):
    """A formula uses a connective outside the given system's language."""


# the connectives outside each system's language, by ``bit``; agents
# outside the alphabet are checked apart
_OUTSIDE = {
    ident: (0 if ident in BOX_SYSTEMS else Box.bit)
    | (0 if ident in AGENT_SYSTEMS else Brings.bit)
    | (0 if ident in SERIAL_SYSTEMS else Odot.bit | Lres.bit | Rres.bit)
    for ident in SystemId
}


def connective_error(g: Formula, system: System) -> str | None:
    """Why the main connective of ``g`` lies outside ``system``'s
    language, or None when it does not."""
    if g.bit & system.outside:
        op = "[]" if isinstance(g, Box) else "E[_]" if isinstance(g, Brings) else type(g).op
        return f"{op} not available in {system}: {g.key}"
    if isinstance(g, Brings) and g.agent not in system.agents:
        return f"agent {g.agent!r} not in alphabet {list(system.agents)}: {g.key}"
    return None


def language_error(formulas: Iterable[Formula], system: System) -> str | None:
    """The ``connective_error`` of the first subformula, in left-to-right
    preorder through ``formulas`` in turn, whose main connective lies
    outside ``system``'s language, or None when there is none.  Whether
    a formula holds such a subformula is read off its ``uses`` and
    ``agents``, so the search follows one path down from the first
    formula that holds one: formulas that fit cost one test each."""
    outside, agents = system.outside, system.agents
    todo = formulas
    while True:
        todo = [g for g in todo
                if g.uses & outside or g.agents and not g.agents.issubset(agents)]
        if not todo:
            return None
        err = connective_error(todo[0], system)
        if err is not None:
            return err
        todo = operands(todo[0])


def validate_formula(f: Formula, system: System) -> None:
    """Raise the ``language_error`` of ``f``, if it has one."""
    if f.uses & system.outside or f.agents and not f.agents.issubset(system.agents):
        raise SystemMismatchError(language_error((f,), system))


# binding strength of each connective: the implications loosest, the
# prefixes tightest; -o and \ associate right, the others left
_BINDS = {"-o": 0, "\\": 0, "/": 0, "&": 1, "*": 2, "@": 3}
_PREFIX = 4
_RIGHT = ("-o", "\\")
_CONNECTIVE = {"&": With, "*": Tensor, "@": Odot, "-o": Limp, "\\": Lres, "/": Rres}
# the same strength by formula class, for the printer; atoms and 1 bind
# tighter than any connective
_LEVEL: dict[type, int] = {cls: _BINDS[op] for op, cls in _CONNECTIVE.items()}
_LEVEL[Box] = _LEVEL[Brings] = _PREFIX
_ATOMIC = _PREFIX + 1


def _operand(g: BinOp, side: Formula, nests: bool) -> str:
    """The text of ``side`` as an operand of ``g``: bracketed unless it
    binds tighter, or is of ``g``'s own kind on the side where ``g``
    nests without brackets."""
    inner, outer = _LEVEL.get(type(side), _ATOMIC), _LEVEL[type(g)]
    if inner > outer or inner == outer and nests and type(side) is type(g):
        return side.text  # type: ignore[return-value]
    return f"({side.text})"


def print_formula(f: Formula) -> str:
    """``f`` with the fewest parentheses that parse back to it.  Each
    subformula keeps its text, so printing shares work across calls."""
    todo = [f]
    while todo:
        g = todo[-1]
        kids = [k for k in operands(g) if k.text is None]
        if kids:
            todo += kids
            continue
        todo.pop()
        if g.text is not None:
            continue
        if isinstance(g, BinOp):
            right = g.op in _RIGHT
            g.text = f"{_operand(g, g.left, not right)} {g.op} {_operand(g, g.right, right)}"
        else:
            tight = _LEVEL.get(type(g.body), _ATOMIC) >= _PREFIX
            body = g.body.text if tight else f"({g.body.text})"
            g.text = ("[]" if isinstance(g, Box) else f"E[{g.agent}]") + body
    return f.text  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Lexer


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        self.bare_message = message
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos}: {_excerpt(text, pos)}")


def _excerpt(text: str, pos: int) -> str:
    lo = max(0, pos - 15)
    hi = min(len(text), pos + 15)
    marker = "..." if lo > 0 else ""
    return f"{marker}{text[lo:pos]}<HERE>{text[pos:hi]}"


class LexError(ParseError):
    pass


class UnexpectedTokenError(ParseError):
    def __init__(self, text: str, pos: int, found: str, expected: tuple[str, ...]):
        self.found = found
        self.expected = expected
        want = " or ".join(expected)
        super().__init__(f"expected {want}, found {found}", text, pos)


MAX_NESTING = 100


class NestingTooDeepError(ParseError):
    def __init__(self, text: str, pos: int):
        super().__init__(f"nesting deeper than {MAX_NESTING} levels", text, pos)


class MixedImplicationError(ParseError):
    def __init__(self, text: str, pos: int, first: str, second: str):
        self.first = first
        self.second = second
        super().__init__(
            f"cannot mix {first!r} and {second!r} without parentheses", text, pos
        )


_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|\|-|-o|[()\[\]*&@~\\/,;]")
# a character that starts no token: whitespace separates tokens, and a
# '|' or '-' is stray unless it starts '|-' or '-o'
_STRAY_RE = re.compile(r"[^\sA-Za-z0-9_()\[\]*&@~\\/,;|-]|\|(?!-)|(?<!\|)-(?!o)")
# every token but a name; "" is the end-of-input sentinel
_SYMBOLS = frozenset(["|-", "-o", "(", ")", "[", "]", "*", "&", "@", "~", "\\", "/", ",", ";", ""])


def mentioned_agents(text: str) -> list[str]:
    """The agents that ``E[a]`` prefixes in ``text`` name, in order of
    first mention, read from the parser's own tokens."""
    toks = _TOKEN_RE.findall(text)
    return list(dict.fromkeys(
        toks[k + 2] for k in range(len(toks) - 2)
        if toks[k] == "E" and toks[k + 1] == "[" and toks[k + 2] not in _SYMBOLS
    ))


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    """One pass over the tokens of ``text``, shared by the formula and
    sequent grammars (the latter lives in context.py).  It builds each
    formula bottom-up over the whole language; whether a formula lies in
    a system's language is the caller's question, answered by
    ``validate_formula`` once the formula is built.  A token's position
    is worked out only for an error."""

    __slots__ = ("text", "toks", "i", "depth")

    def __init__(self, text: str):
        stray = _STRAY_RE.search(text)
        if stray is not None:
            raise LexError(f"unexpected character {stray.group()!r}", text, stray.start())
        self.text = text
        # every token as a plain string, then the end-of-input sentinel
        self.toks = _TOKEN_RE.findall(text) + [""]
        self.i = self.depth = 0

    def pos(self, k: int) -> int:
        """Where token ``k`` starts in the text."""
        for j, m in enumerate(_TOKEN_RE.finditer(self.text)):
            if j == k:
                return m.start()
        return len(self.text)

    def fail(self, k: int, *expected: str) -> NoReturn:
        t = self.toks[k]
        found = "end of input" if t == "" else repr(t)
        raise UnexpectedTokenError(self.text, self.pos(k), found, expected)

    def end(self) -> None:
        if self.toks[self.i] != "":
            self.fail(self.i, "end of input")

    def deeper(self, k: int) -> None:
        """Enter one more nesting level, for the opener at token ``k``.
        Parentheses, prefix operators and bracketed groups nest; past
        ``MAX_NESTING`` levels the input is refused, before the
        recursion can run out."""
        if self.depth >= MAX_NESTING:
            raise NestingTooDeepError(self.text, self.pos(k))
        self.depth += 1

    def formula(self) -> Formula:
        """The formula from token ``i`` on.  Precedence climbing over
        ``_BINDS``, with the pending operators and their left operands
        on a stack, so chains of any length stay iterative; only a
        bracketed formula recurses."""
        toks, i = self.toks, self.i
        imp = None  # the one implication this formula may chain
        pending: list[tuple[str, int, Formula | None]] = []
        while True:
            # an operand: prefixes, then an atom, 1 or a bracketed formula
            k = i
            t = toks[i]
            if t not in _SYMBOLS and (t != "E" or toks[i + 1] != "["):
                f = _INTERN.get(t) or (unit() if t == "1" else atom(t))
                i += 1
            elif t == "(":
                self.deeper(k)
                self.i = i + 1
                f = self.formula()
                i = self.i
                if toks[i] != ")":
                    self.fail(i, "')'")
                i += 1
                self.depth -= 1
            else:
                if t == "~":
                    i += 1
                elif t == "[":
                    if toks[i + 1] != "]":
                        self.fail(i + 1, "']'")
                    i += 2
                    t = "[]"
                elif t == "E":
                    t = toks[i + 2]
                    if t in _SYMBOLS:
                        self.fail(i + 2, "'NAME'")
                    if toks[i + 3] != "]":
                        self.fail(i + 3, "']'")
                    i += 4
                else:
                    self.fail(i, "an atom", "'1'", "'('", "a prefix operator")
                self.deeper(k)
                pending.append((t, _PREFIX, None))
                continue
            # an operator, or the end of this formula
            t = toks[i]
            level = _BINDS.get(t, -1)
            if level == 0:
                if imp is None:
                    imp = t
                elif t != imp:
                    raise MixedImplicationError(self.text, self.pos(i), imp, t)
            while pending:
                op, lv, left = pending[-1]
                if lv < level or lv == level and t in _RIGHT:
                    break
                pending.pop()
                if lv == _PREFIX:
                    f = neg(f) if op == "~" else box(f) if op == "[]" else brings(op, f)
                    self.depth -= 1
                else:
                    f = _binary(_CONNECTIVE[op], left, f)
            if level < 0:
                self.i = i
                return f
            pending.append((t, level, f))
            i += 1


def _read_formula(text: str) -> Formula:
    """``parse_formula`` with no system, for ``parse_sequent``: a tracer
    that wraps ``parse_formula`` then counts one call per parse."""
    f = _INTERN.get(text.strip())
    if f is None or f.size > MAX_NESTING // 2:
        p = _Parser(text)
        f = p.formula()
        p.end()
    return f


def parse_formula(text: str, system: System | None = None) -> Formula:
    f = _read_formula(text)
    if system is not None:
        validate_formula(f, system)
    return f
