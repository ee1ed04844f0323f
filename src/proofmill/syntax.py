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
builders, and a bound on ``_INTERN`` may drop entries through weak
references but may never clear the table while its formulas live.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


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


@dataclass(frozen=True)
class System:
    """A system identifier plus, for the agent systems, its alphabet."""

    ident: SystemId
    agents: tuple[str, ...] = ()

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
# Formula AST


class Formula:
    """Base class.  ``key`` is the fully parenthesized printed form, the
    intern table's key and the sort order of parallel contexts; ``size``
    is the complexity measure (connective/atom count); ``text`` is the
    ``print_formula`` form, kept once printed; ``charge`` sums the
    atoms' weights, signed by polarity, and is None past ``&``, ``[]``, ``E[a]``."""

    __slots__ = ("key", "size", "text", "charge")
    key: str
    size: int
    text: str | None
    charge: int | None

    def __repr__(self) -> str:
        return self.key


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name: str, key: str):
        self.name = name
        self.key = self.text = key
        self.size = 1
        # the weight, whatever the hash seed: FNV-1a of the name, then the
        # splitmix64 finalizer, so names a byte apart get unrelated weights
        h = 0xCBF29CE484222325
        for b in name.encode():
            h = (h ^ b) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
        for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
            h = (h ^ h >> shift) * mult & 0xFFFFFFFFFFFFFFFF
        self.charge = h ^ h >> 31


class Unit(Formula):
    __slots__ = ()

    def __init__(self) -> None:
        self.key = self.text = "1"
        self.size = 1
        self.charge = 0


class BinOp(Formula):
    __slots__ = ("left", "right")
    op: str = ""
    # the signs of the operands' charges, None for a connective without one
    signs: tuple[int, int] | None = (1, 1)

    def __init__(self, left: Formula, right: Formula, key: str):
        self.left = left
        self.right = right
        self.key = key
        self.size = 1 + left.size + right.size
        self.text = None
        s, l, r = self.signs, left.charge, right.charge
        self.charge = None if s is None or l is None or r is None else s[0] * l + s[1] * r


class Tensor(BinOp):
    __slots__ = ()
    op = "*"


class With(BinOp):
    __slots__ = ()
    op = "&"
    signs = None


class Limp(BinOp):
    __slots__ = ()
    op = "-o"
    signs = (-1, 1)


class Odot(BinOp):
    __slots__ = ()
    op = "@"


class Lres(BinOp):
    """Left residual ``A \\ B``: consume an A on the left to yield B."""

    __slots__ = ()
    op = "\\"
    signs = (-1, 1)


class Rres(BinOp):
    """Right residual ``B / A``: yields B when an A follows on the right."""

    __slots__ = ()
    op = "/"
    signs = (1, -1)


class Box(Formula):
    __slots__ = ("body",)

    def __init__(self, body: Formula, key: str):
        self.body = body
        self.key = key
        self.size = 1 + body.size
        self.text = None
        self.charge = None


class Brings(Formula):
    __slots__ = ("agent", "body")

    def __init__(self, agent: str, body: Formula, key: str):
        self.agent = agent
        self.body = body
        self.key = key
        self.size = 1 + body.size
        self.text = None
        self.charge = None


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
    return _interned(key, lambda: cls(left, right, key))


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


def connective_error(g: Formula, system: System) -> str | None:
    """Why the main connective of ``g`` lies outside ``system``'s
    language, or None when it does not."""
    if isinstance(g, Box) and system.ident not in BOX_SYSTEMS:
        return f"[] not available in {system}: {g.key}"
    if isinstance(g, Brings):
        if system.ident not in AGENT_SYSTEMS:
            return f"E[_] not available in {system}: {g.key}"
        if g.agent not in system.agents:
            return f"agent {g.agent!r} not in alphabet {list(system.agents)}: {g.key}"
    if isinstance(g, (Odot, Lres, Rres)) and system.ident not in SERIAL_SYSTEMS:
        return f"{type(g).op} not available in {system}: {g.key}"
    return None


def validate_formula(f: Formula, system: System) -> None:
    """Raise at the first subformula, in left-to-right preorder, whose
    main connective lies outside ``system``'s language."""
    seen: set[Formula] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        if isinstance(g, (Box, Brings, Odot, Lres, Rres)):
            err = connective_error(g, system)
            if err is not None:
                raise SystemMismatchError(err)
        if isinstance(g, BinOp):
            stack += (g.right, g.left)
        elif isinstance(g, (Box, Brings)):
            stack.append(g.body)


# binding strength of each main connective; atoms and 1 bind tightest
_LEVEL: dict[type, int] = {
    Limp: 0, Lres: 0, Rres: 0, With: 1, Tensor: 2, Odot: 3, Box: 4, Brings: 4,
}


def _operand(g: BinOp, side: Formula, nests: bool) -> str:
    """The text of ``side`` as an operand of ``g``: bracketed unless it
    binds tighter, or is of ``g``'s own kind on the side where ``g``
    nests without brackets."""
    inner, outer = _LEVEL.get(type(side), 5), _LEVEL[type(g)]
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
            # -o and \ nest to the right, the others to the left
            right = isinstance(g, (Limp, Lres))
            g.text = f"{_operand(g, g.left, not right)} {g.op} {_operand(g, g.right, right)}"
        else:
            body = g.body.text if _LEVEL.get(type(g.body), 5) >= 4 else f"({g.body.text})"
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


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z0-9_]+)
  | (?P<turnstile>\|-)
  | (?P<limp>-o)
  | (?P<sym>[()\[\]*&@~\\/,;])
    """,
    re.VERBOSE,
)

#: token kinds: NAME, plus literal text for every symbol token
Token = tuple[str, str, int]  # (kind, text, position)


def tokenize(text: str) -> list[Token]:
    out: list[Token] = []
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LexError(f"unexpected character {text[pos]!r}", text, pos)
        if m.lastgroup != "ws":
            kind = "NAME" if m.lastgroup == "name" else m.group()
            out.append((kind, m.group(), pos))
        pos = m.end()
    out.append(("EOF", "", n))
    return out


# ---------------------------------------------------------------------------
# Parser

_IMP_OPS = ("-o", "\\", "/")


class _Parser:
    """Recursive-descent parser over the token list, shared by the
    formula and sequent grammars (the latter lives in context.py)."""

    def __init__(self, text: str):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self, ahead: int = 0) -> Token:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> Token:
        t = self.toks[self.i]
        if t[0] != "EOF":
            self.i += 1
        return t

    def expect(self, kind: str) -> Token:
        t = self.peek()
        if t[0] != kind:
            raise UnexpectedTokenError(self.text, t[2], _show(t), (repr(kind),))
        return self.next()

    def at(self, kind: str) -> bool:
        return self.peek()[0] == kind

    def nested(self, pos: int, parse):
        """Run ``parse`` one nesting level deeper, for the opener at
        ``pos``.  Parentheses, prefix operators and bracketed groups
        nest; past ``MAX_NESTING`` levels the input is refused, before
        the recursion can run out."""
        if self.depth >= MAX_NESTING:
            raise NestingTooDeepError(self.text, pos)
        self.depth += 1
        try:
            return parse()
        finally:
            self.depth -= 1

    def formula(self) -> Formula:
        first = self.additive()
        if self.peek()[0] not in _IMP_OPS:
            return first
        items = [first]
        ops: list[tuple[str, int]] = []
        while self.peek()[0] in _IMP_OPS:
            op, _, pos = self.next()
            if ops and op != ops[0][0]:
                raise MixedImplicationError(self.text, pos, ops[0][0], op)
            ops.append((op, pos))
            items.append(self.additive())
        op = ops[0][0]
        if op == "-o":
            acc = items[-1]
            for f in reversed(items[:-1]):
                acc = limp(f, acc)
            return acc
        if op == "\\":
            acc = items[-1]
            for f in reversed(items[:-1]):
                acc = lres(f, acc)
            return acc
        acc = items[0]
        for f in items[1:]:
            acc = rres(acc, f)
        return acc

    def additive(self) -> Formula:
        f = self.tensor()
        while self.at("&"):
            self.next()
            f = with_(f, self.tensor())
        return f

    def tensor(self) -> Formula:
        f = self.serial()
        while self.at("*"):
            self.next()
            f = tensor(f, self.serial())
        return f

    def serial(self) -> Formula:
        f = self.unary()
        while self.at("@"):
            self.next()
            f = odot(f, self.unary())
        return f

    def unary(self) -> Formula:
        t = self.peek()
        if t[0] == "[":
            self.next()
            self.expect("]")
            return box(self.nested(t[2], self.unary))
        if t[0] == "NAME" and t[1] == "E" and self.peek(1)[0] == "[":
            self.next()
            self.next()
            agent = self.expect("NAME")[1]
            self.expect("]")
            return brings(agent, self.nested(t[2], self.unary))
        if t[0] == "~":
            self.next()
            return neg(self.nested(t[2], self.unary))
        return self.primary()

    def primary(self) -> Formula:
        t = self.peek()
        if t[0] == "NAME":
            self.next()
            return unit() if t[1] == "1" else atom(t[1])
        if t[0] == "(":
            self.next()
            f = self.nested(t[2], self.formula)
            self.expect(")")
            return f
        raise UnexpectedTokenError(
            self.text, t[2], _show(t), ("an atom", "'1'", "'('", "a prefix operator")
        )


def _show(t: Token) -> str:
    return "end of input" if t[0] == "EOF" else repr(t[1])


def parse_formula(text: str, system: System | None = None) -> Formula:
    p = _Parser(text)
    f = p.formula()
    t = p.peek()
    if t[0] != "EOF":
        raise UnexpectedTokenError(text, t[2], _show(t), ("end of input",))
    if system is not None:
        validate_formula(f, system)
    return f
