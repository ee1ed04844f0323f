"""Antecedent structures and sequents.

Every antecedent is one normal-form tree: formula leaves and the empty
context ``()`` composed in parallel (written ``,``) and in series
(written ``;``).  PCMILL and SRSBIAT use the whole language.  MILL and
RSBIAT read antecedents as finite multisets, and a multiset is exactly
a ``;``-free tree: a leaf, ``()``, or a flat parallel node of leaves
(``mset`` builds one).  The only difference left between the systems
is how the empty antecedent prints: ``|- A`` in the multiset systems,
``() |- A`` in the tree systems.

Trees are kept in a normal form: nested compositions of the same kind
are flattened, empty contexts are dropped, and the children of a
parallel node are sorted by printed form (``,`` is commutative).  The
smart constructors ``par`` and ``ser`` establish the normal form, so
every Context in the system is normalized by construction.  Like
formulas (see ``syntax``), contexts are hash-consed, so ``==`` and
``hash`` are object identity: ``leaf`` returns the one leaf that
``_LEAVES`` holds for its formula, and ``par`` and ``ser`` the one node
that ``_PARS`` or ``_SERS`` holds for its tuple of children (Filliâtre
and Conchon's hash-consing), that tuple being the node's own
``children``.  A node's printed ``key`` is built when first read, and
the sort of a parallel node's children reads theirs.  A ``Sequent`` is
not interned: it is equal to another holding the same context and
formula, and hashes them.  Pickling goes through the same builders, so
a loaded context is the interned one.

Entropy (``Γ ; Δ`` gives ``Γ , Δ``) is the only structural rule that
the normal form does not absorb, and no proof states it as a step.
Search never closes an antecedent under it: ``split_serial`` lists the
maximal serial cuts that entropy makes available, and the residual
rules in ``calculus`` do the same for their argument groups.  The
kernel lets every rule conclude any antecedent that ``entropy_le``
reaches; that test decides membership in the backward entropy closure
without building it.  ``structural_preimages`` builds the closure, as
the reference that the tests compare ``entropy_le`` with.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations
from operator import attrgetter
from typing import Iterable

from .syntax import (
    Charge,
    Formula,
    ParseError,
    System,
    _Parser,
    _read_formula,
    charges_meet,
    combine_charges,
    print_formula,
    validate_formula,
    tensor,
    odot,
    unit,
)

Path = tuple[int, ...]
_UNSET = object()


class Context:
    __slots__ = ("_formulas", "_charge")
    key: str
    # the leaf formulas, left to right, and (``_charge``) their charges
    # summed; computed once by context_formulas and context_charge
    _formulas: tuple[Formula, ...] | None

    def __repr__(self) -> str:
        return self.key


class Leaf(Context):
    __slots__ = ("formula", "key")

    def __init__(self, formula: Formula):
        self.formula = formula
        self.key = formula.key
        self._formulas = (formula,)
        self._charge = formula.charge

    def __reduce__(self):
        return leaf, (self.formula,)


class EmptyCtx(Context):
    __slots__ = ()
    key = "()"

    def __init__(self) -> None:
        self._formulas = ()
        self._charge = 0

    def __reduce__(self):
        return "EMPTY"


EMPTY = EmptyCtx()


class _Node(Context):
    """A parallel or serial node.  ``children`` is also the node's key in
    its intern table, and its printed ``key`` is joined when first read."""

    __slots__ = ("children", "_key")
    sep: str

    def __init__(self, children: tuple[Context, ...]):
        self.children = children
        self._key: str | None = None
        self._formulas = None
        self._charge = _UNSET

    @property
    def key(self) -> str:
        got = self._key
        if got is None:
            # a child is a leaf or a bracketed node of the other kind
            got = self._key = self.sep.join(
                [c.key if isinstance(c, Leaf) else f"[{c.key}]" for c in self.children])
        return got


class Par(_Node):
    __slots__ = ()
    sep = ", "

    def __reduce__(self):
        return par, (self.children,)


class Ser(_Node):
    __slots__ = ()
    sep = " ; "

    def __reduce__(self):
        return ser, (self.children,)


# the intern tables: a leaf by its formula, a node by its children
_LEAVES: dict[Formula, Leaf] = {}
_PARS: dict[tuple[Context, ...], Par] = {}
_SERS: dict[tuple[Context, ...], Ser] = {}


def leaf(f: Formula) -> Leaf:
    got = _LEAVES.get(f)
    if got is None:
        got = _LEAVES[f] = Leaf(f)
    return got


_KEY = attrgetter("key")


def _sorted_par(kids: list[Context]) -> Context:
    """``par(kids)`` for children already in normal form and order: no
    ``Par`` or ``()`` among them, sorted by printed form."""
    if not kids:
        return EMPTY
    if len(kids) == 1:
        return kids[0]
    children = tuple(kids)
    got = _PARS.get(children)
    if got is None:
        got = _PARS[children] = Par(children)
    return got


def par(children: Iterable[Context]) -> Context:
    flat: list[Context] = []
    for c in children:
        if isinstance(c, Par):
            flat.extend(c.children)
        elif not isinstance(c, EmptyCtx):
            flat.append(c)
    flat.sort(key=_KEY)
    return _sorted_par(flat)


def mset(formulas: Iterable[Formula]) -> Context:
    """The multiset of ``formulas`` as an antecedent: a flat ``Par`` of
    leaves, a single leaf, or ``()``."""
    return par([leaf(f) for f in formulas])


def ser(children: Iterable[Context]) -> Context:
    flat: list[Context] = []
    for c in children:
        if isinstance(c, Ser):
            flat.extend(c.children)
        elif not isinstance(c, EmptyCtx):
            flat.append(c)
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    children = tuple(flat)
    got = _SERS.get(children)
    if got is None:
        got = _SERS[children] = Ser(children)
    return got


def normalize(c: Context) -> Context:
    """Rebuild through the smart constructors (idempotent)."""
    if isinstance(c, Par):
        return par(normalize(ch) for ch in c.children)
    if isinstance(c, Ser):
        return ser(normalize(ch) for ch in c.children)
    return c


def singleton_body(c: Context) -> Formula | None:
    """The sole antecedent formula, when the antecedent is a leaf."""
    return c.formula if isinstance(c, Leaf) else None


def join(a: Context, b: Context, serial: bool) -> Context:
    """``a ; b`` when ``serial``, else ``a , b``."""
    return ser([a, b]) if serial else par([a, b])


def context_formulas(c: Context) -> list[Formula]:
    """The leaf formulas, left to right."""
    got = c._formulas
    if got is None:
        out: list[Formula] = []
        for ch in c.children:  # type: ignore[attr-defined]
            out += ch._formulas if ch._formulas is not None else context_formulas(ch)
        got = c._formulas = tuple(out)
    return list(got)


def leaf_paths(c: Context, f: Formula) -> list[Path]:
    """The paths of the leaves of ``c`` holding ``f``, walking only the
    subtrees whose leaves hold it.  Of equal children of a parallel node
    (one object, adjacent) only the first is listed: filling any of them
    gives the same tree."""
    if f not in context_formulas(c):
        return []
    if isinstance(c, Leaf):
        return [()]
    # context_formulas(c) has cached the leaves of every node below c
    kids, parallel = c.children, isinstance(c, Par)  # type: ignore[attr-defined]
    out: list[Path] = []
    for i, ch in enumerate(kids):
        if f in ch._formulas and not (parallel and i and kids[i - 1] is ch):
            out += [(i,)] if isinstance(ch, Leaf) else [(i,) + pt for pt in leaf_paths(ch, f)]
    return out


def context_charge(c: Context) -> Charge:
    """The charges of the leaf formulas summed, elementwise where one is
    a value set; None when one has none or the sum passes the cap."""
    got = c._charge
    if got is _UNSET:
        kids = [context_charge(ch) for ch in c.children]  # type: ignore[attr-defined]
        try:
            got = sum(kids)  # type: ignore[arg-type]
        except TypeError:  # a kid with no charge or a value set
            got = kids[0]
            for kid in kids[1:]:
                got = combine_charges(got, kid, (1, 1))
        c._charge = got
    return got  # type: ignore[return-value]


def context_complexity(c: Context) -> int:
    return sum(f.size for f in context_formulas(c))


def to_formula(c: Context) -> Formula:
    """Fold a context to a formula: ``,`` as *, ``;`` as @, () as 1."""
    if isinstance(c, Leaf):
        return c.formula
    if isinstance(c, EmptyCtx):
        return unit()
    parts = [to_formula(ch) for ch in c.children]
    acc = parts[0]
    for f in parts[1:]:
        acc = tensor(acc, f) if isinstance(c, Par) else odot(acc, f)
    return acc


def positions(c: Context) -> list[tuple[Path, Context]]:
    """Preorder list of (path, node)."""
    out: list[tuple[Path, Context]] = [((), c)]

    def walk(n: Context, path: Path) -> None:
        for i, ch in enumerate(n.children):  # type: ignore[attr-defined]
            out.append((path + (i,), ch))
            if not isinstance(ch, Leaf):
                walk(ch, path + (i,))

    if isinstance(c, (Par, Ser)):
        walk(c, ())
    return out


def fill(c: Context, path: Path, replacement: Context) -> Context:
    """Replace the node at ``path`` and renormalize."""
    if not path:
        return replacement
    if not isinstance(c, (Par, Ser)):
        raise IndexError(f"no child {path} under {c.key!r}")
    i = path[0]
    kids = list(c.children)
    kids[i] = fill(kids[i], path[1:], replacement)  # type: ignore[assignment]
    return par(kids) if isinstance(c, Par) else ser(kids)


def _refuting(pairs: list, want: Charge) -> list:
    """``pairs``, with None for each whose left part's charge cannot
    meet ``want``; a None in ``pairs`` stays."""
    return pairs if want is None else [
        p if p is not None and charges_meet(context_charge(p[0]), want) else None
        for p in pairs]


def split_parallel(c: Context, want: Charge = None) -> list[tuple[Context, Context] | None]:
    """Every two-part split of the top-level parallel structure, as
    ordered pairs.  A Par root splits by any subset of its children
    (a multiset by any sub-multiset); other roots admit only the
    trivial splits against the empty context.

    Bit ``i`` of a split's mask puts child ``i`` on the left.  Equal
    children of a Par are one object and adjacent, so a mask taking a
    later copy without the earlier one is skipped: each split is listed
    once, at its least mask.  A split whose left part's charge cannot
    meet the ``want``ed one is listed as None: unbuilt when its children
    all have one value, their sum read off a table of the masks; built
    and then tested when one has no charge or a value set."""
    if not isinstance(c, Par):
        return _refuting([(EMPTY, c)] if c is EMPTY else [(EMPTY, c), (c, EMPTY)], want)
    kids, n = c.children, len(c.children)
    dup = sum(1 << i for i in range(1, n) if kids[i] is kids[i - 1])
    sums, untold = [0], 0  # untold: the children whose charge is no one value
    for i, charge in enumerate(map(context_charge, kids) if want is not None else ()):
        if charge.__class__ is not int:
            untold |= 1 << i
            charge = 0
        sums += [s + charge for s in sums]
    # != on charges is the negated meet test, a value set's too
    out = [None if want is not None and not mask & untold and sums[mask] != want else
           (_sorted_par([kids[i] for i in range(n) if mask >> i & 1]),
            _sorted_par([kids[i] for i in range(n) if not mask >> i & 1]))
           for mask in range(1 << n) if not mask & dup & ~(mask << 1)]
    # a left part holding an untold child is tested once built
    return _refuting(out, want) if untold else out


def split_serial(c: Context, want: Charge = None) -> list[tuple[Context, Context] | None]:
    """The maximal serial cuts of ``c``: every pair (L, R) such that
    ``L ; R`` lies below ``c`` by entropy is below one listed pair,
    componentwise, and every listed ``L ; R`` lies below ``c``.

    A leaf or ``()`` has only the trivial cuts.  A serial node is cut
    inside one child, by that child's own cuts.  A parallel node puts
    each child wholly on one side (entropy orders the two sides), or
    cuts one serial child into (l, r) and orders the other children in
    two groups around it: ``(S1 ; l, r ; S2)``.  Given ``want``, cuts
    are refuted as ``split_parallel`` refutes splits, unbuilt where it
    cuts (a parallel node with no serial child), elsewhere once built.
    """
    if not isinstance(c, (Par, Ser)):
        return _refuting([(EMPTY, c)] if c is EMPTY else [(EMPTY, c), (c, EMPTY)], want)
    kids = c.children
    if isinstance(c, Par) and not any(isinstance(k, Ser) for k in kids):
        return split_parallel(c, want)
    if isinstance(c, Ser):
        return _refuting(list(dict.fromkeys(
            (ser(kids[:i] + (l,)), ser((r,) + kids[i + 1 :]))  # type: ignore[operator]
            for i, kid in enumerate(kids) for l, r in split_serial(kid)
        )), want)
    out = dict.fromkeys(split_parallel(c))
    for i, kid in enumerate(kids):
        if not isinstance(kid, Ser):
            continue
        others = par(kids[:i] + kids[i + 1 :])
        for l, r in split_serial(kid):
            if isinstance(l, EmptyCtx) or isinstance(r, EmptyCtx):
                continue
            for s1, s2 in split_parallel(others):
                out[ser([s1, l]), ser([r, s2])] = None  # type: ignore[list-item]
    return _refuting(list(out), want)


DEFAULT_STRUCTURAL_BOUND = 4096


def _ent_steps(c: Context) -> list[Context]:
    """Single backward entropy steps: somewhere in ``c``, group part of
    a parallel node and make the grouping serial."""
    out: list[Context] = []
    for path, node in positions(c):
        if not isinstance(node, Par):
            continue
        kids = node.children
        n = len(kids)
        for size in range(2, n + 1):
            for group in combinations(range(n), size):
                rest = [kids[i] for i in range(n) if i not in group]
                members = [kids[i] for i in group]
                m = len(members)
                for mask in range(1, (1 << m) - 1):
                    first = [members[i] for i in range(m) if mask >> i & 1]
                    second = [members[i] for i in range(m) if not mask >> i & 1]
                    grouped = ser([par(first), par(second)])
                    out.append(fill(c, path, par(rest + [grouped])))  # type: ignore[arg-type]
    return out


def structural_preimages(
    c: Context, bound: int = DEFAULT_STRUCTURAL_BOUND
) -> tuple[list[Context], bool]:
    """Close ``c`` backward under entropy.  Returns the reachable
    contexts in discovery order (``c`` first) and an overflow flag set
    when the closure was truncated at ``bound`` contexts."""
    seen = {c}
    order: list[Context] = [c]
    queue = [c]
    overflow = False
    while queue:
        cur = queue.pop(0)
        for nxt in _ent_steps(cur):  # type: ignore[arg-type]
            if nxt in seen:
                continue
            if len(seen) >= bound:
                overflow = True
                return order, overflow
            seen.add(nxt)
            order.append(nxt)
            queue.append(nxt)
    return order, overflow


def entropy_le(x: Context, c: Context) -> bool:
    """Whether ``x`` lies in the backward entropy closure of ``c``, that
    is ``x in structural_preimages(c)[0]`` with no bound.

    Entropy strengthens a series-parallel order (de Groote's partially
    commutative logic) and never breaks a parallel child apart, so:
    a leaf or ``()`` is only below itself; below ``c1 ; ... ; ck`` lie
    the trees whose serial children split into k consecutive runs, the
    j-th run below ``cj``; below ``c1, ..., cn`` lie the series-parallel
    arrangements of n blocks, the i-th block below ``ci``.  A serial
    sequence ``xs`` stands for ``ser(xs)`` so no context is built; the
    memo lives for this call only.
    """
    if x == c:
        return True
    if not isinstance(x, (Leaf, Par, Ser)) or not isinstance(c, (Leaf, Par, Ser)):
        return False
    bags: dict[Context, Counter] = {}
    memo: dict[tuple, bool] = {}

    def bag(n: Context) -> Counter:
        got = bags.get(n)
        if got is None:
            got = bags[n] = Counter(context_formulas(n))
        return got

    def size(n: Context) -> int:
        return 1 if isinstance(n, Leaf) else sum(bag(n).values())

    def serial(n: Context) -> tuple:
        return n.children if isinstance(n, Ser) else (n,)

    def below(xs: tuple, c: Context) -> bool:
        if isinstance(c, Leaf):
            return len(xs) == 1 and xs[0] == c
        key = (xs, c)
        got = memo.get(key)
        if got is None:
            if isinstance(c, Ser):
                got = runs(xs, c.children)
            else:
                got = arranged(xs, c, tuple(range(len(c.children))))
            memo[key] = got
        return got

    def runs(xs: tuple, cs: tuple) -> bool:
        # each run's length is fixed by the leaf count of its child
        i = 0
        for cj in cs:
            start, want, have = i, size(cj), 0
            while have < want and i < len(xs):
                have += size(xs[i])
                i += 1
            if have != want or not below(xs[start:i], cj):
                return False
        return i == len(xs)

    def covers(c: Par, idx: tuple, target: Counter) -> list[tuple]:
        """Sub-tuples of ``idx`` whose children's leaves make up exactly
        ``target``; equal children (adjacent, as Par sorts them) are
        taken lowest index first so each choice is listed once."""
        kids = c.children
        out: list[tuple] = []
        # rest[k]: the leaves of the children idx[k:], so that a branch
        # needing more leaves than are still to come stops at once
        rest = [0] * (len(idx) + 1)
        for k in range(len(idx) - 1, -1, -1):
            rest[k] = rest[k + 1] + size(kids[idx[k]])

        def go(k: int, chosen: tuple, left: Counter, need: int) -> None:
            if not need:
                out.append(chosen)
                return
            if rest[k] < need:
                return
            i = idx[k]
            b = bag(kids[i])
            if all(left[f] >= n for f, n in b.items()):
                go(k + 1, chosen + (i,), left - b, need - size(kids[i]))
            k += 1
            while k < len(idx) and kids[idx[k]] == kids[i]:
                k += 1
            go(k, chosen, left, need)

        go(0, (), target, sum(target.values()))
        return out

    def arranged(xs: tuple, c: Par, idx: tuple) -> bool:
        """``ser(xs)`` arranges the blocks ``c.children[i]``, i in idx."""
        if len(idx) == 1:
            return below(xs, c.children[idx[0]])
        key = (xs, c, idx)
        got = memo.get(key)
        if got is not None:
            return got
        got = False
        if len(xs) == 1:
            # a Par arranges its children side by side; nothing else
            # arranges two or more blocks as one serial child
            got = isinstance(xs[0], Par) and spread(xs[0].children, c, idx)
        else:
            # a serial arrangement: some prefix of xs arranges some blocks
            first: Counter = Counter()
            for i in range(1, len(xs)):
                first += bag(xs[i - 1])
                if any(
                    arranged(xs[:i], c, sub) and arranged(xs[i:], c, without(idx, sub))
                    for sub in covers(c, idx, first)
                ):
                    got = True
                    break
        memo[key] = got
        return got

    def spread(zs: tuple, c: Par, idx: tuple) -> bool:
        """The parallel children ``zs`` share out the blocks in idx."""
        if not zs:
            return not idx
        return any(
            arranged(serial(zs[0]), c, sub) and spread(zs[1:], c, without(idx, sub))
            for sub in covers(c, idx, bag(zs[0]))
        )

    def without(idx: tuple, sub: tuple) -> tuple:
        return tuple(j for j in idx if j not in sub)

    return below(serial(x), c)


# ---------------------------------------------------------------------------
# Sequents


class Sequent:
    """An antecedent, a succedent and a system.  Contexts and formulas
    are interned, so ``==`` and the hash read those two objects (and
    ``==`` the system), and ``key`` is built when first read."""

    __slots__ = ("ctx", "succ", "system", "_key")

    def __init__(self, ctx: Context, succ: Formula, system: System):
        self.ctx = ctx
        self.succ = succ
        self.system = system
        self._key: str | None = None

    @property
    def key(self) -> str:
        got = self._key
        if got is None:
            head = "" if self.ctx is EMPTY and not self.system.is_tree else f"{self.ctx.key} "
            got = self._key = f"{head}|- {self.succ.key}"
        return got

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Sequent)
            and self.ctx is other.ctx
            and self.succ is other.succ
            and self.system == other.system
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.succ))

    def __reduce__(self):
        return Sequent, (self.ctx, self.succ, self.system)

    def __repr__(self) -> str:
        return f"<{self.system} {self.key}>"


def sequent(ctx: Context, succ: Formula, system: System) -> Sequent:
    """The sequent over ``ctx`` in normal form; a multiset system refuses
    an antecedent with ``;``."""
    ctx = normalize(ctx)
    if not system.is_tree and any(isinstance(n, Ser) for _, n in positions(ctx)):
        raise ValueError(f"{system} antecedents are multisets, not {ctx.key!r}")
    return Sequent(ctx, succ, system)


def total_complexity(s: Sequent) -> int:
    return context_complexity(s.ctx) + s.succ.size


def validate_sequent(s: Sequent) -> None:
    for f in context_formulas(s.ctx):
        validate_formula(f, s.system)
    validate_formula(s.succ, s.system)


def _print_context(c: Context) -> str:
    """``c`` as ``key`` prints it, each formula by ``print_formula``."""
    if isinstance(c, Leaf):
        return print_formula(c.formula)
    if isinstance(c, EmptyCtx):
        return "()"
    sep = ", " if isinstance(c, Par) else " ; "
    return sep.join([_print_context(ch) if isinstance(ch, Leaf) else f"[{_print_context(ch)}]"
                     for ch in c.children])  # type: ignore[attr-defined]


def print_sequent(s: Sequent) -> str:
    """``s`` as ``key`` prints it, each formula by ``print_formula``."""
    head = "" if s.ctx is EMPTY and not s.system.is_tree else _print_context(s.ctx) + " "
    return f"{head}|- {print_formula(s.succ)}"


class MixedSeparatorError(ParseError):
    def __init__(self, text: str, pos: int):
        super().__init__(
            "cannot mix ',' and ';' at one level, bracket the groups", text, pos
        )


def _parse_group(p: _Parser, system: System, closer: str) -> Context:
    toks = p.toks
    if toks[p.i] == closer:
        return EMPTY
    items = [_parse_item(p, system)]
    sep: str | None = None
    while toks[p.i] in (",", ";"):
        t = toks[p.i]
        if t == ";" and not system.is_tree:
            p.fail(p.i, "','")
        if sep is None:
            sep = t
        elif sep != t:
            raise MixedSeparatorError(p.text, p.pos(p.i))
        p.i += 1
        # an item follows every separator
        items.append(_parse_item(p, system))
    if toks[p.i] != closer:
        p.fail(p.i, f"{closer!r}", "','")
    return ser(items) if sep == ";" else par(items)


def _parse_item(p: _Parser, system: System) -> Context:
    toks = p.toks
    k = p.i
    if system.is_tree:
        if toks[k] == "(" and toks[k + 1] == ")":
            p.i += 2
            return EMPTY
        # "[" starts a grouped subcontext unless it is the box prefix "[]"
        if toks[k] == "[" and toks[k + 1] != "]":
            p.deeper(k)
            p.i += 1
            sub = _parse_group(p, system, "]")
            p.i += 1  # the group stops only at its ']'
            p.depth -= 1
            return sub
    f = p.formula()
    # the item's own syntax errors come first, then its connectives
    validate_formula(f, system)
    return leaf(f)


def parse_sequent(text: str, system: System) -> Sequent:
    """The sequent ``text`` holds in ``system``.  With no ``;`` before
    its ``|-`` (so no printed group), each item and the succedent are
    read alone by ``_read_formula``; other texts, and any with a syntax
    error, are parsed whole, so every error is the full parser's."""
    ante, turnstile, rest = text.partition("|-")
    if turnstile and ";" not in ante:
        try:
            items = [_read_formula(t) for t in ante.split(",")] if ante.strip() else []
            items.append(_read_formula(rest))
        except ParseError:
            pass
        else:  # validated only now, as a stray character anywhere wins
            for f in items:
                validate_formula(f, system)
            return Sequent(mset(items[:-1]), items[-1], system)
    p = _Parser(text)
    ctx = _parse_group(p, system, "|-")
    p.i += 1  # the group stops only at '|-'
    succ = p.formula()
    p.end()
    validate_formula(succ, system)
    # the parser builds normal forms and reads ';' only in tree systems
    return Sequent(ctx, succ, system)
