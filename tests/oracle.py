"""Independent provability oracle for small sequents of every system.

Derivable sequents are enumerated by breadth-first forward closure
inside a finite universe: the sequents over a small language whose
total complexity (the sizes of all their formulas) stays within a
bound.  Read bottom-up, every logical rule strictly shrinks total
complexity and entropy keeps it, so a sequent of the universe is
derivable exactly when the closure reaches it.

Each cut-free rule is restated here once, read forward; in the tree
systems entropy (a serial grouping ``Γ ; Δ`` anywhere in the antecedent
becomes ``Γ , Δ``) is one more forward step.  A rule fires only on the
connectives of the universe's language.  Only the formula and tree
constructors come from ``proofmill``: nothing is imported from the
search, calculus or kernel modules, so agreement with ``prove`` is a
cross-check, not the same code run twice.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from itertools import combinations, permutations

from proofmill.context import EMPTY, Context, Leaf, Par, Ser, fill, leaf, par, positions, ser
from proofmill.syntax import (BOT, Brings, Formula, System, atom, box, brings, limp, lres,
                              odot, rres, tensor, unit, with_)

Seq = tuple[Context, Formula]


def _same_agent(a: Formula, b: Formula) -> bool:
    return isinstance(a, Brings) and isinstance(b, Brings) and a.agent == b.agent


def formula_layers(limit: int, atoms: tuple[str, ...] = ("p", "q"), unaries=(box,),
                   binaries=(tensor, with_, limp)) -> list[list[Formula]]:
    """``layers[c]`` = every formula of complexity exactly c over the
    given atoms, the unit, the unary and the binary connectives."""
    layers: list[list[Formula]] = [[] for _ in range(limit + 1)]
    if limit >= 1:
        layers[1] = [atom(a) for a in atoms] + [unit()]
    for c in range(2, limit + 1):
        layer = [make(f) for make in unaries for f in layers[c - 1]]
        for a in range(1, c - 1):
            for left in layers[a]:
                for right in layers[c - 1 - a]:
                    for make in binaries:
                        layer.append(make(left, right))
        layers[c] = layer
    return layers


class Closure:
    """The derivable sequents of ``system`` of total complexity at most
    ``bound`` over ``atoms``, the unit, ``binaries`` and, when ``modal``,
    ``[]`` or each agent's ``E[a]``; ``NotNec`` needs ``bot`` in atoms."""

    def __init__(self, system: System, bound: int, atoms=("p", "q"),
                 binaries=(tensor, with_, limp), modal: bool = True):
        self.system, self.bound = system, bound
        self.agents = system.agents if modal else ()
        self.unaries = ((box,) if modal and system.has_box else ()) + tuple(
            partial(brings, a) for a in self.agents)
        self.layers = formula_layers(bound, atoms, self.unaries, binaries)
        self.has = frozenset(binaries)
        self._weights: dict[Context, int] = {EMPTY: 0}
        self.known: set[Seq] = set()
        self._build()

    def weight(self, c: Context) -> int:
        """The sizes of the antecedent's formulas, summed."""
        w = self._weights.get(c)
        if w is None:
            w = c.formula.size if isinstance(c, Leaf) else sum(map(self.weight, c.children))
            self._weights[c] = w
        return w

    def provable(self, ctx: Context, succ: Formula) -> bool:
        if self.weight(ctx) + succ.size > self.bound:
            raise ValueError("sequent outside the oracle's universe")
        return (ctx, succ) in self.known

    def trees(self, max_leaves: int | None = None) -> list[list[Context]]:
        """``trees[w]``: every antecedent of weight ``w`` below the
        bound with at most ``max_leaves`` leaves, sorted by key."""
        cap = self.bound if max_leaves is None else max_leaves
        makes = (par, ser) if self.system.is_tree else (par,)
        by: dict[tuple[int, int], set[Context]] = {(0, 0): {EMPTY}}
        for w in range(1, self.bound):
            by[w, 1] = {leaf(f) for f in self.layers[w]}
            for n in range(2, min(w, cap) + 1):
                by[w, n] = {make([a, b])
                            for k in range(1, w) for m in range(1, n)
                            for a in by.get((k, m), ()) for b in by.get((w - k, n - m), ())
                            for make in makes}
        return [sorted(set().union(*(t for (v, _), t in by.items() if v == w)), key=lambda t: t.key)
                for w in range(self.bound)]

    def goals(self, max_leaves: int | None = None):
        """Every sequent of the universe whose antecedent has at most
        ``max_leaves`` leaves, as (antecedent, succedent)."""
        for w, trees in enumerate(self.trees(max_leaves)):
            for ctx in trees:
                for layer in self.layers[1 : self.bound - w + 1]:
                    for succ in layer:
                        yield ctx, succ

    # -- closure -----------------------------------------------------------

    def _with_unit(self, y: Context):
        """OneL read forward: every antecedent from which deleting one
        unit leaf leaves ``y``.  The unit sits beside any node or, in
        the tree systems, before or after any node, between two serial
        children, beside a proper run of serial children, or before or
        after a proper group of parallel children."""
        u = leaf(unit())
        if not self.system.is_tree:
            yield par([y, u])
            return
        for path, n in positions(y):
            for x in (par([n, u]), ser([u, n]), ser([n, u])):
                yield fill(y, path, x)
            kids = n.children if isinstance(n, (Par, Ser)) else ()
            if isinstance(n, Ser):
                for i in range(1, len(kids)):
                    yield fill(y, path, ser(kids[:i] + (u,) + kids[i:]))
                for i, j in combinations(range(len(kids) + 1), 2):
                    if 2 <= j - i < len(kids):
                        run = par([ser(kids[i:j]), u])
                        yield fill(y, path, ser(kids[:i] + (run,) + kids[j:]))
            elif isinstance(n, Par):
                for k in range(2, len(kids)):
                    for group in combinations(range(len(kids)), k):
                        rest = [ch for i, ch in enumerate(kids) if i not in group]
                        g = par([kids[i] for i in group])
                        yield fill(y, path, par(rest + [ser([u, g])]))
                        yield fill(y, path, par(rest + [ser([g, u])]))

    def _build(self) -> None:
        bound, known, has, agents = self.bound, self.known, self.has, self.agents
        queue: deque[Seq] = deque()
        # join indexes over everything already dequeued
        by_total: list[list[Seq]] = [[] for _ in range(bound + 1)]
        by_ctx: dict[Context, list[Formula]] = {}

        def add(ctx: Context, succ: Formula) -> None:
            if (ctx, succ) not in known and self.weight(ctx) + succ.size <= bound:
                known.add((ctx, succ))
                queue.append((ctx, succ))

        add(EMPTY, unit())                                          # OneR
        for layer in self.layers[1 : bound // 2 + 1]:               # Ax
            for f in layer:
                add(leaf(f), f)

        while queue:
            y, c = s = queue.popleft()
            w = self.weight(y)
            room = bound - w - c.size

            # -- one premise: entropy, and the left rules at every node
            for path, n in positions(y):
                kids = n.children if isinstance(n, (Par, Ser)) else ()
                if isinstance(n, Ser):                                  # Ent
                    for i, j in combinations(range(len(kids) + 1), 2):
                        for m in range(i + 1, j):
                            grouped = par([ser(kids[i:m]), ser(kids[m:j])])
                            add(fill(y, path, ser(kids[:i] + (grouped,) + kids[j:])), c)
                if not room:
                    continue
                if isinstance(n, Leaf):
                    a = n.formula
                    if with_ in has:                                    # WithL1, WithL2
                        for layer in self.layers[1:room]:
                            for b in layer:
                                add(fill(y, path, leaf(with_(a, b))), c)
                                add(fill(y, path, leaf(with_(b, a))), c)
                    for ag in agents:                                   # BringsRefl
                        add(fill(y, path, leaf(brings(ag, a))), c)
                elif isinstance(n, Par) and tensor in has:              # TensorL
                    for i, j in permutations(range(len(kids)), 2):
                        a, b = kids[i], kids[j]
                        if isinstance(a, Leaf) and isinstance(b, Leaf):
                            rest = [k for h, k in enumerate(kids) if h not in (i, j)]
                            joined = leaf(tensor(a.formula, b.formula))
                            add(fill(y, path, par(rest + [joined])), c)
                elif isinstance(n, Ser) and odot in has:                # OdotL
                    for i in range(len(kids) - 1):
                        a, b = kids[i], kids[i + 1]
                        if isinstance(a, Leaf) and isinstance(b, Leaf):
                            joined = leaf(odot(a.formula, b.formula))
                            add(fill(y, path, ser(kids[:i] + (joined,) + kids[i + 2 :])), c)
            if room:
                for x in self._with_unit(y):                        # OneL
                    add(x, c)
                # the argument sits beside (-o) or at the near end (\, /)
                kids = y.children if isinstance(y, (Par, Ser)) else (y,)
                for i, a in enumerate(kids):
                    if not isinstance(a, Leaf):
                        continue
                    rest = kids[:i] + kids[i + 1 :]
                    if limp in has and not isinstance(y, Ser):      # LimpR
                        add(par(rest), limp(a.formula, c))
                    if lres in has and i == 0 and not isinstance(y, Par):
                        add(ser(rest), lres(a.formula, c))          # LresR
                    if rres in has and i == len(kids) - 1 and not isinstance(y, Par):
                        add(ser(rest), rres(c, a.formula))          # RresR
            if room >= 2:
                if y is EMPTY and BOT in self.layers[1]:            # NotNec
                    for ag in agents:
                        add(leaf(brings(ag, c)), BOT)
                if isinstance(y, Leaf) and (leaf(c), y.formula) in known:
                    for modal in self.unaries:                      # BoxRe, BringsRe
                        add(leaf(modal(y.formula)), modal(c))
                        add(leaf(modal(c)), modal(y.formula))

            # -- two premises, joined against everything dequeued earlier
            # (this sequent is indexed first, so self-joins work)
            by_total[w + c.size].append(s)
            by_ctx.setdefault(y, []).append(c)
            for b in by_ctx[y] if with_ in has else ():
                for l, r in ((c, b), (b, c)):
                    if w + l.size + r.size < bound:                     # WithR
                        add(y, with_(l, r))
                    if w + l.size + r.size <= bound and _same_agent(l, r):
                        add(y, brings(l.agent, with_(l.body, r.body)))  # BringsWith
            for tr in range(1, room + 1):
                for r in by_total[tr]:
                    for (g, a), (z, b) in ((s, r), (r, s)):
                        if _same_agent(a, b):
                            if tensor in has:                       # BringsTensor
                                add(par([g, z]), brings(a.agent, tensor(a.body, b.body)))
                            if odot in has:                         # BringsOdot
                                add(ser([g, z]), brings(a.agent, odot(a.body, b.body)))
                        if tr == room:
                            continue
                        if tensor in has:                           # TensorR
                            add(par([g, z]), tensor(a, b))
                        if odot in has:                             # OdotR
                            add(ser([g, z]), odot(a, b))
                        # (g |- a) is the argument premise, z holds the residue
                        for path, res in [(pt, n.formula) for pt, n in positions(z)
                                          if isinstance(n, Leaf)]:
                            if limp in has:                             # LimpL
                                add(fill(z, path, par([g, leaf(limp(a, res))])), b)
                            if lres in has:                             # LresL
                                add(fill(z, path, ser([g, leaf(lres(a, res))])), b)
                            if rres in has:                             # RresL
                                add(fill(z, path, ser([leaf(rres(res, a)), g])), b)
