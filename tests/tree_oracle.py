"""Independent provability oracle for small PCMILL sequents.

Like ``oracle.py`` for MILL: derivable sequents are enumerated by
breadth-first forward closure inside the finite universe of tree
sequents whose total complexity stays within a bound.  Read bottom-up,
every logical rule strictly shrinks total complexity and entropy keeps
it, so a sequent inside the universe is derivable exactly when the
closure reaches it.

The rules, and entropy as a forward rule (a serial grouping ``Γ ; Δ``
anywhere in the antecedent becomes ``Γ , Δ``), are restated here from
the sequent calculus; only the tree constructors, which keep every
antecedent in normal form, come from ``proofmill.context``.  Nothing is
imported from the search, calculus or kernel modules, so agreement with
``prove`` is a cross-check, not the same code run twice.
"""

from __future__ import annotations

from collections import deque

from proofmill.context import (
    EMPTY,
    Context,
    Leaf,
    Par,
    Ser,
    fill,
    leaf,
    par,
    positions,
    ser,
)
from proofmill.syntax import Formula, Unit, limp, lres, odot, rres, tensor, unit

from oracle import formula_layers

Seq = tuple[Context, Formula]
BINARIES = (tensor, odot, limp, lres, rres)


def weight(c: Context) -> int:
    return sum(n.formula.size for _, n in positions(c) if isinstance(n, Leaf))


class PcmillOracle:
    """Forward closure of PCMILL derivability (no box, no ``&``) up to
    a total-complexity bound over the atoms ``p``, ``q`` and the unit."""

    def __init__(self, bound: int = 6):
        self.bound = bound
        self.layers = formula_layers(bound, unary=None, binaries=BINARIES)
        # every normal tree of each antecedent weight; () weighs 0
        self.trees: list[set[Context]] = [{EMPTY}]
        for w in range(1, bound):
            ts = {leaf(f) for f in self.layers[w]}
            for k in range(1, w):
                for a in self.trees[k]:
                    for b in self.trees[w - k]:
                        ts.add(par([a, b]))
                        ts.add(ser([a, b]))
            self.trees.append(ts)
        self.known: set[Seq] = set()
        self._build()

    def goals(self):
        """Every sequent of the universe, as (antecedent, succedent)."""
        for w, trees in enumerate(self.trees):
            for c in sorted(trees, key=lambda t: t.key):
                for s in range(1, self.bound - w + 1):
                    for succ in self.layers[s]:
                        yield c, succ

    # -- closure -----------------------------------------------------------

    def _build(self) -> None:
        bound = self.bound
        known = self.known
        queue: deque[Seq] = deque()
        by_total: list[list[Seq]] = [[] for _ in range(bound + 1)]

        def add(ctx: Context, succ: Formula) -> None:
            if weight(ctx) + succ.size <= bound and (ctx, succ) not in known:
                known.add((ctx, succ))
                queue.append((ctx, succ))

        # OneL read forward: the trees from which deleting one unit leaf
        # leaves a given tree
        with_unit: dict[Context, list[Context]] = {}
        for trees in self.trees:
            for x in trees:
                for path, n in positions(x):
                    if isinstance(n, Leaf) and isinstance(n.formula, Unit):
                        with_unit.setdefault(fill(x, path, EMPTY), []).append(x)

        add(EMPTY, unit())                                       # 1R
        for layer in self.layers[1 : bound // 2 + 1]:            # Ax
            for f in layer:
                add(leaf(f), f)

        while queue:
            s = queue.popleft()
            y, c = s
            t = weight(y) + c.size

            for x in with_unit.get(y, ()):                       # 1L
                add(x, c)
            for path, n in positions(y):
                if isinstance(n, Par):
                    kids = n.children
                    for i, a in enumerate(kids):
                        for j, b in enumerate(kids):
                            if i != j and isinstance(a, Leaf) and isinstance(b, Leaf):
                                rest = [k for h, k in enumerate(kids) if h not in (i, j)]
                                joined = leaf(tensor(a.formula, b.formula))
                                add(fill(y, path, par(rest + [joined])), c)   # *L
                elif isinstance(n, Ser):
                    kids = n.children
                    for i in range(len(kids) - 1):
                        a, b = kids[i], kids[i + 1]
                        if isinstance(a, Leaf) and isinstance(b, Leaf):
                            joined = leaf(odot(a.formula, b.formula))
                            add(fill(y, path, ser(kids[:i] + (joined,) + kids[i + 2 :])), c)  # @L
                    # entropy: a serial run Γ ; Δ becomes Γ , Δ
                    for i in range(len(kids)):
                        for j in range(i + 2, len(kids) + 1):
                            for m in range(i + 1, j):
                                grouped = par([ser(kids[i:m]), ser(kids[m:j])])
                                add(fill(y, path, ser(kids[:i] + (grouped,) + kids[j:])), c)

            # right rules: the argument A sits beside (-o) or at the near
            # end (\, /) of the antecedent
            kids = y.children if isinstance(y, (Par, Ser)) else (y,)
            for i, a in enumerate(kids):
                if not isinstance(a, Leaf):
                    continue
                rest = kids[:i] + kids[i + 1 :]
                if not isinstance(y, Ser):
                    add(par(rest), limp(a.formula, c))              # -oR
                if i == 0 and not isinstance(y, Par):
                    add(ser(rest), lres(a.formula, c))              # \R
                if i == len(kids) - 1 and not isinstance(y, Par):
                    add(ser(rest), rres(c, a.formula))              # /R

            # binary rules, joined against everything dequeued earlier
            # (this sequent is indexed first, so self-joins work)
            by_total[t].append(s)
            for tr in range(1, bound - t):
                for r in by_total[tr]:
                    for (g, a), (z, b) in ((s, r), (r, s)):
                        add(par([g, z]), tensor(a, b))                # *R
                        add(ser([g, z]), odot(a, b))                  # @R
                        # (g |- a) is the argument premise, z holds the residue
                        for path, n in positions(z):
                            if not isinstance(n, Leaf):
                                continue
                            res = n.formula
                            add(fill(z, path, par([g, leaf(limp(a, res))])), b)   # -oL
                            add(fill(z, path, ser([g, leaf(lres(a, res))])), b)   # \L
                            add(fill(z, path, ser([leaf(rres(res, a)), g])), b)   # /L

    # -- queries -------------------------------------------------------------

    def provable(self, ctx: Context, succ: Formula) -> bool:
        if weight(ctx) + succ.size > self.bound:
            raise ValueError("sequent outside the oracle's universe")
        return (ctx, succ) in self.known
