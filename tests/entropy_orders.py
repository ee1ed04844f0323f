"""The order test of ``entropy_le`` against the block-cover search
``cover_le``, on every pair of normal trees over n pairwise distinct
leaves whose precedences include the target's.  Every other pair fails
at the first precedence of the target that is missing, so these are the
pairs that reach the module test.

    PYTHONPATH=src python tests/entropy_orders.py 5

prints the number of trees, of pairs compared and of disagreements, and
exits 1 on any disagreement.  Over five leaves that is 2,791 trees and
163,111 pairs, in about ten seconds.
"""
from __future__ import annotations

import sys

from proofmill.context import Context, Leaf, Ser, context_formulas, cover_le, entropy_le
from proofmill.syntax import atom

from closure import distinct_trees


def precedences(t: Context) -> frozenset:
    """The pairs ``(a, b)`` of leaf formulas with ``a`` before ``b``."""
    out = set()
    todo = [t]
    while todo:
        n = todo.pop()
        if isinstance(n, Leaf):
            continue
        todo += n.children  # type: ignore[attr-defined]
        if isinstance(n, Ser):
            for i, first in enumerate(n.children):
                for later in n.children[i + 1:]:
                    out.update((a, b) for a in context_formulas(first)
                               for b in context_formulas(later))
    return frozenset(out)


def disagreements(n: int) -> tuple[int, int, list[tuple[Context, Context]]]:
    """(trees, pairs compared, pairs where the two tests differ) over n
    distinct atoms."""
    trees = distinct_trees([atom(f"a{i}") for i in range(n)])
    order = {t: precedences(t) for t in trees}
    pairs, bad = 0, []
    for c in trees:
        need = order[c]
        for x in trees:
            if need <= order[x]:
                pairs += 1
                if entropy_le(x, c) != cover_le(x, c):
                    bad.append((x, c))
    return len(trees), pairs, bad


if __name__ == "__main__":
    trees, pairs, bad = disagreements(int(sys.argv[1]))
    for x, c in bad:
        print(f"differ: {x.key} below {c.key}")
    print(f"{trees} trees, {pairs} pairs, {len(bad)} disagreements")
    sys.exit(1 if bad else 0)
