"""Reference logic for the benchmark, restated without proofmill.

Nothing here imports the package under test.  Formulas are their fully
parenthesized proofmill text; the MILL oracle decides small multiset
sequents by forward closure and keeps one derivation per sequent, so the
benchmark can hand the program proofs and verdicts that the program did
not produce itself.
"""
from __future__ import annotations

from collections import deque

# ---------------------------------------------------------------------------
# formulas are their fully parenthesized proofmill text

ONE = "1"
SYMBOL = {
    "tensor": "*", "with": "&", "limp": "-o",
    "odot": "@", "lres": "\\", "rres": "/",
}


class Language:
    """Builds formula texts and remembers each one's size and parts."""

    def __init__(self):
        self.size: dict[str, int] = {ONE: 1}
        self.parts: dict[str, tuple] = {ONE: ("one",)}

    def atom(self, name: str) -> str:
        self.size[name] = 1
        self.parts[name] = ("atom",)
        return name

    def binary(self, op: str, a: str, b: str) -> str:
        f = f"({a} {SYMBOL[op]} {b})"
        if f not in self.size:
            self.size[f] = self.size[a] + self.size[b] + 1
            self.parts[f] = (op, a, b)
        return f

    def modal(self, key: str, body: str) -> str:
        """``key`` is ``"box"`` or an agent name."""
        f = f"[]({body})" if key == "box" else f"E[{key}]({body})"
        if f not in self.size:
            self.size[f] = self.size[body] + 1
            self.parts[f] = (key, body)
        return f

    def tensor(self, a, b):
        return self.binary("tensor", a, b)

    def with_(self, a, b):
        return self.binary("with", a, b)

    def limp(self, a, b):
        return self.binary("limp", a, b)

    def layers(self, limit: int, atoms=("p", "q"), unary="box",
               binaries=("tensor", "with", "limp")) -> list[list[str]]:
        """``layers[c]`` = every formula of complexity exactly c over the
        atoms, the unit, one modality and the binaries."""
        out: list[list[str]] = [[] for _ in range(limit + 1)]
        if limit >= 1:
            out[1] = [self.atom(a) for a in atoms] + [ONE]
        for c in range(2, limit + 1):
            layer = [self.modal(unary, f) for f in out[c - 1]]
            for a in range(1, c - 1):
                for left in out[a]:
                    for right in out[c - 1 - a]:
                        for op in binaries:
                            layer.append(self.binary(op, left, right))
            out[c] = layer
        return out


def sequent_text(ants, succ: str) -> str:
    """A multiset sequent in proofmill syntax."""
    left = ", ".join(ants)
    return f"{left} |- {succ}" if left else f"|- {succ}"


def proof_node(seq_text: str, rule: str, premises=(), agent=None) -> dict:
    """One node of proofmill's proof JSON."""
    node = {"sequent": seq_text, "rule": rule}
    if agent is not None:
        node["agent"] = agent
    node["premises"] = list(premises)
    return node


# ---------------------------------------------------------------------------
# MILL forward-closure oracle


def _canon(ants) -> tuple:
    return tuple(sorted(ants))


class MillOracle:
    """Forward closure of MILL derivability up to a total-complexity
    bound, with the first derivation found for every sequent.

    Read bottom-up, every rule of the multiset calculus strictly shrinks
    total complexity, so a sequent inside the universe is derivable
    exactly when the closure reaches it.
    """

    def __init__(self, bound: int = 8, atoms=("p", "q")):
        self.bound = bound
        self.lang = Language()
        self.layers = self.lang.layers(bound, atoms)
        self.upto: list[list[str]] = [[]]
        acc: list[str] = []
        for c in range(1, bound + 1):
            acc = acc + self.layers[c]
            self.upto.append(list(acc))
        # sequent -> (rule, premise sequents)
        self.derivation: dict[tuple, tuple[str, tuple]] = {}
        self._build()

    def _build(self) -> None:
        bound = self.bound
        lang = self.lang
        size = lang.size
        tensor, with_, limp = lang.tensor, lang.with_, lang.limp
        known = self.derivation
        queue: deque = deque()
        by_total: list[list[tuple]] = [[] for _ in range(bound + 1)]
        by_ants: dict[tuple, list[tuple]] = {}
        singletons: set[tuple] = set()

        def total(s) -> int:
            return sum(size[f] for f in s[0]) + size[s[1]]

        def add(ants, succ, rule: str, premises=()) -> None:
            s = (_canon(ants), succ)
            if s not in known:
                known[s] = (rule, premises)
                queue.append(s)

        add((), ONE, "OneR")
        for f in self.upto[bound // 2]:
            add((f,), f, "Ax")

        while queue:
            s = queue.popleft()
            ants, succ = s
            t = total(s)
            budget = bound - t

            if budget >= 1:
                add(ants + (ONE,), succ, "OneL", (s,))
                for i, a in enumerate(ants):
                    rest = ants[:i] + ants[i + 1:]
                    add(rest, limp(a, succ), "LimpR", (s,))
                    for j, b in enumerate(rest):
                        rem = rest[:j] + rest[j + 1:]
                        add(rem + (tensor(a, b),), succ, "TensorL", (s,))
                    for b in self.upto[budget - 1]:
                        add(rest + (with_(a, b),), succ, "WithL1", (s,))
                        add(rest + (with_(b, a),), succ, "WithL2", (s,))

            by_total[t].append(s)
            by_ants.setdefault(ants, []).append(s)
            if len(ants) == 1:
                singletons.add((ants[0], succ))

            for ty in range(1, bound - t):
                for r in by_total[ty]:
                    for x, y in ((s, r), (r, s)):
                        xa, xs = x
                        ya, ysucc = y
                        add(xa + ya, tensor(xs, ysucc), "TensorR", (x, y))
                        for k, b in enumerate(ya):
                            if k and b == ya[k - 1]:
                                continue
                            add(xa + ya[:k] + ya[k + 1:] + (limp(xs, b),),
                                ysucc, "LimpL", (x, y))

            for r in by_ants[ants]:
                rsucc = r[1]
                if t + size[rsucc] + 1 <= bound:
                    add(ants, with_(succ, rsucc), "WithR", (s, r))
                    add(ants, with_(rsucc, succ), "WithR", (r, s))

            if len(ants) == 1 and (succ, ants[0]) in singletons:
                a, b = ants[0], succ
                if size[a] + size[b] + 2 <= bound:
                    back = ((b,), a)
                    add((lang.modal("box", a),), lang.modal("box", b),
                        "BoxRe", (s, back))
                    add((lang.modal("box", b),), lang.modal("box", a),
                        "BoxRe", (back, s))

    def provable(self, ants, succ) -> bool:
        return (_canon(ants), succ) in self.derivation

    def goals(self, max_antecedent: int = 2):
        """Every (antecedent, succedent) with at most ``max_antecedent``
        antecedent formulas and total complexity within the bound."""
        bound = self.bound
        for succ in self.upto[bound]:
            yield (), succ
        if max_antecedent < 1:
            return
        for a_c in range(1, bound):
            for a in self.layers[a_c]:
                for succ in self.upto[bound - a_c]:
                    yield (a,), succ
        if max_antecedent < 2:
            return
        for a_c in range(1, bound - 1):
            for b_c in range(a_c, bound - a_c):
                for a in self.layers[a_c]:
                    for b in self.layers[b_c]:
                        if b_c == a_c and b < a:
                            continue
                        for succ in self.upto[bound - a_c - b_c]:
                            yield (a, b), succ

    def proof(self, seq) -> dict:
        """The recorded derivation of a known sequent, as proof JSON."""
        rule, premises = self.derivation[seq]
        return proof_node(sequent_text(*seq), rule,
                          [self.proof(p) for p in premises])
