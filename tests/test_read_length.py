"""Reading a formula text takes work linear in its length: the halves
read (``syntax._from_halves``) tries a bounded number of separators
before the parser reads the text once."""
from __future__ import annotations

from proofmill import syntax
from proofmill.syntax import atom, limp, parse_formula, with_


class _CountingSeparators:
    """``_SEPARATOR_RE`` with a tally of the characters that the halves
    read slices off as left operands, one slice per match it takes."""

    def __init__(self, pattern):
        self.pattern, self.sliced = pattern, 0

    def finditer(self, text: str, pos: int, endpos: int):
        for m in self.pattern.finditer(text, pos, endpos):
            self.sliced += m.start() - 1
            yield m


def test_the_halves_read_slices_a_bounded_share_of_a_long_text(monkeypatch):
    # X0 = p -o p and X(k+1) = X(k) & X(k), each half written in brackets
    # of its own, so no text is a key: from X10 to X16 each rung doubles
    # the text, and the characters sliced may grow at most about as much
    counting = _CountingSeparators(syntax._SEPARATOR_RE)
    monkeypatch.setattr(syntax, "_SEPARATOR_RE", counting)
    x = limp(atom("p"), atom("p"))
    text, rungs = x.key, []
    for k in range(1, 17):
        x, text = with_(x, x), f"({text}) & ({text})"
        if k >= 10:
            counting.sliced = 0
            assert parse_formula(text) is x
            rungs.append((len(text), counting.sliced))
    assert len(rungs) == 7 and rungs[0][1] > 0
    for (n0, s0), (n1, s1) in zip(rungs, rungs[1:]):
        assert 1.9 * n0 < n1 < 2.1 * n0
        assert s1 <= 2.3 * s0, rungs
