"""Line-oriented sequent corpora and their macros.

A corpus file holds one entry per line:

    id | system | sequent | expected | source

Fields are separated by space-pipe-space; the turnstile ``|-`` inside
the sequent is never followed by a space-pipe pair, so it survives the
split.  Blank lines and ``#`` comments are skipped.  ``expected`` is
``provable`` or ``unprovable``; search decides in every system.

Two macros are expanded in the sequent text before parsing:

* ``pow<=(F, n)`` (also spelled ``pow≤``): the &-chain of the first n
  serial powers of F, where the k-th power replaces every atom in F by
  its k-fold ``@`` chain.  n is capped at 5; the expansion grows
  quadratically.
* ``bigwith[x](F)`` (also spelled ``⋀[x](F)``): the &-chain of F with
  the agent variable x instantiated to each declared agent in turn.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .context import Sequent, parse_sequent
from .search import Proved, SearchResult, prove
from .syntax import (
    System,
    atom,
    formula_atoms,
    odot,
    parse_formula,
    parse_system,
    print_formula,
    substitute,
    with_,
)

EXPECTED_VERDICTS = ("provable", "unprovable")

POW_CAP = 5

_FIELD_SEP = re.compile(r" \| ")
_MACRO_HEAD = re.compile(r"pow<=\(|pow≤\(|bigwith\[|⋀\[")


class CorpusError(ValueError):
    pass


@dataclass(frozen=True)
class CorpusEntry:
    entry_id: str
    system: System
    text: str        # sequent text after macro expansion
    raw_text: str    # sequent text as written
    expected: str
    source: str
    sequent: Sequent


@dataclass(frozen=True)
class EntryResult:
    entry: CorpusEntry
    outcome: SearchResult
    verdict: str
    passed: bool


# ---------------------------------------------------------------------------
# macros

def _matching_paren(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    raise CorpusError(f"unbalanced parentheses after position {open_idx}")


def _expand_pow(
    text: str, head: re.Match, system: System,
    outer_vars: tuple[str, ...] = (),
) -> str:
    open_idx = head.end() - 1
    close = _matching_paren(text, open_idx)
    arg = text[open_idx + 1:close]
    comma = arg.rfind(",")
    if comma < 0:
        raise CorpusError("pow macro wants a formula and an exponent")
    body, n_text = arg[:comma].strip(), arg[comma + 1:].strip()
    try:
        n = int(n_text)
    except ValueError:
        raise CorpusError(f"bad pow exponent {n_text!r}") from None
    if n < 1:
        raise CorpusError("pow exponent must be at least 1")
    if n > POW_CAP:
        raise CorpusError(f"pow exponent capped at {POW_CAP}, got {n}")
    scope = System(system.ident, system.agents + outer_vars) \
        if outer_vars else system
    base = parse_formula(body, scope)
    powers = {a: atom(a) for a in formula_atoms(base)}
    chain = base
    for _ in range(2, n + 1):
        # the next power replaces every atom by a one longer @ chain
        powers = {a: odot(g, atom(a)) for a, g in powers.items()}
        chain = with_(chain, substitute(base, powers))
    return text[:head.start()] + "(" + print_formula(chain) + ")" \
        + text[close + 1:]


def _expand_bigwith(
    text: str, head: re.Match, system: System,
    outer_vars: tuple[str, ...] = (),
) -> str:
    var_close = text.find("]", head.end())
    if var_close < 0:
        raise CorpusError("bigwith macro wants a [variable]")
    var = text[head.end():var_close].strip()
    if not var:
        raise CorpusError("bigwith macro wants a [variable]")
    if var in system.agents or var in outer_vars:
        raise CorpusError(
            f"bigwith variable {var!r} shadows a declared agent"
        )
    if not system.agents:
        raise CorpusError("bigwith macro needs declared agents")
    open_idx = var_close + 1
    if open_idx >= len(text) or text[open_idx] != "(":
        raise CorpusError("bigwith macro wants a parenthesised formula")
    close = _matching_paren(text, open_idx)
    body = text[open_idx + 1:close]
    extended = System(system.ident, system.agents + outer_vars + (var,))
    f = parse_formula(body, extended)
    parts = [substitute(f, {}, {var: a}) for a in system.agents]
    chain = parts[0]
    for p in parts[1:]:
        chain = with_(chain, p)
    return text[:head.start()] + "(" + print_formula(chain) + ")" \
        + text[close + 1:]


def _enclosing_vars(text: str, pos: int) -> tuple[str, ...]:
    """Variables of every bigwith whose body spans position ``pos``."""
    found: list[str] = []
    for m in re.finditer(r"bigwith\[|⋀\[", text):
        var_close = text.find("]", m.end())
        if var_close < 0 or var_close >= pos:
            continue
        open_idx = var_close + 1
        if open_idx >= len(text) or text[open_idx] != "(":
            continue
        try:
            close = _matching_paren(text, open_idx)
        except CorpusError:
            continue
        if open_idx < pos <= close:
            var = text[m.end():var_close].strip()
            if var and var not in found:
                found.append(var)
    return tuple(found)


def expand_macros(text: str, system: System) -> str:
    """Expand pow and bigwith macros, innermost first."""
    while True:
        heads = list(_MACRO_HEAD.finditer(text))
        if not heads:
            return text
        head = heads[-1]  # rightmost occurrence has no macros inside it
        outer = _enclosing_vars(text, head.start())
        if head.group().startswith("pow"):
            text = _expand_pow(text, head, system, outer)
        else:
            text = _expand_bigwith(text, head, system, outer)


# ---------------------------------------------------------------------------
# files


def parse_corpus_line(line: str, where: str = "corpus") -> CorpusEntry | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    fields = _FIELD_SEP.split(stripped)
    if len(fields) != 5:
        raise CorpusError(
            f"{where}: want 'id | system | sequent | expected | source', "
            f"got {len(fields)} fields"
        )
    entry_id, system_text, raw_text, expected, source = \
        (f.strip() for f in fields)
    try:
        system = parse_system(system_text)
    except ValueError as exc:
        raise CorpusError(f"{where}: {exc}") from None
    if expected not in EXPECTED_VERDICTS:
        raise CorpusError(
            f"{where}: expected verdict must be one of "
            f"{', '.join(EXPECTED_VERDICTS)}, got {expected!r}"
        )
    try:
        text = expand_macros(raw_text, system)
        sequent = parse_sequent(text, system)
    except ValueError as exc:
        raise CorpusError(f"{where}: {exc}") from None
    return CorpusEntry(entry_id, system, text, raw_text, expected, source,
                       sequent)


def load_corpus_file(path: str | Path) -> list[CorpusEntry]:
    path = Path(path)
    out: list[CorpusEntry] = []
    for i, line in enumerate(path.read_text().splitlines(), start=1):
        entry = parse_corpus_line(line, where=f"{path.name}:{i}")
        if entry is not None:
            out.append(entry)
    return out


def load_corpus_dir(path: str | Path) -> list[CorpusEntry]:
    path = Path(path)
    if not path.is_dir():
        raise CorpusError(f"{path} is not a directory")
    files = sorted(path.glob("*.corpus"))
    if not files:
        raise CorpusError(f"no .corpus files in {path}")
    out: list[CorpusEntry] = []
    for f in files:
        out.extend(load_corpus_file(f))
    if not out:
        raise CorpusError(f"no corpus entries in {path}")
    ids = [e.entry_id for e in out]
    dupes = {i for i in ids if ids.count(i) > 1}
    if dupes:
        raise CorpusError(f"duplicate corpus ids: {', '.join(sorted(dupes))}")
    return out


# ---------------------------------------------------------------------------
# running


def verdict_word(outcome: SearchResult, system: System) -> str:
    """``Exhausted`` rules out a cut-free proof, which in the agent
    systems does not rule out one with cut (docs/cut_elimination.md)."""
    if isinstance(outcome, Proved):
        return "Proved"
    return "Exhausted (no cut-free proof)" if system.agents else "Exhausted (unprovable)"


def outcome_matches(outcome: SearchResult, entry: CorpusEntry) -> bool:
    return isinstance(outcome, Proved) == (entry.expected == "provable")


def run_entry(entry: CorpusEntry) -> EntryResult:
    outcome = prove(entry.sequent)
    return EntryResult(
        entry=entry,
        outcome=outcome,
        verdict=verdict_word(outcome, entry.sequent.system),
        passed=outcome_matches(outcome, entry),
    )


def run_corpus(entries: list[CorpusEntry]) -> list[EntryResult]:
    return [run_entry(e) for e in entries]
