"""Formula grammar, printing, and system validation."""
from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from proofmill import context, syntax
from proofmill.syntax import (
    BOT,
    Atom,
    BinOp,
    Box,
    Brings,
    Limp,
    Lres,
    MAX_NESTING,
    MixedImplicationError,
    NestingTooDeepError,
    Odot,
    ParseError,
    Rres,
    System,
    SystemId,
    SystemMismatchError,
    Tensor,
    Unit,
    With,
    _INTERN,
    _Parser,
    _read_formula,
    atom,
    box,
    brings,
    complexity,
    connective_error,
    formula_agents,
    formula_atoms,
    limp,
    lres,
    neg,
    odot,
    operands,
    parse_formula,
    parse_system,
    print_formula,
    rres,
    subformulas,
    substitute,
    tensor,
    unit,
    validate_formula,
    with_,
)

MILL = parse_system("MILL")
PCMILL = parse_system("PCMILL")
RS = parse_system("RSBIAT:i,s")
SRS = parse_system("SRSBIAT:i,s")


# -- parsing ------------------------------------------------------------------


def test_precedence_layers():
    f = parse_formula("a * b & c -o d")
    assert isinstance(f, Limp)
    assert isinstance(f.left, With)
    assert isinstance(f.left.left, Tensor)


def test_limp_right_associative():
    f = parse_formula("a -o b -o c")
    assert f.key == "(a -o (b -o c))"


def test_lres_right_associative():
    f = parse_formula("a \\ b \\ c", SRS)
    assert f.key == "(a \\ (b \\ c))"


def test_rres_left_associative():
    f = parse_formula("a / b / c", SRS)
    assert f.key == "((a / b) / c)"


def test_mixed_implications_rejected():
    with pytest.raises(MixedImplicationError):
        parse_formula("a -o b \\ c", SRS)
    with pytest.raises(MixedImplicationError):
        parse_formula("a / b -o c", SRS)


def test_odot_binds_tighter_than_tensor():
    f = parse_formula("a * b @ c", PCMILL)
    assert isinstance(f, Tensor)
    assert isinstance(f.right, Odot)


def test_unary_sugar():
    f = parse_formula("~x")
    assert f == limp(atom("x"), BOT)
    assert parse_formula("~~x") == limp(limp(atom("x"), BOT), BOT)


def test_box_and_brings():
    assert isinstance(parse_formula("[]p", PCMILL), Box)
    g = parse_formula("E[i](p * q)", RS)
    assert isinstance(g, Brings) and g.agent == "i"
    with pytest.raises(SystemMismatchError):
        parse_formula("[]p", RS)
    with pytest.raises(SystemMismatchError):
        parse_formula("E[i]q", PCMILL)


def test_unit_token():
    assert parse_formula("1") is unit()
    f = parse_formula("1 -o a")
    assert isinstance(f.left, Unit)


def test_atom_charset():
    f = parse_formula("Run_2 * s0", MILL)
    assert f.key == "(Run_2 * s0)"


def test_interning_makes_equal_objects_identical():
    a = parse_formula("(p -o q) & p")
    b = with_(limp(atom("p"), atom("q")), atom("p"))
    assert a is b


def test_parse_error_excerpt():
    with pytest.raises(ParseError) as ei:
        parse_formula("a * * b")
    assert "<HERE>" in str(ei.value)


def test_unbalanced_parens():
    with pytest.raises(ParseError):
        parse_formula("(a * b")


def test_empty_input():
    with pytest.raises(ParseError):
        parse_formula("")


def test_nesting_is_bounded():
    from proofmill.context import parse_sequent

    assert parse_formula("(" * MAX_NESTING + "p" + ")" * MAX_NESTING) == atom("p")
    # each error points at the opener one level too deep
    too_deep = [
        ("(" * 300 + "p" + ")" * 300, "MILL", MAX_NESTING),
        ("[]" * 1000 + "p", "MILL", 2 * MAX_NESTING),
        ("E[a]" * 300 + "p", "RSBIAT:a", 4 * MAX_NESTING),
    ]
    for text, system, pos in too_deep:
        with pytest.raises(NestingTooDeepError) as ei:
            parse_formula(text, parse_system(system))
        assert ei.value.pos == pos
    with pytest.raises(NestingTooDeepError) as ei:
        parse_sequent("[" * 300 + "p" + "]" * 300 + " |- p", parse_system("PCMILL"))
    assert ei.value.pos == MAX_NESTING


_ATOM_EXPECTED = "expected an atom or '1' or '(' or a prefix operator, found"
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels"
_N = MAX_NESTING + 1

# (parser, system, text, outcome): a printed key, or (error class name,
# position, message); SystemMismatchError carries no position
_MALFORMED = [
    ("seq", "MILL", "p $ q |- p", ("LexError", 2, "unexpected character '$'")),
    # a stray character wins over an earlier syntax error, and over an
    # earlier item's connective outside the system
    ("seq", "MILL", "p * * q |- r -", ("LexError", 13, "unexpected character '-'")),
    ("seq", "MILL", "p @ q, r $ |- p", ("LexError", 9, "unexpected character '$'")),
    ("seq", "MILL", "p @ q |- r $", ("LexError", 11, "unexpected character '$'")),
    ("seq", "MILL", "p | q |- p", ("LexError", 2, "unexpected character '|'")),
    ("seq", "MILL", "", ("UnexpectedTokenError", 0, f"{_ATOM_EXPECTED} end of input")),
    ("formula", "MILL", "", ("UnexpectedTokenError", 0, f"{_ATOM_EXPECTED} end of input")),
    ("formula", "MILL", "a * * b", ("UnexpectedTokenError", 4, f"{_ATOM_EXPECTED} '*'")),
    ("formula", "MILL", "(a * b", ("UnexpectedTokenError", 6, "expected ')', found end of input")),
    ("formula", "MILL", "a * b)", ("UnexpectedTokenError", 5, "expected end of input, found ')'")),
    ("seq", "MILL", "(p |- p", ("UnexpectedTokenError", 3, "expected ')', found '|-'")),
    ("seq", "MILL", "p) |- p", ("UnexpectedTokenError", 1, "expected '|-' or ',', found ')'")),
    ("seq", "MILL", "p q |- p", ("UnexpectedTokenError", 2, "expected '|-' or ',', found 'q'")),
    ("seq", "RSBIAT:a", "E[a] |- p", ("UnexpectedTokenError", 5, f"{_ATOM_EXPECTED} '|-'")),
    ("seq", "RSBIAT:a", "E[] p |- p", ("UnexpectedTokenError", 2, "expected 'NAME', found ']'")),
    ("seq", "RSBIAT:a", "E[a p |- p", ("UnexpectedTokenError", 4, "expected ']', found 'p'")),
    ("seq", "MILL", "[p |- p", ("UnexpectedTokenError", 1, "expected ']', found 'p'")),
    ("seq", "MILL", "p |- p q", ("UnexpectedTokenError", 7, "expected end of input, found 'q'")),
    ("formula", "PCMILL", "a -o b \\ c",
     ("MixedImplicationError", 7, "cannot mix '-o' and '\\\\' without parentheses")),
    ("formula", "PCMILL", "a / b -o c",
     ("MixedImplicationError", 6, "cannot mix '/' and '-o' without parentheses")),
    ("seq", "PCMILL", "p, q ; r |- p",
     ("MixedSeparatorError", 5, "cannot mix ',' and ';' at one level, bracket the groups")),
    ("seq", "MILL", "p ; q |- p", ("UnexpectedTokenError", 2, "expected ',', found ';'")),
    # one level too deep, for each opener: the error names that opener
    ("formula", "MILL", "(" * _N + "p" + ")" * _N, ("NestingTooDeepError", 100, _TOO_DEEP)),
    ("formula", "MILL", "[]" * _N + "p", ("NestingTooDeepError", 200, _TOO_DEEP)),
    ("formula", "RSBIAT:a", "E[a]" * _N + "p", ("NestingTooDeepError", 400, _TOO_DEEP)),
    ("formula", "MILL", "~" * _N + "p", ("NestingTooDeepError", 100, _TOO_DEEP)),
    ("seq", "PCMILL", "[" * _N + "p" + "]" * _N + " |- p", ("NestingTooDeepError", 100, _TOO_DEEP)),
    ("seq", "PCMILL", "[" * 50 + "(" * 51 + "p" + ")" * 51 + "]" * 50 + " |- p",
     ("NestingTooDeepError", 100, _TOO_DEEP)),
    # the first connective outside the system in preorder, not in the
    # order the parser builds them
    ("seq", "MILL", "(p @ q) * r \\ s |- p",
     ("SystemMismatchError", None, "\\ not available in MILL: (((p @ q) * r) \\ s)")),
    # an item's mismatch wins over a syntax error in a later item, but
    # not over one in the same item or formula
    ("seq", "MILL", "p @ q, r * |- p",
     ("SystemMismatchError", None, "@ not available in MILL: (p @ q)")),
    ("seq", "MILL", "p @ q * |- p", ("UnexpectedTokenError", 8, f"{_ATOM_EXPECTED} '|-'")),
    ("formula", "RSBIAT:a", "E[b]p q", ("UnexpectedTokenError", 6, "expected end of input, found 'q'")),
    ("seq", "RSBIAT:a", "E[b]p |- p",
     ("SystemMismatchError", None, "agent 'b' not in alphabet ['a']: E[b](p)")),
    # a separator needs an item after it
    ("seq", "MILL", "p, |- q", ("UnexpectedTokenError", 3, f"{_ATOM_EXPECTED} '|-'")),
    ("seq", "PCMILL", "p ; |- q", ("UnexpectedTokenError", 4, f"{_ATOM_EXPECTED} '|-'")),
    ("seq", "PCMILL", "[p,] |- q", ("UnexpectedTokenError", 3, f"{_ATOM_EXPECTED} ']'")),
]


@pytest.mark.parametrize("kind, system, text, outcome", _MALFORMED,
                         ids=[f"{r[1]}:{r[2][:24]}" for r in _MALFORMED])
def test_malformed_input(kind, system, text, outcome):
    from proofmill.context import parse_sequent

    parse = parse_sequent if kind == "seq" else parse_formula
    if isinstance(outcome, str):
        assert parse(text, parse_system(system)).key == outcome
        return
    name, pos, message = outcome
    with pytest.raises(ValueError) as ei:
        parse(text, parse_system(system))
    err = ei.value
    assert type(err).__name__ == name
    if isinstance(err, ParseError):
        assert (err.pos, err.bare_message) == (pos, message)
    else:
        assert (pos, str(err)) == (None, message)


_SOUP_TOKENS = st.sampled_from([
    "p", "q", "i", "s", "E", "bot", "x1", "1", "(", ")", "[", "]", "[]", "E[i]", "E[s]",
    "*", "&", "@", "~", "\\", "/", ",", ";", "-o", "|-", "()", "$", "-", "|",
])
# runs of one opener around MAX_NESTING, so the depth bound is reached
_SOUP_RUNS = st.builds(lambda t, n: t * n, st.sampled_from(["(", "[", "~", "[]", "E[i]"]),
                       st.integers(MAX_NESTING - 5, MAX_NESTING + 5))
# operands under a prefix or in brackets (now and then unbalanced),
# joined by connectives or separators: texts that parse far more often
# than a free mix of tokens
_SOUP_OPERAND = st.builds(
    lambda wrap, name: wrap[0] + name + wrap[1],
    st.sampled_from([("", "")] * 4 + [("(", ")"), ("[", "]"), ("~", ""), ("[]", ""),
                     ("E[i]", ""), ("E[s]", ""), ("E[t]", ""), ("(", ""), ("", ")")]),
    st.sampled_from(["p", "q", "bot", "x1", "1", "E", "()"]),
)


def _soup_side(joiners):
    return st.builds(
        lambda first, rest: first + "".join(f" {op} {x}" for op, x in rest),
        _SOUP_OPERAND, st.lists(st.tuples(st.sampled_from(joiners), _SOUP_OPERAND), max_size=4))


_SOUP = st.one_of(
    st.lists(st.tuples(st.one_of(_SOUP_TOKENS, _SOUP_RUNS), st.sampled_from(["", " "])),
             max_size=30).map(lambda parts: "".join(t + sp for t, sp in parts)),
    st.builds("{} |- {}".format,
              st.one_of(st.just(""), _soup_side(["*", "&", "@", "-o", ",", ";", ","])),
              _soup_side(["*", "&", "@", "-o", "\\", "/"])),
)


@pytest.mark.parametrize("system", [MILL, PCMILL, RS, SRS], ids=str)
@settings(max_examples=300, deadline=None)
@given(text=_SOUP)
def test_token_soup_parses_back_or_fails_cleanly(system, text):
    from proofmill.context import parse_sequent, print_sequent

    try:
        s = parse_sequent(text, system)
    except ParseError as err:
        assert 0 <= err.pos <= len(text)
        return
    except SystemMismatchError:
        return
    again = parse_sequent(print_sequent(s), system)
    assert again.ctx is s.ctx and again.succ is s.succ


# -- systems ------------------------------------------------------------------


def test_parse_system_agents():
    s = parse_system("SRSBIAT:a,b,c")
    assert s.ident is SystemId.SRSBIAT
    assert s.agents == ("a", "b", "c")
    assert str(s) == "SRSBIAT:a,b,c"


def test_parse_system_rejects_garbage():
    with pytest.raises(ValueError):
        parse_system("KM4")


def test_a_system_hashes_as_its_ident_and_agents_wherever_it_loads():
    # the hash and the language mask are worked out once per System; a
    # pickle carries neither, so a process with another hash seed hashes
    # the loaded system as it hashes its own
    check = ("import pickle, sys; from proofmill.syntax import _OUTSIDE, parse_system; "
             "s = pickle.loads(sys.stdin.buffer.read()); t = parse_system(str(s)); "
             "assert hash(s) == hash(t) == hash((t.ident, t.agents)) and s == t; "
             "assert s.outside == _OUTSIDE[s.ident]")
    src = str(Path(__file__).resolve().parent.parent / "src")
    for system in (MILL, PCMILL, RS, SRS):
        assert hash(system) == hash((system.ident, system.agents))
        for seed in ("1", "2"):
            subprocess.run([sys.executable, "-c", check], input=pickle.dumps(system), check=True,
                           env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src))


def test_validate_box_only_in_box_systems():
    f = parse_formula("[]p")
    validate_formula(f, MILL)
    validate_formula(f, PCMILL)
    with pytest.raises(SystemMismatchError):
        validate_formula(f, RS)


def test_validate_brings_agent_alphabet():
    f = brings("i", atom("p"))
    validate_formula(f, RS)
    with pytest.raises(SystemMismatchError):
        validate_formula(brings("z", atom("p")), RS)
    with pytest.raises(SystemMismatchError):
        validate_formula(f, MILL)


def test_validate_serial_connectives():
    f = parse_formula("p @ q", PCMILL)
    validate_formula(f, PCMILL)
    with pytest.raises(SystemMismatchError):
        validate_formula(f, MILL)


def test_parse_formula_with_system_validates():
    with pytest.raises(SystemMismatchError):
        parse_formula("p @ q", MILL)


_WHOLE_LANGUAGE = st.recursive(
    st.sampled_from([atom("p"), atom("q"), BOT, unit()]),
    lambda kids: st.one_of(
        *[st.builds(op, kids, kids) for op in (tensor, with_, limp, odot, lres, rres)],
        st.builds(box, kids),
        st.builds(brings, st.sampled_from(["a", "b"]), kids),
    ),
    max_leaves=12,
)


def _preorder(f):
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack += reversed(operands(g))


@settings(max_examples=300)
@given(_WHOLE_LANGUAGE)
def test_language_membership_is_read_off_uses_and_agents(f):
    subs = subformulas(f)
    uses = 0
    for g in subs:
        uses |= g.bit
    assert f.uses == uses
    assert f.agents == {g.agent for g in subs if isinstance(g, Brings)}
    for system in (MILL, PCMILL, parse_system("RSBIAT:a"), parse_system("SRSBIAT:a,b")):
        # the first connective outside the language, in preorder
        errors = [err for g in _preorder(f) if (err := connective_error(g, system))]
        if errors:
            with pytest.raises(SystemMismatchError) as exc:
                validate_formula(f, system)
            assert str(exc.value) == errors[0]
        else:
            validate_formula(f, system)


# -- structure ----------------------------------------------------------------


def test_complexity():
    assert complexity(atom("p")) == 1
    assert complexity(unit()) == 1
    assert complexity(parse_formula("p * q")) == 3
    assert complexity(parse_formula("[](p -o 1)")) == 4
    assert complexity(parse_formula("E[i](p & q)", RS)) == 4


def test_subformulas():
    f = parse_formula("(p * q) -o p")
    names = {g.key for g in subformulas(f)}
    assert names == {"((p * q) -o p)", "(p * q)", "p", "q"}


def test_atoms_and_agents():
    f = parse_formula("E[i](p * q) -o E[s]r", RS)
    assert formula_atoms(f) == {"p", "q", "r"}
    assert formula_agents(f) == {"i", "s"}


def test_neg_is_limp_to_bot():
    assert neg(atom("a")) == parse_formula("~a")
    assert neg(atom("a")).key == "(a -o bot)"


# -- round trip ---------------------------------------------------------------

_ATOMS = st.sampled_from(["p", "q", "r", "bot", "x1"])


def _formulas(system: System):
    leaves = [st.builds(atom, _ATOMS), st.just(unit())]
    binops = [tensor, with_, limp]
    unaries = []
    if system.is_tree:
        binops += [odot, lres, rres]
    if system.has_box:
        unaries.append(box)
    for agent in system.agents:
        unaries.append(lambda b, a=agent: brings(a, b))
    return st.recursive(
        st.one_of(*leaves),
        lambda kids: st.one_of(
            *[st.builds(op, kids, kids) for op in binops],
            *[st.builds(u, kids) for u in unaries],
        ),
        max_leaves=12,
    )


@pytest.mark.parametrize("system", [MILL, PCMILL, RS, SRS], ids=str)
@given(data=st.data())
def test_print_parse_round_trip(system, data):
    f = data.draw(_formulas(system))
    assert parse_formula(print_formula(f), system) is f


_ALL_CONNECTIVES = st.recursive(
    st.one_of(st.builds(atom, _ATOMS), st.just(unit())),
    lambda kids: st.one_of(
        *[st.builds(op, kids, kids) for op in (tensor, with_, limp, odot, lres, rres)],
        st.builds(box, kids),
        st.builds(lambda b: brings("i", b), kids),
    ),
    max_leaves=12,
)


def _paren_pairs(text: str):
    opened = []
    for j, ch in enumerate(text):
        if ch == "(":
            opened.append(j)
        elif ch == ")":
            yield opened.pop(), j


@given(_ALL_CONNECTIVES)
def test_print_is_minimal_and_parses_back(f):
    text = print_formula(f)
    assert parse_formula(text) is f
    # without any one pair of its parentheses the text reads otherwise
    for i, j in _paren_pairs(text):
        shorter = text[:i] + text[i + 1 : j] + text[j + 1 :]
        try:
            assert parse_formula(shorter) is not f, (text, shorter)
        except ParseError:
            pass


def test_print_leaves_long_chains_unbracketed():
    for op in ("-o", "&", "*", "@", "\\", "/"):
        text = f" {op} ".join(["p"] * 1500)
        f = parse_formula(text)
        assert print_formula(f) == text
    assert print_formula(parse_formula("(a -o b) -o c")) == "(a -o b) -o c"
    assert print_formula(parse_formula("a / (b / c)")) == "a / (b / c)"
    assert print_formula(parse_formula("[](a * b) & E[i]([]c -o d)")) == "[](a * b) & E[i]([]c -o d)"


# -- the intern table as the parse memo ----------------------------------------


def parsed(text, system=None):
    """``text`` as the parser reads it, with no look-up in ``_INTERN``."""
    p = _Parser(text)
    f = p.formula()
    p.end()
    if system is not None:
        validate_formula(f, system)
    return f


def result_of(read, text, system):
    """What ``read`` makes of ``text``: its result, or its error's class,
    message and position."""
    try:
        return read(text, system)
    except ValueError as err:
        return type(err), str(err), getattr(err, "pos", None)


# padding, with two spaces that str.strip and the lexer's \s both skip
SPACES = st.text(st.sampled_from(" \t\n\u00a0\x1c"), max_size=3)
_FRESH = itertools.count()


def fresh_atoms(text: str) -> str:
    """``text`` with the atoms p, q, r and x1 renamed to names not used
    before, so that the formulas it holds are not yet interned."""
    n = next(_FRESH)
    return re.sub(r"\b(p|q|r|x1)\b", rf"\1_{n}", text)


def test_spaces_are_whitespace_to_the_lexer_and_to_strip():
    for ch in " \t\n\u00a0\x1c":
        assert re.fullmatch(r"\s", ch) and not ch.strip()


@settings(max_examples=200, deadline=None)
@given(_ALL_CONNECTIVES, st.booleans(), SPACES, SPACES)
def test_parse_formula_reads_what_the_parser_reads(f, keyed, before, after):
    printed = f.key if keyed else print_formula(f)
    text = before + fresh_atoms(printed) + after
    # the copy of f over fresh atoms, if f has any, is not interned yet
    assert text.strip() == printed or text.strip() not in _INTERN
    for _ in range(2):  # before the formula is interned, then after
        for system in (None, MILL, PCMILL, RS, SRS):
            assert result_of(parse_formula, text, system) == result_of(parsed, text, system)
    got = parse_formula(text)
    assert parse_formula(got.key) is got


@pytest.mark.parametrize("system, text", [(r[1], r[2]) for r in _MALFORMED if r[0] == "formula"])
def test_malformed_formulas_fail_as_the_parser_fails(system, text):
    got = result_of(parse_formula, text, parse_system(system))
    assert got == result_of(parsed, text, parse_system(system))
    assert isinstance(got, tuple)


def test_a_key_too_deep_to_parse_is_refused_though_interned():
    # builders nest as deep as they like; of the keys, the parser reads
    # those within MAX_NESTING levels: two per [] and its bracket
    tower = atom("p")
    for depth in range(1, 61):
        tower = box(tower)
        assert _INTERN[tower.key] is tower
        if depth <= MAX_NESTING // 2:
            assert parse_formula(tower.key, MILL) is tower
    with pytest.raises(NestingTooDeepError):
        parse_formula(tower.key, MILL)
    assert result_of(parse_formula, tower.key, MILL) == result_of(parsed, tower.key, MILL)


# -- a key read from its interned halves ----------------------------------------


@contextlib.contextmanager
def counted_parsers():
    """The texts that a ``_Parser`` is built for while the block runs."""
    made = []

    class Counted(_Parser):
        __slots__ = ()

        def __init__(self, text):
            made.append(text)
            super().__init__(text)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syntax, "_Parser", Counted)
        mp.setattr(context, "_Parser", Counted)
        yield made


COMPOUND = _ALL_CONNECTIVES.filter(operands)


def over_interned_halves(f):
    """The key of a copy of the compound formula ``f`` over fresh atoms,
    whose operands are interned and which is not."""
    n = next(_FRESH)
    fresh = {a: atom(f"{a}_{n}") for a in formula_atoms(f)}
    kids = [substitute(k, fresh) for k in operands(f)]
    if isinstance(f, BinOp):
        key = f"({kids[0].key} {f.op} {kids[1].key})"
    else:
        key = ("[]" if isinstance(f, Box) else f"E[{f.agent}]") + f"({kids[0].key})"
    assume(key not in _INTERN)  # f over the unit alone has no fresh copy
    return key


@pytest.mark.parametrize("read", [_read_formula, parse_formula])
@settings(max_examples=150, deadline=None)
@given(COMPOUND, SPACES, SPACES)
def test_a_key_over_interned_halves_is_built_not_parsed(read, f, before, after):
    key = over_interned_halves(f)
    with counted_parsers() as made:
        got = read(before + key + after)
    assert made == []
    assert got.key == key and parsed(key) is got


def one_edit(key, data, stray="$x()[]-*"):
    """``key`` with one space or ``stray`` character put in, or one
    bracket dropped, as ``data`` draws."""
    edit = data.draw(st.sampled_from(["space", "bracket", "stray"]))
    if edit == "bracket":
        i = data.draw(st.sampled_from([i for i, ch in enumerate(key) if ch in "()[]"]))
        return key[:i] + key[i + 1:]
    i = data.draw(st.integers(1, len(key) - 1))
    return key[:i] + (" " if edit == "space" else data.draw(st.sampled_from(stray))) + key[i:]


@settings(max_examples=200, deadline=None)
@given(COMPOUND, st.data())
def test_a_text_one_edit_from_such_a_key_reads_as_the_parser_reads_it(f, data):
    text = one_edit(over_interned_halves(f), data)
    for system in (None, MILL, RS):  # before the parser interns it, then after
        assert result_of(parse_formula, text, system) == result_of(parsed, text, system)


@pytest.mark.parametrize("text", [
    "E[i s](p)", "E[](p)", "E[i](p", "E[i]p)", "E[i]((p)", "E[i] (p)", "[(p)", "[] (p)",
    "[]](p)", "( p * q)", "(p  * q)", "(p *q)", "(p * q))", "((p * q)", "(p $ q)",
    "(p -o q -o p)", "(p -o q \\ p)", "(p * (q)", "(1 / 1)",
])
def test_a_text_one_edit_from_a_key_reads_as_the_parser_reads_it(text):
    for system in (None, MILL, PCMILL, RS):
        assert result_of(parse_formula, text, system) == result_of(parsed, text, system)


def test_a_key_past_the_bound_is_parsed_not_built_from_its_halves():
    def halves(boxes, op):
        """A key over interned halves: ``boxes`` boxes over a fresh atom,
        then a box over that, or that ``op`` the atom."""
        p = body = atom(f"p_{next(_FRESH)}")
        for _ in range(boxes):
            body = box(body)
        return f"[]({body.key})" if op is None else f"({body.key} {op} {p.key})"

    half = MAX_NESTING // 2
    # within MAX_NESTING // 2 connectives: built from its halves
    for key in (halves(half - 2, None), halves(half - 3, "*")):
        with counted_parsers() as made:
            got = parse_formula(key)
        assert made == [] and got.size == half and got.key == key
    # one past it: parsed, and the parser reads it
    for key in (halves(half - 1, None), halves(half - 2, "-o")):
        with counted_parsers() as made:
            got = parse_formula(key)
        assert made == [key] and got.size == half + 1 and got.key == key
    # past the nesting limit: refused, and nothing new is interned
    for key in (halves(half, None), halves(half, "&")):
        before = len(_INTERN)
        with counted_parsers() as made, pytest.raises(NestingTooDeepError):
            parse_formula(key)
        assert made == [key] and len(_INTERN) == before
