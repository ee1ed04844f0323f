"""Antecedent structure: multisets as flat trees, trees, splits, entropy
preimages."""
from __future__ import annotations

import re

import pytest
from hypothesis import given, settings, strategies as st

from proofmill import context, syntax
from proofmill.context import (
    DEFAULT_STRUCTURAL_BOUND,
    EMPTY,
    Leaf,
    MixedSeparatorError,
    Par,
    Sequent,
    Ser,
    context_charge,
    context_complexity,
    context_formulas,
    fill,
    leaf,
    mset,
    normalize,
    par,
    parse_sequent,
    positions,
    print_sequent,
    sequent,
    ser,
    split_parallel,
    split_serial,
    structural_preimages,
    to_formula,
    total_complexity,
    validate_sequent,
)
from proofmill.syntax import (
    NestingTooDeepError,
    _Parser,
    atom,
    box,
    odot,
    parse_formula,
    parse_system,
    tensor,
    unit,
    validate_formula,
)

from gentrees import trees
from test_syntax import _MALFORMED, SPACES, fresh_atoms, result_of

MILL = parse_system("MILL")
PCMILL = parse_system("PCMILL")
SRS = parse_system("SRSBIAT:i,s")

p, q, r = atom("p"), atom("q"), atom("r")


# -- multisets ----------------------------------------------------------------


def test_mset_is_order_insensitive():
    assert mset([p, q]) == mset([q, p])
    assert mset([p, q]).key == "p, q"


def test_mset_keeps_duplicates():
    assert context_formulas(mset([p, p])) == [p, p]
    assert mset([p, p]) != mset([p])


def test_mset_is_a_flat_par():
    assert mset([q, p]) is par([leaf(p), leaf(q)])
    assert mset([p]) is leaf(p)
    assert mset([]) is EMPTY


# -- trees --------------------------------------------------------------------


def test_par_flattens_and_sorts():
    t = par([leaf(q), par([leaf(p), EMPTY])])
    assert isinstance(t, Par)
    assert t.key == "p, q"
    assert par([leaf(p)]) is leaf(p)
    assert par([]) is EMPTY


def test_ser_flattens_in_order():
    t = ser([leaf(q), ser([leaf(p), leaf(r)])])
    assert isinstance(t, Ser)
    assert t.key == "q ; p ; r"
    assert ser([EMPTY, leaf(p)]) is leaf(p)


def test_brackets_around_mixed_nesting():
    t = par([ser([leaf(p), leaf(q)]), leaf(r)])
    assert t.key == "[p ; q], r"
    u = ser([par([leaf(p), leaf(q)]), leaf(r)])
    assert u.key == "[p, q] ; r"


def test_normalize_idempotent():
    t = ser([par([leaf(p), par([leaf(q), EMPTY])]), leaf(r)])
    assert normalize(t) is t


def test_to_formula():
    assert to_formula(mset([p, q])) == tensor(p, q)
    assert to_formula(mset([])) is unit()
    assert to_formula(EMPTY) is unit()
    assert to_formula(ser([leaf(p), leaf(q)])) == odot(p, q)


def test_positions_and_fill_tree():
    t = ser([leaf(p), par([leaf(q), leaf(r)])])
    paths = {pt: n for pt, n in positions(t)}
    assert paths[()] is t
    assert paths[(0,)] == leaf(p)
    got = fill(t, (1,), leaf(q))
    assert got.key == "p ; q"


def test_fill_mset_splices():
    ms = mset([p, q])
    out = fill(ms, (0,), mset([r, r]))
    assert out == mset([q, r, r])


# -- splits -------------------------------------------------------------------


def test_split_parallel_mset():
    pairs = {(a.key, b.key) for a, b in split_parallel(mset([p, q]))}
    assert pairs == {("()", "p, q"), ("p", "q"), ("q", "p"), ("p, q", "()")}


def test_split_parallel_par_tree():
    t = par([leaf(p), leaf(q)])
    pairs = {(a.key, b.key) for a, b in split_parallel(t)}
    assert pairs == {("()", "p, q"), ("p", "q"), ("q", "p"), ("p, q", "()")}


def test_split_parallel_non_par_is_trivial():
    t = ser([leaf(p), leaf(q)])
    pairs = [(a.key, b.key) for a, b in split_parallel(t)]
    assert pairs == [("()", "p ; q"), ("p ; q", "()")]


def test_split_serial_cuts():
    t = ser([leaf(p), leaf(q), leaf(r)])
    pairs = [(a.key, b.key) for a, b in split_serial(t)]
    assert pairs == [
        ("()", "p ; q ; r"),
        ("p", "q ; r"),
        ("p ; q", "r"),
        ("p ; q ; r", "()"),
    ]


def test_split_serial_par_puts_children_on_either_side():
    t = par([leaf(p), leaf(q), leaf(r)])
    pairs = {(a.key, b.key) for a, b in split_serial(t)}
    assert pairs == {
        ("()", "p, q, r"), ("p", "q, r"), ("q", "p, r"), ("r", "p, q"),
        ("p, q", "r"), ("p, r", "q"), ("q, r", "p"), ("p, q, r", "()"),
    }


def test_split_serial_par_cuts_a_serial_child():
    # p ; q stays one block under entropy, but it may be cut with r
    # placed before its first part or after its second
    t = par([ser([leaf(p), leaf(q)]), leaf(r)])
    pairs = [(a.key, b.key) for a, b in split_serial(t)]
    assert pairs == [
        ("()", "[p ; q], r"),
        ("p ; q", "r"),
        ("r", "p ; q"),
        ("[p ; q], r", "()"),
        ("p", "q ; r"),
        ("r ; p", "q"),
    ]
    assert ("p, r", "q") not in pairs


# -- entropy preimages ----------------------------------------------------------


def test_preimages_of_par_pair():
    t = par([leaf(p), leaf(q)])
    pres, overflow = structural_preimages(t)
    assert not overflow
    assert [c.key for c in pres] == ["p, q", "p ; q", "q ; p"]


def test_preimages_of_ser_are_trivial():
    t = ser([leaf(p), leaf(q)])
    pres, overflow = structural_preimages(t)
    assert not overflow
    assert pres == [t]


def test_preimages_start_with_input_and_close_recursively():
    t = par([leaf(p), leaf(q), leaf(r)])
    pres, overflow = structural_preimages(t)
    assert pres[0] is t
    keys = {c.key for c in pres}
    # total serializations of three items: 1 par + 3*2 pair groupings
    # + 6 full chains + partial groupings
    assert "p ; q ; r" in keys
    assert "[p, q] ; r" in keys
    assert "r ; [p, q]" in keys
    assert not overflow
    # every preimage keeps the same leaf multiset
    base = sorted(f.key for f in context_formulas(t))
    for c in pres:
        assert sorted(f.key for f in context_formulas(c)) == base


def test_preimage_overflow_flag():
    big = par([leaf(atom(f"a{i}")) for i in range(7)])
    pres, overflow = structural_preimages(big, 64)
    assert overflow
    assert len(pres) <= 64


# -- sequents -------------------------------------------------------------------


def test_sequent_keys():
    s = parse_sequent("p, q |- p * q", MILL)
    assert s.key == "p, q |- (p * q)"
    assert print_sequent(s) == "p, q |- p * q"
    assert total_complexity(s) == 5
    s2 = parse_sequent("|- 1", MILL)
    assert s2.key == "|- 1"


def test_sequent_system_part_of_identity():
    a = parse_sequent("p |- p", MILL)
    b = parse_sequent("p |- p", parse_system("PCMILL"))
    assert a != b


def test_multiset_systems_refuse_serial_antecedents():
    from proofmill.syntax import ParseError

    rs = parse_system("RSBIAT:i")
    for system in (MILL, rs):
        with pytest.raises(ValueError):
            sequent(ser([leaf(p), leaf(q)]), p, system)
        with pytest.raises(ValueError):
            sequent(par([ser([leaf(p), leaf(q)]), leaf(r)]), p, system)
        for text in ("p ; q |- p", "[p ; q], r |- p", "r, [p ; q] |- p"):
            with pytest.raises(ParseError):
                parse_sequent(text, system)
    assert sequent(ser([leaf(p), leaf(q)]), p, PCMILL).key == "p ; q |- p"


def test_parse_tree_sequent():
    s = parse_sequent("S ; E[i]F ; E[s](S @ F \\ T) |- T", SRS)
    assert s.key == "S ; E[i](F) ; E[s](((S @ F) \\ T)) |- T"
    t = parse_sequent(s.key, SRS)
    assert t == s


def test_parse_groups_and_boxes():
    s = parse_sequent("[ [](p) ; q ] |- 1", PCMILL)
    assert isinstance(s.ctx, Ser)
    s2 = parse_sequent("[]p, q |- 1", PCMILL)
    assert isinstance(s2.ctx, Par)
    assert s2.ctx.key == "[](p), q"


def test_parse_empty_antecedents():
    assert parse_sequent("|- p", MILL).ctx == mset([])
    assert parse_sequent("() |- p", PCMILL).ctx is EMPTY


def test_mixed_separators_rejected():
    with pytest.raises(MixedSeparatorError):
        parse_sequent("p, q ; r |- p", SRS)


def test_semicolon_rejected_in_multiset_systems():
    from proofmill.syntax import ParseError

    with pytest.raises(ParseError):
        parse_sequent("p ; q |- p", MILL)


def test_sequent_round_trip_property():
    texts = [
        "p, q, p -o q |- q * q",
        "[p ; q], r |- (p @ q) * r",
        "() |- 1",
        "[p, q] ; r |- (p * q) @ r",
    ]
    for t in texts:
        s = parse_sequent(t, SRS if ";" in t or "@" in t or "()" in t else MILL)
        assert parse_sequent(s.key, s.system) == s


# -- context properties -----------------------------------------------------------

@given(trees())
def test_normalize_idempotent_property(t):
    assert normalize(t) is t


@given(trees())
def test_preimages_preserve_leaves_property(t):
    pres, overflow = structural_preimages(t, 512)
    base = sorted(f.key for f in context_formulas(t))
    assert pres[0] is t
    for c in pres:
        assert sorted(f.key for f in context_formulas(c)) == base
    assert len(set(pres)) == len(pres)


@given(trees())
def test_split_parallel_reassembles_property(t):
    for a, b in split_parallel(t):
        assert par([a, b]) == t or (a is EMPTY and b == t) or (b is EMPTY and a == t)


def _every_mask_split(t):
    """Each split of ``t`` by every mask over its children, the first
    of equal pairs kept: what ``split_parallel`` lists."""
    if not isinstance(t, Par):
        return split_parallel(t)
    kids, n = t.children, len(t.children)
    return list(dict.fromkeys(
        (par([kids[i] for i in range(n) if m >> i & 1]),
         par([kids[i] for i in range(n) if not m >> i & 1]))
        for m in range(1 << n)))


# some leaves repeat and one has no charge (its conjuncts' differ)
_CHARGED_TREES = trees(st.sampled_from(
    [atom("p"), atom("q"), parse_formula("p -o q"), parse_formula("p & q")]).map(leaf),
    max_leaves=7)


@given(_CHARGED_TREES, st.data())
def test_splits_are_listed_once_and_refuted_by_charge(t, data):
    every = _every_mask_split(t)
    assert split_parallel(t) == every
    # a wanted charge, often one that some left part has
    left = data.draw(st.sampled_from([a for a, _ in every]))
    want = data.draw(st.sampled_from([context_charge(left) or 0, 0, atom("q").charge]))
    for split, pairs in ((split_parallel, every), (split_serial, split_serial(t))):
        assert split(t, want) == [
            pair if context_charge(pair[0]) in (None, want) else None for pair in pairs]


def test_split_parallel_refutes_unbuilt():
    t = parse_sequent("p, p, q, p & s |- p", MILL).ctx
    got = split_parallel(t, atom("p").charge)
    # one split per canonical mask: 3 counts of p, 2 of q, 2 of p & s;
    # a left part holding p & s has a value set, so it is built and
    # kept only alone, the one such part whose values hold p's
    assert len(got) == 12
    assert [(a.key, b.key) for a, b in filter(None, got)] == [
        ("(p & s)", "p, p, q"), ("p", "(p & s), p, q")]
    # of the eight splits of fresh atoms, only u0 | u1, u2 balances u0:
    # its right part is the one context built
    t = parse_sequent("u0, u1, u2 |- u0", MILL).ctx
    tables = (context._LEAVES, context._PARS, context._SERS)
    before = sum(map(len, tables))
    assert split_parallel(t, atom("u0").charge).count(None) == 7
    assert sum(map(len, tables)) == before + 1


@given(trees())
def test_context_complexity_matches_formulas(t):
    assert context_complexity(t) == sum(f.size for f in context_formulas(t))


_LEAF_FORMULAS = st.sampled_from(
    ["p", "1", "p -o q", "p @ q", "[]p", "[](p * q)", "(p & q) \\ r", "p * q -o r"]
).map(lambda t: leaf(parse_formula(t, PCMILL)))


@given(trees(_LEAF_FORMULAS), st.sampled_from(["p", "p @ q -o r", "[]p"]))
def test_printed_sequent_parses_back(t, succ):
    s = Sequent(t, parse_formula(succ, PCMILL), PCMILL)
    assert parse_sequent(print_sequent(s), PCMILL) == s


# -- hash-consing ------------------------------------------------------------------


@given(trees())
def test_one_shape_is_one_object(t):
    # par, ser, normalize and the parser all return the interned node
    assert normalize(t) is t
    assert parse_sequent(print_sequent(Sequent(t, p, PCMILL)), PCMILL).ctx is t
    if isinstance(t, Par):
        assert par(t.children[::-1]) is t
        assert normalize(Par(t.children[::-1])) is t
    elif isinstance(t, Ser):
        assert ser([ser(t.children[:1]), EMPTY, ser(t.children[1:])]) is t


_SEQUENTS = st.builds(
    Sequent,
    st.one_of(trees(), st.just(EMPTY)),
    st.sampled_from([p, q, tensor(p, q)]),
    # the last two are equal systems but distinct objects
    st.sampled_from([MILL, PCMILL, SRS, parse_system("SRSBIAT:i,s")]),
)


@given(_SEQUENTS, _SEQUENTS)
def test_sequents_are_equal_as_their_keys_and_systems_are(a, b):
    # == reads the interned parts, not the printed key
    for x, y in [(a, b), (a, Sequent(normalize(a.ctx), a.succ, parse_system(str(a.system))))]:
        assert (x == y) == (x.key == y.key and x.system == y.system)
        assert x != y or hash(x) == hash(y)


def test_every_way_in_yields_the_interned_objects():
    # == and hash are object identity, which is structural equality only
    # while each live formula and context is the one its intern table holds
    from pathlib import Path

    from proofmill import context, syntax
    from proofmill.calculus import proof_from_json, proof_to_json, proof_nodes
    from proofmill.corpus import load_corpus_dir
    from proofmill.hilbert import (
        assumption, axiom_leaf, deduction_from_json, deduction_to_json, modus_ponens,
    )
    from proofmill.search import prove
    from proofmill.syntax import substitute, subformulas

    def formula_ok(f):
        for g in subformulas(f):
            assert syntax._INTERN[g.key] is g, g.key

    def sequent_ok(s):
        for _, n in positions(s.ctx):
            if isinstance(n, Leaf):
                assert context._LEAVES[n.formula] is n, n.key
            else:
                table = {Par: context._PARS, Ser: context._SERS}.get(type(n))
                assert n is EMPTY if table is None else table[n.children] is n, n.key
        for f in context_formulas(s.ctx) + [s.succ]:
            formula_ok(f)

    formula_ok(parse_formula("E[a](p @ q) -o (([]r & 1 \\ s) / ~t)"))
    sequent_ok(parse_sequent("p ; [q, [r ; ()]] |- p @ q", PCMILL))
    formula_ok(substitute(parse_formula("E[a](p * q) -o p"),
                          {"p": parse_formula("q & r")}, {"a": "b"}))
    corpus = load_corpus_dir(Path(__file__).resolve().parent.parent / "corpus")
    for entry in corpus:
        sequent_ok(entry.sequent)
    provable = [e.sequent for e in corpus if e.expected == "provable"]
    for goal in [parse_sequent("p, q |- p @ q", PCMILL)] + provable[:3]:
        read = proof_from_json(proof_to_json(prove(goal).proof))
        for _, node in proof_nodes(read):
            sequent_ok(node.conclusion)
    tree = modus_ponens(assumption(q), axiom_leaf(parse_formula("q -o (p -o q * p)"), MILL))
    read, _ = deduction_from_json(deduction_to_json(tree, MILL))
    for _, node in proof_nodes(read):
        for f in node.assumptions + (node.formula,):
            formula_ok(f)


# -- the fast path of parse_sequent --------------------------------------------

RS = parse_system("RSBIAT:i,s")
SYSTEMS = (MILL, PCMILL, RS, SRS)


def parsed(text, system):
    """``text`` as the full sequent parser reads it, with no look-up in
    ``_INTERN``: how ``parse_sequent`` reads what its fast path leaves."""
    p = _Parser(text)
    ctx = context._parse_group(p, system, "|-")
    p.i += 1
    succ = p.formula()
    p.end()
    validate_formula(succ, system)
    return Sequent(ctx, succ, system)


def agree(text):
    """``parse_sequent`` and the full parser make the same of ``text`` in
    every system: contexts and succedents that are one object each, or
    errors of one class, message and position."""
    for system in SYSTEMS:
        got, want = result_of(parse_sequent, text, system), result_of(parsed, text, system)
        if isinstance(want, Sequent):
            assert got.ctx is want.ctx and got.succ is want.succ, (text, system)
        else:
            assert got == want, (text, system)


# formulas in each system's language, as leaves
_LEAVES_OF = {
    system: st.sampled_from(texts).map(lambda t, s=system: leaf(parse_formula(t, s)))
    for system, texts in [
        (MILL, ["p", "1", "bot", "q -o r", "[](p * q)", "p & q -o r"]),
        (PCMILL, ["p", "1", "p @ q", "[]p -o q", "(p & q) \\ r", "r / (p * q)"]),
        (RS, ["p", "1", "E[i](p * q)", "E[s]p -o q", "p & E[i]r"]),
        (SRS, ["p", "E[i](p @ q)", "q \\ E[s]p", "p / r", "1"]),
    ]
}


@pytest.mark.parametrize("system", SYSTEMS, ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_parse_sequent_reads_what_the_full_parser_reads(system, data):
    leafs = _LEAVES_OF[system]
    ctx = data.draw(st.one_of(trees(leafs), st.just(EMPTY)) if system.is_tree
                    else st.lists(leafs, max_size=4).map(par))
    s = Sequent(ctx, data.draw(leafs).formula, system)
    printed = s.key if data.draw(st.booleans()) else print_sequent(s)
    # padding where an item starts or ends, so that keys still match
    text = re.sub(r" ?(,|\|-) ", lambda m: data.draw(SPACES) + m[1] + data.draw(SPACES),
                  fresh_atoms(printed))
    agree(data.draw(SPACES) + text + data.draw(SPACES))  # fresh formulas
    agree(text)  # interned now


@pytest.mark.parametrize("system, text", [(r[1], r[2]) for r in _MALFORMED if r[0] == "seq"])
def test_malformed_sequents_fail_as_the_full_parser_fails(system, text):
    got = result_of(parse_sequent, text, parse_system(system))
    assert got == result_of(parsed, text, parse_system(system))
    assert isinstance(got, tuple)
    agree(text)


@pytest.mark.parametrize("text", [
    "p, |- p", "p |- q |- r", "(p * q) |- q |- r", "p @ q, r $ |- p", "|- p", " \u00a0|-p",
    "p,q|-p", "p ; q |- p", "[p ; q], r |- p @ q", "[p, q] |- p", "[p] |- p", "() |- p",
    "(), p |- p", "p ; () |- p", "[]p, [ ]q |- p", "[[]p ; q] |- p", "E[i]p, E [ s ] q |- p",
])
def test_odd_shapes_read_as_the_full_parser_reads_them(text):
    agree(text)


def test_a_key_too_deep_to_parse_is_refused_in_a_sequent():
    tower = atom("p")
    for _ in range(60):
        tower = box(tower)
    for text in (f"{tower.key} |- p", f"p |- {tower.key}", f"p, {tower.key} |- p"):
        with pytest.raises(NestingTooDeepError):
            parse_sequent(text, MILL)
        agree(text)


def test_a_printed_key_is_looked_up_not_parsed(monkeypatch):
    s = parse_sequent("p -o q, E[s](p * q), p |- q & E[i]p", RS)
    made = []

    class Counted(_Parser):
        __slots__ = ()

        def __init__(self, text):
            made.append(text)
            super().__init__(text)

    monkeypatch.setattr(syntax, "_Parser", Counted)
    monkeypatch.setattr(context, "_Parser", Counted)
    padded = "\x1c" + s.key.replace(", ", " ,\u00a0").replace(" |- ", "\t|-  ") + "\n"
    assert parse_sequent(s.key, RS) == parse_sequent(padded, RS) == s
    assert parse_formula(s.succ.key, RS) is s.succ
    assert made == []
    # an item that is no key is parsed alone, and a group sends the
    # whole text to the full parser
    assert parse_sequent("p -o q, p, E[s]((p * q)) |- q & E[i]p", RS) == s
    assert made == ["p -o q", " q & E[i]p"]
    assert parse_sequent("[(p -o q) ; p] |- p", SRS).ctx.key == "(p -o q) ; p"
    assert made[2:] == ["[(p -o q) ; p] |- p"]
