import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from proofmill.context import parse_sequent
from proofmill.corpus import load_corpus_dir
from oracle import formula_layers

from proofmill.semantics import (
    FRAME_CONDITIONS,
    Countermodel,
    Evaluator,
    Model,
    eval_formula,
    extension,
    find_countermodel,
    model_from_json,
    model_to_json,
    random_model,
    sequent_valid,
    validate_model,
    _draw,
)
from proofmill.syntax import (
    Atom,
    Box,
    Brings,
    Limp,
    Lres,
    Odot,
    Rres,
    SystemId,
    Tensor,
    Unit,
    With,
    atom,
    box,
    brings,
    limp,
    lres,
    odot,
    parse_formula,
    parse_system,
    rres,
    subformulas,
    tensor,
    unit,
    with_,
)

MILL = parse_system("MILL")
PCMILL = parse_system("PCMILL")
RS = parse_system("RSBIAT:a,b")
SRS = parse_system("SRSBIAT:a,b")
ALL = (MILL, PCMILL, RS, SRS)
CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def one_world():
    return Model(
        worlds=("e",), unit="e", op={("e", "e"): "e"}, serial_op=None,
        order=(), valuation={"p": ("e",)}, neighbourhoods={},
    )


def chain3():
    """Three worlds w0 <= w1 <= w2 with capped addition."""
    names = ("w0", "w1", "w2")
    op = {
        (a, b): names[min(i + j, 2)]
        for i, a in enumerate(names) for j, b in enumerate(names)
    }
    return Model(
        worlds=names, unit="w0", op=op, serial_op=None,
        order=(("w1", "w0"), ("w2", "w1")),
        valuation={"p": ("w1", "w2"), "q": ("w1", "w2")},
        neighbourhoods={},
    )


def diamond():
    """Non-commutative serial op: a.b and b.a are distinct worlds."""
    names = ("e", "a", "b", "ab", "ba", "c")

    def table(special):
        out = {}
        for x in names:
            for y in names:
                if x == "e":
                    out[(x, y)] = y
                elif y == "e":
                    out[(x, y)] = x
                else:
                    out[(x, y)] = special.get((x, y), "c")
        return out

    return Model(
        worlds=names, unit="e",
        op=table({}),
        serial_op=table({("a", "b"): "ab", ("b", "a"): "ba"}),
        order=(("c", "ab"), ("c", "ba")),
        valuation={"p": ("a",), "q": ("b",)},
        neighbourhoods={"a": {}, "b": {}},
    )


# ---------------------------------------------------------------------------
# validation


def test_one_world_model_validates():
    rep = validate_model(one_world(), MILL)
    assert rep.ok and rep.failures == ()


def test_frame_conditions_table():
    assert FRAME_CONDITIONS[SystemId.MILL] == ()
    assert FRAME_CONDITIONS[SystemId.PCMILL] == ()
    assert "BringsOdot" not in FRAME_CONDITIONS[SystemId.RSBIAT]
    assert "BringsOdot" in FRAME_CONDITIONS[SystemId.SRSBIAT]
    assert set(FRAME_CONDITIONS[SystemId.RSBIAT]) == {
        "NotNec", "BringsRefl", "BringsTensor", "BringsWith",
    }


def test_valuation_heredity_violation_reported():
    m = Model(
        worlds=("e", "w"), unit="e",
        op={("e", "e"): "e", ("e", "w"): "w",
            ("w", "e"): "w", ("w", "w"): "w"},
        serial_op=None, order=(("w", "e"),),
        valuation={"p": ("e",)}, neighbourhoods={},
    )
    rep = validate_model(m, MILL)
    assert not rep.ok
    assert any("upward closed" in f for f in rep.failures)


def test_commutativity_violation_reported():
    m = chain3()
    op = dict(m.op)
    op[("w1", "w2")] = "w1"
    rep = validate_model(Model(
        m.worlds, m.unit, op, None, m.order, m.valuation, {},
    ), MILL)
    assert not rep.ok
    assert any("commutative" in f for f in rep.failures)


def test_neutral_unit_violation_reported():
    m = one_world()
    bad = Model(("e", "w"), "e",
                {("e", "e"): "e", ("e", "w"): "e",
                 ("w", "e"): "w", ("w", "w"): "w"},
                None, (), {}, {})
    rep = validate_model(bad, MILL)
    assert not rep.ok
    assert any("neutral" in f for f in rep.failures)
    assert validate_model(m, MILL).ok


def test_entropy_violation_reported():
    m = diamond()
    ser = dict(m.serial_op)
    ser[("a", "a")] = "a"  # op gives c, and c is not above a
    rep = validate_model(
        Model(m.worlds, m.unit, m.op, ser, m.order, m.valuation,
              m.neighbourhoods),
        SRS,
    )
    assert not rep.ok
    assert any("entropy" in f for f in rep.failures)


def test_bifunctoriality_violation_reported():
    # w1 >= w0 but w1+w1 = w2 is not >= w0+w1 = w1 under a discrete order
    names = ("w0", "w1", "w2")
    op = {
        (a, b): names[min(i + j, 2)]
        for i, a in enumerate(names) for j, b in enumerate(names)
    }
    m = Model(names, "w0", op, None, (("w1", "w0"),), {}, {})
    rep = validate_model(m, MILL)
    assert not rep.ok
    assert any("bifunctorial" in f for f in rep.failures)


def test_missing_serial_op_reported():
    m = one_world()
    rep = validate_model(m, SRS)
    assert not rep.ok
    assert any("serial_op required" in f for f in rep.failures)


def test_structure_failures_reported():
    m = Model(
        worlds=("e", "e"), unit="x",
        op={("e", "y"): "z"}, serial_op=None, order=(("e", "nope"),),
        valuation={"p": ("ghost",)},
        neighbourhoods={"box": {"e": (("e",),)}, "c": {"e": ()}},
    )
    rep = validate_model(m, RS)
    text = "\n".join(rep.failures)
    assert "duplicate world" in text
    assert "unit 'x'" in text
    assert "missing entry" in text
    assert "unknown world" in text
    assert "not an agent" in text
    assert "box neighbourhood not meaningful" in text
    assert "missing neighbourhood table for agent 'a'" in text


def test_evaluator_rejects_a_malformed_model():
    # in the words of validate_model, without the system's own checks
    m = replace(one_world(), valuation={"p": ("ghost",)},
                neighbourhoods={"c": {"e": (("e", "x"),)}})
    with pytest.raises(ValueError) as err:
        Evaluator(m)
    assert str(err.value) == ("valuation of 'p' names unknown world "
                              "'ghost'; neighbourhood set of 'c' at e "
                              "names unknown world 'x'")


def test_neighbourhood_heredity_violation_reported():
    m = Model(
        worlds=("e", "w"), unit="e",
        op={("e", "e"): "e", ("e", "w"): "w",
            ("w", "e"): "w", ("w", "w"): "w"},
        serial_op=None, order=(("w", "e"),),
        valuation={},
        neighbourhoods={"box": {"e": (("e", "w"),)}},
    )
    rep = validate_model(m, MILL)
    assert not rep.ok
    assert any("hereditary" in f for f in rep.failures)


def test_brings_refl_and_not_nec_violations_reported():
    base = dict(
        worlds=("e", "w"), unit="e",
        op={("e", "e"): "e", ("e", "w"): "w",
            ("w", "e"): "w", ("w", "w"): "w"},
        serial_op=None, order=(),
    )
    one_agent = parse_system("RSBIAT:a")
    # neighbourhood at w not containing w
    m = Model(**base, valuation={},
              neighbourhoods={"a": {"w": (("e",),), "e": (("e",),)}})
    rep = validate_model(m, one_agent)
    assert any("does not contain its world" in f for f in rep.failures)
    # the {e} set at e contains the unit, so e must satisfy bot
    assert any("bot" in f for f in rep.failures)
    fixed = Model(**base, valuation={"bot": ("e",)},
                  neighbourhoods={"a": {"e": (("e",),), "w": (("w",),)}})
    assert validate_model(fixed, one_agent).ok


def test_brings_with_closure_violation_reported():
    m = Model(
        worlds=("e", "w"), unit="e",
        op={("e", "e"): "e", ("e", "w"): "w",
            ("w", "e"): "w", ("w", "w"): "w"},
        serial_op=None, order=(), valuation={},
        neighbourhoods={"a": {"e": (("e",), ("e", "w")), "w": (("w",),)}},
    )
    rep = validate_model(m, parse_system("RSBIAT:a"))
    # {e} and {e,w} are both at e; their intersection {e} is present, but
    # the pair ({e,w}, {e,w}) needs {e,w}: fine; the real gap is tensor:
    # ({e,w} op {e,w}) up = {e,w} at e op e = e: present. NotNec fires
    # instead because {e} and {e,w} contain the unit.
    assert not rep.ok
    assert any("bot" in f for f in rep.failures)


def _sink_op(worlds, unit, sink, **special):
    """``unit`` neutral, the products in ``special`` (keyed ``"ab"`` for
    ``a . b``), and every other product ``sink``."""
    return {
        (a, b): b if a == unit else a if b == unit
        else special.get(a + b, sink)
        for a in worlds for b in worlds
    }


def test_missing_intersection_is_the_only_failure():
    # at w, {u,w} and {w,z} meet in {w}, which is missing; every product
    # of non-unit worlds is z, and {z} is at z, so tensor closure holds
    worlds = ("e", "u", "w", "z")
    m = Model(
        worlds=worlds, unit="e", op=_sink_op(worlds, "e", "z"),
        serial_op=None, order=(), valuation={},
        neighbourhoods={"a": {"w": (("u", "w"), ("w", "z")),
                              "z": (("z",),)}},
    )
    rep = validate_model(m, parse_system("RSBIAT:a"))
    # the pairs ({u,w}, {w,z}) and ({w,z}, {u,w}) both show it, once
    assert rep.failures == ("agent 'a' at w: intersection {w} missing",)


@pytest.mark.parametrize("system", ["RSBIAT:a", "SRSBIAT:a"])
def test_a_damaged_model_prints_each_failure_once(system):
    # a missing product is shown by every pair of sets and worlds whose
    # product it is
    s, repeated = parse_system(system), 0
    for seed in range(20):
        m = random_model(seed, 4, s)
        table = dict(m.neighbourhoods["a"])
        w = next((w for w in m.worlds if table.get(w)), None)
        if w is None:
            continue
        table[w] = table[w][1:]
        failures = validate_model(replace(m, neighbourhoods={"a": table}), s).failures
        assert len(set(failures)) == len(failures), failures
        repeated += any("combined" in f for f in failures)
    assert repeated


def test_missing_odot_product_is_the_only_failure():
    # u . u is s in series but t in parallel, and t >= s keeps entropy;
    # the parallel product {t} of {u} with itself is at t, the serial
    # one, up-closed to {s,t}, is missing at s
    worlds = ("e", "u", "s", "t")
    m = Model(
        worlds=worlds, unit="e", op=_sink_op(worlds, "e", "t"),
        serial_op=_sink_op(worlds, "e", "t", uu="s"),
        order=(("t", "s"),), valuation={},
        neighbourhoods={"a": {"u": (("u",),), "t": (("t",),)}},
    )
    rep = validate_model(m, parse_system("SRSBIAT:a"))
    assert rep.failures == (
        "agent 'a': combined neighbourhood {s,t} missing at s "
        "(bringsodot closure)",
    )


def test_brings_tensor_closure_violation_reported():
    m = Model(
        worlds=("e", "w"), unit="e",
        op={("e", "e"): "e", ("e", "w"): "w",
            ("w", "e"): "w", ("w", "w"): "w"},
        serial_op=None, order=(), valuation={},
        neighbourhoods={"a": {"w": (("w",),)}},
    )
    # ({w} op {w}) up = {w} must be at w op w = w: it is; but take two
    # different home worlds: add {e,w}? keep it simple by removing the
    # product set instead
    m2 = Model(
        worlds=("e", "u", "w"), unit="e",
        op={
            ("e", "e"): "e", ("e", "u"): "u", ("e", "w"): "w",
            ("u", "e"): "u", ("u", "u"): "w", ("u", "w"): "w",
            ("w", "e"): "w", ("w", "u"): "w", ("w", "w"): "w",
        },
        serial_op=None, order=(), valuation={},
        neighbourhoods={"a": {"u": (("u",),)}},
    )
    rep = validate_model(m2, parse_system("RSBIAT:a"))
    assert not rep.ok
    assert any("tensor closure" in f.lower() for f in rep.failures)
    assert validate_model(m, parse_system("RSBIAT:a")).ok


# ---------------------------------------------------------------------------
# truth clauses


def test_unit_extension_is_cone_above_unit():
    m = chain3()
    assert extension(m, parse_formula("1", MILL)) == {"w0", "w1", "w2"}
    d = diamond()
    assert extension(d, parse_formula("1", SRS)) == {"e"}


def test_atom_and_with_and_tensor_clauses():
    m = chain3()
    assert extension(m, parse_formula("p", MILL)) == {"w1", "w2"}
    assert extension(m, parse_formula("p & q", MILL)) == {"w1", "w2"}
    # smallest products of {w1,w2} x {w1,w2} cap at w2
    assert extension(m, parse_formula("p * q", MILL)) == {"w2"}
    assert eval_formula(m, "w2", parse_formula("p * q", MILL))
    assert not eval_formula(m, "w1", parse_formula("p * q", MILL))


def test_limp_clause():
    m = chain3()
    # n |= p means n in {w1,w2}; n op m must land in {w1,w2}: any m works
    assert extension(m, parse_formula("p -o q", MILL)) == {"w0", "w1", "w2"}
    # p -o (p * p) needs n + m >= 2 for n >= 1: m >= 1
    assert extension(m, parse_formula("p -o (p * p)", MILL)) == {"w1", "w2"}


def test_serial_clauses_distinguish_order():
    d = diamond()
    assert extension(d, parse_formula("p @ q", SRS)) == {"ab", "c"}
    assert extension(d, parse_formula("q @ p", SRS)) == {"ba", "c"}
    assert extension(d, parse_formula("p * q", SRS)) == {"c"}
    # left residual: n . m for every n satisfying p (= a)
    assert extension(d, parse_formula("p \\ (p @ q)", SRS)) == \
        {"a", "b", "ab", "ba", "c"}
    # right residual: m . n for every n satisfying the divisor
    assert "a" in extension(d, parse_formula("(p @ q) / q", SRS))
    assert "b" not in extension(d, parse_formula("(p @ q) / p", SRS))


def test_serial_formula_without_serial_op_raises():
    with pytest.raises(ValueError, match="serial operation"):
        extension(one_world(), parse_formula("p @ p", SRS))


def test_box_clause_uses_exact_extension():
    m = Model(
        worlds=("e", "w"), unit="e",
        op={("e", "e"): "e", ("e", "w"): "w",
            ("w", "e"): "w", ("w", "w"): "w"},
        serial_op=None, order=(),
        valuation={"p": ("e",)},
        neighbourhoods={"box": {"e": (("e",),)}},
    )
    assert validate_model(m, MILL).ok
    box_p = parse_formula("[]p", MILL)
    assert extension(m, box_p) == {"e"}
    # [] (p & p) has the same extension {e}, so it is also boxed
    assert extension(m, parse_formula("[](p & p)", MILL)) == {"e"}
    # 1 has extension {e} under the discrete order too
    assert extension(m, parse_formula("[]1", MILL)) == {"e"}
    # but [] q looks up extension() = {} which is not a member
    assert extension(m, parse_formula("[]q", MILL)) == set()


def test_brings_clause_and_missing_agent_table():
    one_agent = parse_system("RSBIAT:a")
    m = Model(
        worlds=("e", "w"), unit="e",
        op={("e", "e"): "e", ("e", "w"): "w",
            ("w", "e"): "w", ("w", "w"): "w"},
        serial_op=None, order=(),
        valuation={"p": ("w",)},
        neighbourhoods={"a": {"w": (("w",),)}},
    )
    assert validate_model(m, one_agent).ok
    assert extension(m, parse_formula("E[a]p", one_agent)) == {"w"}
    two = parse_system("RSBIAT:a,b")
    with pytest.raises(ValueError, match="agent 'b'"):
        extension(m, parse_formula("E[b]p", two))
    # the same, once the body's extension is known in the evaluator
    ev = Evaluator(m)
    ev.extension_mask(parse_formula("p", two))
    with pytest.raises(ValueError, match="agent 'b'"):
        ev.extension_mask(parse_formula("E[b]p", two))


def test_serial_formula_raises_after_its_operands_are_known():
    ev = Evaluator(one_world())
    ev.extension_mask(parse_formula("p", SRS))
    with pytest.raises(ValueError, match="serial operation"):
        ev.extension_mask(parse_formula("p @ p", SRS))


@pytest.mark.parametrize("name", ["RSBIAT:box", "SRSBIAT:box", "RSBIAT:a,box"])
def test_agent_named_box_has_its_own_table(name):
    system = parse_system(name)
    for seed in range(20):
        m = random_model(seed, 2, system)
        rep = validate_model(m, system)
        assert rep.ok, rep.failures[:4]
    # the table keyed box is the agent's, in the agent systems
    op = {("e", "e"): "e", ("e", "w"): "w", ("w", "e"): "w", ("w", "w"): "w"}
    m = Model(
        worlds=("e", "w"), unit="e", op=op,
        serial_op=op if system.is_tree else None, order=(),
        valuation={"p": ("w",)},
        neighbourhoods={a: {"w": (("w",),)} for a in system.agents},
    )
    assert validate_model(m, system).ok
    assert extension(m, parse_formula("E[box]p", system)) == {"w"}
    assert extension(m, parse_formula("E[box]1", system)) == set()


def test_sequent_validity_at_unit():
    m = one_world()
    assert sequent_valid(m, parse_sequent("p |- p", MILL))
    assert not sequent_valid(m, parse_sequent("p |- q", MILL))
    assert sequent_valid(m, parse_sequent("|- 1", MILL))
    c = chain3()
    assert sequent_valid(c, parse_sequent("p, q |- p * q", MILL))
    assert sequent_valid(c, parse_sequent("p |- 1 * p", MILL))
    d = diamond()
    assert sequent_valid(d, parse_sequent("p ; q |- p @ q", SRS))
    assert not sequent_valid(d, parse_sequent("p ; q |- q @ p", SRS))


def test_evaluator_upward_and_memo():
    ev = Evaluator(chain3())
    assert ev.upward(["w1"]) == {"w1", "w2"}
    f = parse_formula("p * q", MILL)
    assert ev.extension(f) == ev.extension(f)  # memoized path


def reference_extension(m: Model):
    """``||f||`` by the truth clauses, pointwise over world names and the
    model's own dict tables: no frame, no masks."""
    geq = {(w, w) for w in m.worlds} | set(m.order)
    while True:
        more = {(a, c) for a, b in geq for b2, c in geq if b == b2} - geq
        if not more:
            break
        geq |= more

    def up(ws):
        return frozenset(v for v in m.worlds for w in ws if (v, w) in geq)

    def ext(f):
        if isinstance(f, Atom):
            return frozenset(m.valuation.get(f.name, ()))
        if isinstance(f, Unit):
            return up({m.unit})
        if isinstance(f, (Box, Brings)):
            body = ext(f.body)
            family = m.neighbourhoods.get(
                "box" if isinstance(f, Box) else f.agent, {})
            return frozenset(w for w in m.worlds
                             if any(set(x) == body for x in family.get(w, ())))
        a, b = ext(f.left), ext(f.right)
        if isinstance(f, With):
            return a & b
        op = m.op if isinstance(f, (Tensor, Limp)) else m.serial_op
        if isinstance(f, (Tensor, Odot)):
            return up({op[(x, y)] for x in a for y in b})
        if isinstance(f, Rres):
            # B / A: w serial_op n in ||B|| for every n in ||A||
            return frozenset(w for w in m.worlds
                             if all(op[(w, n)] in a for n in b))
        return frozenset(w for w in m.worlds
                         if all(op[(n, w)] in b for n in a))

    return ext


def _formulas(system):
    binaries = [tensor, with_, limp]
    if system.is_tree:
        binaries += [odot, lres, rres]
    unaries = [box] if system.has_box else \
        [lambda b, a=a: brings(a, b) for a in system.agents]
    return st.recursive(
        st.sampled_from([atom(p) for p in ("p", "q", "r", "s", "bot")]
                        + [unit()]),
        lambda kids: st.one_of(
            *[st.builds(op, kids, kids) for op in binaries],
            *[st.builds(u, kids) for u in unaries],
        ),
        max_leaves=10,
    )


@pytest.mark.parametrize("system", [MILL, PCMILL, RS,
                                    parse_system("SRSBIAT:a")], ids=str)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extensions_agree_with_a_pointwise_reference(system, data):
    m = random_model(data.draw(st.integers(0, 1 << 20), label="seed"),
                     data.draw(st.integers(1, 5), label="size"), system)
    # one evaluator for all formulas, so clauses share their memos
    ev, ref = Evaluator(m), reference_extension(m)
    formulas = data.draw(st.lists(_formulas(system), min_size=1, max_size=6))
    for f in formulas:
        ev.extension_mask(f)
    for f in formulas:
        for g in subformulas(f):
            assert ev.extension(g) == ref(g), g.key


def test_connectives_on_equal_operand_masks_keep_their_own_clauses():
    # p holds everywhere but at e, q at b and above: a . b = ab is in q
    # while b . a = ba is not, and every parallel product is c
    d = replace(diamond(), valuation={"p": ("a", "b", "ab", "ba", "c"),
                                      "q": ("b", "ab", "c")})
    ev, ref = Evaluator(d), reference_extension(d)
    expected = {
        "p * q": {"c"}, "p @ q": {"ab", "c"},
        "p -o q": {"a", "b", "ab", "ba", "c"},
        "p \\ q": {"b", "ab", "ba", "c"}, "q / p": {"a", "ab", "ba", "c"},
    }
    for text, ext in expected.items():
        f = parse_formula(text, SRS)
        assert ev.extension(f) == ref(f) == ext, text
    # two agents' tables with the same body set
    op = {("e", "e"): "e", ("e", "w"): "w", ("w", "e"): "w", ("w", "w"): "w"}
    m = Model(worlds=("e", "w"), unit="e", op=op, serial_op=None, order=(),
              valuation={"p": ("w",)},
              neighbourhoods={"a": {"w": (("w",),)}, "b": {}})
    assert validate_model(m, RS).ok
    ev = Evaluator(m)
    assert ev.extension(parse_formula("E[a]p", RS)) == {"w"}
    assert ev.extension(parse_formula("E[b]p", RS)) == set()


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_is_value_exact():
    m = random_model(11, 5, SRS)
    obj = json.loads(json.dumps(model_to_json(m)))
    assert model_to_json(model_from_json(obj)) == obj


def test_json_preserves_list_order():
    obj = model_to_json(diamond())
    obj["neighbourhoods"] = {"a": {"a": [["ba", "a", "ab"]]}}
    again = model_to_json(model_from_json(obj))
    assert again["neighbourhoods"]["a"]["a"] == [["ba", "a", "ab"]]
    assert list(obj["op"]) == list(again["op"])


def test_json_malformed_raises():
    with pytest.raises(ValueError, match="malformed"):
        model_from_json({"unit": "e"})
    with pytest.raises(ValueError, match="op key"):
        model_from_json({
            "worlds": ["e"], "unit": "e", "op": {"e": "e"},
        })


# ---------------------------------------------------------------------------
# random generation


@pytest.mark.parametrize("system", ALL, ids=lambda s: s.ident.value)
def test_random_models_validate(system):
    for seed in range(30):
        size = 1 + seed % 6
        m = random_model(seed, size, system)
        rep = validate_model(m, system)
        assert rep.ok, rep.failures[:4]
        assert len(m.worlds) <= max(size, 6)
        assert m.unit == m.worlds[0]
        if system.ident in (SystemId.PCMILL, SystemId.SRSBIAT):
            assert m.serial_op is not None
        for agent in system.agents:
            assert agent in m.neighbourhoods


def test_random_model_deterministic_and_seed_sensitive():
    a = model_to_json(random_model(5, 4, RS))
    b = model_to_json(random_model(5, 4, RS))
    assert a == b
    others = [model_to_json(random_model(s, 4, RS)) for s in range(6)]
    assert any(o != a for o in others)


def test_random_model_rejects_empty():
    with pytest.raises(ValueError):
        random_model(0, 0, MILL)


@pytest.mark.parametrize("system", ALL, ids=lambda s: s.ident.value)
def test_extension_heredity_on_random_models(system):
    probes = ["p", "q", "1", "p * q", "p & q", "p -o q", "q -o (p * p)"]
    if system.ident in (SystemId.PCMILL, SystemId.SRSBIAT):
        probes += ["p @ q", "p \\ q", "p / q", "(p @ q) \\ r"]
    if system.ident in (SystemId.MILL, SystemId.PCMILL):
        probes += ["[]p", "[](p * q)", "[]p -o q"]
    else:
        probes += ["E[a]p", "E[b](p & q)", "E[a]p * E[b]q"]
    formulas = [parse_formula(t, system) for t in probes]
    for seed in range(12):
        m = random_model(seed, 1 + seed % 5, system)
        ev = Evaluator(m)
        for f in formulas:
            ext = ev.extension(f)
            assert ev.upward(ext) == ext, (seed, f.key)


def test_entropy_inclusion_on_random_models():
    tens = parse_formula("p * q", SRS)
    ser = parse_formula("p @ q", SRS)
    for seed in range(15):
        m = random_model(seed, 2 + seed % 5, SRS)
        ev = Evaluator(m)
        assert ev.extension(tens) <= ev.extension(ser)


def test_provable_sequents_hold_on_random_models():
    cases = [
        (MILL, "p, p -o q |- q"),
        (MILL, "p, q |- q * p"),
        (RS, "E[a]p |- p"),
        (RS, "E[a]p, E[a]q |- E[a](p * q)"),
        (SRS, "p ; p \\ q |- q"),
    ]
    for system, text in cases:
        s = parse_sequent(text, system)
        for seed in range(20):
            m = random_model(seed, 1 + seed % 5, system)
            assert sequent_valid(m, s), (text, seed)


# ---------------------------------------------------------------------------
# countermodel search


def test_countermodel_for_atom_mismatch():
    s = parse_sequent("p |- q", MILL)
    cm = find_countermodel(s, 2, seed=1)
    assert isinstance(cm, Countermodel)
    assert len(cm.model.worlds) <= 2
    assert validate_model(cm.model, MILL).ok
    ev = Evaluator(cm.model)
    assert not ev.sequent_valid(s)
    assert ev.eval(cm.world, parse_formula("p", MILL))
    assert not ev.eval(cm.world, parse_formula("q", MILL))


def test_no_countermodel_for_identity():
    assert find_countermodel(parse_sequent("p |- p", MILL), 3, seed=1) is None
    assert find_countermodel(
        parse_sequent("p & q |- p", MILL), 3, seed=1) is None


def test_countermodel_search_rejects_empty_range():
    # no size to search is not a "none found"
    for size in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            find_countermodel(parse_sequent("p |- q", MILL), size)


def test_countermodel_search_rejects_no_attempts():
    # no attempt made is not a "none found" either
    for attempts in (0, -1):
        with pytest.raises(ValueError, match="attempts must be at least 1"):
            find_countermodel(parse_sequent("p |- q", MILL), 3,
                              attempts=attempts)


def test_countermodel_for_serial_commutation():
    s = parse_sequent("p @ q |- q @ p", SRS)
    cm = find_countermodel(s, 4, seed=0)
    assert cm is not None
    assert len(cm.model.worlds) <= 4
    assert validate_model(cm.model, SRS).ok
    ev = Evaluator(cm.model)
    assert ev.eval(cm.world, parse_formula("p @ q", SRS))
    assert not ev.eval(cm.world, parse_formula("q @ p", SRS))


def test_countermodel_for_box_success():
    s = parse_sequent("[]p |- p", MILL)
    cm = find_countermodel(s, 4, seed=0)
    assert cm is not None
    assert validate_model(cm.model, MILL).ok


def test_no_countermodel_for_brings_success():
    s = parse_sequent("E[a]p |- p", RS)
    assert find_countermodel(s, 4, seed=0) is None


def test_countermodel_for_tensor_growth():
    s = parse_sequent("p |- p * p", MILL)
    cm = find_countermodel(s, 4, seed=0)
    assert cm is not None
    ev = Evaluator(cm.model)
    assert not ev.sequent_valid(s)


def test_countermodel_search_is_deterministic():
    s = parse_sequent("p |- q * q", MILL)
    a = find_countermodel(s, 3, seed=7)
    b = find_countermodel(s, 3, seed=7)
    assert (a is None) == (b is None)
    if a is not None:
        assert model_to_json(a.model) == model_to_json(b.model)
        assert a.world == b.world


def test_long_chains_evaluate():
    m = random_model(3, 3, MILL)
    p = parse_formula("p")
    # built up one link at a time, every step computes a single formula
    stepwise, chain = Evaluator(m), p
    for _ in range(1499):
        chain = limp(p, chain)
        stepwise.extension_mask(chain)
    assert Evaluator(m).extension_mask(chain) == stepwise.extension_mask(chain)
    assert sequent_valid(m, parse_sequent("|- " + " -o ".join(["p"] * 1500), MILL)) \
        == (m.unit in extension(m, chain))


def test_countermodel_for_a_long_chain():
    s = parse_sequent("q |- " + " & ".join(["p"] * 1500), MILL)
    cm = find_countermodel(s, 3, attempts=8)
    assert cm is not None
    assert not sequent_valid(cm.model, s)


# ---------------------------------------------------------------------------
# golden outputs: the generator and the search, byte for byte


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


GOLDEN_MODELS = {
    "MILL": "c483f4978b52b7ac", "PCMILL": "5874ed90838fc9c0",
    "RSBIAT:a": "4101374fda936ae3", "SRSBIAT:a": "9f4fe5b1c6bf69a6",
    "RSBIAT:a,b": "9ee52f69231fa54d", "SRSBIAT:a,b": "d43c8ef1cf029d30",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_random_models_match_their_golden_digest(name):
    # the JSON keeps every table's insertion order, so the digest pins it
    system = parse_system(name)
    drawn = [model_to_json(random_model(seed, size, system))
             for size in range(1, 6) for seed in range(20)]
    assert _digest(drawn) == GOLDEN_MODELS[name]


# (system, sequent, max_size, attempts): the separating non-theorems and
# the CLI's hint search on the wrong orderings, as the models benchmark
# runs them, and two modal goals
GOLDEN_SEARCHES = [
    ("MILL", "p |- p * p", 4, 25),
    ("MILL", "p * q |- p", 4, 25),
    ("PCMILL", "p @ q |- q @ p", 4, 25),
    ("PCMILL", "p @ q |- p * q", 4, 25),
    *[(None, f"wrong-order-{i}", 3, 8) for i in (1, 2, 3)],
    ("MILL", "[]p |- []q", 4, 25),
    ("SRSBIAT:a", "E[a](p @ q) |- E[a](q @ p)", 4, 25),
]
GOLDEN_COUNTERMODELS = "b97f43d06b0793a9"


def test_countermodel_search_matches_its_golden_digest():
    by_id = {e.entry_id: e for e in load_corpus_dir(CORPUS_DIR)}
    found = []
    for system, text, max_size, attempts in GOLDEN_SEARCHES:
        s = by_id[text].sequent if system is None \
            else parse_sequent(text, parse_system(system))
        for seed in range(4):
            cm = find_countermodel(s, max_size, seed=seed, attempts=attempts)
            found.append(None if cm is None
                         else [model_to_json(cm.model), cm.world])
    assert _digest(found) == GOLDEN_COUNTERMODELS


# target system -> (system whose draws share its frames, search goals)
COLD_WARM = {
    "RSBIAT:a": ("MILL", ["E[a]p |- E[a]q", "E[a]p |- p",
                          "E[a](p * q) |- E[a]p"]),
    "SRSBIAT:a": ("PCMILL", ["E[a](p @ q) |- E[a](q @ p)", "E[a]p |- p",
                             "p @ q |- q @ p"]),
}


def _drawn_in(target: str) -> str:
    """The generator's models and the search's countermodels in
    ``target``, as JSON."""
    system = parse_system(target)
    models = [model_to_json(random_model(seed, size, system))
              for size in range(1, 6) for seed in range(6)]
    found = []
    for text in COLD_WARM[target][1]:
        for seed in range(2):
            cm = find_countermodel(parse_sequent(text, system), 5, seed=seed)
            found.append(None if cm is None
                         else [model_to_json(cm.model), cm.world])
    return json.dumps([models, found])


@pytest.mark.parametrize("target", sorted(COLD_WARM))
def test_draws_do_not_depend_on_the_draws_before_them(target):
    # cold: a fresh process draws nothing else first; warm: this one,
    # after draws in a system whose frames are the target's
    tests = Path(__file__).resolve().parent
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                           str(tests)]))
    cold = subprocess.run(
        [sys.executable, "-c", "import sys, test_semantics as t; "
         "print(t._drawn_in(sys.argv[1]))", target],
        env=env, capture_output=True, text=True, check=True).stdout
    before = parse_system(COLD_WARM[target][0])
    for size in range(1, 6):
        for seed in range(30):
            random_model(seed, size, before)
    for text in ("p |- p * p", "p * q |- q", "p |- q"):
        find_countermodel(parse_sequent(text, before), 5, seed=3)
    assert cold == _drawn_in(target) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_mask_evaluator_agrees_with_the_named_model(name):
    # every formula over p and q up to complexity 4, on the draws behind
    # the golden models: evaluated on the draw's masks and on its named
    # model, each with its own frame
    system = parse_system(name)
    unaries = [box] if system.has_box else \
        [lambda b, a=a: brings(a, b) for a in system.agents]
    binaries = [tensor, with_, limp] + ([odot, lres, rres]
                                        if system.is_tree else [])
    formulas = [f for layer in formula_layers(4, ("p", "q"), unaries,
                                               binaries) for f in layer]
    for size in range(1, 6):
        for seed in range(0, 20, 5):
            draw = _draw(seed, size, system)
            masks = Evaluator._on(draw.fr, draw.val, draw.nbhd)
            named = Evaluator(draw.named())
            for f in formulas:
                assert masks.extension_mask(f) == named.extension_mask(f), \
                    (seed, size, f.key)
