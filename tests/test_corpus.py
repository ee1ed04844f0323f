"""Corpus file parsing, macro expansion, and the entry runner."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from proofmill.context import parse_sequent
from proofmill.corpus import (
    CorpusError,
    EXPECTED_VERDICTS,
    POW_CAP,
    expand_macros,
    load_corpus_dir,
    load_corpus_file,
    outcome_matches,
    parse_corpus_line,
    run_corpus,
    run_entry,
    verdict_word,
)
from proofmill.search import Exhausted, Proved
from proofmill.syntax import (
    atom,
    lres,
    odot,
    parse_formula,
    parse_system,
    with_,
)

MILL = parse_system("MILL")
PCM = parse_system("PCMILL")
RS = parse_system("RSBIAT:i,t")
SRS = parse_system("SRSBIAT:i,t")

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


# ---------------------------------------------------------------------------
# macros


class TestPowMacro:
    def test_expansion_matches_hand_built_chain(self):
        text = expand_macros("pow<=(p \\ q, 3)", SRS)
        got = parse_formula(text, SRS)
        p, q = atom("p"), atom("q")
        p2, q2 = odot(p, p), odot(q, q)
        p3, q3 = odot(p2, p), odot(q2, q)
        want = with_(with_(lres(p, q), lres(p2, q2)), lres(p3, q3))
        assert got is want

    def test_exponent_one_is_the_formula_itself(self):
        text = expand_macros("pow<=(p @ q, 1)", SRS)
        assert parse_formula(text, SRS) is parse_formula("p @ q", SRS)

    def test_unicode_spelling(self):
        a = expand_macros("pow≤(p, 2)", SRS)
        b = expand_macros("pow<=(p, 2)", SRS)
        assert parse_formula(a, SRS) is parse_formula(b, SRS)

    def test_atoms_power_up_under_connectives_and_modalities(self):
        text = expand_macros("pow<=(E[i](p \\ q), 2)", SRS)
        got = parse_formula(text, SRS)
        want = parse_formula(
            "E[i](p \\ q) & E[i]((p @ p) \\ (q @ q))", SRS)
        assert got is want

    def test_unit_has_no_atoms_to_power(self):
        text = expand_macros("pow<=(1, 3)", SRS)
        assert parse_formula(text, SRS) is parse_formula("1 & 1 & 1", SRS)

    @pytest.mark.parametrize("bad,msg", [
        ("pow<=(p, 0)", "at least 1"),
        ("pow<=(p, -2)", "at least 1"),
        (f"pow<=(p, {POW_CAP + 1})", "capped"),
        ("pow<=(p, x)", "bad pow exponent"),
        ("pow<=(p 3)", "formula and an exponent"),
        ("pow<=(p, 3", "unbalanced"),
    ])
    def test_malformed_pow_rejected(self, bad, msg):
        with pytest.raises(CorpusError, match=msg):
            expand_macros(bad, SRS)


class TestBigwithMacro:
    def test_expands_over_declared_agents_in_order(self):
        text = expand_macros("bigwith[x](E[x]p)", RS)
        assert parse_formula(text, RS) is parse_formula(
            "E[i]p & E[t]p", RS)

    def test_unicode_spelling(self):
        a = expand_macros("⋀[x](E[x]p)", RS)
        b = expand_macros("bigwith[x](E[x]p)", RS)
        assert parse_formula(a, RS) is parse_formula(b, RS)

    def test_single_agent_alphabet_gives_bare_formula(self):
        one = parse_system("RSBIAT:a")
        text = expand_macros("bigwith[x](E[x]p)", one)
        assert parse_formula(text, one) is parse_formula("E[a]p", one)

    def test_variable_not_occurring_still_expands(self):
        text = expand_macros("bigwith[x](p)", RS)
        assert parse_formula(text, RS) is parse_formula("p & p", RS)

    def test_pow_nested_inside_bigwith_sees_the_variable(self):
        text = expand_macros("bigwith[x](pow<=(E[x]p, 2))", SRS)
        want = parse_formula(
            "(E[i]p & E[i](p @ p)) & (E[t]p & E[t](p @ p))", SRS)
        assert parse_formula(text, SRS) is want

    def test_bigwith_nested_inside_pow(self):
        text = expand_macros("pow<=(bigwith[x](E[x]p), 2)", SRS)
        want = parse_formula(
            "(E[i]p & E[t]p) & (E[i](p @ p) & E[t](p @ p))", SRS)
        assert parse_formula(text, SRS) is want

    def test_shadowing_declared_agent_rejected(self):
        with pytest.raises(CorpusError, match="shadows"):
            expand_macros("bigwith[i](E[i]p)", RS)

    def test_shadowing_outer_variable_rejected(self):
        with pytest.raises(CorpusError, match="shadows"):
            expand_macros("bigwith[x](bigwith[x](E[x]p))", RS)

    def test_needs_declared_agents(self):
        with pytest.raises(CorpusError, match="declared agents"):
            expand_macros("bigwith[x](p)", MILL)

    @pytest.mark.parametrize("bad", [
        "bigwith[](p)",
        "bigwith[x]p",
        "bigwith[x](p",
    ])
    def test_malformed_bigwith_rejected(self, bad):
        with pytest.raises(CorpusError):
            expand_macros(bad, RS)

    def test_text_without_macros_unchanged(self):
        assert expand_macros("p * q |- p", MILL) == "p * q |- p"


# ---------------------------------------------------------------------------
# line and file parsing


class TestParseLine:
    def test_round_trip_fields(self):
        e = parse_corpus_line(
            "swap | MILL | p * q |- q * p | provable | algebra")
        assert e.entry_id == "swap"
        assert e.system == MILL
        assert e.raw_text == "p * q |- q * p"
        assert e.expected == "provable"
        assert e.source == "algebra"
        assert e.sequent.succ is parse_formula("q * p", MILL)

    def test_turnstile_survives_field_split(self):
        e = parse_corpus_line("t | MILL | p |- p | provable | basics")
        assert e.raw_text == "p |- p"

    def test_blank_and_comment_lines_skipped(self):
        assert parse_corpus_line("") is None
        assert parse_corpus_line("   ") is None
        assert parse_corpus_line("# note") is None

    def test_macro_expansion_applied(self):
        e = parse_corpus_line(
            "w | RSBIAT:i,t | bigwith[x](E[x]p) |- p | provable | m")
        assert "bigwith" not in e.text
        assert e.sequent.ctx.key

    def test_wrong_field_count(self):
        with pytest.raises(CorpusError, match="5 fields|got 3"):
            parse_corpus_line("only | three | fields")

    def test_unknown_expected_verdict(self):
        with pytest.raises(CorpusError, match="expected verdict"):
            parse_corpus_line("x | MILL | p |- p | maybe | s")
        assert EXPECTED_VERDICTS == ("provable", "unprovable")
        with pytest.raises(CorpusError, match="expected verdict"):
            parse_corpus_line("x | PCMILL | p |- q | bounded-unknown | s")

    def test_tree_systems_may_claim_unprovable(self):
        # tree search decides, so an unprovable label is a claim it checks
        e = parse_corpus_line("x | PCMILL | p @ q |- q @ p | unprovable | s")
        assert e.expected == "unprovable" and e.system.is_tree
        assert run_entry(e).passed

    def test_bad_system_reported_with_location(self):
        with pytest.raises(CorpusError, match="f.corpus:3"):
            parse_corpus_line("x | NOPE | p |- p | provable | s",
                              where="f.corpus:3")

    def test_sequent_parse_error_reported_with_location(self):
        with pytest.raises(CorpusError, match="f.corpus:7"):
            parse_corpus_line("x | MILL | p |- | provable | s",
                              where="f.corpus:7")


class TestLoadFiles:
    def test_file_with_comments_and_blanks(self, tmp_path):
        f = tmp_path / "t.corpus"
        f.write_text(
            "# header\n"
            "\n"
            "a | MILL | p |- p | provable | s\n"
            "b | MILL | p |- q | unprovable | s\n")
        entries = load_corpus_file(f)
        assert [e.entry_id for e in entries] == ["a", "b"]

    def test_dir_requires_corpus_files(self, tmp_path):
        with pytest.raises(CorpusError, match="no .corpus files"):
            load_corpus_dir(tmp_path)

    def test_dir_requires_entries(self, tmp_path):
        (tmp_path / "a.corpus").write_text("# header only\n\n")
        with pytest.raises(CorpusError, match="no corpus entries in"):
            load_corpus_dir(tmp_path)

    def test_dir_must_exist(self, tmp_path):
        with pytest.raises(CorpusError, match="not a directory"):
            load_corpus_dir(tmp_path / "missing")

    def test_duplicate_ids_across_files_rejected(self, tmp_path):
        (tmp_path / "a.corpus").write_text(
            "dup | MILL | p |- p | provable | s\n")
        (tmp_path / "b.corpus").write_text(
            "dup | MILL | q |- q | provable | s\n")
        with pytest.raises(CorpusError, match="duplicate corpus ids: dup"):
            load_corpus_dir(tmp_path)

    def test_shipped_corpus_loads(self):
        entries = load_corpus_dir(CORPUS_DIR)
        ids = {e.entry_id for e in entries}
        assert len(entries) == 35
        assert {"screwdriver", "two-screwdrivers", "warranty-sequential",
                "axiom-identity", "no-duplication"} <= ids


# ---------------------------------------------------------------------------
# running


class TestRunner:
    def test_verdict_words(self):
        from proofmill.context import parse_sequent
        from proofmill.search import prove
        proved = prove(parse_sequent("p |- p", MILL))
        exhausted = Exhausted(explored=1, peak_depth=1)
        assert verdict_word(proved, MILL) == "Proved"
        assert verdict_word(exhausted, MILL) == "Exhausted (unprovable)"
        tree_proved = prove(parse_sequent("p ; q |- p @ q", PCM))
        tree_exhausted = prove(parse_sequent("p @ q |- q @ p", PCM))
        assert verdict_word(tree_proved, PCM) == "Proved"
        assert verdict_word(tree_exhausted, PCM) == "Exhausted (unprovable)"
        # in the agent systems a goal without a cut-free proof may still
        # have one with cut (docs/cut_elimination.md, "Defective pairs")
        for agents in (RS, SRS):
            assert verdict_word(proved, agents) == "Proved"
            assert verdict_word(exhausted, agents) == "Exhausted (no cut-free proof)"

    def test_outcome_matching(self):
        e_prov = parse_corpus_line("a | MILL | p |- p | provable | s")
        e_unpr = parse_corpus_line("b | MILL | p |- q | unprovable | s")
        e_tree = parse_corpus_line(
            "c | PCMILL | p @ q |- q @ p | unprovable | s")
        exhausted = Exhausted(explored=1, peak_depth=1)
        proved = run_entry(e_prov).outcome
        assert not outcome_matches(exhausted, e_prov)
        assert outcome_matches(proved, e_prov)
        assert outcome_matches(exhausted, e_unpr)
        assert not outcome_matches(proved, e_unpr)
        assert outcome_matches(exhausted, e_tree)

    def test_run_entry_success(self):
        e = parse_corpus_line("a | MILL | p |- p | provable | s")
        r = run_entry(e)
        assert r.passed and r.verdict == "Proved"
        assert isinstance(r.outcome, Proved)

    def test_run_entry_mismatch_reported_not_raised(self):
        e = parse_corpus_line("a | MILL | p |- q | provable | s")
        r = run_entry(e)
        assert not r.passed
        assert r.verdict == "Exhausted (unprovable)"

    def test_run_corpus_decides_wide_tree_entries(self):
        # six parallel atoms: no preimage closure stands in the way
        e = parse_corpus_line(
            "a | PCMILL | a, b, c, d, e, f |- g | unprovable | s")
        (r,) = run_corpus([e])
        assert isinstance(r.outcome, Exhausted)
        assert r.passed and r.verdict == "Exhausted (unprovable)"

    def test_shipped_axiom_file_all_pass(self):
        entries = load_corpus_file(CORPUS_DIR / "schemata.corpus")
        results = run_corpus(entries)
        assert len(results) == 13
        assert all(r.passed for r in results)
        assert all(r.verdict == "Proved" for r in results)


# ---------------------------------------------------------------------------
# fuzzing: strings of the grammar's tokens raise nothing but ValueError

_TOKENS = (
    "p", "1", "bot", "(", ")", "[", "]", "()", "E[a]", "[]",
    "*", "&", "-o", "@", "\\", "/", "~", ",", ";", "|-",
    "pow<=(", "bigwith[x](",
)
_SYSTEMS = tuple(parse_system(n) for n in ("MILL", "PCMILL", "RSBIAT:a", "SRSBIAT:a"))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_TOKENS), max_size=30), st.sampled_from(("", " ")))
def test_token_strings_raise_only_value_errors(tokens, sep):
    text = sep.join(tokens)
    for system in _SYSTEMS:
        for parse in (lambda: parse_sequent(text, system),
                      lambda: parse_corpus_line(f"f | {system} | {text} | provable | s")):
            try:
                parse()
            except ValueError:
                pass
