"""Exit codes and output of every CLI subcommand, run in-process (and
in subprocesses where the hash seed must vary)."""

import contextlib
import copy
import io
import json
import os
import signal
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from proofmill.calculus import proof_to_json
from proofmill.cli import run
from proofmill.hilbert import (
    assumption,
    axiom_leaf,
    deduction_to_json,
    hilbert_to_sequent,
    modus_ponens,
    not_nec_rule,
)
from proofmill.search import Exhausted
from proofmill.semantics import model_from_json, model_to_json, random_model
from proofmill.syntax import parse_formula, parse_system

CORPUS_DIR = str(Path(__file__).resolve().parent.parent / "corpus")
MILL = parse_system("MILL")


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestProve:
    def test_proved_exits_zero(self):
        code, out, _ = cli("prove", "MILL", "p, p -o q |- q")
        assert code == 0
        assert out.splitlines()[0] == "Proved"
        assert "explored" in out

    def test_agents_inferred_from_sequent(self):
        code, out, _ = cli(
            "prove", "RSBIAT", "S, E[i]F, E[s]((S*F) -o T) |- T")
        assert code == 0
        assert out.splitlines()[0] == "Proved"

    @pytest.mark.parametrize("sequent", ["E [b] q |- E [b] q", "E[ b ]q |- E[b]q"])
    def test_agents_inferred_through_whitespace(self, sequent):
        # the lexer allows whitespace inside E[...], so inference does too
        code, out, _ = cli("prove", "RSBIAT", sequent)
        assert code == 0
        assert out.splitlines()[0] == "Proved"

    def test_prints_premises_pruned_by_charge(self):
        # q never occurs on the left, so the root is refuted unexpanded
        code, out, _ = cli("prove", "MILL", "p |- p * q")
        assert code == 1
        assert out.splitlines()[1] == "explored 1 sequents, pruned 1, peak depth 0"
        code, out, _ = cli("prove", "MILL", "p, q |- q * p")
        assert code == 0 and ", pruned 2, " in out.splitlines()[1]
        # p & q takes p's charge or q's, and neither is p * q's
        code, out, _ = cli("prove", "MILL", "p & q |- p * q")
        assert code == 1
        assert out.splitlines()[1] == "explored 1 sequents, pruned 1, peak depth 0"

    def test_unprovable_exits_one_with_hint(self):
        code, out, _ = cli("prove", "MILL", "p |- q")
        assert code == 1
        assert out.splitlines()[0] == "Exhausted (unprovable)"
        assert "countermodel hint" in out

    def test_tree_verdict_word(self):
        code, out, _ = cli("prove", "PCMILL", "p @ q |- q @ p")
        assert code == 1
        assert out.splitlines()[0] == "Exhausted (unprovable)"

    def test_agent_verdict_word(self):
        # provable with one cut (tests/test_cutelim.py), not without
        code, out, _ = cli(
            "prove", "RSBIAT", "E[a]p, E[a]q |- E[a](1 * (p * q))")
        assert code == 1
        assert out.splitlines()[0] == "Exhausted (no cut-free proof)"

    def test_emit_proof_round_trips(self, tmp_path):
        path = tmp_path / "p.json"
        code, out, _ = cli("prove", "MILL", "p * q |- q * p",
                           "--emit-proof", str(path))
        assert code == 0
        assert f"proof written to {path}" in out
        data = json.loads(path.read_text())
        assert data["system"] == "MILL"

    def test_unwritable_emit_path_is_usage_error(self, tmp_path):
        path = tmp_path / "missing" / "p.json"
        code, out, err = cli("prove", "MILL", "p |- p", "--emit-proof", str(path))
        assert code == 2
        assert f"cannot write {path}" in err
        assert "written" not in out

    def test_a_failed_emit_leaves_no_file(self, tmp_path):
        # the nested proof JSON of a 500-link chain is too deep for json's
        # recursion: the write fails after the verdict is printed, and
        # leaves neither part of a proof nor a changed file behind
        path = tmp_path / "p.json"
        argv = ("prove", "MILL", "p |- " + " & ".join(["p"] * 500), "--emit-proof", str(path))
        code, out, err = cli(*argv)
        assert (code, out.splitlines()[0]) == (3, "Proved")
        assert "RecursionError" in err and "written" not in out
        assert list(tmp_path.iterdir()) == []
        path.write_text("kept\n")
        assert cli(*argv)[0] == 3
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "kept\n"

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_emit_proof_writes_through_a_pipe(self, tmp_path):
        # a pipe or device, such as /dev/stdout, is written as it stands,
        # never replaced by a file; the open end makes the write not block
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        end = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
        try:
            code, _, _ = cli("prove", "MILL", "p * q |- q * p", "--emit-proof", str(pipe))
            data = os.read(end, 1 << 16)
        finally:
            os.close(end)
        assert code == 0 and stat.S_ISFIFO(os.stat(pipe).st_mode)
        assert json.loads(data)["system"] == "MILL"

    def test_emit_proof_writes_through_a_link(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old\n")
        link.symlink_to(target)
        assert cli("prove", "MILL", "p |- p", "--emit-proof", str(link))[0] == 0
        assert link.is_symlink() and json.loads(target.read_text())["system"] == "MILL"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_emitted_long_chain_proof_checks(self, tmp_path):
        # the fully parenthesized chain would nest past the parser's bound
        path = tmp_path / "p.json"
        chain = " & ".join(["p"] * 150)
        code, _, _ = cli("prove", "MILL", f"p |- {chain}",
                         "--emit-proof", str(path))
        assert code == 0
        code, out, err = cli("check-proof", str(path))
        assert code == 0, err
        assert "299 nodes" in out

    def test_long_unprovable_chain_gets_a_hint(self):
        chain = " & ".join(["p"] * 1500)
        code, out, _ = cli("prove", "MILL", f"q |- {chain}")
        assert code == 1
        assert "countermodel hint" in out

    def test_bad_system_is_usage_error(self):
        code, _, err = cli("prove", "NOPE", "p |- p")
        assert code == 2
        assert "unknown system" in err

    def test_bad_sequent_is_usage_error(self):
        code, _, err = cli("prove", "MILL", "p |-")
        assert code == 2
        assert "position" in err

    def test_internal_error_has_its_own_exit_code(self, monkeypatch):
        # an unexpected exception must not leave with the "negative
        # verdict" code
        def broken(goal):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("proofmill.cli.prove_with_stats", broken)
        code, out, err = cli("prove", "MILL", "p |- p")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: RecursionError: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
    def test_a_closed_stdout_ends_the_process_by_sigpipe(self):
        # like other Unix filters, not with an internal error
        src = str(Path(__file__).resolve().parent.parent / "src")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "proofmill.cli", "prove", "MILL", "p |- p"],
                env=dict(os.environ, PYTHONPATH=src), stdout=write_end,
                stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert done.stderr == ""
        assert done.returncode == -signal.SIGPIPE

    def test_deep_nesting_is_a_parse_error(self):
        deep = "(" * 300 + "p" + ")" * 300
        code, out, err = cli("prove", "MILL", f"{deep} |- p")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "at position" in err

    def test_agentless_agent_system_without_modalities(self):
        code, _, err = cli("prove", "RSBIAT", "p |- p")
        assert code == 2
        assert "agents" in err

    def test_language_error_does_not_follow_the_hash_seed(self):
        # two connectives outside MILL: the outermost one is reported,
        # whatever order a set of the subformulas iterates in
        src = str(Path(__file__).resolve().parent.parent / "src")
        errs = []
        for hash_seed in ("1", "3"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", "from proofmill.cli import main; main()",
                 "prove", "MILL", "(p @ q) * r \\ s |- p"],
                env=env, capture_output=True, text=True)
            assert done.returncode == 2
            errs.append(done.stderr)
        assert errs[0] == errs[1]
        assert errs[0] == "error: \\ not available in MILL: (((p @ q) * r) \\ s)\n"


class TestProofFiles:
    @pytest.fixture()
    def proof_path(self, tmp_path):
        path = tmp_path / "p.json"
        code, _, _ = cli("prove", "MILL", "p, p -o (q & r) |- r",
                         "--emit-proof", str(path))
        assert code == 0
        return path

    def test_check_proof_ok(self, proof_path):
        code, out, _ = cli("check-proof", str(proof_path))
        assert code == 0
        assert out.startswith("ok: ")
        assert "0 cuts" in out

    def test_check_proof_rejects_tampering(self, proof_path, tmp_path):
        data = json.loads(proof_path.read_text())
        data["proof"]["sequent"] = "p, p -o (q & r) |- q"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, _ = cli("check-proof", str(bad))
        assert code == 1
        assert "at node" in out

    def test_check_proof_missing_file(self, tmp_path):
        code, _, err = cli("check-proof", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read" in err

    def test_check_proof_bad_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("{not json")
        code, _, err = cli("check-proof", str(path))
        assert code == 2
        assert "not valid JSON" in err

    @pytest.mark.parametrize("system,agents,sequent,message", [
        ("RSBIAT", ["a"], "E[b]p |- E[b]p", "agent 'b' not in alphabet ['a']: E[b](p)"),
        ("MILL", [], "p @ q |- p @ q", "@ not available in MILL: (p @ q)"),
    ])
    def test_check_proof_outside_the_language_is_usage_error(
            self, tmp_path, system, agents, sequent, message):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"system": system, "agents": agents, "proof": {
            "sequent": sequent, "rule": "Ax"}}))
        code, out, err = cli("check-proof", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: {message}\n"

    def test_check_proof_rule_outside_the_system_fails(self, tmp_path):
        # the sequent lies in RSBIAT's language but OdotL is no RSBIAT rule
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"system": "RSBIAT", "agents": ["a"], "proof": {
            "sequent": "p |- p", "rule": "OdotL",
            "premises": [{"sequent": "p |- p", "rule": "Ax"}]}}))
        code, out, err = cli("check-proof", str(path))
        assert (code, out, err) == (
            1, "at node []: OdotL not admissible in RSBIAT:a\n", "")

    def test_cut_eliminate_already_cut_free(self, proof_path):
        code, out, _ = cli("cut-eliminate", str(proof_path))
        assert code == 0
        assert "in 0 steps" in out

    def test_cut_eliminate_unwritable_emit_path(self, proof_path, tmp_path):
        path = tmp_path / "missing" / "p.json"
        code, _, err = cli("cut-eliminate", str(proof_path), "--emit-proof", str(path))
        assert code == 2
        assert f"cannot write {path}" in err

    def test_cut_eliminate_with_trace_and_emit(self, tmp_path):
        tree = modus_ponens(
            assumption(parse_formula("p", MILL)),
            axiom_leaf(parse_formula("p -o p", MILL), MILL),
        )
        ded = tmp_path / "d.json"
        ded.write_text(json.dumps(deduction_to_json(tree, MILL)))
        withcuts = tmp_path / "cuts.json"
        code, out, _ = cli("hilbert-to-sequent", str(ded),
                           "--emit-proof", str(withcuts))
        assert code == 0 and "cuts" in out
        cutfree = tmp_path / "nocuts.json"
        code, out, _ = cli("cut-eliminate", str(withcuts),
                           "--trace", "--emit-proof", str(cutfree))
        assert code == 0
        assert "cut-free proof of p |- p" in out
        code, out, _ = cli("check-proof", str(cutfree))
        assert code == 0
        assert "0 cuts" in out

    def test_cut_eliminate_takes_a_later_occurrence(self, tmp_path):
        # the principal reduct's sub-cut belongs at the second a
        fixture = Path(__file__).resolve().parent / "fixtures" / "pcmill_later_occurrence.json"
        free = tmp_path / "free.json"
        code, out, _ = cli("cut-eliminate", str(fixture), "--emit-proof", str(free))
        assert code == 0
        assert out.startswith("cut-free proof of a ; [(x -o a), b, x] |- (a @ (a * b))")
        assert cli("check-proof", str(free))[0] == 0

    def test_cut_eliminate_normal_form_failing_the_kernel_is_internal(
            self, tmp_path, monkeypatch):
        # a fault of cut elimination, not a dead end: exit 3, not 1
        from test_cutelim import _refl_axiom_cut, _refl_over_one_r

        path = tmp_path / "cut.json"
        path.write_text(json.dumps(proof_to_json(_refl_axiom_cut())))
        monkeypatch.setattr("proofmill.cutelim._refl_ax", _refl_over_one_r)
        code, out, err = cli("cut-eliminate", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("internal error: RuntimeError: cut elimination built a proof")

    def test_cut_eliminate_with_no_reduct_is_internal(self, tmp_path, monkeypatch):
        # no reduct outside the defective pairs is a fault: exit 3, not 1
        from test_cutelim import _refl_axiom_cut, _swapped_comb

        path = tmp_path / "cut.json"
        path.write_text(json.dumps(proof_to_json(_refl_axiom_cut())))
        monkeypatch.setattr("proofmill.cutelim.Proof", _swapped_comb)
        code, out, err = cli("cut-eliminate", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("internal error: RuntimeError: no verified reduction applies")


class TestHilbert:
    @pytest.fixture()
    def deduction_path(self, tmp_path):
        tree = modus_ponens(
            assumption(parse_formula("p & q", MILL)),
            axiom_leaf(parse_formula("(p & q) -o p", MILL), MILL),
        )
        path = tmp_path / "d.json"
        path.write_text(json.dumps(deduction_to_json(tree, MILL)))
        return path

    def test_hilbert_check_ok(self, deduction_path):
        code, out, _ = cli("hilbert-check", str(deduction_path))
        assert code == 0
        assert out.startswith("ok: p & q |- p")

    def test_hilbert_check_rejects_wrong_claim(self, tmp_path,
                                               deduction_path):
        data = json.loads(deduction_path.read_text())
        data["tree"]["formula"] = "q"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code, out, _ = cli("hilbert-check", str(bad))
        assert code == 1
        assert "at node" in out

    def test_hilbert_check_rejects_assumptions_that_are_no_list(self, tmp_path):
        # the letters of "p" are no list of formulas: a malformed file
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"system": "MILL", "tree": {
            "rule": "Assumption", "formula": "p", "assumptions": "p"}}))
        code, _, err = cli("hilbert-check", str(bad))
        assert code == 2
        assert "malformed deduction object: assumptions 'p' is not a list" in err

    def test_hilbert_to_sequent_rechecks(self, deduction_path, tmp_path):
        out_path = tmp_path / "seq.json"
        code, out, _ = cli("hilbert-to-sequent", str(deduction_path),
                           "--emit-proof", str(out_path))
        assert code == 0
        assert "sequent proof of (p & q) |- p" in out
        code, _, _ = cli("check-proof", str(out_path))
        assert code == 0


    def test_hilbert_to_sequent_unwritable_emit_path(self, deduction_path, tmp_path):
        path = tmp_path / "missing" / "seq.json"
        code, _, err = cli("hilbert-to-sequent", str(deduction_path),
                           "--emit-proof", str(path))
        assert code == 2
        assert f"cannot write {path}" in err

    def test_search_failure_on_an_axiom_is_internal(self, deduction_path,
                                                    monkeypatch):
        # every axiom instance is provable: a failed search is a fault,
        # not a negative verdict on the deduction
        monkeypatch.setattr("proofmill.hilbert.prove",
                            lambda goal: Exhausted(0))
        code, out, err = cli("hilbert-to-sequent", str(deduction_path))
        assert code == 3
        assert err.startswith("internal error: RuntimeError: no sequent proof")
        assert out == ""


class TestModels:
    @pytest.fixture()
    def model_path(self, tmp_path):
        m = random_model(seed=7, size=3, system=MILL)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model_to_json(m)))
        return path

    def test_model_check_valid(self, model_path):
        code, out, _ = cli("model-check", str(model_path), "MILL")
        assert code == 0
        assert out.startswith("valid MILL model")

    def test_model_check_reports_failures(self, model_path, tmp_path):
        data = json.loads(model_path.read_text())
        w = data["worlds"]
        # w[-1] above w[0] in the order, but w[0] alone satisfies p
        data["order"] = [[w[-1], w[0]]]
        data["valuation"]["p"] = [w[0]]
        path = tmp_path / "m2.json"
        path.write_text(json.dumps(data))
        code, out, _ = cli("model-check", str(path), "MILL")
        assert code == 1
        assert "upward closed" in out

    def test_model_check_missing_serial_op(self, tmp_path):
        m = random_model(seed=1, size=2, system=MILL)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model_to_json(m)))
        code, out, _ = cli("model-check", str(path), "PCMILL")
        assert code == 1
        assert "serial" in out.lower()

    def test_bare_agent_system_reads_box_as_an_agent(self, tmp_path):
        m = random_model(seed=0, size=2, system=parse_system("RSBIAT:box"))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model_to_json(m)))
        code, out, err = cli("model-check", str(path), "RSBIAT")
        assert (code, err) == (0, "")
        assert out.startswith("valid RSBIAT:box model")
        m = random_model(seed=0, size=2, system=parse_system("RSBIAT:a,box"))
        path.write_text(json.dumps(model_to_json(m)))
        code, out, _ = cli("model-eval", str(path), "p |- p")
        assert code == 0 and "[RSBIAT:a,box]" in out

    def test_model_check_malformed_model(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"worlds": ["a"]}))
        code, _, err = cli("model-check", str(path), "MILL")
        assert code == 2

    @pytest.mark.parametrize("damage, message", [
        (lambda d: d["valuation"].update(p=["w9"]),
         "valuation of 'p' names unknown world 'w9'"),
        (lambda d: d["op"].pop("w1,w1"), "op missing entry w1,w1"),
        (lambda d: d["neighbourhoods"]["box"].update(w0=[["w7"]]),
         "neighbourhood set of 'box' at w0 names unknown world 'w7'"),
    ], ids=["valuation", "op", "neighbourhood"])
    def test_model_eval_malformed_model_is_usage_error(
            self, model_path, tmp_path, damage, message):
        data = json.loads(model_path.read_text())
        damage(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = cli("model-eval", str(path), "p |- p")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_model_eval_agent_without_table_is_usage_error(self, model_path):
        # the model has a box table only, so agent a has none
        code, out, err = cli("model-eval", str(model_path), "E[a]p |- p")
        assert (code, out) == (2, "")
        assert err == ("error: model has no neighbourhood table for "
                       "agent 'a'\n")

    def test_model_eval_valid_and_invalid(self, model_path):
        code, out, _ = cli("model-eval", str(model_path), "p |- p")
        assert code == 0
        assert "valid in the model" in out
        code, out, _ = cli("model-eval", str(model_path), "p |- p * p")
        if code == 1:
            assert "falsified at world" in out

    def test_model_eval_infers_tree_system(self, tmp_path):
        m = random_model(seed=3, size=3, system=parse_system("PCMILL"))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(model_to_json(m)))
        code, out, _ = cli("model-eval", str(path), "p ; q |- p @ q")
        assert code == 0
        assert "[PCMILL]" in out


class TestCountermodel:
    def test_found(self):
        code, out, _ = cli("countermodel", "MILL", "p |- q",
                           "--max-size", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("countermodel with")
        model = model_from_json(json.loads("\n".join(lines[1:])))
        assert len(model.worlds) <= 2

    def test_emitted_model_passes_model_check(self, tmp_path):
        code, out, _ = cli("countermodel", "SRSBIAT:a", "p @ q |- q @ p",
                           "--max-size", "4", "--seed", "0")
        assert code == 0
        path = tmp_path / "m.json"
        path.write_text("\n".join(out.splitlines()[1:]))
        code, out, _ = cli("model-check", str(path), "SRSBIAT")
        assert code == 0
        code, out, _ = cli("model-eval", str(path), "p @ q |- q @ p")
        assert code == 1

    @pytest.mark.parametrize("system, goal, size", [
        ("SRSBIAT:a", "E[a](p @ q) |- E[a](q @ p)", "4"),
        ("MILL", "[]p |- []q", "3"),
    ])
    def test_output_does_not_follow_the_hash_seed(self, system, goal, size):
        src = str(Path(__file__).resolve().parent.parent / "src")
        outs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c",
                 "from proofmill.cli import main; main()",
                 "countermodel", system, goal, "--seed", "0",
                 "--max-size", size],
                env=env, capture_output=True, text=True, check=True)
            outs.append(done.stdout)
        assert outs[0] == outs[1]
        assert outs[0].startswith("countermodel with")

    def test_max_size_below_one_is_usage_error(self):
        code, out, err = cli("countermodel", "MILL", "p |- q", "--max-size", "0")
        assert code == 2
        assert "max_size must be at least 1" in err
        assert "no countermodel found" not in out

    def test_not_found_for_theorem(self):
        code, out, _ = cli("countermodel", "MILL", "p |- p",
                           "--max-size", "3")
        assert code == 1
        assert "not a provability claim" in out


class TestCorpus:
    def test_shipped_corpus_all_match(self):
        code, out, _ = cli("corpus", CORPUS_DIR)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "35/35 entries matched"
        assert all(line.startswith("PASS") for line in lines[:-1])

    def test_mismatch_exits_one(self, tmp_path):
        (tmp_path / "t.corpus").write_text(
            "bad | MILL | p |- q | provable | s\n")
        code, out, _ = cli("corpus", str(tmp_path))
        assert code == 1
        assert "FAIL" in out
        assert "0/1 entries matched" in out

    def test_missing_dir_is_usage_error(self, tmp_path):
        code, _, err = cli("corpus", str(tmp_path / "void"))
        assert code == 2

    def test_comment_only_corpus_is_usage_error(self, tmp_path):
        (tmp_path / "t.corpus").write_text("# nothing yet\n\n   \n")
        code, out, err = cli("corpus", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: no corpus entries in")


class TestUsage:
    def test_no_arguments(self):
        code, _, _ = cli()
        assert code == 2

    def test_unknown_subcommand(self):
        code, _, _ = cli("transmogrify")
        assert code == 2

    def test_help_exits_zero(self):
        code, _, _ = cli("--help")
        assert code == 0


# -- malformed JSON -------------------------------------------------------------

RS = parse_system("RSBIAT:a,b")


def _deduction():
    return modus_ponens(
        assumption(parse_formula("p & q", MILL)),
        axiom_leaf(parse_formula("(p & q) -o p", MILL), MILL),
    )


def _valid_documents():
    """A valid input per subcommand: (command, JSON object, extra args)."""
    proof = proof_to_json(hilbert_to_sequent(_deduction(), MILL))  # has cuts
    agent_tree = not_nec_rule("a", axiom_leaf(parse_formula("1", RS), RS))
    return [
        ("check-proof", proof, ()),
        ("cut-eliminate", proof, ()),
        ("hilbert-check", deduction_to_json(_deduction(), MILL), ()),
        ("hilbert-check", deduction_to_json(agent_tree, RS), ()),
        ("hilbert-to-sequent", deduction_to_json(_deduction(), MILL), ()),
        ("hilbert-to-sequent", deduction_to_json(agent_tree, RS), ()),
        ("model-check", model_to_json(random_model(7, 3, MILL)), ("MILL",)),
        ("model-check", model_to_json(random_model(2, 3, RS)), ("RSBIAT",)),
        ("check-proof", proof_to_json(hilbert_to_sequent(agent_tree, RS)), ()),
    ]


def _run_on(command, obj, extra=()):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(obj))
        return cli(command, str(path), *extra)


def _replaced(obj, path, value):
    if not path:
        return value
    out = copy.deepcopy(obj)
    inner = out
    for step in path[:-1]:
        inner = inner[step]
    inner[path[-1]] = value
    return out


def _paths(obj, path=()):
    yield path
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)


class TestMalformedJson:
    @pytest.mark.parametrize("command, where, value", [
        ("check-proof", ("proof", "premises"), 5),
        ("cut-eliminate", ("proof", "premises"), 5),
        ("check-proof", ("proof", "rule"), 7),
        ("check-proof", (), [1]),
        ("hilbert-check", ("tree", "premises"), 5),
        ("hilbert-to-sequent", ("tree", "premises"), 5),
        ("hilbert-check", ("tree", "formula"), 3),
        ("hilbert-check", ("system",), "PCMILL"),
        ("hilbert-to-sequent", ("system",), "PCMILL"),
        ("model-check", ("unit",), []),
        ("model-check", ("worlds",), [[1]]),
        # one string is one agent's name: neither two agents nor agent a
        ("hilbert-check", ("agents",), ["a,b"]),
        ("hilbert-check", ("agents",), [" a"]),
    ])
    def test_is_a_usage_error(self, command, where, value):
        # the agents are replaced in a document that names some
        docs = [d for d in _valid_documents() if d[0] == command]
        _, obj, extra = docs[-1] if where == ("agents",) else docs[0]
        code, _, err = _run_on(command, _replaced(obj, where, value), extra)
        assert code == 2, err
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["check-proof", "hilbert-check"])
    @pytest.mark.parametrize("agents", ["ab", {"a": 1, "b": 2}])
    def test_agents_not_a_list_of_strings_is_a_usage_error(self, command, agents):
        # on an RSBIAT:a,b document, where a loader that read the field's
        # letters or keys as agents would accept it
        _, obj, extra = next(d for d in _valid_documents()
                             if d[0] == command and d[1]["agents"])
        assert _run_on(command, obj, extra)[0] == 0
        code, _, err = _run_on(command, _replaced(obj, ("agents",), agents), extra)
        assert code == 2, err
        assert "is not a list of strings" in err

    @pytest.mark.parametrize("doc", range(len(_valid_documents())))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_never_an_internal_error(self, doc, data):
        command, obj, extra = _valid_documents()[doc]
        assert _run_on(command, obj, extra)[0] == 0
        where = data.draw(st.sampled_from(list(_paths(obj))))
        value = data.draw(_JSON | st.sampled_from(["RSBIAT", "PCMILL", "a"]))
        code, _, err = _run_on(command, _replaced(obj, where, value), extra)
        assert code != 3, err
