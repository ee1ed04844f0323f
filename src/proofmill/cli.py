"""Command-line front end.

Every subcommand is a thin adapter: parse the arguments, call the same
library functions any program would, format the result.  Exit status is
0 when the requested check fully succeeds, 1 when it runs but the
verdict is negative (not proved, proof fails checking, model invalid,
corpus mismatch, no countermodel found), 2 on usage or input parse
errors, and 3 on an internal error (an unexpected exception, reported
as one line on stderr).  ``main`` restores the default ``SIGPIPE``
action, so a closed stdout ends the process silently by that signal,
as it ends other Unix filters; ``run`` installs no handler.

Agent-indexed systems may be named bare (``RSBIAT``, ``SRSBIAT``) on
subcommands that also take a sequent; the agent alphabet is then read
off the ``E[...]`` operators among the parser's tokens of the sequent,
in order of first occurrence.  ``model-eval`` infers the whole system
from the model: a serial operation selects the tree-context family,
agent neighbourhood tables select the agent-indexed family.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from .calculus import (
    check_proof,
    cut_count,
    proof_from_json,
    proof_to_json,
    proof_size,
)
from .context import parse_sequent
from .corpus import load_corpus_dir, run_corpus, verdict_word
from .cutelim import CutEliminationError, eliminate_cuts
from .hilbert import (
    check_deduction,
    deduction_from_json,
    hilbert_to_sequent,
)
from .search import Proved, prove_with_stats
from .semantics import (
    Evaluator,
    Model,
    find_countermodel,
    model_from_json,
    model_to_json,
    validate_model,
)
from .syntax import AGENT_SYSTEMS, System, mentioned_agents, parse_system

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


def _system_named(name: str, agents: list[str]) -> System:
    """The system ``name`` names; a bare RSBIAT or SRSBIAT takes
    ``agents``, when there are any."""
    if agents and ":" not in name and name.strip() in [s.value for s in AGENT_SYSTEMS]:
        name = f"{name}:{','.join(agents)}"
    try:
        return parse_system(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse(text: str, system: System):
    try:
        return parse_sequent(text, system)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load(path: str, reader):
    """``reader`` applied to the JSON in ``path``; a file that cannot be
    read, or does not describe what ``reader`` builds, is a usage error."""
    try:
        with open(path) as fh:
            return reader(json.load(fh))
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from None
    except (ValueError, KeyError) as exc:
        raise UsageError(f"{path}: {exc}") from None


def _model_system(m: Model, sequent_text: str) -> System:
    # a lone ``box`` key is the box table; beside an agent's, an agent
    agents = [] if list(m.neighbourhoods) == ["box"] else list(m.neighbourhoods)
    for name in mentioned_agents(sequent_text):
        if name not in agents:
            agents.append(name)
    serial = m.serial_op is not None
    if agents:
        ident = "SRSBIAT" if serial else "RSBIAT"
        return parse_system(f"{ident}:{','.join(agents)}")
    return parse_system("PCMILL" if serial else "MILL")


def _emit_proof(path: str | None, proof) -> None:
    """Write ``proof`` as JSON to ``path``, when the caller gave one, whole
    or not at all; a path that cannot be written is a usage error."""
    if path:
        # a new or regular file is replaced once the proof is written
        # whole; a link, pipe or device (/dev/stdout) is written through
        whole = not os.path.lexists(path) or os.path.isfile(path) and not os.path.islink(path)
        tmp = f"{path}.{os.getpid()}.tmp" if whole else path
        try:
            with open(tmp, "w") as fh:
                json.dump(proof_to_json(proof), fh, indent=2)
                fh.write("\n")
            if whole:
                os.replace(tmp, path)
        except OSError as exc:
            raise UsageError(f"cannot write {path}: {exc}") from None
        finally:
            if whole and os.path.exists(tmp):
                os.remove(tmp)
        print(f"proof written to {path}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_prove(args) -> int:
    system = _system_named(args.system, mentioned_agents(args.sequent))
    seq = _parse(args.sequent, system)
    result, stats = prove_with_stats(seq)
    print(verdict_word(result, system))
    print(f"explored {result.explored} sequents, pruned {stats.pruned}, "
          f"peak depth {result.peak_depth}")
    if isinstance(result, Proved):
        _emit_proof(args.emit_proof, result.proof)
        return EXIT_OK
    hint = find_countermodel(seq, max_size=3, attempts=8)
    if hint is not None:
        print(f"countermodel hint: {len(hint.model.worlds)} worlds, "
              f"falsified at world {hint.world!r} "
              f"(try the countermodel subcommand)")
    return EXIT_FAIL


def _cmd_check_proof(args) -> int:
    p = _load(args.path, proof_from_json)
    report = check_proof(p)
    if report.ok:
        print(f"ok: {p.conclusion.key}  [{p.conclusion.system},"
              f" {proof_size(p)} nodes, {cut_count(p)} cuts]")
        return EXIT_OK
    for path, msg in report.violations:
        print(f"at node {list(path)}: {msg}")
    return EXIT_FAIL


def _cmd_cut_eliminate(args) -> int:
    p = _load(args.path, proof_from_json)
    try:
        cut_free, trace = eliminate_cuts(p)
    except (ValueError, CutEliminationError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    if args.trace:
        for i, step in enumerate(trace.steps, start=1):
            print(f"{i:4d}. {step.kind:11s} {step.formula.key}  "
                  f"at {list(step.path)}")
    print(f"cut-free proof of {cut_free.conclusion.key} "
          f"in {len(trace)} steps "
          f"({proof_size(p)} -> {proof_size(cut_free)} nodes)")
    _emit_proof(args.emit_proof, cut_free)
    return EXIT_OK


def _cmd_hilbert_check(args) -> int:
    tree, system = _load(args.path, deduction_from_json)
    report = check_deduction(tree, system)
    if report.ok:
        print(f"ok: {tree.statement()}  [{system}]")
        return EXIT_OK
    for path, msg in report.violations:
        print(f"at node {list(path)}: {msg}")
    return EXIT_FAIL


def _cmd_hilbert_to_sequent(args) -> int:
    tree, system = _load(args.path, deduction_from_json)
    try:
        p = hilbert_to_sequent(tree, system)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_FAIL
    print(f"sequent proof of {p.conclusion.key}  "
          f"[{proof_size(p)} nodes, {cut_count(p)} cuts]")
    _emit_proof(args.emit_proof, p)
    return EXIT_OK


def _cmd_model_check(args) -> int:
    m = _load(args.model, model_from_json)
    system = _system_named(args.system, list(m.neighbourhoods))
    report = validate_model(m, system)
    if report.ok:
        print(f"valid {system} model ({len(m.worlds)} worlds)")
        return EXIT_OK
    for msg in report.failures:
        print(msg)
    return EXIT_FAIL


def _cmd_model_eval(args) -> int:
    m = _load(args.model, model_from_json)
    system = _model_system(m, args.sequent)
    seq = _parse(args.sequent, system)
    # a malformed model, or a modality it has no table for
    try:
        ev = Evaluator(m)
        valid = ev.sequent_valid(seq)
        world = None if valid else ev.falsifying_world(seq)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if valid:
        print(f"valid in the model  [{system}]")
        return EXIT_OK
    print(f"invalid: falsified at world {world!r}  "
          f"[{system}]")
    return EXIT_FAIL


def _cmd_countermodel(args) -> int:
    system = _system_named(args.system, mentioned_agents(args.sequent))
    seq = _parse(args.sequent, system)
    try:
        cm = find_countermodel(seq, max_size=args.max_size, seed=args.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if cm is None:
        print(f"no countermodel found (worlds <= {args.max_size}, "
              f"seed {args.seed}); this is not a provability claim")
        return EXIT_FAIL
    print(f"countermodel with {len(cm.model.worlds)} worlds, "
          f"falsified at world {cm.world!r}")
    print(json.dumps(model_to_json(cm.model), indent=2))
    return EXIT_OK


def _cmd_corpus(args) -> int:
    try:
        entries = load_corpus_dir(args.dir)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    results = run_corpus(entries)
    width = max(len(r.entry.entry_id) for r in results)
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{mark}  {r.entry.entry_id:{width}s}  "
              f"{r.verdict}  (expected {r.entry.expected})")
    print(f"{len(results) - failures}/{len(results)} entries matched")
    return EXIT_OK if failures == 0 else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofmill",
        description="Sequent proof search, proof checking, cut "
                    "elimination, Hilbert deductions and finite "
                    "resource-model semantics for modal extensions of "
                    "intuitionistic linear logic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="backward proof search")
    p.add_argument("system", help="MILL, PCMILL, RSBIAT[:a,b], SRSBIAT[:a,b]")
    p.add_argument("sequent", help="e.g. 'p, p -o q |- q'")
    p.add_argument("--emit-proof", metavar="PATH",
                   help="write the found proof as JSON")
    p.set_defaults(fn=_cmd_prove)

    p = sub.add_parser("check-proof", help="verify a JSON proof object")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_check_proof)

    p = sub.add_parser("cut-eliminate",
                       help="rewrite a proof to cut-free form")
    p.add_argument("path")
    p.add_argument("--trace", action="store_true",
                   help="print every reduction step")
    p.add_argument("--emit-proof", metavar="PATH",
                   help="write the cut-free proof as JSON")
    p.set_defaults(fn=_cmd_cut_eliminate)

    p = sub.add_parser("hilbert-check",
                       help="verify a JSON Hilbert deduction tree")
    p.add_argument("path")
    p.set_defaults(fn=_cmd_hilbert_check)

    p = sub.add_parser("hilbert-to-sequent",
                       help="translate a deduction tree to a sequent proof")
    p.add_argument("path")
    p.add_argument("--emit-proof", metavar="PATH",
                   help="write the translated proof as JSON")
    p.set_defaults(fn=_cmd_hilbert_to_sequent)

    p = sub.add_parser("model-check",
                       help="validate a JSON model against a system's "
                            "frame conditions")
    p.add_argument("model")
    p.add_argument("system")
    p.set_defaults(fn=_cmd_model_check)

    p = sub.add_parser("model-eval",
                       help="evaluate a sequent in a JSON model")
    p.add_argument("model")
    p.add_argument("sequent")
    p.set_defaults(fn=_cmd_model_eval)

    p = sub.add_parser("countermodel",
                       help="search random models for one falsifying "
                            "the sequent")
    p.add_argument("system")
    p.add_argument("sequent")
    p.add_argument("--max-size", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_countermodel)

    p = sub.add_parser("corpus", help="run every entry in a corpus "
                                      "directory and compare verdicts")
    p.add_argument("dir")
    p.set_defaults(fn=_cmd_corpus)

    return parser


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
