"""Command-line front end.

Exit codes: 0 for a definitive answer, 1 for a usage error, a refused
theory, a file that cannot be read or parsed, or any other package error
(`LinvarError`), 2 for an Unknown outcome (search bounds exhausted).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from . import classification, derivatives, models, projection, rewriting, saturation
from .dsl import load_json, load_theory, parse_identity, render_theory, theory_to_json
from .rewriting import SearchBounds
from .saturation import Entailed, NotEntailedWithModel
from .terms import LinvarError
from .theories import is_linear_identity, join_disjoint, validate

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linvar",
        description="Classify linear idempotent equational theories by their "
                    "derivatives, with machine-checkable certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", metavar="PATH", help="write the full report as JSON")

    p = sub.add_parser("validate", help="check linearity and idempotency")
    p.add_argument("theory")
    add_common(p)

    p = sub.add_parser("derive", help="compute the derivative (or order derivative)")
    p.add_argument("theory")
    p.add_argument("--order", action="store_true", help="use the order derivative")
    p.add_argument("--iterate", action="store_true",
                   help="iterate to inconsistency or fixpoint")
    add_common(p)

    p = sub.add_parser("classify", help="decide CM, congruence identities, "
                                        "and n-permutability")
    p.add_argument("theory")
    p.add_argument("--min", type=int, default=models.DEFAULT_SIZES[0],
                   help="smallest model size to try")
    p.add_argument("--max", type=int, default=models.DEFAULT_SIZES[1],
                   help="largest model size to try")
    p.add_argument("--sufficient-only", action="store_true",
                   help="accept idempotent non-linear input; report only the "
                        "sound direction")
    add_common(p)

    p = sub.add_parser("entail", help="decide a linear identity against a theory")
    p.add_argument("theory")
    p.add_argument("identity", help='e.g. "x = p(y,x,x)"')
    p.add_argument("--max-terms", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None)
    p.add_argument("--max-term-size", type=int, default=None)
    add_common(p)

    p = sub.add_parser("models", help="search for finite models")
    p.add_argument("theory")
    p.add_argument("--min", type=int, default=models.DEFAULT_SIZES[0])
    p.add_argument("--max", type=int, default=models.DEFAULT_SIZES[1])
    p.add_argument("--refute", metavar="EXPR",
                   help='find a model separating the sides of "lhs = rhs"')
    add_common(p)

    p = sub.add_parser("join", help="disjoint join of two theories")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--check-decomposition", action="store_true",
                   help="check stagewise distribution of both derivatives and "
                        "the prime-filter property")
    add_common(p)

    p = sub.add_parser("project", help="project a join derivation of "
                                       "F(x,...) = y into the owning component")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("derivation", help="derivation JSON file")
    add_common(p)

    p = sub.add_parser("check-derivation", help="verify a derivation file")
    p.add_argument("theory")
    p.add_argument("derivation")
    add_common(p)
    return parser


def _bounds(args: argparse.Namespace) -> SearchBounds:
    """The search bounds given on the command line, defaults for the rest;
    0 is a bound like any other."""
    given = {name: getattr(args, name)
             for name in ("max_terms", "max_depth", "max_term_size")
             if getattr(args, name) is not None}
    return SearchBounds(**given)


def _cmd_validate(args) -> tuple[int, dict]:
    theory = load_theory(args.theory)
    report = validate(theory)
    payload = {
        "theory": theory.name,
        "is_linear": report.is_linear,
        "nonlinear_axioms": [str(e) for e in report.nonlinear_identities],
        "idempotency": dict(report.idempotency),
        "ok": report.ok,
    }
    print(f"theory {theory.name}: linear={'yes' if report.is_linear else 'no'}")
    for e in report.nonlinear_identities:
        print(f"  non-linear axiom: {e}")
    for name, status in report.idempotency:
        print(f"  idempotency of {name}: {status}")
    for problem in report.problems:
        print(f"  refused: {problem}")
    return (EXIT_OK if report.ok else EXIT_ERROR), payload


def _cmd_derive(args) -> tuple[int, dict]:
    theory = load_theory(args.theory)
    operator = "order_derivative" if args.order else "derivative"
    if args.iterate:
        trace = derivatives.iterate(theory, operator)
        payload = {
            "operator": operator,
            "stop": trace.stop_reason,
            "stages": [theory_to_json(t) for t in trace.stages],
        }
        if isinstance(trace.certificate, Entailed):
            payload["certificate"] = rewriting.derivation_to_json(
                trace.certificate.derivation)
        for n, stage in enumerate(trace.stages):
            print(f"# stage {n} ({len(stage.codes)} identities)")
            print(render_theory(stage))
        print(f"stopped: {trace.stop_reason} at stage {len(trace.stages) - 1}")
        return EXIT_OK, payload
    out = (derivatives.order_derivative(theory) if args.order
           else derivatives.derivative(theory))
    print(render_theory(out), end="")
    return EXIT_OK, {"operator": operator, "result": theory_to_json(out)}


def _cmd_classify(args) -> tuple[int, dict]:
    theory = load_theory(args.theory)
    report = classification.classify(
        theory, model_range=(args.min, args.max),
        sufficient_only=args.sufficient_only)
    names = {"cm": "CM", "nci": "NCI", "nperm": "n-permutable"}
    answers = {True: "yes", False: "no", None: "unknown"}
    parts = []
    for v in report.verdicts:
        label = f"{names[v.property_name]}: {answers[v.answer]}"
        if v.answer is True:
            label += f" ({v.stages_used} stage{'s' if v.stages_used != 1 else ''})"
        parts.append(label)
    print(f"theory {theory.name}: " + "  ".join(parts))
    for v in report.verdicts:
        if v.derivation is not None:
            chain = " = ".join(str(t) for t in v.derivation.terms)
            print(f"  {names[v.property_name]} certificate: {chain}")
        elif v.model is not None:
            print(f"  {names[v.property_name]} certificate: model of size "
                  f"{v.model.size} for the stabilized stage")
        elif v.note:
            print(f"  {names[v.property_name]}: {v.note}")
    code = EXIT_UNKNOWN if any(v.answer is None for v in report.verdicts) else EXIT_OK
    return code, report.to_json()


def _entailed(derivation: rewriting.Derivation) -> tuple[int, dict]:
    """Print and report a goal proved by `derivation`."""
    out = rewriting.derivation_to_json(derivation)
    print(f"entailed ({len(derivation.steps)} steps)")
    print(json.dumps(out, indent=2))
    return EXIT_OK, {"verdict": "entailed", "derivation": out}


def _cmd_entail(args) -> tuple[int, dict]:
    theory = load_theory(args.theory)
    arities = {s.name: s.arity for s in theory.symbols}
    goal = parse_identity(args.identity, arities)
    # saturation decides linear goals over linear theories; search the rest
    if is_linear_identity(goal) and all(map(is_linear_identity, theory.identities)):
        base = saturation.saturate(theory, saturation.goal_budget(goal))
        verdict = saturation.entails_flat(base, goal)
        if isinstance(verdict, Entailed):
            return _entailed(verdict.derivation)
        if isinstance(verdict, NotEntailedWithModel):
            print(f"not entailed; countermodel size {verdict.algebra.size} "
                  f"under {dict(verdict.assignment)}")
            return EXIT_OK, {"verdict": "not-entailed",
                             "countermodel": verdict.algebra.to_json(),
                             "assignment": dict(verdict.assignment)}
        print("not entailed (saturation fixpoint; no small countermodel found)")
        return EXIT_OK, {"verdict": "not-entailed"}
    outcome = rewriting.bfs_prove(theory, goal, _bounds(args))
    if isinstance(outcome, rewriting.Proved):
        return _entailed(outcome.derivation)
    print(f"unknown: {outcome.stats.reason} "
          f"(expanded {outcome.stats.expanded} terms)")
    return EXIT_UNKNOWN, {"verdict": "unknown", "reason": outcome.stats.reason}


def _cmd_models(args) -> tuple[int, dict]:
    theory = load_theory(args.theory)
    arities = {s.name: s.arity for s in theory.symbols}
    if args.refute:
        goal = parse_identity(args.refute, arities)
        found = models.refute_entailment(theory, goal, args.min, args.max)
        if found is None:
            print(f"no countermodel of size {args.min}..{args.max} "
                  "(a bound, not a proof of entailment)")
            return EXIT_OK, {"found": False}
        algebra, rho = found
        print(json.dumps(algebra.to_json(), indent=2))
        print(f"assignment: { {v.name: k for v, k in rho.items()} }")
        return EXIT_OK, {"found": True, "model": algebra.to_json(),
                         "assignment": {v.name: k for v, k in rho.items()}}
    found = models.find_model(theory, args.min, args.max)
    if found is None:
        print(f"no model of size {args.min}..{args.max}")
        return EXIT_OK, {"found": False}
    algebra, _ = found
    print(json.dumps(algebra.to_json(), indent=2))
    return EXIT_OK, {"found": True, "model": algebra.to_json()}


def _cmd_join(args) -> tuple[int, dict]:
    left = load_theory(args.left)
    right = load_theory(args.right)
    joined = join_disjoint(left, right)
    print(render_theory(joined), end="")
    payload: dict = {"join": theory_to_json(joined)}
    if args.check_decomposition:
        report = classification.check_join_decomposition(left, right)
        payload["decomposition"] = report.to_json()
        for op in report.operators:
            status = "holds" if op.holds else "FAILS"
            print(f"{op.operator} distributes over the join at all "
                  f"{op.stages_compared} stages: {status}")
        for name, j, a, b in report.properties:
            agree = "ok" if j == (a or b) else "MISMATCH"
            print(f"{name}: join={j} left={a} right={b} ({agree})")
    return EXIT_OK, payload


def _cmd_project(args) -> tuple[int, dict]:
    left = load_theory(args.left)
    right = load_theory(args.right)
    d = rewriting.derivation_from_json(load_json(args.derivation))
    result = projection.project_to_component(left, right, d)
    out = rewriting.derivation_to_json(result.derivation)
    print(json.dumps(out, indent=2))
    print(f"verified against {result.owner_theory.name}; all terms flat")
    return EXIT_OK, {"owner": result.owner_index,
                     "owner_theory": result.owner_theory.name,
                     "derivation": out, "verified": True}


def _cmd_check_derivation(args) -> tuple[int, dict]:
    theory = load_theory(args.theory)
    d = rewriting.derivation_from_json(load_json(args.derivation))
    result = rewriting.verify_derivation(theory, d)
    if result:
        print(f"valid derivation of {d.terms[0]} = {d.terms[-1]} "
              f"({len(d.steps)} steps)")
    else:
        where = "" if result.step_index is None else f" at step {result.step_index}"
        print(f"INVALID{where}: {result.reason}")
    return EXIT_OK, {"valid": bool(result), "step": result.step_index,
                     "reason": result.reason}


_COMMANDS = {
    "validate": _cmd_validate,
    "derive": _cmd_derive,
    "classify": _cmd_classify,
    "entail": _cmd_entail,
    "models": _cmd_models,
    "join": _cmd_join,
    "project": _cmd_project,
    "check-derivation": _cmd_check_derivation,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    started = time.time()
    try:
        code, payload = _COMMANDS[args.command](args)
        sys.stdout.flush()
        if getattr(args, "json", None):
            bounds: dict = {}
            for name in ("min", "max", "max_terms", "max_depth", "max_term_size"):
                if getattr(args, name, None) is not None:
                    bounds[name.replace("_", "-")] = getattr(args, name)
            report = {
                "command": args.command,
                "argv": list(argv) if argv is not None else sys.argv[1:],
                "version": VERSION,
                "bounds": bounds,
                "elapsed_s": round(time.time() - started, 3),
                "result": payload,
                "exit_code": code,
            }
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2)
                handle.write("\n")
    except BrokenPipeError:
        # the reader closed stdout; send the rest of the output to devnull
        # so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_ERROR
    except (LinvarError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    raise SystemExit(main())
