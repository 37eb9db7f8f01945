"""Command-line front end: theory files in, verdict reports out.

Exit codes: 0 proved, 1 refuted (or evidence against), 2 unknown,
3 usage or parse error. Reports are deterministic for fixed inputs and
budgets except for the timing_ms field.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

from . import derivative as deriv
from . import malcev as mc
from .dsl import ParseError, parse_equation, parse_term, parse_theory, pretty_term
from .engine import (
    Budget,
    Proved,
    Refuted,
    Unknown,
    Verdict,
    decide,
    find_models,
)
from .finset import DiagramError, check_weak_preservation, load_diagram
from .functor import free_algebra, is_idempotent
from .terms import TermError, Theory

EXIT_PROVED = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 3


def _verdict_json(theory: Theory, v: Verdict) -> dict:
    if isinstance(v, Proved):
        method = type(v.witness).__name__ if v.witness is not None else "none"
        detail = v.witness if isinstance(v.witness, str) else method
        return {"status": "proved", "detail": detail}
    if isinstance(v, Refuted):
        return {
            "status": "refuted",
            "model": {"size": v.model.size, "tables": v.model.nested_tables(theory)},
            "assignment": dict(sorted(v.assignment.items())),
        }
    return {"status": "unknown", "reason": v.reason}


def _exit_code(v: Verdict) -> int:
    if v.is_proved:
        return EXIT_PROVED
    if v.is_refuted:
        return EXIT_REFUTED
    return EXIT_UNKNOWN


def _budget(args) -> Budget:
    return Budget(args.max_term_size, args.max_steps, args.max_model_size)


def _print_report(args, report: dict, human_lines):
    if args.json:
        text = json.dumps(report, indent=2, default=str)
    else:
        text = "\n".join(human_lines)
    print(text, flush=True)


def _term_str(theory, t):
    return pretty_term(theory.signature, t)


# ---------------------------------------------------------------------------
# Command handlers. Each returns a _Result.


@dataclass
class _Result:
    """One command's report; exit_code overrides the code the verdict implies."""

    params: dict
    verdict: Verdict
    human: list
    witnesses: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    exit_code: int | None = None


def _cmd_prove(theory, args, budget):
    eq = parse_equation(theory.signature, args.equation)
    v = decide(theory, eq, budget)
    human = [f"{args.equation}: {_verdict_json(theory, v)['status']}"]
    if v.is_refuted:
        human.append(f"  countermodel of size {v.model.size}, assignment {v.assignment}")
    return _Result({"equation": args.equation}, v, human)


def _cmd_models(theory, args, budget):
    models = find_models(theory, args.size)
    tables = [
        {"size": m.size, "tables": m.nested_tables(theory)} for m in models
    ]
    v = Proved(f"{len(models)} models up to size {args.size}")
    human = [f"{len(models)} models of size <= {args.size}"]
    for m in models:
        human.append(f"  size {m.size}: {m.nested_tables(theory)}")
    return _Result({"size": args.size}, v, human, extra={"models": tables})


def _cmd_free(theory, args, budget):
    variables = [v for v in args.vars.split(",") if v]
    carrier = free_algebra(theory, variables, args.bound, budget)
    elems = [_term_str(theory, t) for t in carrier.elements]
    v = Proved(
        f"{len(elems)} elements up to bound {args.bound}"
        + (" (some equivalences undecided)" if carrier.dedup_unknown else "")
    )
    human = [
        f"free algebra over {{{', '.join(variables)}}} up to size {args.bound}:"
        f" {len(elems)} elements"
    ]
    human += [f"  {e}" for e in elems]
    if carrier.dedup_unknown:
        human.append("  (warning: some equivalences undecided within budget)")
    extra = {"elements": elems, "dedup_unknown": carrier.dedup_unknown}
    return _Result({"vars": variables, "bound": args.bound}, v, human, elems, extra)


def _cmd_idempotent(theory, args, budget):
    v = is_idempotent(theory, budget)
    human = [f"idempotent: {_verdict_json(theory, v)['status']}"]
    return _Result({}, v, human)


def _scan_to_json(theory, report):
    entries = []
    for e in report.entries:
        entries.append(
            {
                "term": _term_str(theory, e.term),
                "occurrence": list(e.occurrence),
                "weak_witness": {
                    "assignment": {
                        str(list(path)): name for path, name in e.weak_witness.assignment
                    },
                    "target": _term_str(theory, e.weak_witness.target),
                },
                "independence": _verdict_json(theory, e.independence),
            }
        )
    return entries


def _cmd_derivative(theory, args, budget, summary=False):
    report = deriv.derivative_scan(theory, args.term_bound, args.q_bound, budget)
    v = report.overall
    status = _verdict_json(theory, v)["status"]
    if summary:
        if v.is_proved:
            head = (
                f"preimages preserved: verified up to bound"
                f" (term_bound={report.scanned_bound}, q_bound={report.q_bound})"
            )
        elif v.is_refuted:
            head = "preimages NOT preserved (countermodel attached)"
        else:
            head = f"undecided: {v.reason}"
        human = [head]
    else:
        human = [
            f"derivative scan up to term_bound={report.scanned_bound},"
            f" q_bound={report.q_bound}: {status}",
            f"  occurrences scanned: {report.occurrences_scanned};"
            f" weakly independent: {len(report.entries)}",
        ]
    refuting = [e for e in report.entries if e.independence.is_refuted]
    if refuting:
        e = refuting[0]
        human.append(
            f"  witness: {_term_str(theory, e.term)} at occurrence {list(e.occurrence)}"
            f" is weakly independent (target {_term_str(theory, e.weak_witness.target)})"
            f" but not independent"
        )
    extra = {
        "occurrences_scanned": report.occurrences_scanned,
        "entries": _scan_to_json(theory, report),
    }
    params = {"term_bound": args.term_bound, "q_bound": args.q_bound}
    witnesses = [_term_str(theory, e.term) for e in refuting]
    return _Result(params, v, human, witnesses, extra)


def _cmd_malcev(theory, args, budget):
    m = mc.find_malcev_term(theory, args.bound, budget)
    if m is None:
        v = Unknown(f"no Mal'cev term up to size {args.bound}")
        return _Result({"bound": args.bound}, v, [v.reason])
    v = Proved(f"Mal'cev term found: {_term_str(theory, m)}")
    human = [f"Mal'cev term: {_term_str(theory, m)}"]
    return _Result({"bound": args.bound}, v, human, [_term_str(theory, m)])


def _cmd_hm_chain(theory, args, budget):
    chain = mc.find_hm_chain(theory, args.n, args.bound, budget)
    if chain is None:
        v = Unknown(f"no {args.n}-permutability chain up to size {args.bound}")
        return _Result({"n": args.n, "bound": args.bound}, v, [v.reason])
    terms = [_term_str(theory, t) for t in chain.terms]
    v = Proved(f"{args.n}-permutability chain found")
    human = [f"chain (n={args.n}): " + "; ".join(terms)]
    return _Result({"n": args.n, "bound": args.bound}, v, human, terms)


def _cmd_shorten(theory, args, budget):
    chain = mc.MalcevChain(
        tuple(parse_term(theory.signature, s) for s in args.chain.split(";") if s.strip())
    )
    check = mc.verify_chain(theory, chain, budget)
    if not check.is_proved:
        v = Unknown(f"input chain did not verify: {check}")
        return _Result({"chain": args.chain}, v, [v.reason])
    result = mc.shorten_chain(theory, chain, budget, s_bound=args.s_bound)
    if result.chain is None:
        v = result.verdict
        human = [f"could not shorten: {v.reason}"]
        return _Result({"chain": args.chain, "s_bound": args.s_bound}, v, human)
    terms = [_term_str(theory, t) for t in result.chain.terms]
    v = result.verdict
    human = [
        f"s = {_term_str(theory, result.s)}",
        f"shortened chain (n={result.chain.n}): " + "; ".join(terms),
        f"re-verification: {_verdict_json(theory, v)['status']}",
    ]
    extra = {"s": _term_str(theory, result.s), "chain": terms}
    return _Result({"chain": args.chain, "s_bound": args.s_bound}, v, human, terms, extra)


def _cmd_kernel_report(theory, args, budget):
    report = mc.kernel_pair_report(theory, args.pair_bound, args.s_bound, budget)
    v = report.verdict
    human = [f"kernel-pair report: {report.status}"]
    witnesses = []
    extra = {
        "report_status": report.status,
        "pairs_scanned": len(report.pairs),
        "open_pairs": [
            [_term_str(theory, p), _term_str(theory, q)] for p, q in report.open_pairs
        ],
        "unknown_compatibility": [
            [_term_str(theory, p), _term_str(theory, q)] for p, q in report.unknown_compat
        ],
    }
    if report.malcev_term is not None:
        witnesses.append(_term_str(theory, report.malcev_term))
        human.append(f"  Mal'cev term: {_term_str(theory, report.malcev_term)}")
        extra["malcev_term"] = _term_str(theory, report.malcev_term)
    if report.hm_chain is not None:
        chain_terms = [_term_str(theory, t) for t in report.hm_chain.terms]
        extra["hm_chain"] = chain_terms
        human.append("  3-permutability chain: " + "; ".join(chain_terms))
    if report.open_pairs:
        human.append(f"  pairs without s up to bound: {len(report.open_pairs)}")
    params = {"pair_bound": args.pair_bound, "s_bound": args.s_bound}
    exit_code = EXIT_REFUTED if report.status == "evidence_against" else None
    return _Result(params, v, human, witnesses, extra, exit_code)


def _cmd_preserve(theory, args, budget):
    with open(args.diagram, "r", encoding="utf-8") as fh:
        diagram = load_diagram(fh)
    report = check_weak_preservation(
        theory, diagram, args.carrier_bound, args.witness_bound, budget
    )
    v = report.verdict
    human = [
        f"weak preservation on the diagram: {_verdict_json(theory, v)['status']}"
        f" (carrier_bound={args.carrier_bound}, witness_bound={args.witness_bound})",
        f"  compatible pairs checked: {len(report.pairs)}",
    ]
    if v.is_unknown and v.detail is not None:
        u1, u2 = v.detail
        human.append(
            f"  no witness up to bound for ({_term_str(theory, u1)}, {_term_str(theory, u2)})"
        )
    extra = {
        "pairs": [
            {
                "u1": _term_str(theory, pc.u1),
                "u2": _term_str(theory, pc.u2),
                "witness": None if pc.witness is None else _term_str(theory, pc.witness),
            }
            for pc in report.pairs
        ],
        "apex_vars": {str(k): v for k, v in report.apex_vars.items()},
    }
    params = {
        "diagram": args.diagram,
        "carrier_bound": args.carrier_bound,
        "witness_bound": args.witness_bound,
    }
    return _Result(params, v, human, extra=extra)


_HANDLERS = {
    "prove": _cmd_prove,
    "models": _cmd_models,
    "free": _cmd_free,
    "idempotent": _cmd_idempotent,
    "derivative": lambda th, a, b: _cmd_derivative(th, a, b, summary=False),
    "check-preimages": lambda th, a, b: _cmd_derivative(th, a, b, summary=True),
    "malcev": _cmd_malcev,
    "hm-chain": _cmd_hm_chain,
    "shorten": _cmd_shorten,
    "kernel-report": _cmd_kernel_report,
    "preserve": _cmd_preserve,
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freealg",
        description="Analyze finitary equational theories: free algebras,"
        " derivatives, Mal'cev conditions, finite-Set diagram checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("theory", help="theory file in the DSL")
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--max-term-size", type=int, default=9)
        p.add_argument("--max-steps", type=int, default=200_000)
        p.add_argument("--max-model-size", type=int, default=3)

    p = sub.add_parser("prove", help="decide an equation (disproof first)")
    common(p)
    p.add_argument("equation", help='equation like "mul(x,y) = mul(y,x)"')

    p = sub.add_parser("models", help="list all finite models up to a size")
    common(p)
    p.add_argument("--size", type=int, default=2)

    p = sub.add_parser("free", help="materialize a bounded free algebra")
    common(p)
    p.add_argument("--vars", default="x,y")
    p.add_argument("--bound", type=int, default=4)

    p = sub.add_parser("idempotent", help="is every operation idempotent?")
    common(p)

    for name, help_text in (
        ("derivative", "scan weak independence vs independence"),
        ("check-preimages", "preimage-preservation verdict (derivative summary)"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.add_argument("--term-bound", type=int, default=6)
        p.add_argument("--q-bound", type=int, default=5)

    p = sub.add_parser("malcev", help="search for a Mal'cev term")
    common(p)
    p.add_argument("--bound", type=int, default=7)

    p = sub.add_parser("hm-chain", help="search for an n-permutability chain")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, default=6)

    p = sub.add_parser("shorten", help="shorten a verified chain by one")
    common(p)
    p.add_argument("--chain", required=True, help='terms over x,y,z: "p1; p2; ..."')
    p.add_argument("--s-bound", type=int, default=7)

    p = sub.add_parser("kernel-report", help="kernel-pair preservation evidence")
    common(p)
    p.add_argument("--pair-bound", type=int, default=3)
    p.add_argument("--s-bound", type=int, default=6)

    p = sub.add_parser("preserve", help="check one diagram for weak preservation")
    common(p)
    p.add_argument("--diagram", required=True, help="diagram JSON file")
    p.add_argument("--carrier-bound", type=int, default=3)
    p.add_argument("--witness-bound", type=int, default=7)

    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        with open(args.theory, "r", encoding="utf-8") as fh:
            source = fh.read()
        theory = parse_theory(source)
        budget = _budget(args)
        t0 = time.monotonic()
        result = _HANDLERS[args.command](theory, args, budget)
        elapsed_ms = int((time.monotonic() - t0) * 1000)
        report = {
            "command": args.command,
            "theory_hash": "sha256:" + hashlib.sha256(source.encode()).hexdigest(),
            "budgets": {
                "max_term_size": budget.max_term_size,
                "max_steps": budget.max_steps,
                "max_model_size": budget.max_model_size,
            },
            "params": result.params,
            "verdict": _verdict_json(theory, result.verdict),
            "witnesses": result.witnesses,
        }
        report.update(result.extra)
        report["timing_ms"] = elapsed_ms
        code = result.exit_code if result.exit_code is not None else _exit_code(result.verdict)
        try:
            _print_report(args, report, result.human)
        except BrokenPipeError:
            # the reader left early; the verdict stands. Point stdout at
            # devnull so the flush at shutdown cannot fail a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return code
    except (ParseError, TermError, DiagramError, OSError, ValueError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
