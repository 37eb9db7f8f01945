"""Verdict checks run after the timed section.

Failed means: an exception, exit code 3, a Proved that does not replay, a
Refuted whose model is not a model of the theory or whose assignment does
not falsify the equation, or a Proved<->Refuted flip against the recorded
expectation. A changed report digest is drift, counted on its own: a
verdict may legitimately move from Unknown to decided.
"""

from __future__ import annotations

import hashlib
import json

import freealg
from freealg.terms import Equation, Var, subterm_at, substitute, var_names

EXIT_USAGE = 3
STATUS_LETTER = {"proved": "P", "refuted": "R", "unknown": "U"}
STATUS_NAME = {letter: name for name, letter in STATUS_LETTER.items()}


def status_of(verdict) -> str:
    if verdict.is_proved:
        return "proved"
    return "refuted" if verdict.is_refuted else "unknown"


def is_flip(expected: str, got: str) -> bool:
    return {expected, got} == {"proved", "refuted"}


def report_digest(report: dict) -> str:
    """SHA-256 of a --json report without its wall-clock field."""
    stable = {k: v for k, v in report.items() if k != "timing_ms"}
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def _falsifies(theory, model, assignment, eq) -> bool:
    return model.satisfies(theory) and (
        freealg.eval_term(model, eq.lhs, assignment) != freealg.eval_term(model, eq.rhs, assignment)
    )


def check_decide(theory, eq, verdict):
    """None when the verdict carries valid evidence, else a failure message."""
    if isinstance(verdict, Exception):
        return f"exception: {verdict!r}"
    if verdict.is_proved and not freealg.replay(theory, eq, verdict):
        return "Proved verdict does not replay"
    if verdict.is_refuted and not _falsifies(theory, verdict.model, verdict.assignment, eq):
        return "Refuted verdict's countermodel does not falsify the equation"
    return None


def _algebra(theory, model_json) -> freealg.FiniteAlgebra:
    """Rebuild a FiniteAlgebra from a report's nested tables."""

    def flat(table):
        if isinstance(table, list):
            return [v for row in table for v in flat(row)]
        return [table]

    symbols = theory.signature.symbols
    return freealg.FiniteAlgebra(
        model_json["size"],
        tuple(a for _, a in symbols),
        tuple(tuple(flat(model_json["tables"][name])) for name, _ in symbols),
    )


def _independence_equation(theory, term_text, path):
    """p(x, z1..) = p(y, z1..): the equation derivative.is_independent
    decides for the variable at `path`, rebuilt from the report."""
    p = freealg.parse_term(theory.signature, term_text)
    x_name = subterm_at(p, tuple(path)).name
    left, right = {x_name: Var("x")}, {x_name: Var("y")}
    others = [v for v in var_names(p) if v != x_name]
    for i, v in enumerate(others, 1):
        left[v] = right[v] = Var(f"z{i}")
    return Equation(substitute(p, left), substitute(p, right))


def check_report(theory, report: dict) -> list[str]:
    """Re-evaluate the evidence a report carries: every listed model is a
    model, and every refuted independence entry has a valid countermodel."""
    failures = []
    for i, model in enumerate(report.get("models", ())):
        if not _algebra(theory, model).satisfies(theory):
            failures.append(f"listed model {i} is not a model of the theory")
    for entry in report.get("entries", ()):
        ind = entry["independence"]
        if ind["status"] != "refuted":
            continue
        eq = _independence_equation(theory, entry["term"], entry["occurrence"])
        if not _falsifies(theory, _algebra(theory, ind["model"]), ind["assignment"], eq):
            failures.append(f"independence countermodel for {entry['term']} does not falsify")
    return failures
