"""Weak independence, independence, and the derivative scan.

A term is weakly independent of one of its variable occurrences when some
variable instantiation of the other positions makes it provably equal to a
term over a single different variable. It is independent of that variable
when swapping the variable for a fresh one (at all of its occurrences, with
the remaining variables held distinct) is provable.

The derivative of a theory demands independence wherever there is weak
independence. The scan below quantifies over linear terms (one fresh
variable per position), which subsumes every identification pattern through
the instantiation vector, and reports three-valued: a Refuted entry is an
absolute refutation of preimage preservation, while Proved is always
relative to the scanned bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

from .engine import (
    Budget,
    DEFAULT_BUDGET,
    Proved,
    Unknown,
    Verdict,
    decide,
    tri_equal,
)
from .normal_forms import catalog_normalizer
from .terms import (
    Equation,
    Term,
    TermError,
    Theory,
    Var,
    VarOccurrence,
    enumerate_terms,
    replace_at,
    substitute,
    var_names,
    var_positions,
)


def linear_terms(theory: Theory, max_size: int) -> Iterator[Term]:
    """Every term shape up to max_size with pairwise-distinct variables,
    named z1, z2, ... in preorder; canonical order."""
    for shape in enumerate_terms(theory, ("·",), max_size):
        counter = [0]

        def relabel(t: Term) -> Term:
            if type(t) is Var:
                counter[0] += 1
                return Var(f"z{counter[0]}")
            return type(t)(t.sym, tuple(relabel(a) for a in t.args))

        yield relabel(shape)


@dataclass(frozen=True)
class IndependenceWitness:
    """Evidence of weak independence: assigning `assignment` to the other
    variable positions makes the term provably equal to `target`, a term
    over the single variable y (possibly closed)."""

    assignment: tuple[tuple[tuple[int, ...], str], ...]  # position path -> variable
    target: Term
    instantiated: Equation  # p[x, v-vector] = target


def _occurrence_frame(p: Term, occ: VarOccurrence):
    if occ.term != p:
        raise TermError("occurrence does not belong to the given term")
    others = [path for path in var_positions(p) if path != occ.path]
    return others


def is_weakly_independent(
    theory: Theory,
    p: Term,
    occ: VarOccurrence,
    q_bound: int,
    budget: Budget = DEFAULT_BUDGET,
) -> Verdict:
    """Search for a weak-independence witness for the given occurrence.

    Other positions range over the pool {x, y, w1..wn} (complete up to
    renaming: a witness never needs more distinct variables than there are
    positions), targets range over terms in y up to q_bound. Never Refuted:
    the target size is unbounded, so exhaustion only means Unknown. The
    first witness in canonical order (target-major, then assignment) wins.
    """
    if q_bound < 1:
        raise ValueError("q_bound must be >= 1")
    others = _occurrence_frame(p, occ)
    n = len(others)
    pool = ["x", "y"] + [f"w{i}" for i in range(1, n + 1)]
    base = replace_at(p, occ.path, Var("x"))
    assignments = list(product(pool, repeat=n))

    def instantiate(choice) -> Term:
        t = base
        for path, name in zip(others, choice):
            t = replace_at(t, path, Var(name))
        return t

    nf = catalog_normalizer(theory)
    if nf is not None:
        lhs_keys = [(choice, nf.key(instantiate(choice))) for choice in assignments]
        for q, qk in theory.derived(_catalog_targets, q_bound):
            for choice, lk in lhs_keys:
                if lk == qk:
                    return _witness_verdict(others, choice, q, instantiate(choice))
    else:
        for q in enumerate_terms(theory, ("y",), q_bound):
            for choice in assignments:
                lhs = instantiate(choice)
                if tri_equal(theory, lhs, q, budget)[0] == "proved":
                    return _witness_verdict(others, choice, q, lhs)
    return Unknown(f"no weak-independence witness up to q_bound={q_bound}")


def _catalog_targets(theory: Theory, q_bound: int) -> list[tuple[Term, object]]:
    """The terms in y up to q_bound with their normal-form keys, keeping only
    the first term in canonical order for each key."""
    nf = catalog_normalizer(theory)
    targets, seen = [], set()
    for q in enumerate_terms(theory, ("y",), q_bound):
        qk = nf.key(q)
        if qk not in seen:
            seen.add(qk)
            targets.append((q, qk))
    return targets


def _witness_verdict(others, choice, q, lhs) -> Verdict:
    witness = IndependenceWitness(
        assignment=tuple(zip(others, choice)),
        target=q,
        instantiated=Equation(lhs, q),
    )
    return Proved(witness)


def is_independent(
    theory: Theory, p: Term, occ: VarOccurrence, budget: Budget = DEFAULT_BUDGET
) -> Verdict:
    """Decide p(x, z-vector) = p(y, z-vector) with x, y and all z fresh and
    mutually distinct.

    The distinguished occurrence's variable is renamed at every one of its
    occurrences (swapping x for y must track repeated variables, otherwise
    p = mul(mul(x,y),inv(x)) would not come out independent of x over
    abelian groups); each remaining variable name becomes one z."""
    _occurrence_frame(p, occ)  # validates ownership
    x_name = occ.var_name
    sigma_l = {x_name: Var("x")}
    sigma_r = {x_name: Var("y")}
    i = 0
    for v in var_names(p):
        if v != x_name:
            i += 1
            sigma_l[v] = sigma_r[v] = Var(f"z{i}")
    eq = Equation(substitute(p, sigma_l), substitute(p, sigma_r))
    return decide(theory, eq, budget)


@dataclass
class DerivativeEntry:
    term: Term
    occurrence: tuple[int, ...]
    weak_witness: IndependenceWitness
    independence: Verdict


@dataclass
class DerivativeReport:
    """One entry per weakly independent occurrence found within the bounds.

    overall is Refuted iff some entry refutes independence (absolute: the
    free functor does not preserve preimages, witness attached); Proved iff
    every entry's independence is proved and nothing is Unknown; otherwise
    Unknown."""

    scanned_bound: int
    q_bound: int
    entries: list[DerivativeEntry] = field(default_factory=list)
    occurrences_scanned: int = 0
    overall: Verdict = field(default_factory=lambda: Unknown("not aggregated"))


def derivative_scan(
    theory: Theory,
    term_bound: int,
    q_bound: int,
    budget: Budget = DEFAULT_BUDGET,
) -> DerivativeReport:
    """Scan all linear terms up to term_bound, all variable occurrences."""
    if term_bound < 1 or q_bound < 1:
        raise ValueError("bounds must be >= 1")
    report = DerivativeReport(scanned_bound=term_bound, q_bound=q_bound)
    for p in linear_terms(theory, term_bound):
        for path in var_positions(p):
            report.occurrences_scanned += 1
            occ = VarOccurrence(p, path)
            weak = is_weakly_independent(theory, p, occ, q_bound, budget)
            if not weak.is_proved:
                continue
            ind = is_independent(theory, p, occ, budget)
            report.entries.append(DerivativeEntry(p, path, weak.witness, ind))
    refuting = next((e for e in report.entries if e.independence.is_refuted), None)
    if refuting is not None:
        report.overall = refuting.independence
    elif any(e.independence.is_unknown for e in report.entries):
        report.overall = Unknown(
            "independence undecided for some weakly independent occurrence"
        )
    else:
        report.overall = Proved(
            f"derivative verified up to term_bound={term_bound}, q_bound={q_bound}"
            f" ({len(report.entries)} weakly independent occurrences)"
        )
    return report


def weak_implies_independent_for(
    theory: Theory,
    p: Term,
    occ: VarOccurrence,
    budget: Budget = DEFAULT_BUDGET,
    q_bound: int = 5,
) -> Verdict:
    """Single-occurrence drill-down: does weak independence (if it can be
    established at all) entail independence here?"""
    weak = is_weakly_independent(theory, p, occ, q_bound, budget)
    if not weak.is_proved:
        return Unknown(f"weak independence not established: {weak.reason}")
    return is_independent(theory, p, occ, budget)
