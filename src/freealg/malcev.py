"""Mal'cev terms, permutability chains, and the kernel-pair witness
condition.

A Mal'cev term m satisfies m(x,y,y) = x and m(x,x,y) = y. Chains generalize
this: p1..p_{n-1} with x = p1(x,y,y), p_i(x,x,y) = p_{i+1}(x,y,y), and
p_{n-1}(x,x,y) = y characterize n-permutability. When the free functor
weakly preserves kernel pairs, every compatible ternary pair p, q (meaning
p(x,x,y) = q(x,y,y)) admits a quaternary s with p(x,y,z) = s(x,y,z,z) and
q(x,y,z) = s(x,x,y,z); a Mal'cev term yields such an s constructively, and
an s for the first two chain links shortens the chain by one.

The witness condition is weak preservation of one pullback of two epis,
kernel_pair_square(), so kernel_pair_report scans its pairs with
finset.check_weak_preservation, the check behind `freealg preserve`; find_s
searches an s for a single given pair.

Ternary terms here use the formal variables (x, y, z); quaternary terms use
(x, y, z, u).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .engine import (
    Budget,
    DEFAULT_BUDGET,
    Proved,
    Unknown,
    Verdict,
    decide,
    tri_equal,
)
from .finset import FinSetMap, PairCheck, PullbackDiagram, check_weak_preservation
from .terms import Equation, Term, Theory, Var, apply_args, enumerate_terms, substitute

TERNARY = ("x", "y", "z")
QUATERNARY = ("x", "y", "z", "u")

_X, _Y, _Z = Var("x"), Var("y"), Var("z")


def _t(term: Term, *args: Term) -> Term:
    return apply_args(term, TERNARY, args)


def _q(term: Term, *args: Term) -> Term:
    return apply_args(term, QUATERNARY, args)


def malcev_equations(m: Term) -> tuple[Equation, Equation]:
    return (Equation(_t(m, _X, _Y, _Y), _X), Equation(_t(m, _X, _X, _Y), _Y))


@dataclass(frozen=True)
class MalcevChain:
    """Terms p1..p_{n-1} of an n-permutability chain."""

    terms: tuple[Term, ...]

    @property
    def n(self) -> int:
        return len(self.terms) + 1

    def equations(self) -> list[Equation]:
        ts = self.terms
        eqs = [Equation(_X, _t(ts[0], _X, _Y, _Y))]
        for a, b in zip(ts, ts[1:]):
            eqs.append(Equation(_t(a, _X, _X, _Y), _t(b, _X, _Y, _Y)))
        eqs.append(Equation(_t(ts[-1], _X, _X, _Y), _Y))
        return eqs


@dataclass(frozen=True)
class KernelWitness:
    """p(x,y,z) = s(x,y,z,z) and q(x,y,z) = s(x,x,y,z)."""

    p: Term
    q: Term
    s: Term

    def equations(self) -> tuple[Equation, Equation]:
        return (
            Equation(self.p, _q(self.s, _X, _Y, _Z, _Z)),
            Equation(self.q, _q(self.s, _X, _X, _Y, _Z)),
        )


def compatibility_equation(p: Term, q: Term) -> Equation:
    return Equation(_t(p, _X, _X, _Y), _t(q, _X, _Y, _Y))


def verify_chain(theory: Theory, chain: MalcevChain, budget: Budget = DEFAULT_BUDGET) -> Verdict:
    """Conjunction of the chain equations: first Refuted wins, else first
    Unknown, else Proved."""
    unknown = None
    for eq in chain.equations():
        v = decide(theory, eq, budget)
        if v.is_refuted:
            return v
        if v.is_unknown and unknown is None:
            unknown = v
    return unknown if unknown is not None else Proved(f"all {chain.n - 1} chain links verified")


def _proved(theory, lhs, rhs, budget) -> bool:
    return tri_equal(theory, lhs, rhs, budget)[0] == "proved"


def find_malcev_term(
    theory: Theory, size_bound: int, budget: Budget = DEFAULT_BUDGET
) -> Optional[Term]:
    """First ternary term in canonical order with both Mal'cev equations
    provable within budget; None when the size bound is exhausted."""
    for cand in enumerate_terms(theory, TERNARY, size_bound):
        if _proved(theory, _t(cand, _X, _Y, _Y), _X, budget) and _proved(
            theory, _t(cand, _X, _X, _Y), _Y, budget
        ):
            return cand
    return None


def find_hm_chain(
    theory: Theory, n: int, size_bound: int, budget: Budget = DEFAULT_BUDGET
) -> Optional[MalcevChain]:
    """Joint search for an n-permutability chain, lexicographic over tuples
    of canonical terms. n=2 degenerates to the Mal'cev term search."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n == 2:
        m = find_malcev_term(theory, size_bound, budget)
        return MalcevChain((m,)) if m is not None else None
    candidates = list(enumerate_terms(theory, TERNARY, size_bound))
    heads = [_t(cand, _X, _Y, _Y) for cand in candidates]  # cand(x, y, y)

    def extend(prefix: list[Term]) -> Optional[list[Term]]:
        tail = _t(prefix[-1], _X, _X, _Y) if prefix else None  # p_i(x, x, y)
        if len(prefix) == n - 1:
            return prefix if _proved(theory, tail, _Y, budget) else None
        for cand, head in zip(candidates, heads):
            if tail is None:
                ok = _proved(theory, head, _X, budget)
            else:
                ok = _proved(theory, tail, head, budget)
            if ok:
                out = extend(prefix + [cand])
                if out is not None:
                    return out
        return None

    found = extend([])
    return MalcevChain(tuple(found)) if found is not None else None


def find_s(
    theory: Theory, p: Term, q: Term, size_bound: int, budget: Budget = DEFAULT_BUDGET
) -> Optional[KernelWitness]:
    """First canonical quaternary s witnessing the kernel-pair condition for
    a compatible pair, or None when the bound is exhausted."""
    pre = decide(theory, compatibility_equation(p, q), budget)
    if not pre.is_proved:
        raise ValueError(f"pair is not compatible: p(x,x,y) = q(x,y,y) came back {pre}")
    for s in enumerate_terms(theory, QUATERNARY, size_bound):
        if _proved(theory, p, _q(s, _X, _Y, _Z, _Z), budget) and _proved(
            theory, q, _q(s, _X, _X, _Y, _Z), budget
        ):
            return KernelWitness(p, q, s)
    return None


@dataclass
class ConstructedWitness:
    witness: KernelWitness
    verification: Verdict


def construct_s_via_malcev(
    theory: Theory,
    m: Term,
    p: Term,
    q: Term,
    budget: Budget = DEFAULT_BUDGET,
) -> ConstructedWitness:
    """Build s(x,y,z,u) = m(p(x,y,u), p(x,x,u), q(x,z,u)) and verify the two
    kernel-witness equations.

    Preconditions (m is a Mal'cev term, the pair is compatible) must be
    established by decide; verification failure within budget is reported as
    Unknown, never silently accepted."""
    for eq in malcev_equations(m):
        v = decide(theory, eq, budget)
        if not v.is_proved:
            raise ValueError(f"m does not verify as a Mal'cev term: {eq} came back {v}")
    pre = decide(theory, compatibility_equation(p, q), budget)
    if not pre.is_proved:
        raise ValueError(f"pair is not compatible: p(x,x,y) = q(x,y,y) came back {pre}")
    u = Var("u")
    s = substitute(
        m,
        {
            "x": _t(p, _X, _Y, u),
            "y": _t(p, _X, _X, u),
            "z": _t(q, _X, _Z, u),
        },
    )
    witness = KernelWitness(p, q, s)
    verification: Verdict = Proved("both kernel-witness equations verified")
    for eq in witness.equations():
        v = decide(theory, eq, budget)
        if v.is_refuted:
            verification = v
            break
        if v.is_unknown:
            verification = Unknown(f"verification incomplete: {v.reason}")
            break
    return ConstructedWitness(witness, verification)


@dataclass
class ShortenResult:
    chain: Optional[MalcevChain]
    s: Optional[Term]
    verdict: Verdict
    blocking_pair: Optional[tuple[Term, Term]] = None


def shorten_chain(
    theory: Theory,
    chain: MalcevChain,
    budget: Budget = DEFAULT_BUDGET,
    s_bound: int = 7,
) -> ShortenResult:
    """Collapse the first two links of a chain: obtain s for (p1, p2), set
    m(x,y,z) = s(x,y,y,z), and return the chain with p1, p2 replaced by m.

    The shortened chain is re-verified; failure to find s within s_bound is
    an Unknown result carrying the blocking pair."""
    if chain.n < 3:
        raise ValueError("chain must have at least two terms (n >= 3)")
    p1, p2 = chain.terms[0], chain.terms[1]
    found = find_s(theory, p1, p2, s_bound, budget)
    if found is None:
        return ShortenResult(None, None, Unknown(f"no s up to size {s_bound}"), (p1, p2))
    s = found.s
    m = _q(s, _X, _Y, _Y, _Z)
    shortened = MalcevChain((m,) + chain.terms[2:])
    verdict = verify_chain(theory, shortened, budget)
    return ShortenResult(shortened, s, verdict)


def kernel_pair_square() -> PullbackDiagram:
    """The pullback of the epis (x,y,z -> x,x,y) and (x,y,z -> x,y,y) onto
    {x, y}. Its apex (x,x), (y,x), (z,y), (z,z) is labelled x, y, z, u, so
    the projections are s -> s(x,y,z,z) and s -> s(x,x,y,z), and weak
    preservation of this square is the kernel-pair witness condition."""
    f1 = FinSetMap(TERNARY, ("x", "y"), dict(zip(TERNARY, "xxy")))
    f2 = FinSetMap(TERNARY, ("x", "y"), dict(zip(TERNARY, "xyy")))
    p1 = FinSetMap(QUATERNARY, TERNARY, dict(zip(QUATERNARY, "xyzz")))
    p2 = FinSetMap(QUATERNARY, TERNARY, dict(zip(QUATERNARY, "xxyz")))
    return PullbackDiagram(f1, f2, QUATERNARY, p1, p2)


@dataclass
class KernelPairReport:
    """Three-valued evidence about weak kernel-pair preservation.

    status is one of:
      proved_malcev   - a Mal'cev term exists, which suffices;
      proved_trivial  - no equations, the term functor preserves everything;
      evidence_against- a permutability chain exists but no Mal'cev term was
                        found up to the bound (for n-permutable varieties
                        that combination rules preservation out);
      open            - the necessary-condition scan is recorded, nothing
                        absolute is claimed.
    The scan checks weak preservation of kernel_pair_square(): each pair
    (u1, u2) = (p, q) carries its s as the witness. Pairs without an s up to
    s_bound stay listed as open; that never upgrades to Refuted, the
    condition is only necessary."""

    status: str
    verdict: Verdict
    pair_bound: int
    s_bound: int
    malcev_term: Optional[Term] = None
    hm_chain: Optional[MalcevChain] = None
    pairs: list[PairCheck] = field(default_factory=list)
    open_pairs: list[tuple[Term, Term]] = field(default_factory=list)
    unknown_compat: list[tuple[Term, Term]] = field(default_factory=list)


def kernel_pair_report(
    theory: Theory,
    pair_bound: int,
    s_bound: int,
    budget: Budget = DEFAULT_BUDGET,
) -> KernelPairReport:
    if pair_bound < 1 or s_bound < 1:
        raise ValueError("bounds must be >= 1")
    if s_bound < pair_bound:
        raise ValueError("s_bound must be >= pair_bound")

    if not theory.equations:
        status = "proved_trivial"
        verdict = Proved("no equations: the term functor weakly preserves pullbacks")
    else:
        m = find_malcev_term(theory, s_bound, budget)
        if m is not None:
            return KernelPairReport(
                status="proved_malcev",
                verdict=Proved(f"Mal'cev term found: kernel pairs weakly preserved"),
                pair_bound=pair_bound,
                s_bound=s_bound,
                malcev_term=m,
            )
        status = "open"
        verdict = Unknown("necessary-condition scan recorded; sufficiency unknown")

    scan = check_weak_preservation(theory, kernel_pair_square(), pair_bound, s_bound, budget)
    report = KernelPairReport(
        status=status,
        verdict=verdict,
        pair_bound=pair_bound,
        s_bound=s_bound,
        pairs=scan.pairs,
        open_pairs=[(c.u1, c.u2) for c in scan.pairs if c.witness is None],
        unknown_compat=scan.unknown_compat,
    )
    if status == "proved_trivial":
        return report

    chain = find_hm_chain(theory, 3, s_bound, budget)
    if chain is not None:
        report.status = "evidence_against"
        report.hm_chain = chain
        report.verdict = Unknown(
            "3-permutability chain exists but no Mal'cev term up to the bound:"
            " for n-permutable varieties kernel pairs are weakly preserved only"
            f" in the Mal'cev case (pair_bound={pair_bound}, s_bound={s_bound})"
        )
    elif report.open_pairs:
        report.verdict = Unknown(
            f"{len(report.open_pairs)} compatible pairs without an s up to"
            f" s_bound={s_bound} (necessary condition open)"
        )
    return report
