"""Elementwise finite-Set diagrams: pullbacks, kernel pairs, preimages,
weak-pullback checks, and bounded weak-preservation evidence for the free
functor on concrete diagrams.

A weak pullback is checked elementwise: every compatible pair of elements
must be hit by some apex element (existence, not uniqueness).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .engine import Budget, DEFAULT_BUDGET, Proved, Unknown, Verdict, tri_equal
from .functor import free_algebra
from .terms import Term, Theory, Var, enumerate_terms, substitute


class DiagramError(ValueError):
    pass


class FinSetMap:
    """A total function between finite label sets, with explicit domain and
    codomain. Labels can be any hashable values; pairs show up as apex
    labels of pullbacks."""

    def __init__(self, dom: Sequence, cod: Sequence, graph: Mapping):
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        if len(set(self.dom)) != len(self.dom) or len(set(self.cod)) != len(self.cod):
            raise DiagramError("domain/codomain labels must be distinct")
        cod_set = set(self.cod)
        g = {}
        for x in self.dom:
            if x not in graph:
                raise DiagramError(f"map not total: no value for {x!r}")
            y = graph[x]
            if y not in cod_set:
                raise DiagramError(f"value {y!r} for {x!r} is not in the codomain")
            g[x] = y
        self.graph = g

    def __call__(self, x):
        return self.graph[x]

    def __eq__(self, other):
        return (
            isinstance(other, FinSetMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.graph == other.graph
        )

    def __repr__(self):
        return f"FinSetMap({self.dom!r} -> {self.cod!r})"

    @classmethod
    def identity(cls, labels: Sequence):
        return cls(labels, labels, {x: x for x in labels})

    def compose(self, inner: "FinSetMap") -> "FinSetMap":
        """self after inner."""
        if inner.cod != self.dom:
            raise DiagramError("composition mismatch")
        return FinSetMap(inner.dom, self.cod, {x: self(inner(x)) for x in inner.dom})

    def is_injective(self):
        return len(set(self.graph.values())) == len(self.dom)

    def is_surjective(self):
        return set(self.graph.values()) == set(self.cod)

    def sections(self):
        """All right inverses, in a deterministic order (canonical-least
        preimage varies fastest)."""
        if not self.is_surjective():
            return []
        fibers = {c: [a for a in self.dom if self(a) == c] for c in self.cod}
        outs = [[]]
        for c in self.cod:
            outs = [prefix + [(c, a)] for prefix in outs for a in fibers[c]]
        return [FinSetMap(self.cod, self.dom, dict(choice)) for choice in outs]


@dataclass
class PullbackDiagram:
    """The canonical elementwise pullback of f1 and f2: the apex is the set
    of compatible pairs in lexicographic domain order, with the cartesian
    projections."""

    f1: FinSetMap
    f2: FinSetMap
    apex: tuple
    p1: FinSetMap
    p2: FinSetMap


def pullback(f1: FinSetMap, f2: FinSetMap) -> PullbackDiagram:
    if f1.cod != f2.cod:
        raise DiagramError("pullback requires a common codomain")
    apex = tuple((a1, a2) for a1 in f1.dom for a2 in f2.dom if f1(a1) == f2(a2))
    p1 = FinSetMap(apex, f1.dom, {p: p[0] for p in apex})
    p2 = FinSetMap(apex, f2.dom, {p: p[1] for p in apex})
    return PullbackDiagram(f1, f2, apex, p1, p2)


def kernel_pair(f: FinSetMap) -> PullbackDiagram:
    return pullback(f, f)


def classifying_preimage(U: Sequence, A: Sequence) -> PullbackDiagram:
    """The square exhibiting U as the preimage of {1} along the
    characteristic function of U in A. Apex elements are pairs (u, 1)."""
    U = tuple(U)
    if not set(U) <= set(A):
        raise DiagramError("U must be a subset of A")
    chi = FinSetMap(A, (0, 1), {a: 1 if a in set(U) else 0 for a in A})
    incl = FinSetMap((1,), (0, 1), {1: 1})
    return pullback(chi, incl)


def mediator_counts(candidate, f1: FinSetMap, f2: FinSetMap) -> dict:
    """For each compatible pair (a1, a2), how many candidate-apex elements
    map onto it. Raises unless the candidate cone commutes."""
    labels, q1, q2 = candidate
    labels = tuple(labels)
    if q1.dom != labels or q2.dom != labels:
        raise DiagramError("cone legs must share the candidate apex")
    if q1.cod != f1.dom or q2.cod != f2.dom:
        raise DiagramError("cone legs must land in the pullback feet")
    for q in labels:
        if f1(q1(q)) != f2(q2(q)):
            raise DiagramError(f"cone does not commute at {q!r}")
    counts = {
        (a1, a2): 0 for a1 in f1.dom for a2 in f2.dom if f1(a1) == f2(a2)
    }
    for q in labels:
        counts[(q1(q), q2(q))] += 1
    return counts


def is_weak_pullback(candidate, f1: FinSetMap, f2: FinSetMap) -> bool:
    """Does the cone (Q, q1, q2) cover every compatible pair?"""
    return all(c >= 1 for c in mediator_counts(candidate, f1, f2).values())


def is_pullback(candidate, f1: FinSetMap, f2: FinSetMap) -> bool:
    """Weak plus unique mediating elements: each compatible pair hit once."""
    return all(c == 1 for c in mediator_counts(candidate, f1, f2).values())


# ---------------------------------------------------------------------------
# Kernel-to-pullback transport along sections


def _tag(side: str, label):
    return f"{side}:{label}" if isinstance(label, str) else (side, label)


@dataclass
class KernelTransport:
    """The cone (K, h1.pi1, h2.pi2) built from the kernel pair of
    [f1,f2] on the tagged disjoint union, plus the weak-pullback check."""

    sum_labels: tuple
    f: FinSetMap
    h1: FinSetMap
    h2: FinSetMap
    kernel: PullbackDiagram
    k1: FinSetMap
    k2: FinSetMap
    is_weak: bool


def weak_kernel_transport(
    f1: FinSetMap, f2: FinSetMap, g1: FinSetMap, g2: FinSetMap
) -> KernelTransport:
    if f1.cod != f2.cod:
        raise DiagramError("maps must share a codomain")
    for f, g, name in ((f1, g1, "g1"), (f2, g2, "g2")):
        if g.dom != f.cod or g.cod != f.dom:
            raise DiagramError(f"{name} must go from the codomain back to the domain")
        for c in f.cod:
            if f(g(c)) != c:
                raise DiagramError(f"{name} is not a section: f(g({c!r})) = {f(g(c))!r}")
    left = {a: _tag("L", a) for a in f1.dom}
    right = {a: _tag("R", a) for a in f2.dom}
    sum_labels = tuple(left[a] for a in f1.dom) + tuple(right[a] for a in f2.dom)
    f_graph = {left[a]: f1(a) for a in f1.dom}
    f_graph.update({right[a]: f2(a) for a in f2.dom})
    f = FinSetMap(sum_labels, f1.cod, f_graph)
    h1_graph = {left[a]: a for a in f1.dom}
    h1_graph.update({right[a]: g1(f2(a)) for a in f2.dom})
    h1 = FinSetMap(sum_labels, f1.dom, h1_graph)
    h2_graph = {left[a]: g2(f1(a)) for a in f1.dom}
    h2_graph.update({right[a]: a for a in f2.dom})
    h2 = FinSetMap(sum_labels, f2.dom, h2_graph)
    kernel = kernel_pair(f)
    k1 = h1.compose(kernel.p1)
    k2 = h2.compose(kernel.p2)
    weak = is_weak_pullback((kernel.apex, k1, k2), f1, f2)
    return KernelTransport(sum_labels, f, h1, h2, kernel, k1, k2, weak)


# ---------------------------------------------------------------------------
# Bounded weak-preservation evidence on a concrete diagram


_IDENT_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")


def _label_vars(labels: Sequence, prefix: str) -> tuple[tuple[str, ...], dict]:
    """Variable names standing for set elements. Original labels are reused
    when they already look like distinct identifiers."""
    labels = tuple(labels)
    if all(isinstance(l, str) and _IDENT_RE.match(l) for l in labels) and len(
        set(labels)
    ) == len(labels):
        names = tuple(labels)
    else:
        names = tuple(f"{prefix}{i}" for i in range(len(labels)))
    return names, dict(zip(labels, names))


@dataclass
class PairCheck:
    u1: Term
    u2: Term
    witness: Optional[Term]


@dataclass
class PreservationReport:
    """Evidence, not a theorem: Proved means every compatible pair of
    carrier elements had a witness up to witness_bound. Absence of a witness
    at a bound is never a refutation, so the negative verdict is Unknown
    carrying the first offending pair."""

    verdict: Verdict
    carrier_bound: int
    witness_bound: int
    pairs: list[PairCheck] = field(default_factory=list)
    unknown_compat: list[tuple[Term, Term]] = field(default_factory=list)
    a1_vars: dict = field(default_factory=dict)
    a2_vars: dict = field(default_factory=dict)
    apex_vars: dict = field(default_factory=dict)


def check_weak_preservation(
    theory: Theory,
    diagram: PullbackDiagram,
    carrier_bound: int,
    witness_bound: int,
    budget: Budget = DEFAULT_BUDGET,
) -> PreservationReport:
    """For every pair (u1, u2) of bounded-carrier elements whose images in
    F(C) are provably equal, search F(P) for an element projecting onto both.
    """
    if witness_bound < carrier_bound:
        raise ValueError("witness_bound must be >= carrier_bound")
    f1, f2 = diagram.f1, diagram.f2
    a1_names, a1_map = _label_vars(f1.dom, "a")
    a2_names, a2_map = _label_vars(f2.dom, "b")
    c_names, c_map = _label_vars(f1.cod, "c")
    apex_names, apex_map = _label_vars(diagram.apex, "p")

    phi1 = {a1_map[a]: c_map[f1(a)] for a in f1.dom}
    phi2 = {a2_map[a]: c_map[f2(a)] for a in f2.dom}
    proj1 = {apex_map[p]: a1_map[diagram.p1(p)] for p in diagram.apex}
    proj2 = {apex_map[p]: a2_map[diagram.p2(p)] for p in diagram.apex}

    carrier1 = free_algebra(theory, a1_names, carrier_bound, budget)
    if a2_names == a1_names:
        carrier2 = carrier1
    else:
        carrier2 = free_algebra(theory, a2_names, carrier_bound, budget)

    report = PreservationReport(
        verdict=Proved("pending"),
        carrier_bound=carrier_bound,
        witness_bound=witness_bound,
        a1_vars=a1_map,
        a2_vars=a2_map,
        apex_vars=apex_map,
    )

    # Images are compared without taking canonical representatives first:
    # provable equality is stable under the rewrites normalization uses, so
    # the same pairs get selected, at a fraction of the cost.
    def rename(mapping):
        return {x: Var(y) for x, y in mapping.items()}

    sub1, sub2 = rename(phi1), rename(phi2)
    back1_sub, back2_sub = rename(proj1), rename(proj2)

    first_missing = None
    for u1 in carrier1.elements:
        img1 = substitute(u1, sub1)
        for u2 in carrier2.elements:
            img2 = substitute(u2, sub2)
            status, _ = tri_equal(theory, img1, img2, budget)
            if status == "unknown":
                report.unknown_compat.append((u1, u2))
                continue
            if status == "refuted":
                continue
            # an empty apex still carries the closed terms, so the witness
            # search runs regardless
            witness = None
            for w in enumerate_terms(theory, apex_names, witness_bound):
                if tri_equal(theory, substitute(w, back1_sub), u1, budget)[0] != "proved":
                    continue
                if tri_equal(theory, substitute(w, back2_sub), u2, budget)[0] == "proved":
                    witness = w
                    break
            report.pairs.append(PairCheck(u1, u2, witness))
            if witness is None and first_missing is None:
                first_missing = (u1, u2)
    if first_missing is None:
        n = len(report.pairs)
        report.verdict = Proved(
            f"witnesses found for all {n} compatible pairs"
            f" (carrier_bound={carrier_bound}, witness_bound={witness_bound})"
        )
    else:
        report.verdict = Unknown("NoWitnessUpToBound", detail=first_missing)
    return report


# ---------------------------------------------------------------------------
# Diagram files


def load_diagram(source) -> PullbackDiagram:
    """Build the pullback of a diagram spec: a dict (or JSON text/path) with
    keys A1, A2, C, f1, f2."""
    if isinstance(source, str):
        data = json.loads(source)
    elif isinstance(source, dict):
        data = source
    else:
        data = json.load(source)
    for key in ("A1", "A2", "C", "f1", "f2"):
        if key not in data:
            raise DiagramError(f"diagram spec is missing {key!r}")
    f1 = FinSetMap(data["A1"], data["C"], data["f1"])
    f2 = FinSetMap(data["A2"], data["C"], data["f2"])
    return pullback(f1, f2)
