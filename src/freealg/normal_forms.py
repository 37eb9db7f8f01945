"""Exact normal forms for a small catalog of well-understood theories.

The bounded rewrite engine is total but approximate; for a few classical
axiom systems we know complete normal forms, and using them makes many
verdicts exact instead of budget-dependent:

  * no equations         -> the term itself
  * semilattices         -> the set of variables occurring in the term
  * groups               -> the freely reduced word
  * abelian groups       -> the exponent vector

A theory matches a catalog entry when its signature has exactly the
required arities and its equation set equals the entry's axioms up to
renaming of symbols and variables and orientation of equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from .terms import App, Equation, Signature, Term, Theory, Var


def _alpha_canon(eq: Equation):
    """Orientation-insensitive alpha-canonical form of an equation."""

    def serialize(a: Term, b: Term):
        names: dict[str, int] = {}
        tokens = []
        stack = [b, a]
        while stack:
            t = stack.pop()
            if type(t) is Var:
                tokens.append(("v", names.setdefault(t.name, len(names))))
            else:
                tokens.append(("s", t.sym, len(t.args)))
                stack.extend(reversed(t.args))
        return (a.size, b.size, tuple(tokens))

    return min(serialize(eq.lhs, eq.rhs), serialize(eq.rhs, eq.lhs))


def _eqset(equations) -> frozenset:
    return frozenset(_alpha_canon(eq) for eq in equations)


def _group_axiom_variants(sig: Signature, mul: int, inv: int, unit: int):
    x, y, z = Var("x"), Var("y"), Var("z")
    e = App(unit, ())

    def b(a, c):
        return App(mul, (a, c))

    assoc = Equation(b(b(x, y), z), b(x, b(y, z)))
    lid = Equation(b(e, x), x)
    rid = Equation(b(x, e), x)
    linv = Equation(b(App(inv, (x,)), x), e)
    rinv = Equation(b(x, App(inv, (x,))), e)
    comm = Equation(b(x, y), b(y, x))
    variants = [
        (assoc, lid, rid, linv, rinv),
        (assoc, lid, linv),
        (assoc, rid, rinv),
    ]
    return variants, comm


def _semilattice_axioms(sig: Signature, op: int):
    x, y, z = Var("x"), Var("y"), Var("z")

    def b(a, c):
        return App(op, (a, c))

    return (
        Equation(b(b(x, y), z), b(x, b(y, z))),
        Equation(b(x, y), b(y, x)),
        Equation(b(x, x), x),
    )


@dataclass
class Normalizer:
    """An exact decision procedure for one catalog theory.

    `key` maps a term to a canonical value such that two terms are provably
    equal exactly when their keys are equal; `render` turns a key back into
    the canonical representative term (variables ordered by var_rank, or by
    name when no ranking is supplied).
    """

    name: str
    key: Callable[[Term], object]
    render: Callable[[object, Optional[Mapping[str, int]]], Term]


def _identity_normalizer() -> Normalizer:
    return Normalizer("syntactic", lambda t: t, lambda k, rank: k)


def _semilattice_normalizer(op: int) -> Normalizer:
    def key(t: Term):
        if type(t) is Var:
            return frozenset((t.name,))
        return key(t.args[0]) | key(t.args[1])

    def render(k, rank):
        names = sorted(k) if rank is None else sorted(k, key=lambda n: rank[n])
        out = Var(names[-1])
        for n in reversed(names[:-1]):
            out = App(op, (Var(n), out))
        return out

    return Normalizer("semilattice", key, render)


def _group_word(t: Term, mul: int, inv: int) -> tuple:
    """Freely reduced word as a tuple of (variable, +1|-1) letters."""
    out: list[tuple[str, int]] = []

    def push(name, sign):
        if out and out[-1][0] == name and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((name, sign))

    def walk(s: Term, sign: int):
        if type(s) is Var:
            push(s.name, sign)
        elif s.sym == mul:
            a, b = s.args
            if sign > 0:
                walk(a, 1), walk(b, 1)
            else:
                walk(b, -1), walk(a, -1)
        elif s.sym == inv:
            walk(s.args[0], -sign)
        else:  # the unit
            pass

    walk(t, 1)
    return tuple(out)


def _word_render(word, mul: int, inv: int, unit: int) -> Term:
    if not word:
        return App(unit, ())
    factors = [Var(n) if s > 0 else App(inv, (Var(n),)) for n, s in word]
    out = factors[-1]
    for f in reversed(factors[:-1]):
        out = App(mul, (f, out))
    return out


def _group_normalizer(mul: int, inv: int, unit: int) -> Normalizer:
    return Normalizer(
        "group",
        lambda t: _group_word(t, mul, inv),
        lambda word, rank: _word_render(word, mul, inv, unit),
    )


def _abelian_normalizer(mul: int, inv: int, unit: int) -> Normalizer:
    def key(t: Term):
        exps: dict[str, int] = {}
        for name, sign in _group_word(t, mul, inv):
            exps[name] = exps.get(name, 0) + sign
        return tuple(sorted((n, e) for n, e in exps.items() if e != 0))

    def render(k, rank):
        items = list(k) if rank is None else sorted(k, key=lambda it: rank[it[0]])
        word = []
        for name, exp in items:
            word.extend([(name, 1 if exp > 0 else -1)] * abs(exp))
        return _word_render(tuple(word), mul, inv, unit)

    return Normalizer("abelian-group", key, render)


def _detect(theory: Theory) -> Optional[Normalizer]:
    sig = theory.signature
    if not theory.equations:
        return _identity_normalizer()

    arities = sorted(a for _, a in sig.symbols)
    eqset = _eqset(theory.equations)

    if arities == [2]:
        op = 0
        if eqset == _eqset(_semilattice_axioms(sig, op)):
            return _semilattice_normalizer(op)

    if arities == [0, 1, 2]:
        mul = next(i for i, (_, a) in enumerate(sig.symbols) if a == 2)
        inv = next(i for i, (_, a) in enumerate(sig.symbols) if a == 1)
        unit = next(i for i, (_, a) in enumerate(sig.symbols) if a == 0)
        variants, comm = _group_axiom_variants(sig, mul, inv, unit)
        for variant in variants:
            if eqset == _eqset(variant):
                return _group_normalizer(mul, inv, unit)
            if eqset == _eqset(variant + (comm,)):
                return _abelian_normalizer(mul, inv, unit)
    return None


def catalog_normalizer(theory: Theory) -> Optional[Normalizer]:
    """The registered exact normalizer for this theory, if any."""
    return theory.derived(_detect)
