"""Signatures, terms, equations, theories, and deterministic term enumeration.

Terms are immutable; every operation here is pure. A term is either a
variable or the application of a declared symbol to exactly arity-many
subterms. Size counts nodes (a variable or a symbol application each
contribute 1), so substituting a non-trivial term never shrinks a term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Mapping, Optional, Sequence


class TermError(ValueError):
    """Ill-formed signature, term, or theory."""


@dataclass(frozen=True)
class Signature:
    """Operation symbols with fixed arities, kept in declaration order.

    Declaration order doubles as the symbol order used by the canonical
    term order, so it is part of the semantics, not just presentation.
    """

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            if name in seen:
                raise TermError(f"duplicate symbol {name!r}")
            if arity < 0:
                raise TermError(f"negative arity for symbol {name!r}")
            seen.add(name)

    def index(self, name: str) -> int:
        for i, (sym, _) in enumerate(self.symbols):
            if sym == name:
                return i
        raise TermError(f"unknown symbol {name!r}")

    def name(self, idx: int) -> str:
        return self.symbols[idx][0]

    def arity(self, idx: int) -> int:
        return self.symbols[idx][1]

    def constants(self) -> list[int]:
        return [i for i, (_, a) in enumerate(self.symbols) if a == 0]

    def app(self, name: str, *args: "Term") -> "App":
        """Build an application by symbol name, checking the arity."""
        idx = self.index(name)
        if len(args) != self.arity(idx):
            raise TermError(
                f"symbol {name!r} has arity {self.arity(idx)}, got {len(args)} arguments"
            )
        return App(idx, tuple(args))

    def __len__(self):
        return len(self.symbols)


class Term:
    """Base class; concrete terms are Var or App."""

    __slots__ = ()
    size: int


class Var(Term):
    __slots__ = ("name", "size", "_hash")

    def __init__(self, name: str):
        self.name = name
        self.size = 1
        self._hash = hash(("v", name))

    def __eq__(self, other):
        return self is other or (type(other) is Var and other.name == self.name)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Var({self.name!r})"


class App(Term):
    __slots__ = ("sym", "args", "size", "_hash")

    def __init__(self, sym: int, args: tuple):
        self.sym = sym
        self.args = args
        self.size = 1 + sum(a.size for a in args)
        self._hash = hash((sym, args))

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not App or other._hash != self._hash:
            return False
        return other.sym == self.sym and other.args == self.args

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"App({self.sym}, {self.args!r})"


def check_term(sig: Signature, t: Term) -> None:
    """Raise TermError unless t is well-formed over sig. Iterative, so any
    depth is fine; of several errors, the first in preorder is raised."""
    symbols = sig.symbols
    level = [t]
    while level:
        below = []
        for s in level:
            if type(s) is App and 0 <= s.sym < len(symbols) and len(s.args) == symbols[s.sym][1]:
                below += s.args
            elif type(s) is not Var:
                _raise_first_error(sig, t)
        level = below


def _raise_first_error(sig: Signature, t: Term) -> None:
    """Raise the TermError for the first ill-formed node of t in preorder."""
    stack = [t]
    while stack:
        s = stack.pop()
        if type(s) is Var:
            continue
        if type(s) is not App:
            raise TermError(f"not a term: {s!r}")
        if not (0 <= s.sym < len(sig)):
            raise TermError(f"symbol index {s.sym} out of range")
        if len(s.args) != sig.arity(s.sym):
            raise TermError(
                f"symbol {sig.name(s.sym)!r} expects {sig.arity(s.sym)} arguments, got {len(s.args)}"
            )
        stack.extend(reversed(s.args))


@dataclass(frozen=True)
class Equation:
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Theory:
    """A signature together with a finite set of defining equations.

    What is derived from the theory alone lives in a memo (see derived) that
    is ignored by ==, hash and repr and is filled without locks: share a
    theory across threads only behind your own.
    """

    signature: Signature
    equations: tuple[Equation, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for eq in self.equations:
            check_term(self.signature, eq.lhs)
            check_term(self.signature, eq.rhs)

    def __getstate__(self):
        # the memo may hold closures; a copy rebuilds it on first use
        return {**self.__dict__, "_memo": {}}

    def app(self, name: str, *args: Term) -> App:
        return self.signature.app(name, *args)

    def derived(self, build, *args):
        """build(self, *args), memoized on (build, *args) for this theory's life."""
        key = (build, *args)
        try:
            return self._memo[key]
        except KeyError:
            pass
        value = self._memo[key] = build(self, *args)
        return value


# ---------------------------------------------------------------------------
# Traversal helpers


def positions(t: Term) -> Iterator[tuple[tuple[int, ...], Term]]:
    """Preorder walk yielding (path, subterm); the root path is ()."""
    stack = [((), t)]
    while stack:
        path, sub = stack.pop()
        yield path, sub
        if type(sub) is App:
            for i in range(len(sub.args) - 1, -1, -1):
                stack.append((path + (i,), sub.args[i]))


def subterm_at(t: Term, path: Sequence[int]) -> Term:
    for i in path:
        if type(t) is not App or i >= len(t.args):
            raise TermError(f"path {tuple(path)} does not exist")
        t = t.args[i]
    return t


def replace_at(t: Term, path: Sequence[int], new: Term) -> Term:
    if not path:
        return new
    if type(t) is not App:
        raise TermError(f"path {tuple(path)} does not exist")
    i = path[0]
    args = list(t.args)
    args[i] = replace_at(args[i], path[1:], new)
    return App(t.sym, tuple(args))


def var_positions(t: Term) -> list[tuple[int, ...]]:
    """Paths of all variable occurrences, in preorder."""
    return [p for p, s in positions(t) if type(s) is Var]


def var_names(t: Term) -> list[str]:
    """Variable names in order of first occurrence."""
    seen: list[str] = []
    for _, s in positions(t):
        if type(s) is Var and s.name not in seen:
            seen.append(s.name)
    return seen


@dataclass(frozen=True)
class VarOccurrence:
    """One distinguished variable occurrence inside a term."""

    term: Term
    path: tuple[int, ...]

    def __post_init__(self):
        sub = subterm_at(self.term, self.path)
        if type(sub) is not Var:
            raise TermError(f"path {self.path} is not a variable occurrence")

    @property
    def var_name(self) -> str:
        return subterm_at(self.term, self.path).name


# ---------------------------------------------------------------------------
# Substitution


def substitute(t: Term, sigma: Mapping[str, Term]) -> Term:
    """Simultaneous substitution. Unmapped variables stay fixed.

    Terms have no binders, so there is no capture to worry about.
    """
    if type(t) is Var:
        return sigma.get(t.name, t)
    if not sigma:
        return t
    return App(t.sym, tuple(substitute(a, sigma) for a in t.args))


def apply_args(t: Term, formals: Sequence[str], args: Sequence[Term]) -> Term:
    """Instantiate a term-as-operation: formals[i] is replaced by args[i]."""
    if len(formals) != len(args):
        raise TermError("formals and arguments differ in length")
    return substitute(t, dict(zip(formals, args)))


# ---------------------------------------------------------------------------
# Canonical order and enumeration
#
# Canonical order: by size first, then lexicographically on the preorder
# token stream, where a variable token sorts before any symbol token,
# variables rank by the supplied variable list and symbols by declaration
# index. Arity-labelled preorder streams are prefix-free, so comparing
# concatenated streams is well defined.


def term_key(t: Term, var_rank: Optional[Mapping[str, int]] = None):
    """Sort key realizing the canonical term order.

    With var_rank omitted, variables rank alphabetically by name.
    """
    tokens = []
    stack = [t]
    while stack:
        s = stack.pop()
        if type(s) is Var:
            tokens.append((0, var_rank[s.name]) if var_rank is not None else (0, s.name))
        else:
            tokens.append((1, s.sym))
            stack.extend(reversed(s.args))
    return (t.size, tuple(tokens))


def _compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
    """All ways to write total as an ordered sum of k positive parts."""
    if k == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def enumerate_terms(
    theory: Theory, variables: Sequence[str], max_size: int
) -> Iterator[Term]:
    """Yield every term over `variables` with size <= max_size, exactly once,
    in canonical order.

    The stream is size-major, so consumers searching for a small witness can
    stop early without paying for the large size classes. Each size class is
    built once per theory and kept in its memo.
    """
    if max_size < 1:
        raise TermError("max_size must be >= 1")
    variables = tuple(variables)
    if len(set(variables)) != len(variables):
        raise TermError("variable list contains duplicates")
    for s in range(1, max_size + 1):
        yield from theory.derived(_size_class, variables, s)


def _size_class(theory: Theory, variables: tuple[str, ...], s: int) -> list[Term]:
    """The terms over variables of size exactly s, in canonical order."""
    sig = theory.signature
    if s == 1:
        return [Var(v) for v in variables] + [App(c, ()) for c in sig.constants()]
    out = []
    for idx, (_, arity) in enumerate(sig.symbols):
        if arity == 0:
            continue
        for split in _compositions(s - 1, arity):
            pools = [theory.derived(_size_class, variables, part) for part in split]
            for args in product(*pools):
                out.append(App(idx, args))
    rank = {v: i for i, v in enumerate(variables)}
    out.sort(key=lambda t: term_key(t, rank))
    return out
