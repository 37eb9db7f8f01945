"""Concrete syntax for theories, terms, and equations.

Grammar (whitespace and newlines insignificant, `#` starts a line comment):

    theory   := "signature" ":" sigdecl* "equations" ":" eqdecl*
    sigdecl  := IDENT "/" NAT
    eqdecl   := term "=" term
    term     := IDENT | IDENT "(" [term ("," term)*] ")"
    IDENT    := [a-zA-Z][a-zA-Z0-9_]*

Identifiers used with parentheses must be declared symbols; bare identifiers
are always variables. Constants are therefore written with empty parentheses,
e.g. ``e()``, which keeps variables and constants syntactically distinct.
"""

from __future__ import annotations

import re

from .terms import App, Equation, Signature, Term, Theory, Var


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<ident>[a-zA-Z][a-zA-Z0-9_]*)
  | (?P<nat>\d+)
  | (?P<punct>[/(),=:])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    """Yield (kind, value, line, col) triples; raises on stray characters."""
    line, col = 1, 1
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind not in ("ws", "comment"):
            out.append((kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _where(self):
        tok = self.peek()
        if tok is None:
            if self.tokens:
                _, value, line, col = self.tokens[-1]
                return line, col + len(value)
            return 1, 1
        return tok[2], tok[3]

    def error(self, message):
        line, col = self._where()
        raise ParseError(message, line, col)

    def expect(self, kind, value=None):
        tok = self.peek()
        if tok is None or tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            got = tok[1] if tok else "end of input"
            self.error(f"expected {want!r}, found {got!r}")
        self.pos += 1
        return tok

    def at_ident(self, value=None):
        tok = self.peek()
        return tok is not None and tok[0] == "ident" and (value is None or tok[1] == value)

    def term(self, sig: Signature) -> Term:
        tok = self.peek()
        if tok is None or tok[0] != "ident":
            self.error("expected a term")
        _, name, line, col = tok
        self.pos += 1
        nxt = self.peek()
        if nxt is None or nxt[1] != "(":
            return Var(name)
        self.expect("punct", "(")
        args = []
        if not (self.peek() and self.peek()[1] == ")"):
            args.append(self.term(sig))
            while self.peek() and self.peek()[1] == ",":
                self.pos += 1
                args.append(self.term(sig))
        self.expect("punct", ")")
        try:
            idx = sig.index(name)
        except Exception:
            raise ParseError(f"undeclared symbol {name!r}", line, col)
        if sig.arity(idx) != len(args):
            raise ParseError(
                f"symbol {name!r} has arity {sig.arity(idx)}, applied to {len(args)} arguments",
                line,
                col,
            )
        return App(idx, tuple(args))


def _parse(text: str, rule):
    """rule(parser), with input nested past the interpreter's recursion
    limit reported as a ParseError where the parser gave up."""
    p = _Parser(_tokenize(text))
    try:
        return rule(p)
    except RecursionError:
        line, col = p._where()
    raise ParseError("term nested too deeply", line, col)


def _theory(p: _Parser) -> Theory:
    p.expect("ident", "signature")
    p.expect("punct", ":")
    symbols = []
    names = set()
    while p.at_ident() and not p.at_ident("equations"):
        tok = p.expect("ident")
        _, name, line, col = tok
        p.expect("punct", "/")
        arity_tok = p.expect("nat")
        if name in names:
            raise ParseError(f"duplicate symbol {name!r}", line, col)
        names.add(name)
        symbols.append((name, int(arity_tok[1])))
    sig = Signature(tuple(symbols))
    p.expect("ident", "equations")
    p.expect("punct", ":")
    equations = []
    while p.peek() is not None:
        lhs = p.term(sig)
        p.expect("punct", "=")
        rhs = p.term(sig)
        equations.append(Equation(lhs, rhs))
    return Theory(sig, tuple(equations))


def parse_theory(text: str) -> Theory:
    """Parse the theory DSL; see the module docstring for the grammar."""
    return _parse(text, _theory)


def parse_term(sig: Signature, text: str) -> Term:
    def rule(p):
        t = p.term(sig)
        if p.peek() is not None:
            p.error("trailing input after term")
        return t

    return _parse(text, rule)


def parse_equation(sig: Signature, text: str) -> Equation:
    def rule(p):
        lhs = p.term(sig)
        p.expect("punct", "=")
        rhs = p.term(sig)
        if p.peek() is not None:
            p.error("trailing input after equation")
        return Equation(lhs, rhs)

    return _parse(text, rule)


# ---------------------------------------------------------------------------
# Printing. parse_theory(pretty_theory(th)) == th for every Theory.


def pretty_term(sig: Signature, t: Term) -> str:
    if type(t) is Var:
        return t.name
    inner = ", ".join(pretty_term(sig, a) for a in t.args)
    return f"{sig.name(t.sym)}({inner})"


def pretty_equation(sig: Signature, eq: Equation) -> str:
    return f"{pretty_term(sig, eq.lhs)} = {pretty_term(sig, eq.rhs)}"


def pretty_theory(th: Theory) -> str:
    lines = ["signature:"]
    for name, arity in th.signature.symbols:
        lines.append(f"  {name}/{arity}")
    lines.append("equations:")
    for eq in th.equations:
        lines.append(f"  {pretty_equation(th.signature, eq)}")
    return "\n".join(lines) + "\n"
