import pickle
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freealg.dsl import (
    ParseError,
    parse_equation,
    parse_term,
    parse_theory,
    pretty_theory,
)
from freealg.terms import (
    App,
    Equation,
    Signature,
    TermError,
    Theory,
    Var,
    VarOccurrence,
    apply_args,
    enumerate_terms,
    substitute,
    term_key,
    var_names,
    var_positions,
)

from conftest import load
from oracles import count_terms, naive_terms


def test_parse_malcev_theory():
    th = parse_theory("signature: m/3 equations: m(x,y,y)=x  m(x,x,y)=y")
    assert th.signature.symbols == (("m", 3),)
    assert len(th.equations) == 2
    m = th.signature.index("m")
    assert th.equations[0] == Equation(
        App(m, (Var("x"), Var("y"), Var("y"))), Var("x")
    )


def test_parse_empty_theory():
    th = parse_theory("signature: equations:")
    assert th.signature.symbols == ()
    assert th.equations == ()


def test_parse_arity_mismatch():
    with pytest.raises(ParseError, match="arity"):
        parse_theory("signature: f/2 equations: f(x)=x")


def test_parse_undeclared_symbol():
    with pytest.raises(ParseError, match="undeclared"):
        parse_theory("signature: equations: g(x)=x")


def test_parse_duplicate_symbol():
    with pytest.raises(ParseError, match="duplicate"):
        parse_theory("signature: f/1 f/2 equations:")


def test_parse_error_carries_position():
    try:
        parse_theory("signature:\n  f/2\nequations:\n  f(x) = x")
    except ParseError as err:
        assert err.line == 4
    else:
        pytest.fail("expected a parse error")


def test_parse_deep_nesting_is_a_parse_error(groups):
    deep = "inv(" * 3000 + "x" + ")" * 3000
    with pytest.raises(ParseError, match="nested too deeply") as err:
        parse_equation(groups.signature, deep + " = x")
    assert err.value.line == 1 and 1 < err.value.col < len(deep)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_term(groups.signature, deep)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_theory(f"signature: inv/1 equations: {deep} = x")


def test_bare_identifier_is_a_variable(groups):
    # constants must be written e(); a bare e is a variable
    t = parse_term(groups.signature, "mul(e, x)")
    assert t.args[0] == Var("e")


def test_substitute_examples(malcev_theory):
    sig = malcev_theory.signature
    m = parse_term(sig, "m(x, y, z)")
    assert substitute(m, {"y": Var("x")}) == parse_term(sig, "m(x, x, z)")
    f = parse_theory("signature: f/2 equations:")
    t = parse_term(f.signature, "f(a, b)")
    assert substitute(Var("x"), {"x": t}) == t
    assert substitute(m, {}) == m


def test_apply_args(malcev_theory):
    sig = malcev_theory.signature
    m = parse_term(sig, "m(x, y, z)")
    assert apply_args(m, ("x", "y", "z"), (Var("x"), Var("x"), Var("y"))) == parse_term(
        sig, "m(x, x, y)"
    )


def test_enumerate_empty_signature(empty_theory):
    assert list(enumerate_terms(empty_theory, ("x", "y"), 3)) == [Var("x"), Var("y")]


def test_enumerate_malcev_one_var(malcev_theory):
    got = list(enumerate_terms(malcev_theory, ("x",), 4))
    m = malcev_theory.signature.index("m")
    assert got == [Var("x"), App(m, (Var("x"),) * 3)]


def test_enumerate_count_matches_counting_oracle(groups):
    # group signature over one variable, sizes up to 3: oracle says 10
    arities = [a for _, a in groups.signature.symbols]
    expected = count_terms(arities, nvars=1, max_size=3)
    assert expected == 10
    assert len(list(enumerate_terms(groups, ("x",), 3))) == expected
    # and a couple of deeper cross-checks
    for bound in (4, 5, 6):
        assert len(list(enumerate_terms(groups, ("x", "y"), bound))) == count_terms(
            arities, nvars=2, max_size=bound
        )


def test_enumerate_is_strictly_increasing_and_complete(groups, semilattice):
    for th, variables in ((groups, ("x", "y")), (semilattice, ("x", "y", "z"))):
        rank = {v: i for i, v in enumerate(variables)}
        got = list(enumerate_terms(th, variables, 5))
        keys = [term_key(t, rank) for t in got]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        assert set(got) == naive_terms(th.signature, variables, 5)


def test_canonical_order_variables_before_symbols(groups):
    got = list(enumerate_terms(groups, ("x", "y"), 1))
    e = groups.signature.index("e")
    assert got == [Var("x"), Var("y"), App(e, ())]


def test_roundtrip_fixed_theories(groups, abelian, semilattice, malcev_theory, lattice, empty_theory):
    for th in (groups, abelian, semilattice, malcev_theory, lattice, empty_theory):
        assert parse_theory(pretty_theory(th)) == th


def test_parses_are_equal_but_keep_separate_memos():
    from freealg.engine import decide

    a, b = load("groups.th"), load("groups.th")
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    decide(a, parse_equation(a.signature, "mul(x, y) = mul(y, x)"))
    assert a._memo and not b._memo
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    # the memo holds closures (the catalog normalizer); a copy starts empty
    c = pickle.loads(pickle.dumps(a))
    assert c == a and not c._memo


# hypothesis: random small theories round-trip, substitution composes

_names = st.sampled_from(["f", "g", "h"])
_vars = st.sampled_from(["x", "y", "z"])


@st.composite
def signatures(draw):
    n = draw(st.integers(0, 3))
    names = ["f", "g", "h"][:n]
    return Signature(tuple((nm, draw(st.integers(0, 2))) for nm in names))


@st.composite
def terms_over(draw, sig, depth=3):
    choices = ["var"]
    if len(sig) and depth > 0:
        choices.append("app")
    if draw(st.sampled_from(choices)) == "var":
        return Var(draw(_vars))
    idx = draw(st.integers(0, len(sig) - 1))
    return App(
        idx, tuple(draw(terms_over(sig, depth - 1)) for _ in range(sig.arity(idx)))
    )


@st.composite
def theories(draw):
    sig = draw(signatures())
    eqs = tuple(
        Equation(draw(terms_over(sig)), draw(terms_over(sig)))
        for _ in range(draw(st.integers(0, 3)))
    )
    return Theory(sig, eqs)


@settings(max_examples=60, deadline=None)
@given(theories())
def test_roundtrip_random(th):
    assert parse_theory(pretty_theory(th)) == th


_ENUM_THEORIES = ("lattice.th", "three_perm.th", "malcev.th")


@pytest.fixture(scope="module")
def enum_warm():
    return {name: load(name) for name in _ENUM_THEORIES}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_enumeration_is_cache_warmth_independent(enum_warm, data):
    # size classes are kept in the theory's memo: the stream must not depend
    # on what earlier consumers built, or on where they stopped
    name = data.draw(st.sampled_from(_ENUM_THEORIES))
    variables = data.draw(st.lists(_vars, min_size=1, max_size=3, unique=True))
    max_size = data.draw(st.integers(1, 5))
    cold = list(enumerate_terms(load(name), tuple(variables), max_size))

    partial = load(name)
    stop = data.draw(st.integers(0, len(cold)))
    list(islice(enumerate_terms(partial, variables, max_size), stop))
    assert list(enumerate_terms(partial, tuple(variables), max_size)) == cold

    warm = enum_warm[name]
    list(islice(enumerate_terms(warm, tuple(variables), data.draw(st.integers(1, 5))), stop))
    assert list(enumerate_terms(warm, variables, max_size)) == cold
    assert list(enumerate_terms(warm, tuple(variables), max_size)) == cold


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_substitution_composes(data):
    sig = data.draw(signatures())
    t = data.draw(terms_over(sig))
    sigma = {v: data.draw(terms_over(sig, depth=2)) for v in ["x", "y"]}
    tau = {v: data.draw(terms_over(sig, depth=2)) for v in ["y", "z"]}
    composed = {v: substitute(term, tau) for v, term in sigma.items()}
    for v in tau:
        composed.setdefault(v, tau[v])
    assert substitute(substitute(t, sigma), tau) == substitute(t, composed)


def test_var_occurrence_validation(malcev_theory):
    m = parse_term(malcev_theory.signature, "m(x, y, y)")
    occ = VarOccurrence(m, (0,))
    assert occ.var_name == "x"
    assert var_positions(m) == [(0,), (1,), (2,)]
    with pytest.raises(TermError):
        VarOccurrence(m, ())  # the root is an application


def test_parse_equation(groups):
    eq = parse_equation(groups.signature, "mul(x, y) = mul(y, x)")
    assert var_names(eq.lhs) == ["x", "y"]
    with pytest.raises(ParseError):
        parse_equation(groups.signature, "mul(x, y)")


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=60))
def test_parser_totalizes_on_junk(text):
    # arbitrary printable input either parses or raises the DSL's own error
    from freealg.dsl import ParseError
    from freealg.terms import TermError, Theory

    try:
        out = parse_theory(text)
    except (ParseError, TermError):
        return
    assert isinstance(out, Theory)
