import dataclasses
import random
from itertools import product

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from freealg.dsl import parse_equation, parse_term, parse_theory
from freealg.engine import (
    Budget,
    FiniteAlgebra,
    Proved,
    RewriteTrace,
    Unknown,
    _ModelSearch,
    _block,
    _neighbors,
    _query_pool,
    _rules,
    _step,
    decide,
    eval_term,
    find_models,
    normalize,
    prove,
    refute,
    replay,
    tri_equal,
)
from freealg.terms import App, Equation, Signature, TermError, Theory, Var, check_term, substitute

from conftest import load
from oracles import (
    ReferenceModelSearch,
    equation_vars,
    group_word,
    postfix,
    reference_neighbors,
    reference_refute,
    reference_satisfies,
    reference_tri_equal,
    s3_group,
    z2_group,
)
from test_terms import terms_over


def eq_of(th, text):
    return parse_equation(th.signature, text)


def term_of(th, text):
    return parse_term(th.signature, text)


# ---------------------------------------------------------------------------
# prove


def test_prove_group_cancellation(groups):
    v = prove(groups, eq_of(groups, "mul(x, mul(inv(x), y)) = y"))
    assert v.is_proved
    assert replay(groups, eq_of(groups, "mul(x, mul(inv(x), y)) = y"), v)
    # the oracle agrees
    assert group_word(groups.signature, term_of(groups, "mul(x, mul(inv(x), y))")) == (
        ("y", 1),
    )


def test_prove_reflexivity_costs_nothing(groups, empty_theory):
    for th in (groups, empty_theory):
        eq = Equation(Var("t"), Var("t"))
        v = prove(th, eq, Budget(1, 1, 1))
        assert v.is_proved and v.witness == RewriteTrace(())


def test_prove_malcev_axiom_instance(malcev_theory, small_budget):
    v = prove(malcev_theory, eq_of(malcev_theory, "m(x, x, x) = x"), small_budget)
    assert v.is_proved
    assert replay(malcev_theory, eq_of(malcev_theory, "m(x, x, x) = x"), v)


def test_prove_produces_replayable_trace_without_catalog():
    # same group axioms plus an unused constant: the exact normalizer must
    # not apply, forcing genuine rewrite search
    th = parse_theory(
        """
        signature: mul/2 inv/1 e/0 c/0
        equations:
          mul(mul(x, y), z) = mul(x, mul(y, z))
          mul(e(), x) = x
          mul(x, e()) = x
          mul(inv(x), x) = e()
          mul(x, inv(x)) = e()
        """
    )
    eq = eq_of(th, "mul(x, mul(inv(x), y)) = y")
    v = prove(th, eq, Budget(9, 5000, 2))
    assert v.is_proved and isinstance(v.witness, RewriteTrace)
    assert len(v.witness.steps) >= 1
    assert replay(th, eq, v)


def test_replay_rejects_tampered_traces():
    th = parse_theory(
        """
        signature: mul/2 inv/1 e/0 c/0
        equations:
          mul(mul(x, y), z) = mul(x, mul(y, z))
          mul(e(), x) = x
          mul(x, e()) = x
          mul(inv(x), x) = e()
          mul(x, inv(x)) = e()
        """
    )
    eq = eq_of(th, "mul(x, mul(inv(x), y)) = y")
    v = prove(th, eq, Budget(9, 5000, 2))
    assert replay(th, eq, v)
    first, *rest = v.witness.steps
    assert first.binding  # the rewritten side has variables, so a binding shows
    unbound = tuple((name, Var("w")) for name, _ in first.binding)
    tampered = [
        dataclasses.replace(first, before=eq.rhs),
        dataclasses.replace(first, binding=unbound),
        dataclasses.replace(first, after=first.before),
    ]
    for step in tampered:
        assert replay(th, eq, Proved(RewriteTrace((step, *rest)))) is False
    assert replay(th, eq, Proved(RewriteTrace(v.witness.steps[:-1]))) is False
    assert replay(th, eq, Proved("not a trace")) is False
    assert replay(th, eq, Unknown("no verdict")) is False


# ---------------------------------------------------------------------------
# refute


def test_refute_m_term_first_argument(groups):
    # the Mal'cev term for groups is weakly independent of its first
    # argument but not independent: Z2 falsifies
    eq = eq_of(groups, "mul(x, mul(inv(z1), z2)) = mul(y, mul(inv(z1), z2))")
    v = refute(groups, eq)
    assert v.is_refuted
    assert v.model.size == 2
    assert v.model.satisfies(groups)
    assert eval_term(v.model, eq.lhs, v.assignment) != eval_term(v.model, eq.rhs, v.assignment)
    # independently: in Z2, x+z1+z2 != y+z1+z2 whenever x != y
    z2 = z2_group()
    assert eval_term(z2, eq.lhs, {"x": 0, "z1": 0, "z2": 0}) != eval_term(
        z2, eq.rhs, {"y": 1, "x": 0, "z1": 0, "z2": 0}
    )


def test_refute_abelian_conjugation_has_no_countermodel(abelian):
    eq = eq_of(abelian, "mul(mul(x, z), inv(x)) = mul(mul(y, z), inv(y))")
    v = refute(abelian, eq)
    assert v.is_unknown  # provable, hence no countermodel exists


def test_refute_empty_theory_distinct_variables(empty_theory):
    v = refute(empty_theory, Equation(Var("x"), Var("y")))
    assert v.is_refuted and v.model.size == 2


# ---------------------------------------------------------------------------
# decide


def test_decide_commutativity_needs_s3(groups):
    # the smallest noncommutative group has 6 elements, beyond the default
    # model budget, so the verdict is Unknown
    eq = eq_of(groups, "mul(x, y) = mul(y, x)")
    assert decide(groups, eq).is_unknown
    # the S3 oracle supplies the witness the bounded search cannot reach
    s3 = s3_group()
    assert s3.satisfies(groups)
    falsified = [
        (a, b)
        for a in range(6)
        for b in range(6)
        if eval_term(s3, eq.lhs, {"x": a, "y": b}) != eval_term(s3, eq.rhs, {"x": a, "y": b})
    ]
    assert falsified


def test_decide_malcev_axiom(malcev_theory, small_budget):
    assert decide(malcev_theory, eq_of(malcev_theory, "m(x, y, y) = x"), small_budget).is_proved


def test_decide_reflexivity_on_empty_theory(empty_theory):
    assert decide(empty_theory, Equation(Var("x"), Var("x"))).is_proved


# ---------------------------------------------------------------------------
# normalize


def test_normalize_group_word(groups):
    t = term_of(groups, "mul(x, mul(inv(x), y))")
    assert normalize(groups, t) == Var("y")


def test_normalize_empty_theory_is_identity(empty_theory):
    assert normalize(empty_theory, Var("x")) == Var("x")


def test_normalize_semilattice_minimal_representative(semilattice):
    t = term_of(semilattice, "and(and(x, y), x)")
    assert normalize(semilattice, t) == term_of(semilattice, "and(x, y)")


def test_normalize_idempotent_without_catalog(malcev_theory, small_budget):
    t = term_of(malcev_theory, "m(m(x, y, y), x, x)")
    n1 = normalize(malcev_theory, t, small_budget)
    assert normalize(malcev_theory, n1, small_budget) == n1


def test_normalize_respects_var_order(semilattice):
    t = term_of(semilattice, "and(y, x)")
    assert normalize(semilattice, t, var_order=("y", "x")) == term_of(
        semilattice, "and(y, x)"
    )
    assert normalize(semilattice, t, var_order=("x", "y")) == term_of(
        semilattice, "and(x, y)"
    )


# ---------------------------------------------------------------------------
# find_models / eval_term


def test_find_models_groups_size_2(groups):
    models = find_models(groups, 2)
    assert [m.size for m in models] == [1, 2, 2]
    for m in models:
        assert m.satisfies(groups)
    # both size-2 models are Z2 up to the choice of identity element
    z2 = z2_group()
    assert models[1].tables == z2.tables


def test_find_models_empty_theory(empty_theory):
    models = find_models(empty_theory, 2)
    assert [m.size for m in models] == [1, 2]
    assert models[0].tables == () and models[1].tables == ()


def test_find_models_two_equal_constants():
    th = parse_theory("signature: c/0 d/0 equations: c() = d()")
    models = find_models(th, 2)
    # size 1: forced; size 2: both constants share a value, two choices
    assert [m.size for m in models] == [1, 2, 2]
    size2 = [m for m in models if m.size == 2]
    assert {(m.tables[0][0], m.tables[1][0]) for m in size2} == {(0, 0), (1, 1)}


def test_eval_term_examples(groups):
    z2 = z2_group()
    t = term_of(groups, "mul(x, inv(y))")
    assert eval_term(z2, t, {"x": 1, "y": 1}) == 0
    assert eval_term(z2, Var("x"), {"x": 1}) == 1
    m = term_of(groups, "mul(x, mul(inv(y), z))")
    assert eval_term(z2, m, {"x": 1, "y": 0, "z": 1}) == 0
    with pytest.raises(Exception):
        eval_term(z2, Var("q"), {"x": 0})


def test_eval_term_names_the_leftmost_unmapped_variable(groups):
    z2 = z2_group()
    with pytest.raises(TermError, match="'p'"):
        eval_term(z2, term_of(groups, "mul(inv(x), mul(p, q))"), {"x": 0})


def test_eval_term_is_iterative(lattice):
    # far deeper than the interpreter's recursion limit: meet(...meet(x, x)..., x)
    meet = lattice.signature.index("meet")
    x = Var("x")
    t = x
    for _ in range(5000):
        t = App(meet, (t, x))
    for model in find_models(lattice, 2):
        for v in range(model.size):
            assert eval_term(model, t, {"x": v}) == v


def test_check_term_is_iterative(lattice):
    # the same chain as above: checking it must not recurse once per level
    meet = lattice.signature.index("meet")
    x = Var("x")
    t = x
    for _ in range(5000):
        t = App(meet, (t, x))
    check_term(lattice.signature, t)
    v = refute(lattice, Equation(t, x))
    assert v.is_unknown and v.reason == "no countermodel up to size 3"
    # of several errors, the first in preorder is raised: here the one at the
    # bottom of the left spine, not the shallower one on the right
    bad = App(meet, (App(meet, ()), x))
    for _ in range(5000):
        bad = App(meet, (bad, x))
    with pytest.raises(TermError, match="'meet' expects 2 arguments, got 0"):
        check_term(lattice.signature, App(meet, (bad, App(7, ()))))
    with pytest.raises(TermError, match="symbol index 7 out of range"):
        check_term(lattice.signature, App(meet, (t, App(7, ()))))
    with pytest.raises(TermError, match="not a term: 'y'"):
        check_term(lattice.signature, "y")


def test_refute_deep_parsed_equation_gives_a_verdict(lattice):
    eq = eq_of(lattice, "meet(" * 900 + "x" + ", x)" * 900 + " = x")
    v = refute(lattice, eq)
    assert v.is_unknown and v.reason == "no countermodel up to size 3"


# ---------------------------------------------------------------------------
# invariants


def test_prove_and_refute_never_both_succeed_small_corpus(groups, malcev_theory, small_budget):
    for th, queries in (
        (groups, ["mul(x, y) = mul(y, x)", "mul(x, e()) = x", "inv(inv(x)) = x"]),
        (malcev_theory, ["m(x, y, y) = x", "m(x, y, z) = x", "m(x, x, x) = x"]),
    ):
        for q in queries:
            eq = eq_of(th, q)
            p = prove(th, eq, small_budget)
            r = refute(th, eq, small_budget)
            assert not (p.is_proved and r.is_refuted)


def test_monotonicity_under_budget_growth(groups, malcev_theory):
    lo = Budget(max_term_size=7, max_steps=2_000, max_model_size=1)
    hi = Budget(max_term_size=9, max_steps=50_000, max_model_size=2)
    corpus = [
        (groups, "mul(x, mul(inv(x), y)) = y"),
        (groups, "mul(x, mul(inv(z1), z2)) = mul(y, mul(inv(z1), z2))"),
        (malcev_theory, "m(x, x, x) = x"),
        (malcev_theory, "m(x, y, z) = m(x, z, y)"),
    ]
    for th, text in corpus:
        eq = eq_of(th, text)
        v_lo, v_hi = decide(th, eq, lo), decide(th, eq, hi)
        if v_lo.is_proved:
            assert v_hi.is_proved
        if v_lo.is_refuted:
            assert v_hi.is_refuted


def test_decide_agrees_with_free_group_oracle(groups):
    # exhaustive on all pairs of terms of size <= 4 over {x, y}, then a
    # seeded random sample of pairs up to size 7
    from freealg.terms import enumerate_terms

    small = list(enumerate_terms(groups, ("x", "y"), 4))
    pairs = [(a, b) for a in small for b in small]
    rng = random.Random(7)
    big = list(enumerate_terms(groups, ("x", "y"), 7))
    pairs += [(rng.choice(big), rng.choice(big)) for _ in range(500)]
    for a, b in pairs:
        v = decide(groups, Equation(a, b))
        words_equal = group_word(groups.signature, a) == group_word(groups.signature, b)
        if words_equal:
            assert v.is_proved
        else:
            assert not v.is_proved
        if v.is_refuted:
            assert not words_equal


def test_refuted_witnesses_revalidate(groups, empty_theory):
    cases = [
        (groups, "mul(x, x) = e()"),  # fails first in Z3
        (groups, "inv(x) = x"),  # likewise
        (groups, "mul(x, y) = x"),  # fails already in Z2
        (empty_theory, "x = y"),
    ]
    for th, text in cases:
        eq = eq_of(th, text)
        v = refute(th, eq)
        assert v.is_refuted
        assert v.model.satisfies(th)
        assert eval_term(v.model, eq.lhs, v.assignment) != eval_term(
            v.model, eq.rhs, v.assignment
        )


def test_budget_defaults_and_validation():
    b = Budget()
    assert (b.max_term_size, b.max_steps, b.max_model_size) == (9, 200_000, 3)
    import pytest as _pytest

    with _pytest.raises(ValueError):
        Budget(max_term_size=0)


def test_normalize_idempotent_with_catalog(groups, semilattice):
    for th, text in ((groups, "mul(inv(y), mul(y, x))"), (semilattice, "and(y, and(x, y))")):
        t = parse_term(th.signature, text)
        n1 = normalize(th, t)
        assert normalize(th, n1) == n1


def test_bfs_engine_agrees_with_group_catalog(groups):
    # the same axioms plus an unused constant disable the exact normalizer;
    # every equality the bounded rewrite search derives there must agree
    # with the exact normal forms (the converse can fail: the catalog is
    # complete, the bounded search is not)
    from freealg.normal_forms import catalog_normalizer
    from freealg.terms import enumerate_terms

    variant = parse_theory(
        """
        signature: mul/2 inv/1 e/0 c/0
        equations:
          mul(mul(x, y), z) = mul(x, mul(y, z))
          mul(e(), x) = x
          mul(x, e()) = x
          mul(inv(x), x) = e()
          mul(x, inv(x)) = e()
        """
    )
    assert catalog_normalizer(variant) is None
    from freealg.engine import tri_equal

    nf = catalog_normalizer(groups)
    b = Budget(max_term_size=8, max_steps=1500, max_model_size=2)
    terms = list(enumerate_terms(groups, ("x", "y"), 4))
    proved = 0
    for i, lhs in enumerate(terms):
        for rhs in terms[i:]:
            status, detail = tri_equal(variant, lhs, rhs, b)
            if status == "proved":
                proved += 1
                assert nf.key(lhs) == nf.key(rhs), (lhs, rhs)
            elif status == "refuted":
                assert nf.key(lhs) != nf.key(rhs), (lhs, rhs)
    assert proved > 100


def test_abelian_catalog_agrees_with_exponent_oracle(abelian):
    import random as _random

    from freealg.terms import enumerate_terms
    from oracles import abelian_exponents

    terms = list(enumerate_terms(abelian, ("x", "y"), 4))
    rng = _random.Random(3)
    pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(400)]
    for a, b in pairs:
        v = decide(abelian, Equation(a, b))
        same = abelian_exponents(abelian.signature, a) == abelian_exponents(
            abelian.signature, b
        )
        assert v.is_proved == same
        if v.is_refuted:
            assert not same


_WARMTH_THEORIES = ("lattice.th", "three_perm.th", "malcev.th")


@pytest.fixture(scope="module")
def warm_theories():
    # every model stream of size <= 2 runs to exhaustion before any query
    out = {}
    for name in _WARMTH_THEORIES:
        out[name] = load(name)
        find_models(out[name], 2)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_refute_verdicts_are_cache_warmth_independent(warm_theories, data):
    name = data.draw(st.sampled_from(_WARMTH_THEORIES))
    warm = warm_theories[name]
    eq = Equation(data.draw(terms_over(warm.signature)), data.draw(terms_over(warm.signature)))
    tiny = Budget(max_term_size=6, max_steps=400, max_model_size=2)

    cold = refute(load(name), eq, tiny)  # a fresh parse starts with an empty memo
    hot = refute(warm, eq, tiny)
    assert type(cold) is type(hot)
    if cold.is_refuted:
        assert cold.model == hot.model and cold.assignment == hot.assignment
    else:
        assert cold.reason == hot.reason and cold.detail == hot.detail


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tri_equal_is_cache_warmth_independent(warm_theories, data):
    # tri_equal results are kept in the theory's memo: a hit must equal what
    # a fresh parse computes, whatever other queries ran before it
    name = data.draw(st.sampled_from(_WARMTH_THEORIES))
    warm = warm_theories[name]
    sig = warm.signature
    budgets = st.builds(Budget, st.just(7), st.sampled_from((30, 150)), st.integers(1, 2))
    a, b, budget = data.draw(terms_upto(sig, 6)), data.draw(terms_upto(sig, 6)), data.draw(budgets)
    warmup = [
        (data.draw(st.booleans()), data.draw(terms_upto(sig, 6)), data.draw(terms_upto(sig, 6)),
         data.draw(budgets))
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    # sometimes the query itself, or its mirror, is already in the memo
    warmup += data.draw(st.sampled_from(([], [(False, a, b, budget)], [(False, b, a, budget)])))
    for via_prove, x, y, bx in data.draw(st.permutations(warmup)):
        if via_prove:
            prove(warm, Equation(x, y), bx)
        else:
            tri_equal(warm, x, y, bx)
    assert tri_equal(load(name), a, b, budget) == tri_equal(warm, a, b, budget)


def test_engine_keeps_no_module_level_state(small_budget):
    # what the engine derives from a theory lives on that theory: running it
    # on a fresh one must grow no module-level container in freealg.*
    import sys

    from freealg.functor import free_algebra

    def containers():
        return {
            (name, attr): len(value)
            for name, mod in list(sys.modules.items())
            if name == "freealg" or name.startswith("freealg.")
            for attr, value in vars(mod).items()
            if not attr.startswith("__") and isinstance(value, (dict, list, set))
        }

    bands = parse_theory(
        """
        signature: f/2
        equations:
          f(f(x, y), z) = f(x, f(y, z))
          f(x, x) = x
        """
    )
    before = containers()
    assert decide(bands, eq_of(bands, "f(x, y) = f(y, x)"), small_budget).is_refuted
    assert normalize(bands, term_of(bands, "f(f(x, x), y)"), small_budget) == term_of(bands, "f(x, y)")
    free_algebra(bands, ("x", "y"), 3, small_budget)
    assert bands._memo
    assert containers() == before


@pytest.fixture(scope="module")
def named_theories():
    return {name: load(name) for name in ("lattice.th", "three_perm.th", "malcev.th", "groups.th")}


@st.composite
def terms_upto(draw, sig, max_size, variables=("x", "y")):
    """A term over sig and the variables (x, y by default) of size at most
    max_size, filling a drawn size as far as the arities allow."""
    budget = draw(st.integers(1, max_size))

    def fill(budget):
        heads = [i for i in range(len(sig)) if 0 < sig.arity(i) < budget]
        if not heads:
            leaves = [Var(v) for v in variables] + [App(c, ()) for c in sig.constants()]
            return draw(st.sampled_from(leaves))
        head = draw(st.sampled_from(heads))
        spare = budget - 1 - sig.arity(head)  # nodes beyond one per argument
        args = []
        for _ in range(sig.arity(head) - 1):
            extra = draw(st.integers(0, spare))
            spare -= extra
            args.append(fill(1 + extra))
        return App(head, tuple(args + [fill(1 + spare)]))

    return fill(budget)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_neighbors_match_the_substitute_then_check_reference(named_theories, data):
    th = named_theories[data.draw(st.sampled_from(sorted(named_theories)))]
    t = data.draw(terms_upto(th.signature, 7))
    cap = data.draw(st.integers(5, 9))
    pool = _query_pool(th, t)
    got = [
        (new, _step(t, new, rule, path, binding))
        for new, rule, path, binding in _neighbors(t, th.derived(_rules), cap, pool)
    ]
    assert got == reference_neighbors(th, t, cap, pool)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_proved_replays(named_theories, data):
    th = named_theories[data.draw(st.sampled_from(("lattice.th", "three_perm.th", "malcev.th")))]
    lhs = data.draw(terms_upto(th.signature, 7))
    # a random walk of a few rewrites, so that most queries are provable and
    # many proofs meet in the middle of the bidirectional search
    rhs, pool = lhs, _query_pool(th, lhs)
    for _ in range(data.draw(st.integers(1, 4))):
        nbrs = reference_neighbors(th, rhs, 8, pool)
        if nbrs:
            rhs = data.draw(st.sampled_from(nbrs))[0]
    eq = Equation(lhs, rhs)
    v = prove(th, eq, Budget(max_term_size=8, max_steps=150, max_model_size=1))
    if v.is_proved:
        assert replay(th, eq, v)


def test_model_search_instances_match_the_postfix_reference(named_theories):
    for th in named_theories.values():
        for k in (1, 2, 3):
            expected = []
            for eq in th.equations:
                vs = equation_vars(eq.lhs, eq.rhs)
                pos = {v: i for i, v in enumerate(vs)}
                cl, cr = postfix(eq.lhs, pos), postfix(eq.rhs, pos)
                expected += [(cl, cr, env) for env in product(range(k), repeat=len(vs))]
            assert _ModelSearch(th, k).instances == expected


def test_model_search_costs_at_size_3():
    # the costs the full-rescan search charged, kept by the watched cells
    for name, final_cost, models in (
        ("abelian.th", 63030, 3),
        ("groups.th", 58630, 3),
        ("lattice.th", 111606, 6),
        ("semilattice.th", 4401, 9),
    ):
        s = _ModelSearch(load(name), 3)
        while not s.finished:
            s.advance(float("inf"))
        assert (s.final_cost, len(s.found)) == (final_cost, models), name


STREAM_THEORIES = {
    name: load(name)
    for name in ("abelian.th", "groups.th", "lattice.th", "semilattice.th",
                 "empty.th", "three_perm.th", "malcev.th")
}


@st.composite
def small_theories(draw):
    """0-3 symbols of arity 0-3 and 0-3 equations with sides of size at
    most 5, over the variables x, y and the signature's constants; a side
    may be a bare variable or a bare constant."""
    arities = draw(st.lists(st.integers(0, 3), max_size=3))
    sig = Signature(tuple((name, a) for name, a in zip("fgh", arities)))
    eqs = tuple(
        Equation(draw(terms_upto(sig, 5)), draw(terms_upto(sig, 5)))
        for _ in range(draw(st.integers(0, 3)))
    )
    return Theory(sig, eqs)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_model_search_stream_matches_the_full_rescan_reference(data):
    if data.draw(st.booleans()):
        th = STREAM_THEORIES[data.draw(st.sampled_from(sorted(STREAM_THEORIES)))]
    else:
        th = data.draw(small_theories())
    k = data.draw(st.integers(1, 3))
    rng = data.draw(st.randoms(use_true_random=False))
    got, want = _ModelSearch(th, k), ReferenceModelSearch(th, k)
    assert (got.cost, got.finished) == (want.cost, want.finished)
    # random pause points, up to a few thousand steps of search
    while not want.finished and want.cost < 3000:
        limit = want.cost + rng.choice((1, 2, 3, 10, 50, 400))
        assert (got.advance(limit), got.cost, len(got.found)) == (
            want.advance(limit), want.cost, len(want.found))
    event("finished" if want.finished else "cut")
    assert got.found == want.found
    assert got.final_cost == want.final_cost


def _least_refuting_steps(th, eq, size):
    """The least max_steps up to 400 at which the reference refutes eq with
    models of at most the given size, or None; refute is monotone in it."""
    def refuted(steps):
        return reference_refute(th, eq, Budget(7, steps, size)).is_refuted

    if not refuted(400):
        return None
    lo, hi = 1, 400
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if refuted(mid) else (mid + 1, hi)
    return lo


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_column_replay_matches_the_dict_per_assignment_reference(named_theories, data):
    th = named_theories[data.draw(st.sampled_from(sorted(named_theories)))]
    eq = Equation(data.draw(terms_upto(th.signature, 7)), data.draw(terms_upto(th.signature, 7)))
    size = data.draw(st.integers(1, 3))
    drawn = Budget(max_term_size=7, max_steps=data.draw(st.integers(1, 400)), max_model_size=size)
    # the step budgets on either side of the first refutation, where an
    # off-by-one in the charge for the assignments would show
    least = _least_refuting_steps(th, eq, size)
    edges = [] if least is None else [s for s in (least - 1, least) if s >= 1]
    for budget in [drawn] + [Budget(7, s, size) for s in edges]:
        got, want = refute(th, eq, budget), reference_refute(th, eq, budget)
        event(type(want).__name__)
        assert type(got) is type(want)
        if want.is_refuted:
            assert got.model == want.model and got.assignment == want.assignment
            assert got.model.satisfies(th)
        else:
            assert got.reason == want.reason and got.detail == want.detail
    assert tri_equal(th, eq.lhs, eq.rhs, drawn) == reference_tri_equal(th, eq.lhs, eq.rhs, drawn)

    # satisfies on arbitrary tables, which are mostly not models
    sig = th.signature
    k = data.draw(st.integers(1, 3))
    tables = tuple(
        tuple(data.draw(st.lists(st.integers(0, k - 1), min_size=k**a, max_size=k**a)))
        for _, a in sig.symbols
    )
    alg = FiniteAlgebra(k, tuple(a for _, a in sig.symbols), tables)
    assert alg.satisfies(th) == reference_satisfies(alg, th)


def _block_edges(th, eq, size, limit):
    """Step budgets up to limit at which refute reaches the edge of a block
    (see refute) when no model falsifies eq: where the search cost of the
    block's first model fits, where the models before it are charged in full,
    and where each size ends."""
    nvars = len(equation_vars(eq.lhs, eq.rhs))
    edges, base = [], 0
    for k in range(1, size + 1):
        s = th.derived(ReferenceModelSearch, k)
        while s.advance(limit - base + 1) == "found":
            pass
        n = k**nvars
        lo = 1 if k > 1 else len(s.found)  # size 1 is one block
        while lo < len(s.found):
            edges += [base + s.found[lo][1] + n * lo, base + s.found[lo - 1][1] + n * lo]
            lo += min(lo, 256 // k)
        if not s.finished:
            break
        base += s.final_cost + n * len(s.found)
        edges.append(base)
    return [e for e in edges if e <= limit]


def _refuting_edge(th, eq, verdict):
    """The least step budget at which refute finds the countermodel of a
    Refuted verdict, and the index of that model in its size's stream."""
    vs = equation_vars(eq.lhs, eq.rhs)
    base = 0
    for k in range(1, verdict.model.size):
        s = th.derived(ReferenceModelSearch, k)
        base += s.final_cost + k ** len(vs) * len(s.found)
    k = verdict.model.size
    found = th.derived(ReferenceModelSearch, k).found
    j = [alg for alg, _ in found].index(verdict.model)
    at = list(product(range(k), repeat=len(vs))).index(tuple(verdict.assignment[v] for v in vs))
    return base + found[j][1] + k ** len(vs) * j + at + 1, j


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_block_replay_matches_the_reference_across_block_edges(named_theories, data):
    # mostly true equations, so that refute crosses many blocks of models
    named = data.draw(st.booleans())
    if named:
        th = named_theories[data.draw(st.sampled_from(("malcev.th", "three_perm.th", "groups.th")))]
    else:
        th = data.draw(small_theories())
    sig = th.signature
    # ground equations, where every hit is at a model's last assignment, and
    # equations in one and in three variables
    choices = (("x",), ("x", "y", "z")) + (((), ()) if sig.constants() else ())
    names = data.draw(st.sampled_from(choices))
    lhs = data.draw(terms_upto(sig, 6, names))
    kinds = ("derived",) * 3 + ("swapped", "random") if named else ("derived", "swapped", "random")
    kind = data.draw(st.sampled_from(kinds))
    rhs, pool = lhs, _query_pool(th, lhs)
    if kind == "derived":
        for _ in range(data.draw(st.integers(1, 3))):
            nbrs = reference_neighbors(th, rhs, 8, pool)
            if nbrs:
                rhs = data.draw(st.sampled_from(nbrs))[0]
    elif kind == "swapped" and names:
        # true in the nearly constant models that come first, false in many
        # of those after them
        rhs = substitute(lhs, {"x": Var("y"), "y": Var("x")})
    else:
        rhs = data.draw(terms_upto(sig, 6, names))
    eq = Equation(lhs, rhs)
    size = data.draw(st.sampled_from((1, 2, 3, 3)))
    # log-uniform up to 200,000, and the budgets on either side of a few
    # block edges: below 200,000 on the named theories, whose streams are
    # shared between examples, and below 20,000 on the others
    rng = data.draw(st.randoms(use_true_random=False))
    limit = int(10 ** rng.uniform(0, 5.3))
    edges = _block_edges(th, eq, size, 200_000 if named else max(limit, 20_000))
    steps = [limit]
    for e in rng.sample(edges, min(4, len(edges))):
        steps += [e - 1, e, e + 1]
    # and on either side of the refutation, where an off-by-one in the
    # charge for the assignments, or in the model a hit falls in, would show
    first = reference_refute(th, eq, Budget(7, max(steps), size))
    if first.is_refuted:
        e, j = _refuting_edge(th, eq, first)
        steps += [e - 1, e]
        event("refuted at model 0, 1" if j < 2 else "refuted at model 2+")
    event(f"{len(edges)} edges" if len(edges) < 8 else "8+ edges")
    for max_steps in sorted({s for s in steps if s >= 1}):
        budget = Budget(max_term_size=7, max_steps=max_steps, max_model_size=size)
        got, want = refute(th, eq, budget), reference_refute(th, eq, budget)
        assert type(got) is type(want)
        if want.is_refuted:
            assert got.model == want.model and got.assignment == want.assignment
        else:
            assert got.reason == want.reason and got.detail == want.detail


def test_block_replay_finds_hits_inside_a_block():
    # ground equations hold in the first, all-zero model and fail in a later
    # one, at its last (and only) assignment: models 3, 6 and 7 of size 2,
    # inside the blocks of models 2..3 and 4..7
    th = parse_theory(
        """
        signature: f/2 c/0
        equations:
          f(f(x, y), z) = f(x, f(y, z))
        """
    )
    for text, model in (("f(c(), x) = f(c(), c())", 3), ("c() = f(c(), c())", 6),
                        ("f(f(c(), c()), c()) = c()", 7)):
        eq = eq_of(th, text)
        edge, j = _refuting_edge(th, eq, reference_refute(th, eq, Budget(7, 200_000, 2)))
        assert j == model
        for steps in (edge - 1, edge, 200_000):
            budget = Budget(7, steps, 2)
            assert refute(th, eq, budget) == reference_refute(th, eq, budget)


def _block_keys(th):
    return {key[1:] for key in th._memo if key[0] is _block}


def test_block_memo_entries_follow_the_query_not_the_memo():
    # a deterministic work counter: which block tables refute keeps
    th = load("malcev.th")
    first = refute(th, eq_of(th, "m(x, y, z) = x"))
    assert first.is_refuted and first.model == th.derived(_ModelSearch, 2).found[0][0]
    assert not _block_keys(th)  # refuted at the first model of a size
    true_eq = eq_of(th, "m(m(x, y, y), z, z) = x")
    assert refute(th, true_eq).reason == "model search step budget exhausted"
    kept = _block_keys(th)
    assert {(2, 2, 4)} < kept and (3, 64, 128) in kept and (3, 128, 213) in kept
    assert refute(th, true_eq).is_unknown and _block_keys(th) == kept

    queries = [
        (true_eq, Budget(9, steps, 3)) for steps in (700, 5_000, 33_333, 200_000)
    ] + [(eq_of(th, "m(x, y, m(y, x, x)) = m(y, x, x)"), Budget(9, 90_000, 3))]
    cold, warm = load("malcev.th"), load("malcev.th")
    find_models(warm, 2)
    while warm.derived(_ModelSearch, 3).advance(300_000) == "found":
        pass
    for eq, budget in queries:
        assert refute(cold, eq, budget) == refute(warm, eq, budget)
    assert _block_keys(cold) == _block_keys(warm) and _block_keys(cold)


def test_refute_is_cache_warmth_independent_at_the_end_of_a_stream(lattice):
    # the budget that exactly pays for the whole size-1 stream and its one
    # model: a stream that has already finished must not change the verdict
    s = _ModelSearch(lattice, 1)
    while not s.finished:
        s.advance(float("inf"))
    eq = eq_of(lattice, "meet(x, y) = meet(y, x)")
    budget = Budget(9, s.final_cost + len(s.found), 1)
    cold, warm = load("lattice.th"), load("lattice.th")
    find_models(warm, 1)
    assert refute(cold, eq, budget) == refute(warm, eq, budget) == Unknown("no countermodel up to size 1")
    assert refute(lattice, eq, dataclasses.replace(budget, max_steps=budget.max_steps - 1)).detail == 1
