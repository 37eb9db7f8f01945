from freealg.dsl import parse_term
from freealg.engine import Budget, decide, eval_term
from freealg.functor import free_algebra, functor_map, is_idempotent
from freealg.terms import App, Equation, Var

from oracles import abelian_exponents, group_word, meet_set


def test_free_algebra_empty_theory_is_the_variable_set(empty_theory):
    for bound in (1, 3, 6):
        carrier = free_algebra(empty_theory, ("x", "y"), bound)
        assert carrier.elements == (Var("x"), Var("y"))
        assert not carrier.dedup_unknown


def test_free_semilattice_is_nonempty_subsets(semilattice):
    carrier = free_algebra(semilattice, ("x", "y"), 4)
    expected = {frozenset("x"), frozenset("y"), frozenset(("x", "y"))}
    assert {meet_set(t) for t in carrier.elements} == expected
    assert len(carrier.elements) == 3
    # on three generators and a bigger bound: all seven nonempty subsets
    carrier3 = free_algebra(semilattice, ("x", "y", "z"), 5)
    assert len(carrier3.elements) == 7
    assert {meet_set(t) for t in carrier3.elements} == {
        frozenset(s) for s in ("x", "y", "z", "xy", "xz", "yz", "xyz")
    }


def test_idempotent_theory_collapses_one_generator(malcev_theory, small_budget):
    carrier = free_algebra(malcev_theory, ("x",), 4, small_budget)
    assert carrier.elements == (Var("x"),)


def test_free_group_carrier_matches_word_oracle(groups, abelian):
    # oracle: reduced words representable by terms of size <= 3
    group_words = {(), (("x", 1),), (("y", 1),), (("x", -1),), (("y", -1),)}
    group_words |= {((a, 1), (b, 1)) for a in "xy" for b in "xy"}
    # abelian: terms of size <= 4 reach every exponent vector of norm <= 2
    abelian_words = {
        frozenset((n, e) for n, e in (("x", a), ("y", b)) if e)
        for a in range(-2, 3)
        for b in range(-2, 3)
        if abs(a) + abs(b) <= 2
    }
    cases = (
        (groups, 3, group_word, group_words, 9),
        (abelian, 4, lambda sig, t: frozenset(abelian_exponents(sig, t).items()),
         abelian_words, 13),
    )
    for th, bound, word, expected, size in cases:
        carrier = free_algebra(th, ("x", "y"), bound)
        words = {word(th.signature, t) for t in carrier.elements}
        assert len(words) == len(carrier.elements)  # pairwise distinct words
        assert words == expected
        assert len(carrier.elements) == size


def test_closed_terms_over_empty_variable_set(groups, semilattice):
    carrier = free_algebra(groups, (), 3)
    e = groups.signature.index("e")
    assert carrier.elements == (App(e, ()),)
    assert free_algebra(semilattice, (), 3).elements == ()


def test_functor_identity_map_fixes_elements(semilattice, groups):
    for th, variables, bound in ((semilattice, ("x", "y"), 4), (groups, ("x", "y"), 3)):
        carrier = free_algebra(th, variables, bound)
        ident = {v: v for v in variables}
        for t in carrier.elements:
            assert functor_map(th, ident, t, target_order=variables) == t


def test_functor_map_collapses_group_generators(groups):
    t = parse_term(groups.signature, "mul(x, inv(y))")
    out = functor_map(groups, {"x": "x", "y": "x"}, t, target_order=("x",))
    assert out == App(groups.signature.index("e"), ())


def test_functor_map_semilattice_subset(semilattice):
    t = parse_term(semilattice.signature, "and(x, y)")
    out = functor_map(semilattice, {"x": "z", "y": "z"}, t, target_order=("z",))
    assert out == Var("z")


def test_functor_composition_law(semilattice, malcev_theory, small_budget):
    cases = [
        (semilattice, ("x", "y"), 4, Budget()),
        (malcev_theory, ("x", "y"), 4, small_budget),
    ]
    for th, variables, bound, budget in cases:
        carrier = free_algebra(th, variables, bound, budget)
        phi = {"x": "a", "y": "a"}  # X -> {a, b}
        psi = {"a": "u", "b": "u"}  # {a, b} -> {u}
        composed = {v: psi[phi[v]] for v in variables}
        for t in carrier.elements:
            one = functor_map(th, composed, t, budget, ("u",))
            two = functor_map(
                th, psi, functor_map(th, phi, t, budget, ("a", "b")), budget, ("u",)
            )
            assert decide(th, Equation(one, two), budget).is_proved


def test_carrier_monotone_in_bound(groups, semilattice, malcev_theory, small_budget):
    for th, budget in ((groups, Budget()), (semilattice, Budget()), (malcev_theory, small_budget)):
        small = free_algebra(th, ("x", "y"), 3, budget)
        large = free_algebra(th, ("x", "y"), 4, budget)
        assert set(small.elements) <= set(large.elements)


def test_is_idempotent_lattices(lattice, small_budget):
    assert is_idempotent(lattice, small_budget).is_proved


def test_is_idempotent_groups_refuted_by_z2(groups):
    v = is_idempotent(groups, Budget())
    assert v.is_refuted
    assert v.model.size == 2
    # the witness falsifies mul(x, x) = x, the first failing instance
    mul = groups.signature.index("mul")
    eq = Equation(App(mul, (Var("x"), Var("x"))), Var("x"))
    assert eval_term(v.model, eq.lhs, v.assignment) != eval_term(v.model, eq.rhs, v.assignment)


def test_is_idempotent_malcev_theory(malcev_theory, small_budget):
    assert is_idempotent(malcev_theory, small_budget).is_proved


def test_carrier_elements_are_their_own_normal_forms(semilattice, malcev_theory, small_budget):
    from freealg.engine import normalize
    from freealg.terms import term_key

    for th, budget in ((semilattice, small_budget), (malcev_theory, small_budget)):
        carrier = free_algebra(th, ("x", "y"), 4, budget)
        rank = {v: i for i, v in enumerate(carrier.vars)}
        keys = [term_key(t, rank) for t in carrier.elements]
        assert keys == sorted(keys)
        for el in carrier.elements:
            assert normalize(th, el, budget, carrier.vars) == el
