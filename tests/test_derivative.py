import pytest

from freealg.dsl import parse_term
from freealg.derivative import (
    derivative_scan,
    is_independent,
    is_weakly_independent,
    linear_terms,
    weak_implies_independent_for,
)
from freealg.engine import Budget, decide, eval_term
from freealg.terms import (
    Equation,
    TermError,
    Var,
    VarOccurrence,
    _size_class,
    replace_at,
    var_positions,
)

from conftest import load
from oracles import group_word, meet_set


def test_linear_terms_are_linear_and_canonical(groups):
    shapes = list(linear_terms(groups, 4))
    for t in shapes:
        names = [p for p in var_positions(t)]
        assert len(names) == len(set(names))
    assert shapes[0] == Var("z1")
    # linear m-shape for groups appears at size 6
    m = parse_term(groups.signature, "mul(z1, mul(inv(z2), z3))")
    assert m in list(linear_terms(groups, 6))


def test_weakly_independent_m_term_first_argument(groups):
    m = parse_term(groups.signature, "mul(z1, mul(inv(z2), z3))")
    occ = VarOccurrence(m, (0,))
    v = is_weakly_independent(groups, m, occ, q_bound=5)
    assert v.is_proved
    w = v.witness
    # the witness from the group computation: v = (x, y), target y,
    # i.e. x * x^-1 * y is provably y
    assert w.target == Var("y")
    assert dict(w.assignment) == {(1, 0, 0): "x", (1, 1): "y"}
    assert decide(groups, w.instantiated).is_proved
    assert group_word(groups.signature, w.instantiated.lhs) == (("y", 1),)


def test_weakly_independent_semilattice_never(semilattice):
    p = parse_term(semilattice.signature, "and(x, y)")
    occ = VarOccurrence(p, (0,))
    for q_bound in (3, 6):
        assert is_weakly_independent(semilattice, p, occ, q_bound).is_unknown
    # oracle: the left variable always survives into the subset semantics,
    # and every term over {y} denotes {y}, so no bound can ever help
    others = [path for path in var_positions(p) if path != (0,)]
    for name in ("x", "y", "w1"):
        inst = replace_at(replace_at(p, (0,), Var("x")), others[0], Var(name))
        assert "x" in meet_set(inst)


def test_weakly_independent_bare_variable(groups, empty_theory):
    for th in (groups, empty_theory):
        occ = VarOccurrence(Var("v"), ())
        assert is_weakly_independent(th, Var("v"), occ, 4).is_unknown


def test_independent_m_term_refuted_by_z2(groups):
    m = parse_term(groups.signature, "mul(x, mul(inv(y), z))")
    occ = VarOccurrence(m, (0,))
    v = is_independent(groups, m, occ)
    assert v.is_refuted and v.model.size == 2


def test_independent_conjugation_abelian_vs_groups(abelian, groups):
    p = parse_term(abelian.signature, "mul(mul(x, y), inv(x))")
    occ = VarOccurrence(p, (0, 0))
    assert is_independent(abelian, p, occ).is_proved
    assert not is_independent(groups, p, occ).is_proved


def test_occurrence_must_belong_to_term(groups):
    p = parse_term(groups.signature, "inv(y)")
    with pytest.raises(TermError):
        VarOccurrence(p, (2,))
    other = parse_term(groups.signature, "inv(x)")
    occ = VarOccurrence(other, (0,))
    with pytest.raises(TermError):
        is_independent(groups, p, occ)


def test_derivative_scan_groups_refuted(groups, malcev_theory):
    # malcev.th too: congruence-modular varieties never preserve preimages,
    # and outside the catalog the weak-independence witness comes from
    # proof search
    for th in (groups, malcev_theory):
        rep = derivative_scan(th, term_bound=6, q_bound=5)
        assert rep.overall.is_refuted
        # soundness of the refutation: the weak witness re-proves and the
        # countermodel re-falsifies the independence equation in the model
        refuting = [e for e in rep.entries if e.independence.is_refuted]
        assert refuting
        e = refuting[0]
        assert decide(th, e.weak_witness.instantiated).is_proved
        v = e.independence
        assert v.model.satisfies(th)
        # rebuild the independence equation exactly as the scan did and check
        # the stored countermodel falsifies it
        eq = _independence_eq(e)
        assert eval_term(v.model, eq.lhs, v.assignment) != eval_term(
            v.model, eq.rhs, v.assignment
        )
        assert is_independent(th, e.term, VarOccurrence(e.term, e.occurrence)).is_refuted


def _independence_eq(entry):
    from freealg.terms import substitute, var_names

    occ = VarOccurrence(entry.term, entry.occurrence)
    x_name = occ.var_name
    sig_l, sig_r = {x_name: Var("x")}, {x_name: Var("y")}
    i = 0
    for v in var_names(entry.term):
        if v != x_name:
            i += 1
            sig_l[v] = sig_r[v] = Var(f"z{i}")
    return Equation(substitute(entry.term, sig_l), substitute(entry.term, sig_r))


def test_repeated_derivative_scan_builds_no_size_class():
    # enumerated size classes and the catalog targets are kept in the
    # theory's memo: a second scan enumerates nothing anew
    th = load("groups.th")

    def size_classes():
        return sum(1 for key in th._memo if key[0] is _size_class)

    first = derivative_scan(th, 4, 3)
    built = size_classes()
    assert built > 0
    assert derivative_scan(th, 4, 3) == first
    assert size_classes() == built


def test_derivative_scan_semilattice_clean(semilattice):
    rep = derivative_scan(semilattice, term_bound=5, q_bound=5)
    assert rep.overall.is_proved
    assert rep.entries == []
    assert rep.occurrences_scanned > 0


def test_derivative_scan_empty_theory(empty_theory):
    rep = derivative_scan(empty_theory, term_bound=4, q_bound=4)
    assert rep.overall.is_proved
    assert rep.entries == []


def test_refuted_scan_is_monotone_in_bounds(groups):
    assert derivative_scan(groups, 4, 4).overall.is_refuted
    assert derivative_scan(groups, 5, 5).overall.is_refuted


def test_independence_implies_weak_independence(abelian):
    # whenever independence holds, substituting y everywhere else yields a
    # target q(y) = p(y,...,y); check on the abelian conjugation example
    p = parse_term(abelian.signature, "mul(mul(x, y), inv(x))")
    occ = VarOccurrence(p, (0, 0))
    assert is_independent(abelian, p, occ).is_proved
    v = is_weakly_independent(abelian, p, occ, q_bound=4)
    assert v.is_proved
    # p(y, ..., y) reduces to y in abelian groups, and indeed the found
    # target is provably that term
    assert decide(abelian, Equation(v.witness.target, Var("y"))).is_proved


def test_weak_implies_independent_for(groups, abelian, empty_theory):
    m = parse_term(groups.signature, "mul(x, mul(inv(y), z))")
    assert weak_implies_independent_for(groups, m, VarOccurrence(m, (0,))).is_refuted
    p = parse_term(abelian.signature, "mul(mul(x, y), inv(x))")
    assert weak_implies_independent_for(abelian, p, VarOccurrence(p, (0, 0))).is_proved
    assert weak_implies_independent_for(
        empty_theory, Var("x"), VarOccurrence(Var("x"), ())
    ).is_unknown


def test_lattice_scan_small_bound_no_false_positives(lattice):
    # absorption semantics: no lattice term in two or more variables can
    # be independent of an occurrence at these sizes; the scan must not
    # claim a proved entry
    b = Budget(max_term_size=6, max_steps=400, max_model_size=2)
    rep = derivative_scan(lattice, term_bound=4, q_bound=4, budget=b)
    assert not rep.overall.is_refuted
    for e in rep.entries:
        assert not e.independence.is_proved
