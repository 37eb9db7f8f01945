from collections import Counter

import pytest

from freealg.dsl import parse_term
from freealg.engine import Budget, decide
from freealg.finset import is_pullback
from freealg.malcev import (
    QUATERNARY,
    MalcevChain,
    construct_s_via_malcev,
    find_hm_chain,
    find_malcev_term,
    find_s,
    kernel_pair_report,
    kernel_pair_square,
    malcev_equations,
    shorten_chain,
    verify_chain,
)
from freealg.terms import Equation, Var, apply_args, enumerate_terms, substitute

from conftest import load
from oracles import group_word, meet_set


def tm(th, text):
    return parse_term(th.signature, text)


def test_find_malcev_groups_is_the_classical_term(groups):
    m = find_malcev_term(groups, 7)
    assert m is not None
    # the oracle identifies it with x * y^-1 * z
    assert group_word(groups.signature, m) == group_word(
        groups.signature, tm(groups, "mul(x, mul(inv(y), z))")
    )
    for eq in malcev_equations(m):
        assert decide(groups, eq).is_proved


def test_find_malcev_semilattice_none(semilattice):
    assert find_malcev_term(semilattice, 5) is None
    # oracle: m(x,y,y) denotes a subset that contains y whenever the term
    # mentions its second or third argument, and {x} needs exactly {x}
    for cand in enumerate_terms(semilattice, ("x", "y", "z"), 5):
        inst = apply_args(cand, ("x", "y", "z"), (Var("x"), Var("y"), Var("y")))
        if meet_set(inst) == {"x"}:
            # then cand cannot also satisfy the second equation
            inst2 = apply_args(cand, ("x", "y", "z"), (Var("x"), Var("x"), Var("y")))
            assert meet_set(inst2) != {"y"}


def test_find_malcev_abstract_theory(malcev_theory, small_budget):
    m = find_malcev_term(malcev_theory, 4, small_budget)
    assert m == tm(malcev_theory, "m(x, y, z)")


def test_hm_chain_groups_n3(groups):
    chain = find_hm_chain(groups, 3, 6)
    assert chain is not None and chain.n == 3
    assert verify_chain(groups, chain).is_proved
    # the classical example chain also verifies: p1 = m, p2 = projection
    example = MalcevChain((tm(groups, "mul(x, mul(inv(y), z))"), Var("z")))
    assert verify_chain(groups, example).is_proved
    # oracle check of the example links
    sig = groups.signature
    p1, p2 = example.terms
    assert group_word(sig, apply_args(p1, ("x", "y", "z"), (Var("x"), Var("x"), Var("y")))) == (("y", 1),)
    assert group_word(sig, apply_args(p2, ("x", "y", "z"), (Var("x"), Var("y"), Var("y")))) == (("y", 1),)


def test_hm_chain_empty_theory_none(empty_theory, small_budget):
    assert find_hm_chain(empty_theory, 2, 4, small_budget) is None
    assert find_hm_chain(empty_theory, 3, 4, small_budget) is None
    # oracle: candidates are bare variables; x = p1(x,y,y) forces p1 = x,
    # but then p1(x,x,y) = x can never chain down to y
    for v in ("x", "y", "z"):
        inst = apply_args(Var(v), ("x", "y", "z"), (Var("x"), Var("y"), Var("y")))
        if inst == Var("x"):
            nxt = apply_args(Var(v), ("x", "y", "z"), (Var("x"), Var("x"), Var("y")))
            assert nxt == Var("x") != Var("y")


def test_hm_chain_abstract_malcev_n2(malcev_theory, small_budget):
    chain = find_hm_chain(malcev_theory, 2, 4, small_budget)
    assert chain == MalcevChain((tm(malcev_theory, "m(x, y, z)"),))


def test_hm_chain_requires_n_at_least_2(groups):
    with pytest.raises(ValueError):
        find_hm_chain(groups, 1, 4)


def test_find_s_groups(groups):
    p = tm(groups, "mul(z, mul(inv(y), x))")
    q = Var("z")
    w = find_s(groups, p, q, 6)
    assert w is not None
    # oracle: the witness collapses to u * y^-1 * x
    assert group_word(groups.signature, w.s) == group_word(
        groups.signature, tm(groups, "mul(u, mul(inv(y), x))")
    )
    for eq in w.equations():
        assert decide(groups, eq).is_proved


def test_find_s_trivial_projection(malcev_theory, empty_theory, small_budget):
    for th in (malcev_theory, empty_theory):
        w = find_s(th, Var("x"), Var("x"), 4, small_budget)
        assert w is not None and w.s == Var("x")


def test_find_s_semilattice_full_meet(semilattice):
    p = tm(semilattice, "and(x, and(y, z))")
    w = find_s(semilattice, p, p, 7)
    assert w is not None
    assert meet_set(w.s) == {"x", "y", "z", "u"}
    # subset oracle validates both defining equations: p = s(x,y,z,z) and
    # q = s(x,x,y,z), and here q is p
    s_zz = substitute(w.s, {"u": Var("z")})
    s_xxyz = apply_args(w.s, ("x", "y", "z", "u"), (Var("x"), Var("x"), Var("y"), Var("z")))
    assert meet_set(s_zz) == meet_set(p)
    assert meet_set(s_xxyz) == meet_set(p)  # q is p here


def test_find_s_rejects_incompatible_pair(groups):
    with pytest.raises(ValueError, match="not compatible"):
        find_s(groups, Var("x"), Var("y"), 4)


def test_construct_s_groups(groups):
    m = tm(groups, "mul(x, mul(inv(y), z))")
    p = tm(groups, "mul(z, mul(inv(y), x))")
    q = Var("z")
    out = construct_s_via_malcev(groups, m, p, q)
    assert out.verification.is_proved
    assert group_word(groups.signature, out.witness.s) == group_word(
        groups.signature, tm(groups, "mul(u, mul(inv(y), x))")
    )


def test_construct_s_gate_rejects_incompatible(groups):
    m = tm(groups, "mul(x, mul(inv(y), z))")
    with pytest.raises(ValueError, match="not compatible"):
        construct_s_via_malcev(groups, m, m, m)


def test_construct_s_gate_rejects_non_malcev(groups):
    with pytest.raises(ValueError, match="Mal'cev"):
        construct_s_via_malcev(groups, Var("x"), Var("x"), Var("x"))


def test_construct_s_abstract_theory(malcev_theory, small_budget):
    m = tm(malcev_theory, "m(x, y, z)")
    out = construct_s_via_malcev(malcev_theory, m, m, Var("z"), small_budget)
    assert out.verification.is_proved
    assert out.witness.s == tm(malcev_theory, "m(m(x, y, u), m(x, x, u), u)")


def test_shorten_chain_groups(groups):
    chain = MalcevChain((tm(groups, "mul(x, mul(inv(y), z))"), Var("z")))
    out = shorten_chain(groups, chain, s_bound=6)
    assert out.chain is not None and out.chain.n == 2
    assert out.verdict.is_proved
    m = out.chain.terms[0]
    for eq in malcev_equations(m):
        assert decide(groups, eq).is_proved
    assert group_word(groups.signature, m) == group_word(
        groups.signature, tm(groups, "mul(x, mul(inv(y), z))")
    )


def test_shorten_chain_abstract_theory(malcev_theory, small_budget):
    chain = MalcevChain((tm(malcev_theory, "m(x, y, z)"), Var("z")))
    assert verify_chain(malcev_theory, chain, small_budget).is_proved
    out = shorten_chain(malcev_theory, chain, small_budget, s_bound=4)
    assert out.chain is not None
    assert verify_chain(malcev_theory, out.chain, small_budget).is_proved
    m = out.chain.terms[0]
    assert find_malcev_term(malcev_theory, m.size, small_budget) is not None


def test_shorten_chain_needs_three_links(groups):
    with pytest.raises(ValueError):
        shorten_chain(groups, MalcevChain((tm(groups, "mul(x, mul(inv(y), z))"),)))


def test_kernel_pair_report_groups(groups):
    rep = kernel_pair_report(groups, 3, 6)
    assert rep.status == "proved_malcev"
    assert rep.verdict.is_proved
    assert rep.malcev_term is not None
    for eq in malcev_equations(rep.malcev_term):
        assert decide(groups, eq).is_proved


def test_kernel_pair_report_empty_theory(empty_theory, small_budget):
    rep = kernel_pair_report(empty_theory, 3, 4, small_budget)
    assert rep.status == "proved_trivial"
    assert rep.verdict.is_proved
    assert rep.malcev_term is None
    assert rep.pairs and all(e.witness is not None for e in rep.pairs)
    assert rep.open_pairs == []


def test_kernel_pair_report_semilattice(semilattice):
    rep = kernel_pair_report(semilattice, 3, 7)
    assert rep.status == "open"
    assert rep.verdict.is_unknown  # no absolute refutation is ever claimed
    assert rep.malcev_term is None
    assert rep.pairs
    # subset oracle cross-check on every scanned pair that got a witness:
    # p = s(x,y,z,z) and q = s(x,x,y,z) as variable sets
    for entry in rep.pairs:
        assert entry.witness is not None
        s_zz = substitute(entry.witness, {"u": Var("z")})
        assert meet_set(s_zz) == meet_set(entry.u1)
        s_xxyz = apply_args(
            entry.witness, ("x", "y", "z", "u"), (Var("x"), Var("x"), Var("y"), Var("z"))
        )
        assert meet_set(s_xxyz) == meet_set(entry.u2)


def test_kernel_pair_square_is_a_pullback_of_epis():
    sq = kernel_pair_square()
    assert sq.f1.is_surjective() and sq.f2.is_surjective()
    assert is_pullback((QUATERNARY, sq.p1, sq.p2), sq.f1, sq.f2)
    assert sq.apex == QUATERNARY


def test_kernel_pair_report_rejects_bad_bounds(semilattice):
    with pytest.raises(ValueError, match="s_bound must be >= pair_bound"):
        kernel_pair_report(semilattice, 3, 2)
    for pair_bound, s_bound in ((0, 3), (3, 0), (0, 0)):
        with pytest.raises(ValueError, match="bounds must be >= 1"):
            kernel_pair_report(semilattice, pair_bound, s_bound)


def test_kernel_agreement_via_explicit_construction(groups, malcev_theory, small_budget):
    # glue p-bar, r-bar, q-bar over the kernel of a surjection with the
    # Mal'cev term and check both projections land back on the given pair;
    # the section is the canonical-order least preimage
    from freealg.engine import tri_equal
    from freealg.finset import FinSetMap, kernel_pair
    from freealg.functor import free_algebra

    for th, bound in ((malcev_theory, 3), (groups, 3)):
        m = find_malcev_term(th, 7, small_budget)
        assert m is not None
        X, Y = ("x1", "x2"), ("y1",)
        f = FinSetMap(X, Y, {"x1": "y1", "x2": "y1"})
        g = f.sections()[0]
        kvar = {pair: Var(f"k{i}") for i, pair in enumerate(kernel_pair(f).apex)}
        to_y = {x: Var(f(x)) for x in X}
        carrier = free_algebra(th, X, bound, small_budget).elements
        checked = 0
        for p in carrier:
            for q in carrier:
                img_p = substitute(p, to_y)
                img_q = substitute(q, to_y)
                if tri_equal(th, img_p, img_q, small_budget)[0] != "proved":
                    continue
                pbar = substitute(p, {x: kvar[(x, g(f(x)))] for x in X})
                r = img_p
                rbar = substitute(r, {y: kvar[(g(y), g(y))] for y in Y})
                qbar = substitute(q, {x: kvar[(g(f(x)), x)] for x in X})
                mbar = apply_args(m, ("x", "y", "z"), (pbar, rbar, qbar))
                pi1 = substitute(mbar, {v.name: Var(pair[0]) for pair, v in kvar.items()})
                pi2 = substitute(mbar, {v.name: Var(pair[1]) for pair, v in kvar.items()})
                assert decide(th, Equation(pi1, p), small_budget).is_proved
                assert decide(th, Equation(pi2, q), small_budget).is_proved
                checked += 1
        assert checked >= len(carrier)  # at least the diagonal pairs


def test_kernel_pair_report_evidence_against():
    # the generic 3-permutable theory: a chain exists, no Mal'cev term does
    from freealg.dsl import parse_theory
    import pathlib

    th = parse_theory(
        (pathlib.Path(__file__).parent.parent / "theories" / "three_perm.th").read_text()
    )
    b = Budget(max_term_size=6, max_steps=120, max_model_size=2)
    rep = kernel_pair_report(th, 3, 4, b)
    assert rep.status == "evidence_against"
    assert rep.verdict.is_unknown  # never upgraded to Refuted
    assert rep.malcev_term is None
    assert rep.hm_chain is not None and rep.hm_chain.n == 3
    assert verify_chain(th, rep.hm_chain, b).is_proved


def test_kernel_pair_report_proves_each_distinct_query_once(monkeypatch):
    # tri_equal keeps its results in the theory's memo, so a repeated
    # equality test costs no second proof search
    from freealg import engine

    proofs = Counter()
    real_prove = engine.prove

    def counting_prove(theory, eq, budget=engine.DEFAULT_BUDGET):
        proofs[(eq, budget)] += 1
        return real_prove(theory, eq, budget)

    monkeypatch.setattr(engine, "prove", counting_prove)
    rep = kernel_pair_report(load("three_perm.th"), 3, 6)
    assert rep.status == "evidence_against"
    assert proofs and set(proofs.values()) == {1}


def test_iterated_shortening_reaches_a_malcev_term(groups):
    chain = MalcevChain(
        (tm(groups, "mul(x, mul(inv(y), z))"), Var("z"), Var("z"))
    )
    assert verify_chain(groups, chain).is_proved
    while chain.n > 2:
        out = shorten_chain(groups, chain, s_bound=6)
        assert out.chain is not None and out.verdict.is_proved
        chain = out.chain
    for eq in malcev_equations(chain.terms[0]):
        assert decide(groups, eq).is_proved
