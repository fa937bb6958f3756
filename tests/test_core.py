"""Groupoid and functor layer: validation, predicates, finite (co)limits."""

import pytest

from invgpd.core import (
    Functor,
    Groupoid,
    binary_product,
    classify_functor,
    codiscrete,
    coproduct,
    discrete,
    empty_groupoid,
    find_isomorphism,
    identity_functor,
    interval,
    pairing,
    pullback,
    unit,
    validate_functor,
    validate_groupoid,
)
from invgpd.errors import CodomainMismatch, MalformedFunctor
from invgpd.search import count_functors, iter_functors


def bang(G: Groupoid) -> Functor:
    one = unit()
    return Functor(G, one, {x: "*" for x in G.objects}, {m: "id(*)" for m in G.morphisms})


def test_terminal_groupoid_is_valid():
    assert validate_groupoid(unit()) == []


def test_interval_is_valid():
    assert validate_groupoid(interval()) == []


def test_broken_inverse_is_reported():
    # the walking isomorphism with inverse(phi) redeclared as phi itself
    I = interval()
    bad = Groupoid(
        I.objects, dict(I.morphisms), dict(I.identity), dict(I.compose),
        {**I.inverse, "phi": "phi"},
    )
    problems = validate_groupoid(bad)
    assert problems and any("phi" in p for p in problems)


def test_missing_composite_is_reported():
    I = interval()
    compose = dict(I.compose)
    del compose[("inv(phi)", "phi")]
    bad = Groupoid(I.objects, dict(I.morphisms), dict(I.identity), compose, dict(I.inverse))
    assert any("missing" in p for p in validate_groupoid(bad))


def test_classify_identity_functor_all_flags():
    G = codiscrete(("a", "b"))
    rep = classify_functor(identity_functor(G))
    assert all(rep.to_dict().values())


def test_classify_point_inclusion_into_interval():
    # an equivalence that is not an isofibration
    I = interval()
    F = Functor(unit(), I, {"*": "0"}, {"id(*)": "id(0)"})
    rep = classify_functor(F)
    assert rep.equivalence and not rep.isofibration


def test_classify_interval_over_point():
    rep = classify_functor(bang(interval()))
    assert rep.isofibration and not rep.discrete_fibration
    # two lifts of the identity at 0: id(0) and phi
    from invgpd.core import lifts_of
    assert sorted(lifts_of(bang(interval()), "id(*)", "0")) == ["id(0)", "phi"]


def test_classify_rejects_malformed_functor():
    I = interval()
    F = Functor(unit(), I, {"*": "0"}, {"id(*)": "phi"})
    with pytest.raises(MalformedFunctor):
        classify_functor(F)


def test_empty_functor_flags():
    F = Functor(empty_groupoid(), unit(), {}, {})
    rep = classify_functor(F)
    assert rep.faithful and rep.full and rep.injective_on_objects
    assert not rep.essentially_surjective


def test_product_with_unit_and_counts():
    I = interval()
    P, pr1, pr2 = binary_product(I, unit())
    assert validate_groupoid(P) == []
    assert find_isomorphism(P, I) is not None
    PI, _, _ = binary_product(I, I)
    assert PI.n_objects == 4 and PI.n_morphisms == 16


def test_coproduct_of_units_is_discrete_pair():
    C, inl, inr = coproduct(unit(), unit())
    assert validate_groupoid(C) == []
    assert C.n_objects == 2 and C.n_morphisms == 2
    assert find_isomorphism(C, discrete(("x", "y"))) is not None


def test_pullback_along_identity():
    I = interval()
    P, pr1, pr2 = pullback(identity_functor(I), identity_functor(I))
    assert find_isomorphism(P, I) is not None


def test_pullback_of_interval_folds_is_codiscrete_four():
    P, _, _ = pullback(bang(interval()), bang(interval()))
    assert validate_groupoid(P) == []
    assert P.n_objects == 4 and P.n_morphisms == 16
    assert find_isomorphism(P, codiscrete(("p", "q", "r", "s"))) is not None


def test_pullback_codomain_mismatch():
    with pytest.raises(CodomainMismatch):
        pullback(bang(interval()), identity_functor(interval()))


def test_pullback_universal_property_unique_mediator():
    # cones over the cospan I -> 1 <- I from small test groupoids
    I = interval()
    f = bang(I)
    P, pr1, pr2 = pullback(f, f)
    for W in (unit(), discrete(("w1", "w2")), interval()):
        for u in iter_functors(W, I):
            for v in iter_functors(W, I):
                med = pairing(u, v, P)
                assert validate_functor(med) == []
                count = 0
                for F in iter_functors(W, P, post=(pr1, u)):
                    from invgpd.core import compose_functors, functors_equal
                    if functors_equal(compose_functors(pr2, F), v):
                        count += 1
                assert count == 1


def test_find_isomorphism_examples():
    I = interval()
    assert find_isomorphism(I, I) is not None
    # morphism counts differ: the walking iso vs the discrete pair
    assert find_isomorphism(I, discrete(("0", "1"))) is None
    A, _, _ = coproduct(I, unit())
    B, _, _ = coproduct(unit(), I)
    assert find_isomorphism(A, B) is not None


def test_functor_search_respects_budget():
    from invgpd.errors import BudgetExceeded
    big1 = codiscrete(tuple(f"a{i}" for i in range(4)))
    big2 = codiscrete(tuple(f"b{i}" for i in range(4)))
    with pytest.raises(BudgetExceeded):
        count_functors(big1, big2, budget=50)


def test_equivalence_flag_matches_homotopy_inverse_oracle():
    # plain-groupoid oracle: equivalence iff a homotopy inverse exists
    from invgpd.equivariant import trivial_action
    from invgpd.homotopy import find_homotopy_inverse
    from invgpd.lifting import as_equivariant

    from invgpd.lifting import StructureTag

    I = interval()
    cases = [
        Functor(unit(), I, {"*": "0"}, {"id(*)": "id(0)"}),
        bang(I),
        bang(discrete(("u", "v"))),
        identity_functor(codiscrete(("a", "b", "c"))),
    ]
    for F in cases:
        eq = classify_functor(F).equivalence
        inv = find_homotopy_inverse(as_equivariant(F), tag=StructureTag.GPD)
        assert eq == (inv is not None)
