"""The universe bundle, classification, equivalence space, verdicts."""

import random

import pytest

from invgpd.core import classify_functor
from invgpd.equivariant import (
    REGISTRY,
    EquivariantFunctor,
    diagonal,
    eq_compose,
    equivariant_pullback,
    terminal_map,
    validate_equivariant,
    validate_involutive,
)
from invgpd.errors import BaseTooSmall, InvariantViolated, NotSmall
from invgpd.generators import random_involutive
from invgpd.homotopy import po
from invgpd.lifting import StructureTag
from invgpd.search import iter_functors
from invgpd.universe import (
    build_universe,
    check_funext_counterexample,
    check_univalence,
    classify_small_fibration,
    default_closure_samples,
    double_cover_of_interval,
    equivalence_space,
    funext_instance,
    is_small_fibration,
    projective_univalence_witness,
    universe_closure_checks,
)


def test_universe_over_empty_base():
    b = build_universe(())
    assert b.U.base.n_objects == 1
    assert b.Utilde.base.n_objects == 0
    assert validate_involutive(b.U) == []


def test_universe_over_singleton():
    b = build_universe(("v",))
    assert b.U.base.n_objects == 2
    # both objects are morphism-rigid: only identity endomorphisms
    for x in b.U.base.objects:
        assert b.U.base.hom(x, x) == (b.U.base.ident(x),)
    assert b.Utilde.base.n_objects == 1


def test_universe_over_two_elements():
    b = build_universe(("a", "b"))
    assert b.U.base.n_objects == 7
    assert validate_involutive(b.U) == [] and validate_involutive(b.Utilde) == []
    assert validate_equivariant(b.p) == []
    # the two-element identity type carries the swap automorphism
    A = b.u_object_id(("a", "b"), ("a", "b"), {"a": "a", "b": "b"})
    assert A is not None
    assert b.u_morphism_id(A, A, {"a": "b", "b": "a"}) is not None


@pytest.mark.parametrize("V", [("a", "b"), ("a", "b", "c")], ids=len)
def test_universe_tables_match_their_definition(V):
    """U's compose table and Utilde's morphism and compose tables equal the
    brute-force definitions; U's compose table in key order too."""
    b = build_universe(V)
    GU, GUt = b.U.base, b.Utilde.base
    # u_morphism_id, as one dict lookup
    mid_of = {(s, t, tuple(sorted(b.u_morphisms[mid].items()))): mid
              for mid, (s, t) in GU.morphisms.items()}
    u_out = {}
    for mid, (s, _) in GU.morphisms.items():
        u_out.setdefault(s, []).append(mid)
    compose = {}
    for m1, (s1, t1) in GU.morphisms.items():
        for m2 in u_out[t1]:
            rho = {k: b.u_morphisms[m2][v] for k, v in b.u_morphisms[m1].items()}
            compose[(m2, m1)] = mid_of[(s1, GU.tgt(m2), tuple(sorted(rho.items())))]
    assert list(GU.compose.items()) == list(compose.items())
    # one pointed morphism rho@a: o1@a -> o2@c per U-morphism rho: o1 -> o2
    # with rho0[a] == c
    u_hom = {}
    for mid, st in GU.morphisms.items():
        u_hom.setdefault(st, []).append(mid)
    morphisms, decode = {}, {}
    for po1, (o1, a) in b.ut_objects.items():
        for po2, (o2, c) in b.ut_objects.items():
            for mid in u_hom.get((o1, o2), ()):
                if b.u_morphisms[mid][a] == c:
                    morphisms[f"{mid}@{a}"] = (po1, po2)
                    decode[f"{mid}@{a}"] = mid
    ut_out = {}
    for pm, (s, _) in morphisms.items():
        ut_out.setdefault(s, []).append(pm)
    ut_compose = {}
    for p1, (s1, t1) in morphisms.items():
        for p2 in ut_out.get(t1, ()):
            c = GU.compose[(decode[p2], decode[p1])]
            ut_compose[(p2, p1)] = f"{c}@{b.ut_objects[s1][1]}"
    assert GUt.morphisms == morphisms
    assert GUt.compose == ut_compose
    assert b.p.map.mor_map == decode


def test_universe_over_three_elements():
    b = build_universe(("a", "b", "c"))
    assert (b.U.base.n_objects, b.U.base.n_morphisms) == (34, 946)
    assert (b.Utilde.base.n_objects, b.Utilde.base.n_morphisms) == (63, 2025)
    assert classify_functor(b.p.map).discrete_fibration


def test_involution_laws_and_p_equivariance():
    b = build_universe(("a", "b"))
    for X in (b.U, b.Utilde):
        eta = X.involution
        for x in X.base.objects:
            assert eta.obj_map[eta.obj_map[x]] == x
        for m in X.base.morphisms:
            assert eta.mor_map[eta.mor_map[m]] == m
    for po in b.Utilde.base.objects:
        assert b.p.on_obj(b.Utilde.eta_obj(po)) == b.U.eta_obj(b.p.on_obj(po))


def test_p_is_a_discrete_fibration():
    b = build_universe(("a", "b"))
    assert classify_functor(b.p.map).discrete_fibration
    assert is_small_fibration(b.p, b)


def test_small_fibration_examples():
    b = build_universe(("a", "b"))
    _, f = funext_instance()
    # the fold has interval fibers (phi lies over an identity): not small
    assert not is_small_fibration(f, b)
    assert is_small_fibration(double_cover_of_interval(), b)
    # Icheck -> 1! has a non-discrete fiber
    assert not is_small_fibration(terminal_map(REGISTRY.shape("Icheck")), b)


def test_classification_of_the_double_cover():
    b = build_universe(("a", "b"))
    cover = double_cover_of_interval()
    cls = classify_small_fibration(cover, b)
    assert validate_equivariant(cls.classifying) == []
    # chi is an isomorphism onto the pullback over the base
    assert cls.chi.map.dom.n_objects == cls.pullback.base.n_objects
    comp = eq_compose(cls.pullback_map, cls.chi)
    assert comp.map.obj_map == cover.map.obj_map


def test_classification_rejects_non_small():
    b = build_universe(("a", "b"))
    with pytest.raises(NotSmall):
        classify_small_fibration(terminal_map(REGISTRY.shape("Icheck")), b)


@pytest.mark.parametrize("broken", ["missing", "wrong"])
def test_classification_checks_survive_optimisation(monkeypatch, broken):
    """A wrong classifying map raises a typed error, also under python -O."""
    b = build_universe(("a", "b"))
    right = b.u_morphism_id

    def wrong(src, tgt, rho0):  # another morphism with the same ends
        mid = right(src, tgt, rho0)
        return next((n for n in b.U.base.hom(src, tgt) if n != mid), mid)

    if broken == "missing":
        monkeypatch.setattr(b, "u_morphism_id", lambda src, tgt, rho0: None)
    else:
        monkeypatch.setattr(b, "u_morphism_id", wrong)
    with pytest.raises(InvariantViolated):
        classify_small_fibration(double_cover_of_interval(), b)


def test_classification_roundtrip_on_seeded_pullbacks():
    """Pullbacks of the universal map classify back to isomorphic pullbacks."""
    rng = random.Random(13)
    b = build_universe(("a", "b", "c"))
    done = 0
    while done < 6:
        Bp = random_involutive(rng, max_objects=2, vertex_z2=False)
        maps = []
        for F in iter_functors(Bp.base, b.U.base, equiv=(Bp.involution, b.U.involution)):
            maps.append(F)
            if len(maps) >= 40:
                break
        if not maps:
            continue
        g = EquivariantFunctor(Bp, b.U, rng.choice(maps))
        _, prB, _ = equivariant_pullback(g, b.p)
        assert is_small_fibration(prB, b)
        cls = classify_small_fibration(prB, b)
        # chi: PB -> pullback along the recovered classifying map, over Bp
        comp = eq_compose(cls.pullback_map, cls.chi)
        assert comp.map.obj_map == prB.map.obj_map
        assert comp.map.mor_map == prB.map.mor_map
        done += 1


def decode(b, eid):
    """(source type, target type, equivalence) of an object of E."""
    rho = next(m for m in b.U.base.morphisms if po(m) == eid)
    return (*b.U.base.morphisms[rho], rho)


def test_equivalence_space_fibers():
    b = build_universe(("a", "b"))
    E = equivalence_space(b).path
    assert E.base.n_objects == b.U.base.n_morphisms
    A = b.u_object_id(("a", "b"), ("a", "b"), {"a": "a", "b": "b"})
    fib = [e for e in E.base.objects if decode(b, e)[:2] == (A, A)]
    assert len(fib) == 2  # identity and the swap
    # the swap equivalence is a fixed point of E
    swap = [e for e in fib if decode(b, e)[2] != b.U.base.ident(A)]
    assert len(swap) == 1 and E.eta_obj(swap[0]) == swap[0]


def test_projective_witness_structure():
    b = build_universe(("a", "b"))
    sp = equivalence_space(b)
    wid = projective_univalence_witness(b, sp)
    A, B, rho = decode(b, wid)
    assert A == B == b.u_object_id(("a", "b"), ("a", "b"), {"a": "a", "b": "b"})
    assert b.u_morphisms[rho] == {"a": "b", "b": "a"}
    # no witness exists over small bases
    with pytest.raises(BaseTooSmall):
        projective_univalence_witness(build_universe(("v",)))


def test_projective_univalence_verdicts():
    assert check_univalence(build_universe(()), StructureTag.PROJECTIVE).verdict == "HOLDS"
    assert check_univalence(build_universe(("v",)), StructureTag.PROJECTIVE).verdict == "HOLDS"
    rep = check_univalence(build_universe(("a", "b")), StructureTag.PROJECTIVE)
    assert rep.verdict == "FAILS"
    assert not rep.witness["fixed_point_bijection"]
    assert rep.witness["levelwise_equivalence"]


def test_injective_univalence_verdicts():
    for base in (("v",), ("a", "b")):
        rep = check_univalence(build_universe(base), StructureTag.INJECTIVE)
        assert rep.verdict == "HOLDS", rep.witness
        assert all(rep.witness.values())


def test_funext_report():
    rpt = check_funext_counterexample()
    assert rpt.verdict == "FAILS"
    assert rpt.homotopy_equivalence_input
    assert rpt.pi_objects == 4
    assert rpt.pi_fixed_points == 2
    assert rpt.terminal_fixed_points == 1
    assert not rpt.pi_is_homotopy_equivalence


def test_closure_checks():
    b = build_universe(("a", "b", "c"))
    rep = universe_closure_checks(b, default_closure_samples(b))
    verdicts = rep.verdicts()
    assert "FAIL" not in verdicts
    assert "OVERFLOW" in verdicts
    kinds = {e["kind"] for e in rep.entries}
    assert kinds == {"identity", "composite", "diagonal", "pi"}
    for e in rep.entries:
        if e["verdict"] == "OVERFLOW":
            assert e["witness"]["largest_fiber"] > e["witness"]["base_size"]


def test_closure_rejects_non_small_samples():
    b = build_universe(("a", "b"))
    with pytest.raises(NotSmall):
        universe_closure_checks(b, [("bad", terminal_map(REGISTRY.shape("Icheck")))])


def test_diagonal_of_small_fibration_is_small():
    b = build_universe(("a", "b"))
    cover = double_cover_of_interval()
    assert is_small_fibration(diagonal(cover), b)


def test_projective_injective_dichotomy_same_delta1():
    """The central contrast: one and the same map delta1 is an injective
    trivial cofibration but not a projective homotopy equivalence."""
    from invgpd.homotopy import is_homotopy_equivalence_projective
    from invgpd.lifting import injective_classify

    b = build_universe(("a", "b"))
    sp = equivalence_space(b)
    assert injective_classify(sp.delta1).trivial_cofibration
    assert not is_homotopy_equivalence_projective(sp.delta1)
