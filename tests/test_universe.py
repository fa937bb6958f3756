"""The universe bundle, classification, equivalence space, verdicts."""

import random
from itertools import combinations, permutations
from math import comb, factorial

import pytest

from composites import assert_computed_composites, assert_rows_and_walk
from invgpd.budget import Budget
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
from invgpd.lifting import StructureTag, is_injective_fibration
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
    """U's and Utilde's computed compose tables, and Utilde's morphism
    table, equal the brute-force definitions by contents: every row, the
    full walk and, at |V| = 2, the lookup of every ordered pair of
    morphisms (Utilde alone has 4.1 million at |V| = 3). Key order is not
    compared."""
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
            c = compose[(decode[p2], decode[p1])]
            ut_compose[(p2, p1)] = f"{c}@{b.ut_objects[s1][1]}"
    assert GUt.morphisms == morphisms
    assert b.p.map.mor_map == decode
    check = assert_computed_composites if len(V) == 2 else assert_rows_and_walk
    check(GU, compose)
    check(GUt, ut_compose)


@pytest.mark.parametrize("V", [("a", "b"), ("a", "b", "c")], ids=len)
def test_involutions_match_their_definition(V):
    """U's involution sends (A0, A1, phi) to (A1, A0, phi⁻¹) and rho: s -> t
    to the morphism with first component psi∘rho∘phi⁻¹ (phi, psi the
    bijections of s and t); Utilde's sends o@a to η(o)@phi(a) and rho@a to
    η(rho)@phi(a). At |V| = 3 some bijections are not their own inverse."""
    b = build_universe(V)
    GU, GUt = b.U.base, b.Utilde.base
    bijection = {}
    for k in range(len(V) + 1):
        for A0 in combinations(V, k):
            for A1 in combinations(V, k):
                for image in permutations(A1):
                    phi = dict(zip(A0, image))
                    bijection[b.u_object_id(A0, A1, phi)] = phi
    assert set(bijection) == set(GU.objects)
    for o, phi in bijection.items():
        inv = {y: x for x, y in phi.items()}
        assert b.U.eta_obj(o) == b.u_object_id(phi.values(), phi.keys(), inv)
    for m, (s, t) in GU.morphisms.items():
        phi, psi, rho = bijection[s], bijection[t], b.u_morphisms[m]
        rho1 = {phi[x]: psi[rho[x]] for x in phi}
        assert b.U.eta_mor(m) == b.u_morphism_id(b.U.eta_obj(s), b.U.eta_obj(t), rho1)
    pointed = {oa: po_ for po_, oa in b.ut_objects.items()}
    for po_, (o, a) in b.ut_objects.items():
        assert b.Utilde.eta_obj(po_) == pointed[(b.U.eta_obj(o), bijection[o][a])]
    at = {(b.p.on_mor(pm), b.ut_objects[GUt.src(pm)][1]): pm for pm in GUt.morphisms}
    for pm, (s, _) in GUt.morphisms.items():
        o, a = b.ut_objects[s]
        assert b.Utilde.eta_mor(pm) == at[(b.U.eta_mor(b.p.on_mor(pm)), bijection[o][a])]


def test_a_fresh_universe_has_built_no_row():
    """Building the bundle computes no composite row. Reading one row of
    Utilde builds that row and U's row of the same U-morphism, no more."""
    b = build_universe(("a", "b", "c"))
    GU, GUt = b.U.base, b.Utilde.base
    assert GU._composites is None and GUt._composites is None
    pm = GUt.non_identities()[0]
    assert GUt.composite_table()[pm]
    assert list(GUt._composites) == [pm]
    assert list(GU._composites) == [b.p.on_mor(pm)]


def test_universe_over_four_elements():
    """The base-4 bundle builds: 41,632,339 units, charged in closed form,
    and tables whose composites are computed, not stored."""
    budget = Budget(limit=41_632_339)
    b = build_universe(("a", "b", "c", "d"), budget)
    assert budget.used == budget.limit
    assert (b.U.base.n_objects, b.U.base.n_morphisms) == (209, 79_745)
    assert (b.Utilde.base.n_objects, b.Utilde.base.n_morphisms) == (544, 242_176)


@pytest.mark.parametrize("V, units", [((), 3), (("v",), 7), (("a", "b"), 161),
                                      (("a", "b", "c"), 34_839)], ids=["0", "1", "2", "3"])
def test_universe_charges_one_unit_per_object_morphism_and_composite(V, units):
    """The closed-form charge counts one unit per object and morphism of U,
    per composite of U, and per morphism out of each object of Utilde."""
    budget = Budget(limit=10**9)
    b = build_universe(V, budget)
    GU = b.U.base
    composites = sum(len(GU.out(GU.tgt(m))) for m in GU.morphisms)
    pointed = sum(len(GU.out(o)) for o, _ in b.ut_objects.values())
    assert units == GU.n_objects + GU.n_morphisms + composites + pointed == budget.used


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


def equivalence_space_sizes(n_V: int) -> tuple[int, int, int]:
    """|E₀|, |E₁| and the number of composable pairs of E over a base of
    n_V elements. With n_k = C(n_V,k)²·k! objects of U of fiber size k, E
    has |U₁| = Σ n_k²·k! objects, each with n_k·k! morphisms out of either
    end, so Σ n_k²·k!·(n_k·k!)² morphisms and Σ n_k²·k!·(n_k·k!)⁴ pairs."""
    n = {k: comb(n_V, k) ** 2 * factorial(k) for k in range(n_V + 1)}
    return tuple(sum(n[k] ** 2 * factorial(k) * (n[k] * factorial(k)) ** e for k in n)
                 for e in (0, 2, 4))


@pytest.mark.parametrize("V, sizes", [((), (1, 1, 1)), (("v",), (2, 2, 2)),
                                      (("a", "b"), (25, 385, 6145))], ids=len)
def test_equivalence_space_counts(V, sizes):
    """E's sizes against the counting formula. At |V| = 3 it gives 946,
    1,126,306 and 1,451,719,666; E is not built at that size here."""
    assert equivalence_space_sizes(len(V)) == sizes
    E = equivalence_space(build_universe(V)).path.base
    assert (E.n_objects, E.n_morphisms, len(E.compose)) == sizes
    assert equivalence_space_sizes(3) == (946, 1_126_306, 1_451_719_666)


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


def test_univalence_is_decided_for_two_structures_only():
    # the gpd tag must not fall into the injective checks
    with pytest.raises(ValueError):
        check_univalence(build_universe(("a", "b")), StructureTag.GPD)


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


# Two namings of V per size whose orders differ where IDs are ranked: "~"
# sorts after the "}" that closes a set ID and "e1" before it, so the
# empty set's object moves in U's object order. build_universe sorts V, so
# reversing one naming would not test anything.
NAMINGS = {2: (("e0", "e1"), ("!", "~")), 3: (("e0", "e1", "e2"), ("!", "a", "~"))}


def empty_set_rank(b) -> int:
    return b.U.base.objects.index(b.u_object_id((), (), {}))


def test_namings_of_V_rank_the_empty_set_differently():
    for first, second in NAMINGS.values():
        assert empty_set_rank(build_universe(first)) != empty_set_rank(build_universe(second))


@pytest.mark.parametrize("V", NAMINGS[2], ids=str)
def test_univalence_verdicts_do_not_depend_on_the_naming_of_V(V):
    b = build_universe(V)
    space = equivalence_space(b)
    rep = check_univalence(b, StructureTag.PROJECTIVE, space=space)
    assert rep.verdict == "FAILS"
    A, B, rho = (rep.witness[k] for k in ("source_type", "target_type", "equivalence"))
    assert A == B and rho != b.U.base.ident(A)
    assert b.U.base.morphisms[rho] == (A, A)
    rep = check_univalence(b, StructureTag.INJECTIVE, space=space)
    assert rep.verdict == "HOLDS"
    assert len(rep.witness) == 6 and all(rep.witness.values())


@pytest.mark.parametrize("n", [2, 3])
def test_closure_verdicts_do_not_depend_on_the_naming_of_V(n):
    verdicts = []
    for V in NAMINGS[n]:
        b = build_universe(V)
        verdicts.append(universe_closure_checks(b, default_closure_samples(b)).verdicts())
    assert verdicts[0] == verdicts[1]
    assert verdicts[0].count("SMALL") == 10 and verdicts[0].count("OVERFLOW") == 2


@pytest.mark.parametrize("V", NAMINGS[3], ids=str)
def test_p_is_an_injective_fibration_under_either_naming_of_V(V):
    # never equivalence_space here: E has about 1.1 million morphisms at |V| = 3
    assert is_injective_fibration(build_universe(V).p)


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
