"""Path objects, right homotopies, the homotopy-equivalence predicate."""

import random

from invgpd.core import Functor, classify_functor, find_isomorphism
from invgpd.equivariant import (
    REGISTRY,
    EquivariantFunctor,
    eq_compose,
    eq_identity,
    terminal_map,
    trivial_action,
    validate_equivariant,
    validate_involutive,
)
from invgpd.generators import (
    equivariant_functors,
    involutive_catalog,
    random_involutive,
    random_stable_equivalent_subgroupoid,
)
from invgpd.homotopy import (
    find_homotopy_inverse,
    find_right_homotopy,
    full_fixed_isomorphism,
    is_homotopy_equivalence_projective,
    path_object,
)
from invgpd.lifting import (
    StructureTag,
    generating_trivial_cofibrations,
    has_rlp,
    injective_classify,
    is_fibrant,
    is_trivial_cofibration,
)
from invgpd.universe import build_universe, funext_instance


def all_pairs_compose(f):
    """E's compose table by its definition: every ordered pair of path
    morphisms pm(phi, sigma, tau) whose first target is the second's source."""
    GA = f.dom.base
    objs = [m for m in GA.mor_ids() if f.cod.base.is_identity(f.on_mor(m))]
    data = {}
    for phi in objs:
        x, y = GA.morphisms[phi]
        for sigma in GA.mor_ids():
            for tau in GA.mor_ids():
                if GA.src(sigma) == x and GA.src(tau) == y and f.on_mor(sigma) == f.on_mor(tau):
                    phi2 = GA.comp(GA.comp(tau, phi), GA.inv(sigma))
                    data[f"pm({phi},{sigma},{tau})"] = (phi, sigma, tau, phi2)
    compose = {}
    for m1, (phi1, s1, t1, target) in data.items():
        for m2, (phi2, s2, t2, _) in data.items():
            if phi2 == target:
                compose[(m2, m1)] = f"pm({phi1},{GA.comp(s2, s1)},{GA.comp(t2, t1)})"
    return compose


def test_path_object_compose_matches_all_pairs_definition():
    U = build_universe(("a", "b")).U
    E = path_object(terminal_map(U)).path.base
    assert (E.n_objects, E.n_morphisms) == (25, 385)
    assert list(E.compose.items()) == list(all_pairs_compose(terminal_map(U)).items())
    catalog = involutive_catalog(2, vertex_z2=True)
    maps = [g for X in catalog for Y in catalog for g in equivariant_functors(X, Y)]
    maps += [terminal_map(X) for X in involutive_catalog()]
    for f in maps:
        P = path_object(f).path.base
        assert list(P.compose.items()) == list(all_pairs_compose(f).items())


def test_path_object_of_discrete_over_point():
    s1 = REGISTRY.shape("S1")
    pf = path_object(terminal_map(s1))
    # only tuples (x, x, id): the path object of a discrete groupoid is itself
    assert pf.path.base.n_objects == 2
    assert find_isomorphism(pf.path.base, s1.base) is not None


def test_path_object_of_interval_over_point():
    I = REGISTRY.shape("I")
    pf = path_object(terminal_map(I))
    assert validate_involutive(pf.path) == []
    assert pf.path.base.n_objects == 4 and pf.path.base.n_morphisms == 16


def test_path_object_of_identity_map():
    # over f = id, phi must live over an identity, so objects are the
    # endomorphisms over identities: the discrete core of identity fibers
    I = REGISTRY.shape("I")
    pf = path_object(eq_identity(I))
    assert pf.path.base.n_objects == 2  # (0,0,id), (1,1,id)
    assert find_isomorphism(pf.path.base, I.base) is not None


def test_delta_factorization_properties():
    for X in (REGISTRY.shape("Icheck"), REGISTRY.shape("SI"), REGISTRY.shape("nabla")):
        pf = path_object(terminal_map(X))
        d21 = eq_compose(pf.delta2, pf.delta1)
        assert d21.map.obj_map == pf.diagonal.map.obj_map
        assert d21.map.mor_map == pf.diagonal.map.mor_map
        assert injective_classify(pf.delta1).trivial_cofibration
        gens = generating_trivial_cofibrations(StructureTag.INJECTIVE)
        assert has_rlp(pf.delta2, gens).ok


def test_path_object_fibrancy():
    # if f: A -> C is an injective fibration and A fibrant, P_C A is fibrant
    nb = REGISTRY.shape("nabla")
    pf = path_object(terminal_map(nb))
    assert is_fibrant(pf.path, StructureTag.INJECTIVE)
    one = REGISTRY.shape("1!")
    pf2 = path_object(terminal_map(one))
    assert is_fibrant(pf2.path, StructureTag.INJECTIVE)


def test_reflexivity_homotopy():
    ic = REGISTRY.shape("Icheck")
    w = find_right_homotopy(eq_identity(ic), eq_identity(ic))
    assert w is not None
    # delta2 ∘ H = <id, id>
    assert validate_equivariant(w.H) == []


def test_swap_vs_identity_not_homotopic():
    s1 = REGISTRY.shape("S1")
    swap = EquivariantFunctor(s1, s1, s1.involution)
    assert find_right_homotopy(swap, eq_identity(s1)) is None


def test_fixed_sections_of_funext_instance_not_homotopic():
    """The two fixed sections, as maps 1! -> dom(Pi_g f), admit no
    homotopy: homotopic maps out of a fixed-point object are equal."""
    from invgpd.pi import pi_of
    g, f = funext_instance()
    bundle = pi_of(g, f)
    one = REGISTRY.shape("1!")
    fixed = [o for o in bundle.dom_pi.base.objects
             if bundle.dom_pi.eta_obj(o) == o]
    assert len(fixed) == 2
    sections = []
    for o in fixed:
        sections.append(EquivariantFunctor(
            one, bundle.dom_pi,
            Functor(one.base, bundle.dom_pi.base,
                    {"*": o}, {"id(*)": bundle.dom_pi.base.ident(o)}),
        ))
    s1, s2 = sections
    assert find_right_homotopy(s1, s1) is not None
    assert find_right_homotopy(s1, s2) is None


def test_homotopy_equivalence_examples():
    _, f = funext_instance()
    assert is_homotopy_equivalence_projective(f)
    assert not is_homotopy_equivalence_projective(terminal_map(REGISTRY.shape("Icheck")))
    assert is_homotopy_equivalence_projective(eq_identity(REGISTRY.shape("nabla")))


def test_homotopy_inverse_search_examples():
    _, f = funext_instance()
    inv = find_homotopy_inverse(f)
    assert inv is not None
    g, H1, H2 = inv
    assert validate_equivariant(g) == []
    assert find_homotopy_inverse(terminal_map(REGISTRY.shape("Icheck"))) is None


def test_funext_dependent_product_has_no_homotopy_inverse():
    """The projection of the function-extensionality dependent product is a
    levelwise equivalence with no (projective) homotopy inverse."""
    from invgpd.pi import pi_of
    g, f = funext_instance()
    bundle = pi_of(g, f)
    assert classify_functor(bundle.projection.map).equivalence
    assert find_homotopy_inverse(bundle.projection) is None


def test_injective_homotopy_differs_from_projective():
    """Against the explicit tuple path object the two fixed sections are
    connected by a fixed isomorphism; projectively they are not homotopic.
    This is exactly why projective homotopies need the glued path object."""
    from invgpd.lifting import StructureTag
    from invgpd.pi import pi_of
    g, f = funext_instance()
    bundle = pi_of(g, f)
    one = REGISTRY.shape("1!")
    fixed = [o for o in bundle.dom_pi.base.objects if bundle.dom_pi.eta_obj(o) == o]
    s1, s2 = [
        EquivariantFunctor(
            one, bundle.dom_pi,
            Functor(one.base, bundle.dom_pi.base,
                    {"*": o}, {"id(*)": bundle.dom_pi.base.ident(o)}),
        )
        for o in fixed
    ]
    assert find_right_homotopy(s1, s2, tag=StructureTag.INJECTIVE) is not None
    assert find_right_homotopy(s1, s2, tag=StructureTag.PROJECTIVE) is None


def test_trivial_cofibrations_are_homotopy_equivalences():
    # projective trivial cofibrations are right homotopy equivalences
    rng = random.Random(5)
    from invgpd.generators import random_projective_trivial_cofibration
    for _ in range(8):
        B = random_involutive(rng, max_objects=3, vertex_z2=False)
        f = random_projective_trivial_cofibration(rng, B)
        assert is_homotopy_equivalence_projective(f)
        assert find_homotopy_inverse(f) is not None


def test_projective_homotopy_agrees_with_glued_path_object():
    """Cross-validation: the strict-natural-isomorphism characterization
    agrees with an honest search against the glued projective path object."""
    from invgpd.homotopy import homotopy_against, path_factorization
    from invgpd.lifting import StructureTag
    from invgpd.generators import equivariant_functors

    s1, ic = REGISTRY.shape("S1"), REGISTRY.shape("Icheck")
    for X in (s1, ic):
        pf = path_factorization(terminal_map(X), StructureTag.PROJECTIVE)
        # the glued object has the same fixed points as X (none here)
        assert len(pf.path.fixed_objects()) == len(X.fixed_objects())
        for A in (s1, ic, REGISTRY.shape("1!")):
            for f in equivariant_functors(A, X, limit=6):
                for g in equivariant_functors(A, X, limit=6):
                    direct = find_right_homotopy(f, g, tag=StructureTag.PROJECTIVE)
                    against = homotopy_against(pf, f, g)
                    assert (direct is None) == (against is None), (X, A)
