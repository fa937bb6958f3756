"""Path objects, right homotopies, the homotopy-equivalence predicate."""

import random

import pytest

from invgpd.budget import ensure_budget
from invgpd.core import Functor, classify_functor, discrete, subgroupoid
from invgpd.equivariant import (
    REGISTRY,
    EquivariantFunctor,
    diagonal,
    eq_compose,
    eq_identity,
    terminal_map,
    trivial_action,
    validate_equivariant,
    validate_involutive,
)
from invgpd.errors import CodomainMismatch
from invgpd.generators import (
    assemble,
    equivariant_functors,
    involutive_catalog,
    random_involutive,
)
from invgpd.homotopy import (
    find_homotopy_inverse,
    find_natural_iso,
    find_right_homotopy,
    is_homotopy_equivalence_projective,
    path_object,
)
from invgpd.lifting import (
    StructureTag,
    generating_trivial_cofibrations,
    has_rlp,
    injective_classify,
    is_fibrant,
)
from invgpd.search import find_isomorphism
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
    assert E.compose == all_pairs_compose(terminal_map(U))
    catalog = involutive_catalog(2, vertex_z2=True)
    maps = [g for X in catalog for Y in catalog for g in equivariant_functors(X, Y)]
    maps += [terminal_map(X) for X in involutive_catalog()]
    for f in maps:
        P = path_object(f).path.base
        assert P.compose == all_pairs_compose(f)


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
        diag = diagonal(terminal_map(X))
        assert d21.map.obj_map == diag.map.obj_map
        assert d21.map.mor_map == diag.map.mor_map
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


def reference_natural_iso(f, g, strict_fixed, budget=None):
    """The natural-isomorphism search as it was before it decided each
    component at its root: it propagates a component along every
    morphism and backtracks across components. The oracle that
    ``find_natural_iso`` must match, witness for witness."""
    budget = ensure_budget(budget)
    A, X = f.dom, f.cod
    GA, GX = A.base, X.base
    nu = {}

    def ok(a, m):
        if GX.morphisms[m] != (f.on_obj(a), g.on_obj(a)):
            return False
        if strict_fixed and A.eta_obj(a) == a and not GX.is_identity(m):
            return False
        return True

    def propagate(a, m, trail):
        stack = [(a, m)]
        while stack:
            budget.spend()
            a, m = stack.pop()
            if a in nu:
                if nu[a] != m:
                    return False
                continue
            if not ok(a, m):
                return False
            nu[a] = m
            trail.append(a)
            stack.append((A.eta_obj(a), X.eta_mor(m)))
            for alpha in sorted(GA.out(a)):
                forced = GX.comp(GX.comp(g.on_mor(alpha), m), GX.inv(f.on_mor(alpha)))
                stack.append((GA.tgt(alpha), forced))
        return True

    def solve(order):
        pending = [a for a in order if a not in nu]
        if not pending:
            return True
        a = pending[0]
        for m in GX.hom(f.on_obj(a), g.on_obj(a)):
            budget.spend()
            trail = []
            if propagate(a, m, trail) and solve(order):
                return True
            for key in trail:
                del nu[key]
        return False

    if solve(list(GA.objects)):
        return dict(nu)
    return None


def test_natural_iso_matches_backtracking_reference():
    # every ordered pair of parallel maps of the catalog, both ways: the
    # root decision returns the reference's witness, or None with it
    catalog = involutive_catalog(2, vertex_z2=True)
    cases = found = 0
    for X in catalog:
        for Y in catalog:
            maps = equivariant_functors(X, Y)
            for f in maps:
                for g in maps:
                    for strict_fixed in (True, False):
                        nu = find_natural_iso(f, g, strict_fixed)
                        assert nu == reference_natural_iso(f, g, strict_fixed), (f.map, g.map)
                        cases += 1
                        found += nu is not None
    assert cases == 6700 and 0 < found < cases


def test_natural_iso_does_not_backtrack_across_components():
    # 30 discrete fixed objects over two one-object Z/2 components; g moves
    # the last object to the other component, so only that component has
    # no candidate. Backtracking over the 2^29 choices before it would
    # exhaust the budget.
    names = [f"x{i:02d}" for i in range(30)]
    D = trivial_action(discrete(names))
    C = trivial_action(assemble(("p", "q"), [(("p",), "z2"), (("q",), "z2")]))

    def to(targets):
        return EquivariantFunctor(D, C, Functor(
            D.base, C.base, dict(zip(names, targets)),
            {D.base.ident(x): C.base.ident(y) for x, y in zip(names, targets)},
        ))

    f = to(["p"] * 30)
    g = to(["p"] * 29 + ["q"])
    assert find_right_homotopy(f, f, tag=StructureTag.INJECTIVE, budget=10**5) is not None
    assert find_right_homotopy(f, g, tag=StructureTag.INJECTIVE, budget=10**5) is None


def test_homotopy_needs_equal_involutions():
    # the same plain functors, but the second domain has two fixed points
    # where S1 has none: the maps are not parallel as equivariant maps
    s1 = REGISTRY.shape("S1")
    with pytest.raises(CodomainMismatch):
        find_right_homotopy(terminal_map(s1), terminal_map(trivial_action(s1.base)),
                            tag=StructureTag.INJECTIVE)


def test_homotopy_equivalence_examples():
    _, f = funext_instance()
    assert is_homotopy_equivalence_projective(f)
    assert not is_homotopy_equivalence_projective(terminal_map(REGISTRY.shape("Icheck")))
    assert is_homotopy_equivalence_projective(eq_identity(REGISTRY.shape("nabla")))


def full_fixed_isomorphism(f) -> bool:
    """Does f restrict to an isomorphism of the full fixed subgroupoids?
    Built from the subgroupoids themselves, objects and morphisms both."""
    Gf, _ = subgroupoid(f.dom.base, f.dom.fixed_objects())
    Hf, _ = subgroupoid(f.cod.base, f.cod.fixed_objects())
    objs = [f.on_obj(x) for x in Gf.objects]
    if len(set(objs)) != len(objs) or set(objs) != set(Hf.objects):
        return False
    mors = [f.on_mor(m) for m in Gf.morphisms]
    return len(set(mors)) == len(mors) and set(mors) == set(Hf.morphisms)


def test_homotopy_equivalence_is_full_fixed_isomorphism():
    # a levelwise equivalence is fully faithful, so bijective on fixed
    # objects means an isomorphism of the full fixed subgroupoids
    catalog = involutive_catalog(2, vertex_z2=True)
    maps = [f for X in catalog for Y in catalog for f in equivariant_functors(X, Y)]
    assert len(maps) == 564
    for f in maps:
        want = classify_functor(f.map).equivalence and full_fixed_isomorphism(f)
        assert is_homotopy_equivalence_projective(f) == want, f.map


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
        pf = path_factorization(terminal_map(X))
        # the glued object has the same fixed points as X (none here)
        assert len(pf.path.fixed_objects()) == len(X.fixed_objects())
        for A in (s1, ic, REGISTRY.shape("1!")):
            for f in equivariant_functors(A, X, limit=6):
                for g in equivariant_functors(A, X, limit=6):
                    direct = find_right_homotopy(f, g, tag=StructureTag.PROJECTIVE)
                    against = homotopy_against(pf, f, g)
                    assert (direct is None) == (against is None), (X, A)
