"""Lifting solver, the two predicate suites, decomposition, factorization."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from invgpd import cli, docformat, lifting
from invgpd.budget import Budget
from invgpd.core import Functor, classify_functor, identity_functor, unit
from invgpd.equivariant import (
    REGISTRY,
    EquivariantFunctor,
    InvolutiveGroupoid,
    attach_cell,
    eq_compose,
    eq_identity,
    equivariant_coproduct,
    equivariant_pullback,
    extend_over_cell,
    terminal_map,
    trivial_action,
)
from invgpd.errors import (
    BudgetExceeded,
    IterationCapExceeded,
    NonCommutingSquare,
    NotTrivialCofibration,
)
from invgpd.generators import (
    assemble,
    equivariant_functors,
    involutions_of,
    involutive_catalog,
    random_equivariant,
    random_involutive,
    random_projective_trivial_cofibration,
    random_stable_equivalent_subgroupoid,
    z2_component,
)
from invgpd.lifting import (
    LiftingProblem,
    StructureTag,
    decompose_trivial_cofibration,
    factorize,
    generating_trivial_cofibrations,
    generator_orthogonal,
    generator_squares,
    has_llp,
    has_rlp,
    injective_classify,
    is_fibrant,
    is_trivial_cofibration,
    iter_squares,
    projective_classify,
    solve_lifting,
)
from invgpd.search import find_isomorphism
from invgpd.universe import build_universe, equivalence_space


def icheck_to_point():
    return terminal_map(REGISTRY.shape("Icheck"))


def test_no_filler_square():
    prob = LiftingProblem(
        REGISTRY.map("iprime"), icheck_to_point(),
        eq_identity(REGISTRY.shape("Icheck")), terminal_map(REGISTRY.shape("nabla")),
    )
    filler, n = solve_lifting(prob, count_all=True)
    assert filler is None and n == 0


def test_identity_left_unique_filler():
    ic = REGISTRY.shape("Icheck")
    prob = LiftingProblem(eq_identity(ic), icheck_to_point(), eq_identity(ic), icheck_to_point())
    filler, n = solve_lifting(prob, count_all=True)
    assert n == 1
    assert filler.map.obj_map == {x: x for x in ic.base.objects}


def test_non_commuting_square_raises():
    s1 = REGISTRY.shape("S1")
    swap = EquivariantFunctor(s1, s1, s1.involution)
    prob = LiftingProblem(eq_identity(s1), eq_identity(s1), swap, eq_identity(s1))
    with pytest.raises(NonCommutingSquare):
        solve_lifting(prob)


def test_rlp_examples():
    assert has_rlp(icheck_to_point(), [("Si", REGISTRY.map("Si"))]).ok
    rep = has_rlp(icheck_to_point(), [("iprime", REGISTRY.map("iprime"))])
    assert not rep.ok
    assert rep.witness["generator"] == "iprime"
    assert has_rlp(eq_identity(REGISTRY.shape("Icheck")),
                   generating_trivial_cofibrations(StructureTag.INJECTIVE)).ok


def test_llp_of_cells_against_projective_fibrations():
    fibs = [("Icheck->1!", icheck_to_point())]
    assert has_llp(REGISTRY.map("Si"), fibs).ok
    # iprime fails against the projective fibration Icheck -> 1!
    assert not has_llp(REGISTRY.map("iprime"), fibs).ok


def test_llp_of_a_map_that_identifies_two_morphisms():
    # i sends t and id(x) to the one morphism of the point: the two seeds for
    # id(*) disagree unless the top map agrees on them, and such a square is
    # skipped, not solved with one seed overwritten
    A = docformat.loads("""
groupoid A
  objects x
  morphism t : x -> x
  inverse t = t
  compose t . t = id(x)
""").groupoids["A"]
    i = Functor(A, unit(), {"x": "*"}, {"id(x)": "id(*)", "t": "id(*)"})
    assert has_llp(i, [("p", identity_functor(A))]).to_dict() == {"ok": True, "squares_checked": 1}


def test_projective_classify_examples():
    rep = projective_classify(REGISTRY.map("Si"))
    assert rep.trivial_cofibration and rep.weak_equivalence and not rep.fibration
    rep = projective_classify(REGISTRY.map("iprime"))
    assert rep.weak_equivalence and not rep.trivial_cofibration
    ic = REGISTRY.shape("Icheck")
    rep = projective_classify(eq_identity(ic))
    assert rep.weak_equivalence and rep.fibration and rep.trivial_cofibration


def test_cofibration_evidence_fails_on_fixed_point_domain():
    # an object with a fixed point is not cofibrant: 1! -> Icheck x ... has no
    # lift against Icheck -> 1!; evidence must be False for 0! -> 1!
    u = REGISTRY.map("u")
    rep = projective_classify(u)
    assert not rep.cofibration_evidence
    # while 0! -> S1 passes the evidence family
    zero, s1 = REGISTRY.shape("0!"), REGISTRY.shape("S1")
    from invgpd.core import Functor
    incl = EquivariantFunctor(zero, s1, Functor(zero.base, s1.base, {}, {}))
    assert projective_classify(incl).cofibration_evidence


def test_injective_classify_examples():
    assert injective_classify(REGISTRY.map("iprime")).trivial_cofibration
    assert not injective_classify(icheck_to_point()).fibration
    assert injective_classify(eq_identity(REGISTRY.shape("nabla"))).fibration


def test_fibrancy():
    assert is_fibrant(REGISTRY.shape("Icheck"), StructureTag.PROJECTIVE)
    assert not is_fibrant(REGISTRY.shape("Icheck"), StructureTag.INJECTIVE)
    assert is_fibrant(REGISTRY.shape("nabla"), StructureTag.INJECTIVE)
    assert is_fibrant(REGISTRY.shape("1!"), StructureTag.INJECTIVE)
    assert is_fibrant(REGISTRY.shape("S1"), StructureTag.INJECTIVE)


def test_decompose_examples():
    seq = decompose_trivial_cofibration(REGISTRY.map("i"), StructureTag.GPD)
    assert [k for k, _ in seq.steps] == ["i"]
    seq = decompose_trivial_cofibration(REGISTRY.map("iprime"), StructureTag.INJECTIVE)
    assert [k for k, _ in seq.steps] == ["iprime"]
    seq = decompose_trivial_cofibration(REGISTRY.map("Si"), StructureTag.INJECTIVE)
    assert [k for k, _ in seq.steps] == ["Si"]


def test_decompose_rejects_non_trivial_cofibration():
    with pytest.raises(NotTrivialCofibration):
        decompose_trivial_cofibration(icheck_to_point(), StructureTag.INJECTIVE)
    # iprime is not a projective trivial cofibration (fixed points 0 vs 1)
    with pytest.raises(NotTrivialCofibration):
        decompose_trivial_cofibration(REGISTRY.map("iprime"), StructureTag.PROJECTIVE)


def roundtrip(f, tag) -> None:
    seq = decompose_trivial_cofibration(f, tag)
    Y, incl = seq.recompose()
    # the recomposed inclusion is isomorphic to f over the codomain
    seeds = {incl.on_obj(a): f.on_obj(a) for a in f.dom.base.objects}
    iso = find_isomorphism(Y.base, f.cod.base, obj_seed=seeds)
    assert iso is not None
    from invgpd.core import compose_functors
    assert compose_functors(iso, incl.map).obj_map == f.map.obj_map
    assert compose_functors(iso, incl.map).mor_map == f.map.mor_map


def test_decompose_recompose_roundtrip_seeded_injective():
    rng = random.Random(7)
    done = 0
    while done < 12:
        B = random_involutive(rng, max_objects=4, vertex_z2=(rng.random() < 0.3))
        f = random_stable_equivalent_subgroupoid(rng, B)
        assert is_trivial_cofibration(f, StructureTag.INJECTIVE)
        roundtrip(f, StructureTag.INJECTIVE)
        done += 1


def test_decompose_recompose_roundtrip_seeded_projective():
    rng = random.Random(8)
    done = 0
    while done < 8:
        B = random_involutive(rng, max_objects=4, vertex_z2=False)
        f = random_projective_trivial_cofibration(rng, B)
        assert is_trivial_cofibration(f, StructureTag.PROJECTIVE)
        roundtrip(f, StructureTag.PROJECTIVE)
        done += 1


def test_factorize_already_a_fibration():
    fact = factorize(terminal_map(REGISTRY.shape("nabla")), StructureTag.INJECTIVE)
    assert fact.gluing_steps == 0 and fact.cells_attached == 0


def test_factorize_interval_inclusion_one_step():
    fact = factorize(REGISTRY.map("i"), StructureTag.GPD)
    assert fact.gluing_steps == 1
    assert classify_functor(fact.q.map).isofibration
    # q∘j = f exactly
    comp = eq_compose(fact.q, fact.j)
    assert comp.map.obj_map == REGISTRY.map("i").map.obj_map


def test_factorize_icheck_fibrant_replacement():
    fact = factorize(icheck_to_point(), StructureTag.INJECTIVE)
    gens = generating_trivial_cofibrations(StructureTag.INJECTIVE)
    assert has_rlp(fact.q, gens).ok
    assert len(fact.q.dom.fixed_objects()) >= 1
    assert is_trivial_cofibration(fact.j, tag=StructureTag.INJECTIVE)
    comp = eq_compose(fact.q, fact.j)
    assert comp.map.obj_map == icheck_to_point().map.obj_map
    assert comp.map.mor_map == icheck_to_point().map.mor_map


def test_factorize_iteration_cap():
    # the cap is hit before the step it would discard is built or charged
    b = Budget()
    with pytest.raises(IterationCapExceeded):
        factorize(icheck_to_point(), StructureTag.INJECTIVE, max_gluing_steps=0, budget=b)
    assert b.used == 0


def test_checking_a_factorization_computes_only_the_rows_it_reads():
    """The largest middle that factorize builds in the catalog-mix
    benchmark (three points with two-element vertex groups, sent to the
    fixed point with a two-element vertex group beside Icheck's swapped
    pair): checking that q is a fibration and j a trivial cofibration
    computes the composites those searches read, never the whole table."""
    dom = trivial_action(assemble(("a", "b", "c"), [(("a",), "z2"), (("b",), "z2"),
                                                    (("c",), "z2")]))
    G = assemble(("x", "y", "z"), [(("x", "y"), "cod"), (("z",), "z2")])
    swap = next(F for F in involutions_of(G)
                if F.obj_map["x"] == "y" and all(F.mor_map[m] == m for m in G.hom("z", "z")))
    to_z = Functor(dom.base, G, {a: "z" for a in dom.objects},
                   {m: G.ident("z") for m in dom.base.morphisms})
    f = EquivariantFunctor(dom, InvolutiveGroupoid(G, swap), to_z)
    fact = factorize(f, StructureTag.INJECTIVE)
    middle = fact.j.cod.base
    assert (middle.n_objects, middle.n_morphisms) == (27, 486)
    assert is_trivial_cofibration(fact.j, StructureTag.INJECTIVE)
    assert has_rlp(fact.q, generating_trivial_cofibrations(StructureTag.INJECTIVE)).ok
    assert len(middle.composite_table()) < middle.n_morphisms


@pytest.mark.parametrize("f, tag", [
    (icheck_to_point(), StructureTag.INJECTIVE),
    (REGISTRY.map("iprime"), StructureTag.INJECTIVE),
    (REGISTRY.map("i"), StructureTag.GPD),
])
def test_factorize_charges_one_unit_per_cell(f, tag):
    cells = factorize(f, tag).cells_attached
    assert cells > 0
    with pytest.raises(BudgetExceeded):
        factorize(f, tag, budget=Budget(limit=cells - 1))
    budget = Budget(limit=cells)
    assert factorize(f, tag, budget=budget).cells_attached == cells
    assert budget.used == cells


# -- the closed-form generator conditions against the square search -----------


@pytest.fixture(scope="module")
def catalog_maps():
    """The terminal maps of two catalogs and every equivariant map between
    two objects of the first."""
    small = involutive_catalog(2, vertex_z2=True)
    return [terminal_map(X) for X in small + involutive_catalog(3)] + [
        f for X in small for Y in small for f in equivariant_functors(X, Y)
    ]


@pytest.fixture(scope="module")
def base2_maps():
    bundle = build_universe(cli.base_elements(2))
    space = equivalence_space(bundle)
    return [bundle.p, space.delta2, space.delta1,
            *(terminal_map(X) for X in (bundle.U, bundle.Utilde, space.path))]


@pytest.mark.parametrize("tag", list(StructureTag), ids=lambda tag: tag.value)
def test_generator_orthogonal_matches_the_square_search(catalog_maps, base2_maps, tag):
    gens = generating_trivial_cofibrations(tag)
    maps = catalog_maps + base2_maps
    verdicts = [generator_orthogonal(f, tag) for f in maps]
    assert verdicts == [has_rlp(f, gens).ok for f in maps]
    assert set(verdicts) == {True, False}


def test_projective_orthogonality_is_the_isofibration_flag():
    """RLP against the projective generators is the underlying isofibration
    flag, the lift census at component roots, on every catalog map."""
    small = involutive_catalog(2, vertex_z2=True)
    maps = [f for X in small for Y in small for f in equivariant_functors(X, Y)]
    assert len(maps) == 564
    verdicts = [generator_orthogonal(q, StructureTag.PROJECTIVE) for q in maps]
    assert verdicts == [classify_functor(q.map).isofibration for q in maps]
    assert set(verdicts) == {True, False}


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_generator_orthogonal_matches_the_square_search_on_random_maps(seed):
    rng = random.Random(seed)
    X = random_involutive(rng, max_objects=3)
    Y = random_involutive(rng, max_objects=3)
    maps = [terminal_map(X), random_equivariant(rng, X, Y)]
    for f in filter(None, maps):
        for tag in StructureTag:
            gens = generating_trivial_cofibrations(tag)
            assert generator_orthogonal(f, tag) == has_rlp(f, gens).ok


def map_sum(f, g):
    """f ⊔ g, with f's objects first, so that the least root is f's."""
    dom, dl, dr = equivariant_coproduct(f.dom, g.dom)
    cod, cl, cr = equivariant_coproduct(f.cod, g.cod)
    obj_map, mor_map = {}, {}
    for d, c, h in ((dl, cl, f), (dr, cr, g)):
        obj_map.update({d.on_obj(x): c.on_obj(h.on_obj(x)) for x in h.dom.base.objects})
        mor_map.update({d.on_mor(m): c.on_mor(h.on_mor(m)) for m in h.dom.base.morphisms})
    return EquivariantFunctor(dom, cod, Functor(dom.base, cod.base, obj_map, mor_map))


def twisted_fixed_points():
    """Fixed objects a, b, c with two-element vertex groups, where η adds
    φ(y) - φ(x) to m(x,y,e) for φ = (0, 1, 0): every morphism between a and
    b is moved, and m(a,c,0) is fixed. Sent to the interval with a, b over
    0 and c over 1, it fails "i" at b, whose fixed-point component is {b},
    and not at a, whose is {a, c}."""
    G = z2_component(("a", "b", "c"))
    phi = {"a": 0, "b": 1, "c": 0}
    eta = {m: f"m({x},{y},{(int(m[-2]) + phi[y] - phi[x]) % 2})"
           for m, (x, y) in G.morphisms.items()}
    X = InvolutiveGroupoid(G, Functor(G, G, {x: x for x in G.objects}, eta))
    Y = REGISTRY.I
    over = {"a": "0", "b": "0", "c": "1"}
    q = Functor(G, Y.base, over,
                {m: Y.base.hom(over[x], over[y])[0] for m, (x, y) in G.morphisms.items()})
    return EquivariantFunctor(X, Y, q)


def test_generator_orthogonal_reads_every_component():
    """Maps that fail only in a component after the first one, of X or of
    its fixed-point groupoid."""
    nabla = eq_identity(REGISTRY.shape("nabla"))
    cases = [
        # "i" and "Si" fail at the point's image 0 of I
        (map_sum(nabla, REGISTRY.map("i")), {"gpd": False, "projective": False,
                                             "injective": False}),
        # only "iprime" fails, at the fixed point of Icheck -> 1!
        (map_sum(nabla, icheck_to_point()), {"gpd": True, "projective": True,
                                             "injective": False}),
        (twisted_fixed_points(), {"gpd": False, "projective": True, "injective": False}),
    ]
    for tag in StructureTag:
        assert generator_orthogonal(nabla, tag)
    for f, verdicts in cases:
        for tag in StructureTag:
            gens = generating_trivial_cofibrations(tag)
            assert generator_orthogonal(f, tag) == has_rlp(f, gens).ok == verdicts[tag.value]
    # the twisted case fails at b only, which a morphism that η moves joins to a
    twisted = twisted_fixed_points()
    witness = has_rlp(twisted, generating_trivial_cofibrations(StructureTag.GPD)).witness
    assert witness["top"]["objects"] == {"*": "b"}
    X = twisted.dom
    assert X.fixed_objects() == ("a", "b", "c")
    assert all(X.eta_mor(m) != m for m in X.base.hom("a", "b"))


def square_cell(name, g, h):
    """The ``(data, x, iso)`` a gluing step reads off a square of
    ``iter_squares``: the top map's image of the generator's attaching
    data, and the bottom map's image of its new object and structure iso."""
    if name == "i":
        return g.on_obj("*"), h.on_obj("1"), h.on_mor("phi")
    if name == "Si":
        return g.on_obj("l:*"), h.on_obj("l:1"), h.on_mor("l:phi")
    return g.on_mor("phi"), h.on_obj("2"), h.on_mor("psi")


def searched_squares(q, tag):
    return [(name, *square_cell(name, g, h))
            for name, gen in generating_trivial_cofibrations(tag)
            for g, h in iter_squares(gen, q)]


@pytest.mark.parametrize("tag", list(StructureTag), ids=lambda tag: tag.value)
def test_generator_squares_match_the_square_search(catalog_maps, base2_maps, tag):
    maps = catalog_maps + base2_maps
    found = [list(generator_squares(f, tag)) for f in maps]
    assert found == [searched_squares(f, tag) for f in maps]
    assert any(found) and not all(found)


def test_searched_squares_commute(catalog_maps):
    # has_rlp and has_llp solve these squares without re-checking them
    gens = dict(pair for tag in StructureTag for pair in generating_trivial_cofibrations(tag))
    squares = 0
    for gen in gens.values():
        for f in catalog_maps:
            for g, h in iter_squares(gen, f):
                LiftingProblem(gen, f, g, h).check_commutes()
                squares += 1
    assert squares


def factorize_by_search(f, tag, max_gluing_steps=8):
    """The gluing construction with every square found by search and its
    cells attached one at a time: (gluing steps, cells, middle object)."""
    X, q, cells = f.dom, f, 0
    for step in range(max_gluing_steps + 1):
        if generator_orthogonal(q, tag):
            return step, cells, X
        for idx, (name, data, x, iso) in enumerate(searched_squares(q, tag)):
            X, _, info = attach_cell(X, name, data, f"g{step}.{idx}")
            q = extend_over_cell(q, X, info, [(x, iso)])
            cells += 1
    raise IterationCapExceeded("did not converge")


@pytest.mark.parametrize("tag", list(StructureTag), ids=lambda tag: tag.value)
def test_factorize_matches_the_search_based_construction(catalog_maps, tag):
    for f in catalog_maps:
        fact = factorize(f, tag)
        steps, cells, X = factorize_by_search(f, tag)
        assert (fact.gluing_steps, fact.cells_attached) == (steps, cells)
        assert (fact.q.dom.base.n_objects, fact.q.dom.base.n_morphisms) == (
            X.base.n_objects, X.base.n_morphisms)


def test_factorize_decides_each_step_as_the_square_search(catalog_maps, monkeypatch):
    """At every gluing step the closed-form check gives the square search's
    verdict, so factorize attaches the same cells and ends with the same
    right factor as a factorize that runs the search."""
    kernel = lifting.generator_orthogonal
    verdicts = []

    def checked(q, tag):
        ok = kernel(q, tag)
        assert ok == has_rlp(q, generating_trivial_cofibrations(tag)).ok
        verdicts.append(ok)
        return ok

    monkeypatch.setattr(lifting, "generator_orthogonal", checked)
    for tag in StructureTag:
        for f in catalog_maps[::12]:
            factorize(f, tag)
    assert set(verdicts) == {True, False}


def test_rlp_generators_imply_rlp_against_generated_trivial_cofibrations():
    """Maps orthogonal to the generators lift against every decomposable
    injective trivial cofibration (the generating-set soundness check)."""
    rng = random.Random(21)
    gens = generating_trivial_cofibrations(StructureTag.INJECTIVE)
    targets = [terminal_map(REGISTRY.shape("nabla")),
               terminal_map(REGISTRY.shape("S1")),
               REGISTRY.map("Si")]
    checked = 0
    for p in targets:
        if not has_rlp(p, gens).ok:
            continue
        for _ in range(6):
            B = random_involutive(rng, max_objects=3, vertex_z2=False)
            m = random_stable_equivalent_subgroupoid(rng, B)
            # every commuting square against p has a filler
            for g, h in iter_squares(m, p):
                assert solve_lifting(LiftingProblem(m, p, g, h)) is not None
                checked += 1
    assert checked > 0


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10**6))
def test_trivial_cofibrations_stable_under_pullback_along_fibrations(seed):
    """Pullback of a trivial cofibration along a fibration stays one,
    in both structures."""
    rng = random.Random(seed)
    B = random_involutive(rng, max_objects=3, vertex_z2=False)
    m = random_stable_equivalent_subgroupoid(rng, B)
    A = random_involutive(rng, max_objects=3, vertex_z2=False)
    fibs = [g for g in equivariant_functors(A, B, limit=200)
            if classify_functor(g.map).isofibration]
    if not fibs:
        return
    g = rng.choice(fibs)
    P, pr_g, pr_m = equivariant_pullback(g, m)
    # pr_g is the pullback of m along g; m is a trivial cofibration by
    # construction, and stability says the pullback is one again
    assert is_trivial_cofibration(m, StructureTag.INJECTIVE)
    assert is_trivial_cofibration(pr_g, StructureTag.INJECTIVE)
    if is_trivial_cofibration(m, StructureTag.PROJECTIVE):
        assert is_trivial_cofibration(pr_g, StructureTag.PROJECTIVE)
