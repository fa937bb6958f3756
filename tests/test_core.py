"""Groupoid and functor layer: validation, predicates, finite (co)limits."""

import gc
import os
import random
import subprocess
import sys
import weakref
from itertools import islice, product
from pathlib import Path

import pytest

import invgpd
from composites import assert_computed_composites, assert_lookups_agree
from invgpd.core import (
    _PairComposites,
    Functor,
    Groupoid,
    binary_product,
    classify_functor,
    codiscrete,
    compose_functors,
    coproduct,
    discrete,
    empty_groupoid,
    identity_functor,
    interval,
    is_functor,
    pair_id,
    pairing,
    pullback,
    subgroupoid,
    unit,
    validate_functor,
    validate_groupoid,
)
from invgpd.docformat import Document
from invgpd.equivariant import diagonal, equivariant_product, fixed_points, terminal_map
from invgpd.errors import CodomainMismatch, MalformedDocument, MalformedFunctor
from invgpd.generators import involutive_catalog, plain_catalog, z2_component
from invgpd.pi import fiber_groupoid
from invgpd.search import find_isomorphism, iter_functors
from invgpd.universe import (
    _PointedComposites,
    _UniverseComposites,
    build_universe,
    equivalence_space,
)


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


def test_composite_of_a_non_morphism_is_reported():
    # compose is defined exactly on the composable pairs, so a key that
    # names no morphism of the groupoid is a structural problem
    one = unit()
    compose = {**one.compose, ("zz", "id(*)"): "id(*)"}
    bad = Groupoid(one.objects, dict(one.morphisms), dict(one.identity), compose,
                   dict(one.inverse))
    assert validate_groupoid(bad) == ["composite of (zz, id(*)) declared, which names a non-morphism"]
    assert Document(groupoids={"G": bad}).diagnostics() == {"groupoid G": validate_groupoid(bad)}


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


def test_pullback_contract_on_catalog_cospans():
    """Pair IDs are labels the projections decode; the square commutes."""
    catalog = plain_catalog(2, vertex_z2=True)
    for C in catalog:
        maps = [list(islice(iter_functors(A, C), 2)) for A in catalog]
        for fs in maps:
            for gs in maps:
                for f in fs:
                    for g in gs:
                        P, pr1, pr2 = pullback(f, g)
                        for o in P.objects:
                            assert pair_id(pr1.obj_map[o], pr2.obj_map[o]) == o
                        for p in P.morphisms:
                            assert pair_id(pr1.mor_map[p], pr2.mor_map[p]) == p
                        fp, gp = compose_functors(f, pr1), compose_functors(g, pr2)
                        assert fp.obj_map == gp.obj_map and fp.mor_map == gp.mor_map
                        assert_composites_by_definition(P, pr1, pr2)
                        assert validate_groupoid(P) == []


def with_one_composite_changed(G: Groupoid) -> dict:
    table = dict(G.compose)
    key = next(iter(table))
    table[key] = next(m for m in G.morphisms if m != table[key])
    return table


def test_lookup_check_catches_a_changed_composite():
    """The lookup contract check fails on a wrong table, also under
    ``python -O`` (conftest.py has pytest rewrite the helper's asserts)."""
    P, _, _ = pullback(bang(interval()), bang(interval()))
    with pytest.raises(AssertionError):
        assert_lookups_agree(P.compose, with_one_composite_changed(P), P.morphisms)


def test_computed_tables_compare_by_contents():
    """Equality walks a computed table: two pullbacks of one cospan are
    equal groupoids, so composing functors across them passes the
    codomain check; a table equals the dict of its contents, and one
    changed composite makes them unequal."""
    f = bang(interval())
    P, pr1, _ = pullback(f, f)
    Q, _, _ = pullback(f, f)
    assert P.compose is not Q.compose and P == Q
    assert compose_functors(pr1, identity_functor(Q)).cod is pr1.cod
    table = dict(P.compose)
    assert P.compose == table and table == P.compose
    changed = with_one_composite_changed(P)
    assert P.compose != changed and changed != P.compose
    assert P != Groupoid(P.objects, P.morphisms, P.identity, changed, P.inverse)


def test_universal_map_self_pullback_composites():
    p = build_universe(("a", "b")).p.map
    P, pr1, pr2 = pullback(p, p)
    assert_composites_by_definition(P, pr1, pr2)


def all_pairs_composites(P, pr1, pr2) -> dict:
    """A pullback's compose table by its definition: every composable pair
    of P's morphisms in morphism order, composed componentwise."""
    A, B = pr1.cod, pr2.cod
    return {
        (p1, p2): pair_id(A.comp(pr1.mor_map[p1], pr1.mor_map[p2]),
                          B.comp(pr2.mor_map[p1], pr2.mor_map[p2]))
        for p1 in P.morphisms for p2 in P.morphisms if P.tgt(p2) == P.src(p1)
    }


def assert_composites_by_definition(P, pr1, pr2):
    """Lookups, rows and the full walk agree with the definition."""
    assert_computed_composites(P, all_pairs_composites(P, pr1, pr2))


def test_colliding_pair_ids_are_malformed():
    # (a,b,c) names both (a, "b,c") and ("a,b", c)
    A, B = discrete(("a", "a,b")), discrete(("b,c", "c"))
    with pytest.raises(MalformedDocument):
        binary_product(A, B)
    with pytest.raises(MalformedDocument):
        pullback(bang(A), bang(B))


def all_pairs_product(G, H):
    """G × H by its definition: all pairs of objects and of morphisms, with
    identities, composites, inverses and projections taken componentwise."""
    pairs = [(m, n) for m in G.mor_ids() for n in H.mor_ids()]
    obj_pairs = [(x, y) for x in G.objects for y in H.objects]
    return {
        "objects": tuple(sorted(pair_id(x, y) for x, y in obj_pairs)),
        "morphisms": [(pair_id(m, n), (pair_id(G.src(m), H.src(n)), pair_id(G.tgt(m), H.tgt(n))))
                      for m, n in pairs],
        "identity": [(pair_id(x, y), pair_id(G.ident(x), H.ident(y))) for x, y in obj_pairs],
        "compose": {(pair_id(g1, g2), pair_id(f1, f2)): pair_id(h1, h2)
                    for (g1, f1), h1 in G.compose.items() for (g2, f2), h2 in H.compose.items()},
        "inverse": {pair_id(m, n): pair_id(G.inv(m), H.inv(n)) for m, n in pairs},
        "pr1": ({pair_id(x, y): x for x, y in obj_pairs}, {pair_id(m, n): m for m, n in pairs}),
        "pr2": ({pair_id(x, y): y for x, y in obj_pairs}, {pair_id(m, n): n for m, n in pairs}),
    }


def assert_is_product(P, pr1, pr2, G, H):
    want = all_pairs_product(G, H)
    assert P.objects == want["objects"]
    assert list(P.morphisms.items()) == want["morphisms"]
    assert list(P.identity.items()) == want["identity"]
    assert P.compose == want["compose"]
    assert P.inverse == want["inverse"]
    for pr, cod, name in ((pr1, G, "pr1"), (pr2, H, "pr2")):
        assert pr.dom is P and pr.cod is cod
        assert (pr.obj_map, pr.mor_map) == want[name]


def test_binary_product_matches_all_pairs_definition():
    catalog = plain_catalog(2, vertex_z2=True)
    for G in catalog:
        for H in catalog:
            assert_is_product(*binary_product(G, H), G, H)


def test_equivariant_product_matches_all_pairs_definition():
    catalog = involutive_catalog(2)
    for X in catalog:
        for Y in catalog:
            IP, pr1, pr2 = equivariant_product(X, Y)
            assert pr1.dom is IP and pr1.cod is X and pr2.dom is IP and pr2.cod is Y
            P = IP.base
            assert_is_product(P, pr1.map, pr2.map, X.base, Y.base)
            eta = IP.involution
            assert eta.dom is P and eta.cod is P
            assert eta.obj_map == {pair_id(x, y): pair_id(X.eta_obj(x), Y.eta_obj(y))
                                   for x in X.objects for y in Y.objects}
            assert eta.mor_map == {pair_id(m, n): pair_id(X.eta_mor(m), Y.eta_mor(n))
                                   for m in X.base.morphisms for n in Y.base.morphisms}


def test_subgroupoids_follow_the_groupoid_order():
    """Full, strict fixed and fiber subgroupoids: valid, and every table in
    the order of the groupoid they restrict."""
    for X in involutive_catalog(2, vertex_z2=True):
        G = X.base
        full, strict = fixed_points(X)
        fiber, incl = fiber_groupoid(terminal_map(X), "*")
        assert incl.dom is fiber and incl.cod is G
        assert subgroupoid(G, G.objects)[0] == G == fiber
        assert set(full.objects) == set(strict.objects) == set(X.fixed_objects())
        assert set(strict.morphisms) == set(X.fixed_morphisms())
        for S in (full, strict, fiber):
            assert validate_groupoid(S) == []
            assert list(S.morphisms) == [m for m in G.morphisms if m in S.morphisms]
            assert list(S.compose) == [k for k in G.compose if k in S.compose]
            assert list(S.inverse) == [m for m in G.inverse if m in S.inverse]


SUBGROUPOID_ORDER = """
import json
from invgpd.equivariant import fixed_points, terminal_map
from invgpd.generators import involutive_catalog
from invgpd.pi import fiber_groupoid

tables = []
for X in involutive_catalog(2, vertex_z2=True):
    for S in (fixed_points(X)[1], fiber_groupoid(terminal_map(X), "*")[0]):
        tables.append([list(S.morphisms), list(S.identity), list(S.compose), list(S.inverse)])
print(json.dumps(tables))
"""


TABLE_ORDER = """
import json
from invgpd.core import pullback
from invgpd.equivariant import REGISTRY, attach_cell, terminal_map
from invgpd.homotopy import path_object
from invgpd.universe import build_universe

b = build_universe(("a", "b"))
X = REGISTRY.shape("Icheck")
Y, _, _ = attach_cell(X, "Si", X.base.objects[0], "c0")
Y, _, _ = attach_cell(Y, "Si", Y.base.objects[-1], "c1")
E = path_object(terminal_map(b.U)).path.base
tables = [list(pullback(b.p.map, b.p.map)[0].compose), list(Y.base.compose)]
for G in (b.Utilde.base, E):
    tables += [list(G.morphisms), list(G.compose)]
print(json.dumps(tables))
"""


def outputs_under_two_hash_seeds(script: str) -> list[str]:
    src = str(Path(invgpd.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    return outs


def test_subgroupoid_order_does_not_depend_on_the_hash_seed():
    """The strict fixed and the fiber subgroupoid come out in the same key
    order under two string-hash seeds (the core determinism promise)."""
    outs = outputs_under_two_hash_seeds(SUBGROUPOID_ORDER)
    assert outs[0] == outs[1]


def test_table_walks_do_not_depend_on_the_hash_seed():
    """Key order is not promised, but it is deterministic: the walks of a
    pullback's and of a twice-attached groupoid's computed compose, and
    the morphism and compose keys of Ũ and E at |V| = 2, list the same
    keys under two string-hash seeds."""
    outs = outputs_under_two_hash_seeds(TABLE_ORDER)
    assert outs[0] == outs[1]


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
        list(iter_functors(big1, big2, budget=50))


def test_functor_search_releases_groupoids_without_gc():
    """A finished or abandoned search leaves nothing for the cycle collector."""
    gc.disable()
    try:
        cod = codiscrete(("a", "b", "c"))
        ref = weakref.ref(cod)
        for _ in iter_functors(interval(), cod):
            pass
        del cod, _
        assert ref() is None
        cod = codiscrete(("a", "b", "c"))
        ref = weakref.ref(cod)
        it = iter_functors(interval(), cod)
        next(it)
        del it, cod
        assert ref() is None
    finally:
        gc.enable()


def test_equivalence_flag_matches_homotopy_inverse_oracle():
    # plain-groupoid oracle: equivalence iff a homotopy inverse exists
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


# -- the spanning-tree functoriality check -----------------------------------


@pytest.fixture(scope="module")
def catalog_functors():
    """Every functor between two groupoids of the catalog."""
    catalog = plain_catalog(3, vertex_z2=True)
    return [F for G in catalog for H in catalog for F in iter_functors(G, H)]


def moved(F: Functor, images: dict) -> Functor:
    """F with some morphism images replaced."""
    return Functor(F.dom, F.cod, F.obj_map, {**F.mor_map, **images})


def assert_check_agrees(F: Functor):
    """The spanning-tree verdict is the all-pairs walk's, and a rejected
    functor's MalformedFunctor lists exactly the walk's problems."""
    problems = validate_functor(F)
    assert is_functor(F) == (problems == [])
    if problems:
        with pytest.raises(MalformedFunctor) as exc:
            classify_functor(F)
        assert str(exc.value) == "; ".join(problems)
    return problems


def test_functoriality_check_accepts_every_catalog_functor(catalog_functors):
    assert len(catalog_functors) > 10_000
    for F in catalog_functors:
        assert assert_check_agrees(F) == []


def test_functoriality_check_agrees_on_seeded_mutants(catalog_functors):
    """One or two non-identity images moved, within their hom-sets or
    anywhere in the codomain (which breaks endpoints)."""
    rng = random.Random(1512)
    invalid = 0
    for F in rng.sample(catalog_functors, 3000):
        movable = F.dom.non_identities()
        if not movable:
            continue
        images = {}
        for m in rng.sample(movable, min(len(movable), rng.randint(1, 2))):
            s, t = (F.obj_map[x] for x in F.dom.morphisms[m])
            images[m] = rng.choice(F.cod.hom(s, t) if rng.random() < 0.8 else F.cod.mor_ids())
        invalid += bool(assert_check_agrees(moved(F, images)))
    assert invalid > 500


def klein_point() -> Groupoid:
    """One object whose vertex group is Z/2 × Z/2."""
    return binary_product(z2_component(("o0",)), z2_component(("o0",)))[0]


def test_functoriality_check_catches_maps_that_break_only_the_vertex_groups():
    """On a one-object component the tree part is trivial (every tree
    arrow is an identity), so a map that preserves identities and is no
    homomorphism breaks only the vertex-group part."""
    K = klein_point()
    (r,), ident = K.objects, K.identity[K.objects[0]]
    others = [m for m in K.mor_ids() if m != ident]
    broken = 0
    for H in (K, z2_component(("o0",)), binary_product(K, codiscrete(("a", "b")))[0]):
        for c in H.objects:
            targets = H.hom(c, c)
            for images in product(targets, repeat=len(others)):
                F = Functor(K, H, {r: c}, {ident: H.identity[c], **dict(zip(others, images))})
                broken += bool(assert_check_agrees(F))
    assert broken > 100


def test_functoriality_check_catches_maps_that_break_only_the_tree_part(catalog_functors):
    """Moving the image of an m: x -> y with x != y leaves every vertex
    group's map as it was, so only the tree part can fail."""
    mutants = 0
    for F in catalog_functors:
        for m, (x, y) in F.dom.morphisms.items():
            if x == y:
                continue
            for n in F.cod.hom(F.obj_map[x], F.obj_map[y]):
                if n != F.mor_map[m]:
                    assert assert_check_agrees(moved(F, {m: n}))
                    mutants += 1
    assert mutants > 1000


@pytest.fixture(scope="module")
def computed_table_functors():
    """Functors whose dom and cod compose by computed tables: p and U's
    identity at |V| = 2 and 3, the diagonal of p into its self-pullback
    at |V| = 2, and the legs δ₁: U -> E and δ₂: E -> U x U of the
    equivalence space at |V| = 2."""
    small, large = build_universe(("a", "b")), build_universe(("a", "b", "c"))
    space = equivalence_space(small)
    return {"p2": small.p.map, "idU2": identity_functor(small.U.base),
            "p3": large.p.map, "idU3": identity_functor(large.U.base),
            "diag2": diagonal(small.p).map,
            "delta1": space.delta1.map, "delta2": space.delta2.map}


@pytest.mark.parametrize("name", ["p2", "idU2", "p3", "idU3", "diag2", "delta1", "delta2"])
def test_functoriality_check_agrees_on_computed_tables(computed_table_functors, name):
    """The row walk's verdict is the all-pairs walk's on the computed
    tables of U, Ũ, a pullback and E, and on seeded mutants with one
    non-identity image moved within its hom-set. The diagonal of p has
    none: p is a discrete fibration, so each hom-set of Ũ x_U Ũ between
    two diagonal objects holds one morphism."""
    F = computed_table_functors[name]
    assert assert_check_agrees(F) == []
    rng = random.Random(name)
    movable = F.dom.non_identities()
    mutants = invalid = 0
    for m in rng.sample(movable, 10):
        s, t = (F.obj_map[x] for x in F.dom.morphisms[m])
        others = [n for n in F.cod.hom(s, t) if n != F.mor_map[m]]
        if others:
            mutants += 1
            invalid += bool(assert_check_agrees(moved(F, {m: rng.choice(others)})))
    assert invalid == mutants and (mutants > 0) == (name != "diag2")


def test_functoriality_check_reads_computed_tables_by_rows(monkeypatch):
    """``is_functor`` and ``classify_functor`` read the composites of U, Ũ
    and a pullback from their rows, with no lookup of one pair."""
    large, small = build_universe(("a", "b", "c")), build_universe(("a", "b"))
    D = diagonal(small.p).map

    def one_pair(self, key):
        raise AssertionError(f"composite {key} looked up one pair at a time")

    for table in (_UniverseComposites, _PointedComposites, _PairComposites):
        monkeypatch.setattr(table, "__getitem__", one_pair)
    assert is_functor(large.p.map)
    report = classify_functor(D)
    monkeypatch.undo()
    assert report == classify_functor(diagonal(build_universe(("a", "b")).p).map)


def test_functoriality_check_counts_the_morphisms_it_reaches():
    """A dom that breaks the laws can have a hom-set larger than its
    vertex group, and then the triples (x, y, g) miss a morphism. Here
    z2_component(("a", "b")) has each vertex group cut down to its
    identity, and the inclusion into the whole component breaks
    composition only at the composites through m(a,b,1) and m(b,a,1),
    which no triple names: only the count of triples sees them."""
    Z = z2_component(("a", "b"))
    units = set(Z.identity.values())
    kept = {m: (s, t) for m, (s, t) in Z.morphisms.items() if s != t or m in units}
    compose = {(g, f): h if h in kept else Z.identity[Z.src(h)]
               for (g, f), h in Z.compose.items() if g in kept and f in kept}
    dom = Groupoid(Z.objects, kept, dict(Z.identity), compose,
                   {m: Z.inverse[m] for m in kept})
    assert len(dom.hom("a", "a")) == 1 and len(dom.hom("a", "b")) == 2
    assert assert_check_agrees(Functor(dom, Z, {x: x for x in Z.objects},
                                       {m: m for m in kept}))


def per_pair_report(F: Functor) -> dict:
    """Every flag by its definition: full and faithful over each ordered
    pair of objects, essential surjectivity over each object of cod, the
    fibration flags over each morphism of cod."""
    G, H = F.dom, F.cod
    full = faithful = True
    for x in G.objects:
        for y in G.objects:
            images = [F.mor_map[m] for m in G.hom(x, y)]
            faithful &= len(set(images)) == len(images)
            full &= set(H.hom(F.obj_map[x], F.obj_map[y])) <= set(images)
    ess = all(any(H.hom(F.obj_map[x], c) for x in G.objects) for c in H.objects)
    lifts = [len([m for m in G.out(x) if F.mor_map[m] == h])
             for h in H.mor_ids() for x in G.objects if F.obj_map[x] == H.src(h)]
    isofib = all(lifts)
    return {"injective_on_objects": len(set(F.obj_map.values())) == len(F.obj_map),
            "full": full, "faithful": faithful, "essentially_surjective": ess,
            "equivalence": full and faithful and ess, "isofibration": isofib,
            "discrete_fibration": isofib and all(n == 1 for n in lifts)}


def test_component_flags_match_the_per_pair_definition(catalog_functors):
    K = klein_point()
    extra = list(iter_functors(K, K)) + list(iter_functors(K, z2_component(("o0",))))
    seen = set()
    for F in catalog_functors + extra:
        rep = classify_functor(F).to_dict()
        assert rep == per_pair_report(F)
        seen.add((rep["full"], rep["faithful"], rep["essentially_surjective"]))
    assert len(seen) == 8


# -- the lift census at component roots --------------------------------------


def lift_census(F: Functor) -> tuple[bool, bool]:
    """The two fibration flags by their per-object definition: for every x
    and every h out of F(x), count the lifts of h out of x."""
    counts = [sum(F.mor_map[m] == h for m in F.dom.out(x))
              for x in F.dom.objects for h in F.cod.out(F.obj_map[x])]
    return all(counts), all(n == 1 for n in counts)


def fibration_flags(F: Functor) -> tuple[bool, bool]:
    rep = classify_functor(F)
    return rep.isofibration, rep.discrete_fibration


def test_fibration_flags_match_the_lift_count_at_every_object():
    """Up to 20 functors between each pair of catalog groupoids, then p,
    the terminal maps of U and Ũ, and the diagonal of p at |V| = 2 and 3."""
    catalog = plain_catalog(3, vertex_z2=True)
    maps = [F for G in catalog for H in catalog for F in islice(iter_functors(G, H), 20)]
    assert len(maps) == 6057
    for V in (("a", "b"), ("a", "b", "c")):
        b = build_universe(V)
        maps += [f.map for f in (b.p, terminal_map(b.U), terminal_map(b.Utilde), diagonal(b.p))]
    seen = []
    for F in maps:
        seen.append(fibration_flags(F))
        assert seen[-1] == lift_census(F)
    assert seen.count((True, True)) > 300 and seen.count((True, False)) > 1000
    assert seen.count((False, False)) > 1000


def test_fibration_flags_read_every_component():
    """Maps that lift uniquely out of their first component and fail in
    the second: there an object has no lift, or a morphism two lifts."""
    point_and_interval = coproduct(unit(), interval())[0]
    F = next(F for F in iter_functors(discrete(("a", "b")), point_and_interval)
             if F.obj_map == {"a": "l:*", "b": "r:0"})
    assert fibration_flags(F) == lift_census(F) == (False, False)
    F = bang(coproduct(unit(), z2_component(("o0",)))[0])
    assert fibration_flags(F) == lift_census(F) == (True, False)
