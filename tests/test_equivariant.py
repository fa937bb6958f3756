"""Involutive groupoids: shapes, fixed points, cell attachments."""

import random

import pytest
from composites import assert_computed_composites
from hypothesis import given, settings, strategies as st

from invgpd.core import interval, unit
from invgpd.equivariant import (
    REGISTRY,
    EquivariantFunctor,
    attach_cell,
    attach_cells,
    eq_compose,
    eq_identity,
    equivariant_coproduct,
    equivariant_product,
    equivariant_pullback,
    extend_over_cell,
    fixed_points,
    swap_double,
    terminal_map,
    trivial_action,
    validate_equivariant,
    validate_involutive,
)
from invgpd.errors import CodomainMismatch, InvalidAttachment, ShapeMismatch
from invgpd.generators import equivariant_functors, involutive_catalog, random_involutive
from invgpd.lifting import StructureTag, generator_squares
from invgpd.search import find_isomorphism, iter_functors


def bijective(F) -> bool:
    """Whether F is a bijection on objects and on morphisms."""
    return (len(set(F.obj_map.values())) == len(F.obj_map) == F.cod.n_objects
            and len(set(F.mor_map.values())) == len(F.mor_map) == F.cod.n_morphisms)


def test_registry_shapes_and_maps_are_valid():
    for name, X in REGISTRY.shapes.items():
        assert validate_involutive(X) == [], name
    for name, F in REGISTRY.maps.items():
        assert validate_equivariant(F) == [], name


def test_pullback_of_maps_into_different_codomains_raises():
    # the codomains are compared once, by core.pullback
    X = REGISTRY.shape("Icheck")
    with pytest.raises(CodomainMismatch):
        equivariant_pullback(terminal_map(X), eq_identity(X))
    P, _, _ = equivariant_pullback(terminal_map(X), terminal_map(REGISTRY.shape("nabla")))
    assert P.base.n_objects == 2 * 3


def test_icheck_has_no_fixed_points():
    full, strict = fixed_points(REGISTRY.shape("Icheck"))
    assert full.n_objects == 0 and strict.n_objects == 0


def test_nabla_fixed_points_are_one_object():
    full, strict = fixed_points(REGISTRY.shape("nabla"))
    assert full.objects == ("2",) and strict.objects == ("2",)
    assert full.n_morphisms == 1 and strict.n_morphisms == 1


def test_terminal_fixed_points():
    full, strict = fixed_points(REGISTRY.shape("1!"))
    assert full.n_objects == 1 and strict.n_objects == 1


def test_three_functors():
    assert trivial_action(unit()).fixed_objects() == ("*",)
    S1 = swap_double(unit())
    assert S1.base.n_objects == 2 and S1.fixed_objects() == ()
    assert REGISTRY.shape("Icheck").base == interval()


def test_fixed_points_commute_with_equivariant_isomorphisms():
    rng = random.Random(11)
    for _ in range(15):
        X = random_involutive(rng, max_objects=3)
        # conjugate by a random automorphism of the underlying groupoid
        autos = []
        for F in filter(bijective, iter_functors(X.base, X.base)):
            autos.append(F)
            if len(autos) >= 20:
                break
        a = rng.choice(autos)
        from invgpd.core import Functor, compose_functors
        inv2 = compose_functors(a, compose_functors(X.involution, Functor(
            X.base, X.base,
            {v: k for k, v in a.obj_map.items()},
            {v: k for k, v in a.mor_map.items()},
        )))
        from invgpd.equivariant import InvolutiveGroupoid
        Y = InvolutiveGroupoid(X.base, inv2)
        if validate_involutive(Y):
            continue  # conjugate need not be an involution for non-central a
        iso = EquivariantFunctor(X, Y, a)
        if validate_equivariant(iso):
            continue
        _, sx = fixed_points(X)
        _, sy = fixed_points(Y)
        assert sx.n_objects == sy.n_objects
        assert sx.n_morphisms == sy.n_morphisms


def test_equivariant_product_and_coproduct():
    ic = REGISTRY.shape("Icheck")
    one = REGISTRY.shape("1!")
    P, _, _ = equivariant_product(ic, one)
    assert validate_involutive(P) == []
    assert find_isomorphism(P.base, ic.base) is not None
    s1 = REGISTRY.shape("S1")
    C, _, _ = equivariant_coproduct(s1, s1)
    assert validate_involutive(C) == []
    assert C.base.n_objects == 4 and C.fixed_objects() == ()


def test_equivariant_pullback_of_swapped_fold_swaps_components():
    si, s1 = REGISTRY.shape("SI"), REGISTRY.shape("S1")
    from invgpd.universe import funext_instance
    _, f = funext_instance()
    P, pr1, pr2 = equivariant_pullback(f, f)
    assert validate_involutive(P) == []
    assert validate_equivariant(pr1) == [] and validate_equivariant(pr2) == []
    assert P.fixed_objects() == ()


def test_si_cell_on_icheck_gives_four_objects_no_fixed_points():
    ic = REGISTRY.shape("Icheck")
    Y, incl, info = attach_cell(ic, "Si", "0", "c0")
    assert validate_involutive(Y) == []
    assert Y.base.n_objects == 4 and Y.fixed_objects() == ()
    assert validate_equivariant(incl) == []
    # the inclusion is full: hom-sets are preserved on old objects
    assert all(m in Y.base.morphisms for m in ic.base.morphisms)


def test_iprime_cell_on_icheck_gives_nabla():
    ic, nb = REGISTRY.shape("Icheck"), REGISTRY.shape("nabla")
    Y, incl, info = attach_cell(ic, "iprime", "phi", "c0")
    assert validate_involutive(Y) == []
    assert len(Y.fixed_objects()) == 1
    hits = list(filter(bijective, iter_functors(Y.base, nb.base,
                                                equiv=(Y.involution, nb.involution))))
    assert hits, "attaching a fixed-point cell along the identity-type morphism gives nabla"


def test_i_cell_requires_fixed_attachment():
    ic = REGISTRY.shape("Icheck")
    with pytest.raises(InvalidAttachment):
        attach_cell(ic, "i", "0", "c0")


def test_iprime_cell_requires_equivariance_condition():
    # a morphism y -> eta(y) with eta(m) != inv(m): use SI's phi (eta_phi = psi)
    si = REGISTRY.shape("SI")
    with pytest.raises(InvalidAttachment):
        attach_cell(si, "iprime", "l:phi", "c0")
    with pytest.raises(ShapeMismatch):
        attach_cell(si, "wrong-kind", None, "c0")


def test_cells_are_levelwise_trivial_cofibrations():
    from invgpd.core import classify_functor
    cases = [
        attach_cell(REGISTRY.shape("Icheck"), "Si", "0", "c0"),
        attach_cell(REGISTRY.shape("Icheck"), "iprime", "phi", "c0"),
        attach_cell(REGISTRY.shape("1!"), "i", "*", "c0"),
    ]
    for Y, incl, info in cases:
        rep = classify_functor(incl.map)
        assert rep.injective_on_objects and rep.equivalence


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10**6))
def test_attach_cell_pushout_universal_property(seed):
    """Sampled cocones admit a unique mediating map out of the pushout."""
    rng = random.Random(seed)
    X = random_involutive(rng, max_objects=3, vertex_z2=False)
    kind = rng.choice(["Si", "iprime"])
    if kind == "Si":
        data = rng.choice(sorted(X.base.objects))
        template = REGISTRY.shape("SI")
        tmpl_map = REGISTRY.map("Si")
        attach_map = {"0": ("l:0",), "eta": ("r:0",)}
    else:
        candidates = [
            m for m in X.base.mor_ids()
            if X.base.tgt(m) == X.eta_obj(X.base.src(m)) and X.eta_mor(m) == X.base.inv(m)
        ]
        if not candidates:
            return
        data = rng.choice(candidates)
    Y, incl, info = attach_cell(X, kind, data, "c0")
    assert validate_involutive(Y) == []

    # sample cocones into a small target and count mediating maps
    H = REGISTRY.shape("nabla")
    count = 0
    for m in iter_functors(X.base, H.base, equiv=(X.involution, H.involution)):
        count += 1
        if count > 3:
            break
        comp = EquivariantFunctor(X, H, m)
        # cocone leg on the template: enumerate images for the new data
        for n_obj in H.base.objects:
            anchors = {
                "Si": lambda: (X.base.src(data) if data in X.base.morphisms else data),
                "iprime": lambda: X.eta_obj(X.base.src(data)),
            }[kind]()
            src_img = m.obj_map[anchors]
            isos = [k for k in H.base.mor_ids()
                    if H.base.src(k) == src_img and H.base.tgt(k) == n_obj]
            for iso in isos[:2]:
                if kind == "Si":
                    (n0, n1), (s0, s1) = info.new_objects[0], info.struct_isos[0]
                    images_obj = {n0: n_obj, n1: H.eta_obj(n_obj)}
                    images_iso = {s0: iso, s1: H.eta_mor(iso)}
                else:
                    if H.eta_obj(n_obj) != n_obj:
                        continue
                    if H.eta_mor(iso) != H.base.comp(iso, m.mor_map[data]):
                        continue
                    images_obj = {info.new_objects[0][0]: n_obj}
                    images_iso = {info.struct_isos[0][0]: iso}
                ext = extend_over_cell(comp, Y, info, [(n_obj, iso)])
                assert validate_equivariant(ext) == []
                # uniqueness: every equivariant functor out of Y agreeing with
                # the cocone equals ext
                seeds_obj = dict(m.obj_map)
                seeds_obj.update(images_obj)
                seeds_mor = dict(m.mor_map)
                seeds_mor.update({s: images_iso[s] for s in images_iso})
                mediators = list(iter_functors(
                    Y.base, H.base, obj_seed=seeds_obj, mor_seed=seeds_mor,
                    equiv=(Y.involution, H.involution),
                ))
                assert len(mediators) == 1
                assert mediators[0].mor_map == ext.map.mor_map


def _all_pairs_compose(X, info):
    """The attachment's compose table by the all-pairs definition: every
    composable pair of old and new morphisms, old morphisms first."""
    base = X.base
    triples = {tr: mid for mid, tr in info.cores.items()}

    def from_triple(u, v, core):
        if u in base.identity and v in base.identity:
            return core
        return triples[(u, v, core)]

    compose = dict(base.compose)
    all_triples = [(s, t, m) for m, (s, t) in base.morphisms.items()] + list(triples)
    by_src = {}
    for tr in all_triples:
        by_src.setdefault(tr[0], []).append(tr)
    for (u, v, c1) in all_triples:
        for (_, w, c2) in by_src.get(v, ()):
            compose[(from_triple(v, w, c2), from_triple(u, v, c1))] = (
                from_triple(u, w, base.comp(c2, c1)))
    return compose


def test_attach_cell_compose_matches_all_pairs_definition():
    """Every i, Si and iprime cell on the catalog: the computed compose
    table agrees with the all-pairs table on every lookup, row and key of
    its walk, and the attachment is a valid involutive groupoid."""
    cases = 0
    for X in involutive_catalog(3, vertex_z2=True):
        cells = [("i", y) for y in X.fixed_objects()]
        cells += [("Si", y) for y in X.base.objects]
        cells += [("iprime", m) for m in X.base.mor_ids()
                  if X.base.tgt(m) == X.eta_obj(X.base.src(m))
                  and X.eta_mor(m) == X.base.inv(m)]
        for kind, data in cells:
            Y, incl, info = attach_cell(X, kind, data, "c0")
            assert_computed_composites(Y.base, _all_pairs_compose(X, info))
            assert validate_involutive(Y) == [] and validate_equivariant(incl) == []
            cases += 1
    assert cases == 471


def test_attachments_of_one_cell_compare_equal():
    """Equality walks an attachment's computed table: two attachments of
    one cell are equal, and one changed composite makes the table unequal
    to the dict of its contents."""
    X = REGISTRY.shape("SI")
    Y1, _, _ = attach_cell(X, "Si", X.base.objects[0], "c0")
    Y2, _, _ = attach_cell(X, "Si", X.base.objects[0], "c0")
    assert Y1.base.compose is not Y2.base.compose and Y1 == Y2
    table = dict(Y1.base.compose)
    assert Y1.base.compose == table
    key = next(iter(table))
    table[key] = next(m for m in Y1.base.morphisms if m != table[key])
    assert Y1.base.compose != table


@pytest.mark.parametrize("tag", list(StructureTag), ids=lambda tag: tag.value)
def test_attach_cells_matches_attaching_one_cell_at_a_time(tag):
    """The cells of a real gluing step (the first step of factorize on maps
    of the catalog), attached at once: a valid involutive groupoid whose
    computed compose table agrees with the all-pairs one, with the counts
    of attaching the cells one at a time and an equivariant isomorphism to
    that groupoid fixing X; the map extends over it. The first injective
    case also glues the second step factorize would glue onto a copy of
    the first step's middle that was never walked, so its lookups and
    rows go through two computed tables."""
    small = involutive_catalog(2, vertex_z2=True)
    cases = 0
    for f in (f for X in small for Y in small for f in equivariant_functors(X, Y)):
        squares = list(generator_squares(f, tag))
        if not 2 <= len(squares) <= 6:
            continue
        X = f.dom
        cells = [(name, data, f"c{k}") for k, (name, data, _, _) in enumerate(squares)]
        images = [(x, v) for _, _, x, v in squares]
        Y, incl, info = attach_cells(X, cells, "c")
        assert_computed_composites(Y.base, _all_pairs_compose(X, info))
        assert validate_involutive(Y) == [] and validate_equivariant(incl) == []
        if cases == 0 and tag == StructureTag.INJECTIVE:
            Y1, _, info1 = attach_cells(X, cells, "c")
            q1 = extend_over_cell(f, Y1, info1, images)
            cells2 = [(name, data, f"d{k}")
                      for k, (name, data, _, _) in enumerate(generator_squares(q1, tag))]
            assert cells2
            Y2, _, info2 = attach_cells(Y1, cells2, "d")
            assert_computed_composites(Y2.base, _all_pairs_compose(Y, info2))
            assert validate_involutive(Y2) == []
        Z = X
        for name, data, fresh in cells:
            Z, _, _ = attach_cell(Z, name, data, fresh)
        assert (Y.base.n_objects, Y.base.n_morphisms) == (Z.base.n_objects, Z.base.n_morphisms)
        # the new objects have the same names in both; X is fixed pointwise
        iso = next(filter(bijective, iter_functors(
            Y.base, Z.base,
            obj_seed={y: y for y in Y.base.objects},
            mor_seed={m: m for m in X.base.morphisms},
            equiv=(Y.involution, Z.involution),
        )), None)
        assert iso is not None
        q = extend_over_cell(f, Y, info, images)
        assert validate_equivariant(q) == []
        assert eq_compose(q, incl).map == f.map
        cases += 1
        if cases == 8:
            break
    assert cases == 8


def test_point_is_not_a_cell():
    with pytest.raises(ShapeMismatch):
        attach_cell(REGISTRY.shape("0!"), "point", None, "c0")
