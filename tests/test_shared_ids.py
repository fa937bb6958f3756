"""Each ID string is made once: the tables of pullbacks, of the universe's
U and Ũ and of the path object, their involutions, pairings into a
pullback and the legs of a path object return the very strings that the
groupoid's ``objects`` and ``morphisms`` hold, never equal copies; a full
walk of a computed table, of every kind, reads each row once and looks
nothing up; a homotopy witness reads no composite of its path object;
maps that are not functors still get pair IDs instead of a
``KeyError``."""

from itertools import islice

import pytest

from composites import assert_rows_and_walk
from invgpd.core import (
    ComputedComposites,
    Functor,
    Groupoid,
    discrete,
    identity_functor,
    interval,
    pair_id,
    pairing,
    pullback,
)
from invgpd.docformat import Document, dumps, loads
from invgpd.equivariant import (
    EquivariantFunctor,
    attach_cell,
    diagonal,
    eq_identity,
    equivariant_pullback,
    swap_double,
    terminal_map,
    trivial_action,
)
from invgpd.errors import CodomainMismatch
from invgpd.generators import (
    equivariant_functors,
    involutive_catalog,
    plain_catalog,
    z2_component,
)
from invgpd.homotopy import find_right_homotopy, path_object, po
from invgpd.lifting import StructureTag
from invgpd.search import iter_functors
from invgpd.universe import build_universe


def assert_stored(G: Groupoid, objects=(), morphisms=(), what=""):
    """Every ID in ``objects`` is an entry of G.objects and every ID in
    ``morphisms`` a key of G.morphisms: the same string, not an equal one."""
    canon_obj = {o: o for o in G.objects}
    canon_mor = {m: m for m in G.morphisms}
    for o in objects:
        assert canon_obj.get(o) is o, f"{what}: object {o!r} is not the stored ID"
    for m in morphisms:
        assert canon_mor.get(m) is m, f"{what}: morphism {m!r} is not the stored ID"


def assert_tables_share_ids(G: Groupoid):
    """G's identities, inverses, endpoints and composites (rows, the
    composite table, lookups and the walk) are G's stored IDs."""
    assert_stored(G, objects=G.identity, morphisms=G.identity.values(), what="identity")
    assert_stored(G, morphisms=G.inverse.values(), what="inverse")
    assert_stored(G, objects=[e for st in G.morphisms.values() for e in st], what="endpoints")
    compose, table = G.compose, G.composite_table()
    for g in G.morphisms:
        row = compose.row(g) if isinstance(compose, ComputedComposites) else table[g]
        assert_stored(G, morphisms=row.values(), what=f"row of {g}")
        assert_stored(G, morphisms=table[g].values(), what=f"composite table of {g}")
        assert_stored(G, morphisms=[compose[(g, f)] for f in row], what=f"lookups of {g}")
    assert_stored(G, morphisms=[h for _, h in compose.items()], what="walk")


def assert_map_shares_ids(F: Functor, what: str):
    """F maps to the IDs its codomain stores."""
    assert_stored(F.cod, objects=F.obj_map.values(), morphisms=F.mor_map.values(), what=what)


def assert_involutive_shares_ids(X):
    assert_tables_share_ids(X.base)
    assert_map_shares_ids(X.involution, "involution")


def catalog_cospans():
    catalog = plain_catalog(2, vertex_z2=True)
    for C in catalog:
        maps = [f for A in catalog for f in islice(iter_functors(A, C), 2)]
        for f in maps:
            for g in maps:
                yield f, g


def test_pullbacks_over_catalog_cospans_share_ids():
    n = 0
    for f, g in catalog_cospans():
        P, pr1, pr2 = pullback(f, g)
        assert_tables_share_ids(P)
        assert_map_shares_ids(pairing(pr1, pr2, P), "pairing of the projections")
        n += 1
        if f.dom == g.dom and f.obj_map == g.obj_map and f.mor_map == g.mor_map:
            A = identity_functor(f.dom)
            assert_map_shares_ids(pairing(A, A, P), "the diagonal")
    assert n > 100


@pytest.fixture(scope="module")
def bundle2():
    return build_universe(("a", "b"))


def test_universe_and_pointed_universe_share_ids(bundle2):
    assert_involutive_shares_ids(bundle2.U)
    assert_involutive_shares_ids(bundle2.Utilde)
    assert_map_shares_ids(bundle2.p.map, "p")


def test_diagonal_of_p_shares_ids(bundle2):
    d = diagonal(bundle2.p)
    assert_involutive_shares_ids(d.cod)
    assert_map_shares_ids(d.map, "the diagonal of p")


def test_path_object_and_its_legs_share_ids(bundle2):
    pf = path_object(terminal_map(bundle2.U))
    assert_involutive_shares_ids(pf.path)
    assert_involutive_shares_ids(pf.delta2.cod)
    assert_map_shares_ids(pf.delta1.map, "delta1")
    assert_map_shares_ids(pf.delta2.map, "delta2")


def test_homotopy_witness_shares_ids():
    X = swap_double(interval())
    w = find_right_homotopy(eq_identity(X), eq_identity(X))
    assert w is not None
    assert_map_shares_ids(w.H.map, "the witness")


# -- a full walk reads each row once ----------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """Counts ``[]`` lookups and ``row`` reads on every computed table."""
    calls = {"getitem": 0, "row": 0}
    for cls in ComputedComposites.__subclasses__():
        def getitem(self, key, _get=cls.__getitem__):
            calls["getitem"] += 1
            return _get(self, key)

        def row(self, g, _row=cls.row):
            calls["row"] += 1
            return _row(self, g)

        monkeypatch.setattr(cls, "__getitem__", getitem)
        monkeypatch.setattr(cls, "row", row)
    return calls


def walked_groupoids():
    """One groupoid for each kind of computed table."""
    bundle = build_universe(("a", "b"))
    p = bundle.p.map
    P, _, _ = pullback(p, p)
    U = bundle.U
    Y, _, _ = attach_cell(U, "Si", U.base.objects[0], "c0")
    return {"Utilde": bundle.Utilde.base, "U": U.base, "pullback": P,
            "E": path_object(terminal_map(U)).path.base, "attachment": Y.base}


def test_every_computed_table_is_walked():
    """Each subclass of ``ComputedComposites`` has a case in
    ``walked_groupoids``, so the walk test below reaches every kind."""
    kinds, new = set(), [ComputedComposites]
    while new:
        subs = new.pop().__subclasses__()
        kinds.update(subs)
        new.extend(subs)
    assert kinds == {type(G.compose) for G in walked_groupoids().values()}


@pytest.mark.parametrize("name", ["pullback", "Utilde", "U", "E", "attachment"])
def test_a_full_walk_reads_each_row_once_and_looks_nothing_up(name, counted):
    G = walked_groupoids()[name]
    compose = G.compose
    want = {(g, f): h for g in G.morphisms for f, h in compose.row(g).items()}
    walks = {
        "iteration": lambda: sum(1 for _ in compose),
        "items": lambda: sum(1 for _ in compose.items()),
        "dict of items": lambda: dict(compose.items()),
        "equality": lambda: compose == want and want == compose,
    }
    for walk_name, walk in walks.items():
        counted["getitem"] = counted["row"] = 0
        assert walk()
        assert counted["getitem"] == 0, walk_name
        rows = 2 * len(G.morphisms) if walk_name == "equality" else len(G.morphisms)
        assert counted["row"] == rows, walk_name
    counted["getitem"] = 0
    assert_rows_and_walk(G, want)
    assert counted["getitem"] == 0


def test_homotopy_witnesses_read_no_composite(counted):
    """``find_right_homotopy`` decides on the maps' own tables and packages
    the answer as a map into the path object of the codomain, whose
    composites it never reads."""
    catalog = involutive_catalog(2, vertex_z2=True)
    witnesses = 0
    for X in catalog:
        for A in catalog:
            maps = list(equivariant_functors(A, X, limit=4))
            for f in maps:
                for g in maps:
                    for tag in (StructureTag.PROJECTIVE, StructureTag.INJECTIVE):
                        w = find_right_homotopy(f, g, tag=tag)
                        if w is not None:
                            assert isinstance(w.H.cod.base.compose, ComputedComposites)
                            witnesses += 1
    assert witnesses == 1200
    assert counted == {"getitem": 0, "row": 0}


def test_dumps_reads_each_row_of_a_pullback_once(counted):
    P = walked_groupoids()["pullback"]
    for g in P.morphisms:  # the factors keep the rows read here: count only P's
        P.compose.row(g)
    counted["getitem"] = counted["row"] = 0
    text = dumps(Document(groupoids={"P": P}))
    assert (counted["getitem"], counted["row"]) == (0, len(P.morphisms))
    loaded = loads(text).groupoids["P"]
    assert (loaded.objects, loaded.morphisms, loaded.identity, loaded.inverse) == (
        P.objects, P.morphisms, P.identity, P.inverse)
    assert loaded.compose == dict(P.compose.items())


# -- maps that are not functors keep their pair IDs ------------------------------


def swap_of_interval() -> Functor:
    I = interval()
    return Functor(I, I, {"0": "1", "1": "0"},
                   {"id(0)": "id(1)", "id(1)": "id(0)", "phi": "inv(phi)", "inv(phi)": "phi"})


def test_pairing_off_a_pullback_raises_codomain_mismatch():
    I = interval()
    one = identity_functor(I)
    P, _, _ = pullback(one, one)
    with pytest.raises(CodomainMismatch):
        pairing(one, swap_of_interval(), P)
    # the same product with stored tables: pairs are named by pair_id
    Q = Groupoid(P.objects, dict(P.morphisms), dict(P.identity), dict(P.compose.items()),
                 dict(P.inverse))
    diag = pairing(one, one, Q)
    assert diag.obj_map == {x: pair_id(x, x) for x in I.objects}
    assert diag.mor_map == {m: pair_id(m, m) for m in I.morphisms}
    with pytest.raises(CodomainMismatch):
        pairing(one, swap_of_interval(), Q)


def test_pullback_of_a_map_that_moves_identities_names_the_missing_pairs():
    # f sends the identity of x to the non-identity s of Z/2: no pair
    # (id x, e) lies in the pullback, yet its identity and composite are named
    C = z2_component(("*",))
    e, s = C.identity["*"], next(m for m in C.morphisms if m != C.identity["*"])
    A = discrete(("x",))
    f = Functor(A, C, {"x": "*"}, {"id(x)": s})
    P, _, _ = pullback(f, identity_functor(C))
    o, p = pair_id("x", "*"), pair_id("id(x)", s)
    missing = pair_id("id(x)", e)
    assert P.objects == (o,) and P.morphisms == {p: (o, o)}
    assert P.identity == {o: missing} and P.inverse == {p: p}
    assert P.compose[(p, p)] == missing and P.compose.row(p) == {p: missing}
    assert missing not in P.morphisms


def test_pullback_of_maps_that_are_not_equivariant_names_the_missing_pairs():
    # f sends the swapped pair onto two fixed objects: the pair involution
    # of ((l:*, v0)) is (r:*, v0), which is no object of the pullback
    S = swap_double(discrete(("*",)))
    D = trivial_action(discrete(("v0", "v1")))
    f = EquivariantFunctor(S, D, Functor(S.base, D.base, {"l:*": "v0", "r:*": "v1"},
                                         {"l:id(*)": "id(v0)", "r:id(*)": "id(v1)"}))
    IP, _, _ = equivariant_pullback(f, eq_identity(D))
    inv = IP.involution
    assert inv.obj_map == {pair_id("l:*", "v0"): pair_id("r:*", "v0"),
                           pair_id("r:*", "v1"): pair_id("l:*", "v1")}
    assert inv.mor_map == {pair_id("l:id(*)", "id(v0)"): pair_id("r:id(*)", "id(v0)"),
                           pair_id("r:id(*)", "id(v1)"): pair_id("l:id(*)", "id(v1)")}
    assert not set(inv.obj_map.values()) & set(IP.base.objects)


def test_path_object_of_a_map_that_is_not_equivariant_names_the_missing_objects():
    # f is the identity on the left copy of the swapped interval and folds
    # the right copy onto 0: r:phi is an object of E, but its image l:phi
    # under the involution is not
    SI, I = swap_double(interval()), trivial_action(interval())
    obj_map = {"l:0": "0", "l:1": "1", "r:0": "0", "r:1": "0"}
    mor_map = {m: (m[2:] if m.startswith("l:") else "id(0)") for m in SI.base.morphisms}
    f = EquivariantFunctor(SI, I, Functor(SI.base, I.base, obj_map, mor_map))
    pf = path_object(f)
    assert pf.path.involution.obj_map[po("r:phi")] == po("l:phi")
    assert po("l:phi") not in pf.path.base.identity
    assert pf.delta2.cod.involution.obj_map[pair_id("r:0", "r:1")] == pair_id("l:0", "l:1")
