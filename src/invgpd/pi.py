"""The explicit right adjoint to pullback along a fibration.

For a levelwise isofibration g: A -> B and any map f: C -> A, the value
of the right adjoint on f is built exactly from its finite data:

* objects are pairs (y, s) of a base object and a partial section of f
  over the fiber of g at y (objects over y, morphisms over the identity),
* morphisms are pairs (u, v) of a base morphism and a transport, i.e. a
  functor from the pullback of the walking isomorphism at u to C over A;
  a transport's cells are the pullback's pairs (a, w) of a morphism of A
  and one of the interval, read from its pair indexes (``core.pair_cells``),
* composition stitches two transports using a chosen lift of the first
  base morphism; the result does not depend on the lift (an invariant
  re-checkable with ``lift_independent``), and associativity is verified
  exhaustively on every constructed bundle,
* the involution conjugates base points, sections and transports.

Everything is enumerated, so the adjunction bijection with slice hom-sets
can be tested literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .budget import Budget, ensure_budget
from .core import (
    Functor,
    Groupoid,
    classify_functor,
    compose_functors,
    functors_equal,
    lifts_of,
    pair_cells,
    pullback,
    subgroupoid,
)
from .equivariant import (
    REGISTRY,
    EquivariantFunctor,
    InvolutiveGroupoid,
    equivariant_pullback,
    validate_equivariant,
    validate_involutive,
)
from .errors import InvariantViolated, MalformedSliceMorphism, NotAFibration
from .search import iter_functors


@dataclass
class PiObject:
    base_point: str
    section: Functor  # fiber over base_point -> C, a partial section of f


@dataclass
class PiMorphism:
    base_morphism: str
    transport: Functor  # g*u -> C over A


@dataclass
class PiBundle:
    g: EquivariantFunctor
    f: EquivariantFunctor
    dom_pi: InvolutiveGroupoid
    projection: EquivariantFunctor
    objects_info: dict[str, PiObject]
    morphisms_info: dict[str, PiMorphism]
    fibers: dict[str, Groupoid]
    # base morphism u -> the pullback g*u with its projections to A and to I
    pullbacks: dict[str, tuple[Groupoid, Functor, Functor]]
    # base object y -> section key -> object; base morphism u -> transport key -> morphism
    section_ids: dict[str, dict[tuple, str]]
    transport_ids: dict[str, dict[tuple, str]]

    def object_id(self, y: str, section_obj: dict, section_mor: dict) -> str | None:
        """Find the object with the given base point and section data."""
        return self.section_ids[y].get(_dict_key(section_obj, section_mor))


def _dict_key(obj_map: dict, mor_map: dict) -> tuple:
    return (tuple(sorted(obj_map.items())), tuple(sorted(mor_map.items())))


def fiber_groupoid(g: EquivariantFunctor, y: str) -> tuple[Groupoid, Functor]:
    """Objects of A over y and morphisms of A over the identity of y,
    with the inclusion into A."""
    idy = g.cod.base.ident(y)
    return subgroupoid(g.dom.base, [x for _, x in g.map.fibers().get(y, ())],
                       keep=lambda m: g.on_mor(m) == idy)


def interval_functor(B: Groupoid, u: str) -> Functor:
    """The functor from the walking isomorphism ``REGISTRY.I`` picking out u."""
    s, t = B.morphisms[u]
    return Functor(
        REGISTRY.I.base, B,
        {"0": s, "1": t},
        {"id(0)": B.ident(s), "id(1)": B.ident(t), "phi": u, "inv(phi)": B.inv(u)},
    )


def _transport_key(pb: tuple[Groupoid, Functor, Functor], on_obj, on_mor) -> tuple:
    """Key of the transport over the pullback ``pb = (PBu, prA, prI)`` of
    the walking isomorphism whose value at each object (x, e) is
    ``on_obj(x, e)`` and at each morphism (h, w) is ``on_mor(h, w)``."""
    PBu, prA, prI = pb
    v_obj = {o: on_obj(prA.obj_map[o], prI.obj_map[o]) for o in PBu.objects}
    v_mor = {m: on_mor(prA.mor_map[m], prI.mor_map[m]) for m in PBu.morphisms}
    return _dict_key(v_obj, v_mor)


def _stitch(GA: Groupoid, GC: Groupoid, v1: Functor, ids1, v2: Functor, ids2,
            h: str, lift: str) -> str:
    """The composite transport's value at (h, phi): v1 along ``lift`` (a
    lift of the first base morphism at src h), then v2 along the rest of h;
    ``ids1`` and ``ids2`` index the morphisms of v1's and v2's pullbacks."""
    first = v1.mor_map[ids1[lift]["phi"]]
    rest = v2.mor_map[ids2[GA.comp(h, GA.inv(lift))]["phi"]]
    return GC.comp(rest, first)


def _restrict(v: Functor, fib: Groupoid, end: str) -> tuple:
    """Key of the section obtained by restricting a transport to one end."""
    obj_index, mor_index = pair_cells(v.dom)
    idm = f"id({end})"
    obj = {x: v.obj_map[obj_index[x][end]] for x in fib.objects}
    mor = {m: v.mor_map[mor_index[m][idm]] for m in fib.morphisms}
    return _dict_key(obj, mor)


def pi_of(g: EquivariantFunctor, f: EquivariantFunctor,
          budget: Budget | int | None = None) -> PiBundle:
    """Construct the right-adjoint value on f of pullback along g.

    Raises NotAFibration unless g is a levelwise isofibration. The
    resulting groupoid is validated in full, associativity included, and
    the projection is checked equivariant.
    """
    budget = ensure_budget(budget)
    if not classify_functor(g.map).isofibration:
        raise NotAFibration("the base map of a dependent product must be an isofibration")
    if f.cod.base != g.dom.base:
        raise MalformedSliceMorphism("f must land in the domain of g")
    A, B, C = g.dom, g.cod, f.dom
    GA, GB, GC = A.base, B.base, C.base

    # sections over each base object
    fibers: dict[str, Groupoid] = {}
    section_ids: dict[str, dict[tuple, str]] = {}
    objects_info: dict[str, PiObject] = {}
    for y in GB.objects:
        fib, incl = fiber_groupoid(g, y)
        fibers[y] = fib
        found = list(iter_functors(fib, GC, post=(f.map, incl), budget=budget))
        section_ids[y] = {}
        for k, s in enumerate(found):
            oid = f"sec({y};{k})"
            objects_info[oid] = PiObject(y, s)
            section_ids[y][_dict_key(s.obj_map, s.mor_map)] = oid

    # transports over each base morphism
    pullbacks: dict[str, tuple[Groupoid, Functor, Functor]] = {}
    transport_ids: dict[str, dict[tuple, str]] = {}
    morphisms_info: dict[str, PiMorphism] = {}
    mor_table: dict[str, tuple[str, str]] = {}
    for u in GB.mor_ids():
        PBu, prA, prI = pullback(g.map, interval_functor(GB, u))
        pullbacks[u] = (PBu, prA, prI)
        found = list(iter_functors(PBu, GC, post=(f.map, prA), budget=budget))
        transport_ids[u] = {}
        for k, v in enumerate(found):
            mid = f"tr({u};{k})"
            morphisms_info[mid] = PiMorphism(u, v)
            transport_ids[u][_dict_key(v.obj_map, v.mor_map)] = mid
            src_id = section_ids[GB.src(u)].get(_restrict(v, fibers[GB.src(u)], "0"))
            tgt_id = section_ids[GB.tgt(u)].get(_restrict(v, fibers[GB.tgt(u)], "1"))
            if src_id is None or tgt_id is None:
                raise InvariantViolated(f"an end of transport {mid} is no section")
            mor_table[mid] = (src_id, tgt_id)

    def find_transport(u: str, on_obj, on_mor, what: str) -> str:
        mid = transport_ids[u].get(_transport_key(pullbacks[u], on_obj, on_mor))
        if mid is None:
            raise InvariantViolated(f"{what} is not among the transports at {u}")
        return mid

    # identities: the section itself, read as a transport over the identity
    identity: dict[str, str] = {}
    for oid, info in objects_info.items():
        s = info.section
        identity[oid] = find_transport(
            GB.ident(info.base_point),
            lambda x, e: s.obj_map[x],
            lambda h, w: s.mor_map[h],
            f"identity of {oid}",
        )

    def least_lift(u: str, x: str) -> str:
        ls = lifts_of(g.map, u, x)
        if not ls:
            raise NotAFibration(f"no lift of {u} at {x}")
        return ls[0]

    def composite_rules(u1: str, v1: Functor, v2: Functor):
        """Per-pair rules of the transport of (u2, v2)∘(u1, v1) over u2∘u1."""
        (obj1, mor1), (obj2, mor2) = pair_cells(v1.dom), pair_cells(v2.dom)

        @cache
        def along_phi(h: str) -> str:
            return _stitch(GA, GC, v1, mor1, v2, mor2, h, least_lift(u1, GA.src(h)))

        def on_obj(x: str, e: str) -> str:
            return v1.obj_map[obj1[x][e]] if e == "0" else v2.obj_map[obj2[x][e]]

        def on_mor(h: str, w: str) -> str:
            if w == "id(0)":
                return v1.mor_map[mor1[h][w]]
            if w == "id(1)":
                return v2.mor_map[mor2[h][w]]
            if w == "phi":
                return along_phi(h)
            return GC.inv(along_phi(GA.inv(h)))

        return on_obj, on_mor

    compose: dict[tuple[str, str], str] = {}
    mids = sorted(mor_table)
    for m1 in mids:
        u1, v1 = morphisms_info[m1].base_morphism, morphisms_info[m1].transport
        for m2 in mids:
            if mor_table[m2][0] != mor_table[m1][1]:
                continue
            budget.spend()
            u2, v2 = morphisms_info[m2].base_morphism, morphisms_info[m2].transport
            compose[(m2, m1)] = find_transport(
                GB.comp(u2, u1), *composite_rules(u1, v1, v2), f"composite {m2}∘{m1}"
            )

    # inverses: flip the interval coordinate
    flip = {"0": "1", "1": "0", "id(0)": "id(1)", "id(1)": "id(0)",
            "phi": "inv(phi)", "inv(phi)": "phi"}
    inverse: dict[str, str] = {}
    for mid in mids:
        v = morphisms_info[mid].transport
        obj_index, mor_index = pair_cells(v.dom)
        inverse[mid] = find_transport(
            GB.inv(morphisms_info[mid].base_morphism),
            lambda x, e: v.obj_map[obj_index[x][flip[e]]],
            lambda h, w: v.mor_map[mor_index[h][flip[w]]],
            f"inverse of {mid}",
        )

    dom = Groupoid(tuple(objects_info), dict(mor_table), identity, compose, inverse)

    # the involution conjugates everything by the three involutions
    alpha, beta, gamma = A.involution, B.involution, C.involution
    inv_obj: dict[str, str] = {}
    for oid, info in objects_info.items():
        y, s = info.base_point, info.section
        y2 = beta.obj_map[y]
        fib2 = fibers[y2]
        s_obj = {x: gamma.obj_map[s.obj_map[alpha.obj_map[x]]] for x in fib2.objects}
        s_mor = {m: gamma.mor_map[s.mor_map[alpha.mor_map[m]]] for m in fib2.morphisms}
        target = section_ids[y2].get(_dict_key(s_obj, s_mor))
        if target is None:
            raise InvariantViolated(f"the involution image of {oid} is no section")
        inv_obj[oid] = target
    inv_mor: dict[str, str] = {}
    for mid in mids:
        v = morphisms_info[mid].transport
        obj_index, mor_index = pair_cells(v.dom)
        inv_mor[mid] = find_transport(
            beta.mor_map[morphisms_info[mid].base_morphism],
            lambda x, e: gamma.obj_map[v.obj_map[obj_index[alpha.obj_map[x]][e]]],
            lambda h, w: gamma.mor_map[v.mor_map[mor_index[alpha.mor_map[h]][w]]],
            f"involution image of {mid}",
        )
    dom_pi = InvolutiveGroupoid(dom, Functor(dom, dom, inv_obj, inv_mor))

    projection = EquivariantFunctor(
        dom_pi, B,
        Functor(
            dom, GB,
            {oid: info.base_point for oid, info in objects_info.items()},
            {mid: morphisms_info[mid].base_morphism for mid in mor_table},
        ),
    )
    bundle = PiBundle(
        g=g, f=f, dom_pi=dom_pi, projection=projection,
        objects_info=objects_info, morphisms_info=morphisms_info,
        fibers=fibers, pullbacks=pullbacks,
        section_ids=section_ids, transport_ids=transport_ids,
    )
    problems = validate_involutive(dom_pi) + validate_equivariant(projection)
    if problems:
        raise InvariantViolated(
            "dependent product structure law failure: " + "; ".join(problems[:3]))
    return bundle


def lift_independent(bundle: PiBundle, budget: Budget | int | None = None) -> bool:
    """Recompute every composite with every available lift; True if all agree."""
    budget = ensure_budget(budget)
    g = bundle.g
    GA, GB, GC = g.dom.base, g.cod.base, bundle.f.dom.base
    dom = bundle.dom_pi.base

    for (m2, m1), res in dom.compose.items():
        u1 = bundle.morphisms_info[m1].base_morphism
        v1 = bundle.morphisms_info[m1].transport
        u2 = bundle.morphisms_info[m2].base_morphism
        v2 = bundle.morphisms_info[m2].transport
        u = GB.comp(u2, u1)
        want = bundle.morphisms_info[res].transport
        ids1, ids2 = pair_cells(v1.dom)[1], pair_cells(v2.dom)[1]
        PBu, prA, prI = bundle.pullbacks[u]
        for o in PBu.morphisms:
            if prI.mor_map[o] != "phi":
                continue
            h = prA.mor_map[o]
            x = GA.src(h)
            for lift in lifts_of(g.map, u1, x):
                budget.spend()
                if _stitch(GA, GC, v1, ids1, v2, ids2, h, lift) != want.mor_map[o]:
                    return False
    return True


# -- the adjunction -------------------------------------------------------------


def check_slice_over(m: EquivariantFunctor, a: EquivariantFunctor, b: EquivariantFunctor) -> None:
    """Require b∘m = a (m is a slice morphism from a to b)."""
    if not functors_equal(compose_functors(b.map, m.map), a.map):
        raise MalformedSliceMorphism("triangle does not commute")


def adjunction_forward(bundle: PiBundle, h: EquivariantFunctor,
                       v: EquivariantFunctor) -> EquivariantFunctor:
    """Transpose a slice morphism v: g*h -> f over A to h -> Pi_g f over B.

    v's domain must be the pullback g*h of h along g with pair-ID objects
    (as produced by ``equivariant_pullback(g, h)``).
    """
    g, f = bundle.g, bundle.f
    P, prA, _ = equivariant_pullback(g, h)
    if v.dom.base != P.base:
        raise MalformedSliceMorphism("v must be defined on the pullback of h along g")
    check_slice_over(v, prA, f)
    D = h.dom.base
    GB = g.cod.base
    obj_index, mor_index = pair_cells(P.base)

    obj_map: dict[str, str] = {}
    for x in D.objects:
        y = h.on_obj(x)
        fib = bundle.fibers[y]
        s_obj = {z: v.map.obj_map[obj_index[z][x]] for z in fib.objects}
        s_mor = {t: v.map.mor_map[mor_index[t][D.ident(x)]] for t in fib.morphisms}
        oid = bundle.object_id(y, s_obj, s_mor)
        if oid is None:
            raise InvariantViolated(f"the transpose at {x} is no section")
        obj_map[x] = oid

    mor_map: dict[str, str] = {}
    for u in D.mor_ids():
        bu = h.on_mor(u)
        x, x2 = D.src(u), D.tgt(u)
        ends = {"0": x, "1": x2}
        along = {"id(0)": D.ident(x), "id(1)": D.ident(x2), "phi": u, "inv(phi)": D.inv(u)}
        key = _transport_key(
            bundle.pullbacks[bu],
            lambda z, e: v.map.obj_map[obj_index[z][ends[e]]],
            lambda t, w: v.map.mor_map[mor_index[t][along[w]]],
        )
        mid = bundle.transport_ids[bu].get(key)
        if mid is None:
            raise InvariantViolated(f"the transpose along {u} is no transport")
        mor_map[u] = mid
    k = EquivariantFunctor(h.dom, bundle.dom_pi, Functor(D, bundle.dom_pi.base, obj_map, mor_map))
    check_slice_over(k, h, bundle.projection)
    return k


def adjunction_backward(bundle: PiBundle, h: EquivariantFunctor,
                        k: EquivariantFunctor) -> EquivariantFunctor:
    """Transpose k: h -> Pi_g f over B back to a slice morphism g*h -> f."""
    g, f = bundle.g, bundle.f
    if k.cod.base != bundle.dom_pi.base:
        raise MalformedSliceMorphism("k must land in the dependent product")
    check_slice_over(k, h, bundle.projection)
    P, prA, prD = equivariant_pullback(g, h)
    phi_ids = {u: pair_cells(pb[0])[1] for u, pb in bundle.pullbacks.items()}

    obj_map: dict[str, str] = {}
    for o in P.base.objects:
        s = bundle.objects_info[k.on_obj(prD.on_obj(o))].section
        obj_map[o] = s.obj_map[prA.on_obj(o)]
    mor_map: dict[str, str] = {}
    for m in P.base.morphisms:
        info = bundle.morphisms_info[k.on_mor(prD.on_mor(m))]
        mor_map[m] = info.transport.mor_map[phi_ids[info.base_morphism][prA.on_mor(m)]["phi"]]
    v = EquivariantFunctor(P, f.dom, Functor(P.base, f.dom.base, obj_map, mor_map))
    check_slice_over(v, prA, f)
    return v


def enumerate_slice_homs(a: EquivariantFunctor, b: EquivariantFunctor,
                         budget: Budget | int | None = None) -> list[EquivariantFunctor]:
    """All morphisms from a to b in the slice over their shared codomain."""
    if a.cod.base != b.cod.base:
        raise MalformedSliceMorphism("slice homs need a shared codomain")
    budget = ensure_budget(budget)
    out = []
    for F in iter_functors(
        a.dom.base, b.dom.base,
        post=(b.map, a.map),
        equiv=(a.dom.involution, b.dom.involution),
        budget=budget,
    ):
        out.append(EquivariantFunctor(a.dom, b.dom, F))
    return out
