"""Groupoids with involution and equivariant functors.

A groupoid equipped with an involutive endofunctor is the same thing as a
presheaf of groupoids on the two-element group, and its maps are the
equivariant functors. This module provides

* the wrapper types and their validators,
* fixed-point extraction (full and strict),
* the standard shapes (terminal/initial, the walking isomorphism with and
  without the point-swapping involution, its one-fixed-point extension,
  the swapped doubles) and the generating maps between them,
* finite cell attachments: the pushouts along the generating maps that
  every decomposition and factorization below is made of.

Cell attachments use a conjugation representation: the attached groupoid
keeps the original morphism IDs, each new object carries an anchor in the
old groupoid, and every hom-set touching a new object is a relabelled copy
of the anchored hom-set. This makes the inclusion a full embedding by
construction and keeps IDs deterministic (they depend only on the fresh
prefix supplied by the caller).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Functor,
    Groupoid,
    compose_functors,
    coproduct,
    empty_groupoid,
    identity_functor,
    interval,
    pair_id,
    pairing,
    pullback,
    subgroupoid,
    terminal_functor,
    unit,
    validate_functor,
    validate_groupoid,
)
from .errors import CodomainMismatch, InvalidAttachment, InvariantViolated, ShapeMismatch


@dataclass
class InvolutiveGroupoid:
    base: Groupoid
    involution: Functor

    @property
    def objects(self):
        return self.base.objects

    def eta_obj(self, x: str) -> str:
        return self.involution.obj_map[x]

    def eta_mor(self, m: str) -> str:
        return self.involution.mor_map[m]

    def fixed_objects(self) -> tuple[str, ...]:
        return tuple(x for x in self.base.objects if self.eta_obj(x) == x)

    def fixed_morphisms(self) -> tuple[str, ...]:
        return tuple(m for m in self.base.mor_ids() if self.eta_mor(m) == m)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"InvolutiveGroupoid({self.base.n_objects} objects, {self.base.n_morphisms} morphisms)"


@dataclass
class EquivariantFunctor:
    dom: InvolutiveGroupoid
    cod: InvolutiveGroupoid
    map: Functor

    def on_obj(self, x: str) -> str:
        return self.map.obj_map[x]

    def on_mor(self, m: str) -> str:
        return self.map.mor_map[m]

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"EquivariantFunctor({self.dom!r} -> {self.cod!r})"


def validate_involutive(X: InvolutiveGroupoid) -> list[str]:
    problems = validate_groupoid(X.base)
    problems += [f"involution: {p}" for p in validate_functor(X.involution)]
    if problems:
        return problems
    for x in X.base.objects:
        if X.eta_obj(X.eta_obj(x)) != x:
            problems.append(f"involution squared is not the identity at object {x}")
    for m in X.base.mor_ids():
        if X.eta_mor(X.eta_mor(m)) != m:
            problems.append(f"involution squared is not the identity at morphism {m}")
    return problems


def validate_equivariant(F: EquivariantFunctor) -> list[str]:
    problems = validate_functor(F.map)
    if problems:
        return problems
    for x in F.dom.base.objects:
        if F.on_obj(F.dom.eta_obj(x)) != F.cod.eta_obj(F.on_obj(x)):
            problems.append(f"equivariance fails at object {x}")
    for m in F.dom.base.mor_ids():
        if F.on_mor(F.dom.eta_mor(m)) != F.cod.eta_mor(F.on_mor(m)):
            problems.append(f"equivariance fails at morphism {m}")
    return problems


def eq_identity(X: InvolutiveGroupoid) -> EquivariantFunctor:
    return EquivariantFunctor(X, X, identity_functor(X.base))


def eq_compose(g: EquivariantFunctor, f: EquivariantFunctor) -> EquivariantFunctor:
    return EquivariantFunctor(f.dom, g.cod, compose_functors(g.map, f.map))


# -- the three standard functors --------------------------------------------


def trivial_action(G: Groupoid) -> InvolutiveGroupoid:
    """G with the identity involution."""
    return InvolutiveGroupoid(G, identity_functor(G))


def underlying(X: InvolutiveGroupoid) -> Groupoid:
    return X.base


def swap_double(G: Groupoid) -> InvolutiveGroupoid:
    """G ⊔ G with the involution swapping the two copies."""
    C, inl, inr = coproduct(G, G)
    obj_map = {}
    mor_map = {}
    for x in G.objects:
        obj_map[inl.obj_map[x]] = inr.obj_map[x]
        obj_map[inr.obj_map[x]] = inl.obj_map[x]
    for m in G.morphisms:
        mor_map[inl.mor_map[m]] = inr.mor_map[m]
        mor_map[inr.mor_map[m]] = inl.mor_map[m]
    return InvolutiveGroupoid(C, Functor(C, C, obj_map, mor_map))


def fixed_points(X: InvolutiveGroupoid) -> tuple[Groupoid, Groupoid]:
    """(full fixed subgroupoid, strict fixed subgroupoid).

    The full one keeps every morphism between fixed objects; the strict
    one keeps only the fixed morphisms (it is the limit of the action).
    """
    fixed = X.fixed_objects()
    full_fixed, _ = subgroupoid(X.base, fixed)
    strict, _ = subgroupoid(X.base, fixed, keep=lambda m: X.eta_mor(m) == m)
    return full_fixed, strict


# -- shape registry -----------------------------------------------------------


def icheck() -> InvolutiveGroupoid:
    """The walking isomorphism with the involution swapping its endpoints."""
    I = interval()
    inv = Functor(
        I, I,
        {"0": "1", "1": "0"},
        {"id(0)": "id(1)", "id(1)": "id(0)", "phi": "inv(phi)", "inv(phi)": "phi"},
    )
    return InvolutiveGroupoid(I, inv)


def nabla() -> InvolutiveGroupoid:
    """icheck extended by one fixed object 2 and an isomorphism psi: 1 -> 2.

    The only non-identity morphisms are phi, psi, psi.phi and their
    inverses; the involution swaps 0 and 1, fixes 2, sends phi to its
    inverse and psi to psi.phi.
    """
    objects = ("0", "1", "2")
    nonid = {
        "phi": ("0", "1"),
        "inv(phi)": ("1", "0"),
        "psi": ("1", "2"),
        "inv(psi)": ("2", "1"),
        "psi.phi": ("0", "2"),
        "inv(psi.phi)": ("2", "0"),
    }
    morphisms = {f"id({x})": (x, x) for x in objects}
    morphisms.update(nonid)
    identity = {x: f"id({x})" for x in objects}

    def the(x, y):
        # each hom-set of nabla is a singleton
        return [m for m, st in morphisms.items() if st == (x, y)][0]

    compose = {}
    for g, (gs, gt) in morphisms.items():
        for f, (fs, ft) in morphisms.items():
            if ft == gs:
                compose[(g, f)] = the(fs, gt)
    inverse = {m: the(t, s) for m, (s, t) in morphisms.items()}
    G = Groupoid(objects, morphisms, identity, compose, inverse)
    inv = Functor(
        G, G,
        {"0": "1", "1": "0", "2": "2"},
        {
            "id(0)": "id(1)", "id(1)": "id(0)", "id(2)": "id(2)",
            "phi": "inv(phi)", "inv(phi)": "phi",
            "psi": "psi.phi", "psi.phi": "psi",
            "inv(psi)": "inv(psi.phi)", "inv(psi.phi)": "inv(psi)",
        },
    )
    return InvolutiveGroupoid(G, inv)


class ShapeRegistry:
    """Named standard shapes, the generating maps and the fold SI -> S1."""

    def __init__(self):
        self.zero = trivial_action(empty_groupoid())
        self.one = trivial_action(unit())
        self.I = trivial_action(interval())
        self.icheck = icheck()
        self.nabla = nabla()
        self.S1 = swap_double(unit())
        self.SI = swap_double(interval())

        u = EquivariantFunctor(self.zero, self.one, Functor(self.zero.base, self.one.base, {}, {}))
        i_map = Functor(
            self.one.base, self.I.base,
            {"*": "0"}, {"id(*)": "id(0)"},
        )
        i = EquivariantFunctor(self.one, self.I, i_map)
        si_map = Functor(
            self.S1.base, self.SI.base,
            {"l:*": "l:0", "r:*": "r:0"},
            {"l:id(*)": "l:id(0)", "r:id(*)": "r:id(0)"},
        )
        si = EquivariantFunctor(self.S1, self.SI, si_map)
        ip_map = Functor(
            self.icheck.base, self.nabla.base,
            {"0": "0", "1": "1"},
            {"id(0)": "id(0)", "id(1)": "id(1)", "phi": "phi", "inv(phi)": "inv(phi)"},
        )
        iprime = EquivariantFunctor(self.icheck, self.nabla, ip_map)
        # the swapped interval folded onto the swapped pair: a levelwise
        # trivial fibration with no fixed points on either side
        fold_map = Functor(
            self.SI.base, self.S1.base,
            {"l:0": "l:*", "l:1": "l:*", "r:0": "r:*", "r:1": "r:*"},
            {m: ("l:id(*)" if m.startswith("l:") else "r:id(*)") for m in self.SI.base.morphisms},
        )
        fold = EquivariantFunctor(self.SI, self.S1, fold_map)

        self.shapes = {
            "0!": self.zero,
            "1!": self.one,
            "I": self.I,
            "Icheck": self.icheck,
            "nabla": self.nabla,
            "S1": self.S1,
            "SI": self.SI,
        }
        self.maps = {"u": u, "i": i, "Si": si, "iprime": iprime, "fold": fold}

    def shape(self, name: str) -> InvolutiveGroupoid:
        return self.shapes[name]

    def map(self, name: str) -> EquivariantFunctor:
        return self.maps[name]


REGISTRY = ShapeRegistry()


def terminal_map(X: InvolutiveGroupoid) -> EquivariantFunctor:
    one = REGISTRY.one
    return EquivariantFunctor(X, one, terminal_functor(X.base, one.base))


# -- pointwise limits and colimits -------------------------------------------


def equivariant_product(X: InvolutiveGroupoid, Y: InvolutiveGroupoid):
    """X × Y: the equivariant pullback of the two maps to the point."""
    return equivariant_pullback(terminal_map(X), terminal_map(Y))


def equivariant_coproduct(X: InvolutiveGroupoid, Y: InvolutiveGroupoid):
    C, inl, inr = coproduct(X.base, Y.base)
    inv_obj = {}
    inv_mor = {}
    for x in X.base.objects:
        inv_obj[inl.obj_map[x]] = inl.obj_map[X.eta_obj(x)]
    for y in Y.base.objects:
        inv_obj[inr.obj_map[y]] = inr.obj_map[Y.eta_obj(y)]
    for m in X.base.morphisms:
        inv_mor[inl.mor_map[m]] = inl.mor_map[X.eta_mor(m)]
    for m in Y.base.morphisms:
        inv_mor[inr.mor_map[m]] = inr.mor_map[Y.eta_mor(m)]
    IC = InvolutiveGroupoid(C, Functor(C, C, inv_obj, inv_mor))
    return IC, EquivariantFunctor(X, IC, inl), EquivariantFunctor(Y, IC, inr)


def equivariant_pullback(f: EquivariantFunctor, g: EquivariantFunctor):
    """Pullback of f and g over their shared codomain, with the pair involution."""
    if f.cod.base != g.cod.base:
        raise CodomainMismatch("equivariant pullback needs a shared codomain")
    P, pr1, pr2 = pullback(f.map, g.map)
    inv = Functor(
        P, P,
        {o: pair_id(f.dom.eta_obj(pr1.obj_map[o]), g.dom.eta_obj(pr2.obj_map[o]))
         for o in P.objects},
        {m: pair_id(f.dom.eta_mor(pr1.mor_map[m]), g.dom.eta_mor(pr2.mor_map[m]))
         for m in P.morphisms},
    )
    IP = InvolutiveGroupoid(P, inv)
    return IP, EquivariantFunctor(IP, f.dom, pr1), EquivariantFunctor(IP, g.dom, pr2)


def eq_pairing(f: EquivariantFunctor, g: EquivariantFunctor, prod: InvolutiveGroupoid) -> EquivariantFunctor:
    return EquivariantFunctor(f.dom, prod, pairing(f.map, g.map, prod.base))


# -- cell attachments ----------------------------------------------------------

CELL_KINDS = ("point", "i", "Si", "iprime")


@dataclass
class CellInfo:
    """What a single attachment added: new objects and structure isos."""

    kind: str
    new_objects: tuple[str, ...]
    # structure isomorphisms from the attachment anchors to the new objects,
    # in template order (c for i-cells, (c0, c1) for Si-cells, psi for iprime)
    struct_isos: tuple[str, ...]
    # new morphism ID -> (src, tgt, old core morphism) in the conjugation
    # representation; lets callers extend maps without re-deriving anything
    cores: dict[str, tuple[str, str, str]]


def attach_cell(
    X: InvolutiveGroupoid,
    kind: str,
    data,
    fresh: str,
) -> tuple[InvolutiveGroupoid, EquivariantFunctor, CellInfo]:
    """Pushout of X along one generating (trivial) cofibration.

    kind/data:
      "point"  -- no data; adjoins one isolated fixed object.
      "i"      -- data = fixed object y; adjoins one fixed object
                  isomorphic to y (the involution extends trivially).
      "Si"     -- data = object y; adjoins a swapped pair of objects
                  isomorphic to y and eta(y).
      "iprime" -- data = morphism m: y -> eta(y) with eta(m) = inv(m);
                  adjoins one fixed object with an isomorphism from eta(y).

    Returns the attached groupoid, the inclusion (a full embedding) and
    the bookkeeping needed to extend maps out of X over the new cell.
    New IDs are derived from ``fresh`` and the template object names only.
    """
    if kind not in CELL_KINDS:
        raise ShapeMismatch(f"unknown cell kind {kind!r}")
    base, eta = X.base, X.involution

    if kind == "point":
        new = f"{fresh}:*"
        objects = tuple(sorted(base.objects + (new,)))
        nid = f"{fresh}:id"
        morphisms = dict(base.morphisms)
        morphisms[nid] = (new, new)
        identity = dict(base.identity)
        identity[new] = nid
        compose = dict(base.compose)
        compose[(nid, nid)] = nid
        inverse = dict(base.inverse)
        inverse[nid] = nid
        Y = Groupoid(objects, morphisms, identity, compose, inverse)
        inv = Functor(
            Y, Y,
            {**eta.obj_map, new: new},
            {**eta.mor_map, nid: nid},
        )
        IY = InvolutiveGroupoid(Y, inv)
        incl = EquivariantFunctor(
            X, IY, Functor(base, Y, {x: x for x in base.objects}, {m: m for m in base.morphisms})
        )
        return IY, incl, CellInfo("point", (new,), (), {})

    # anchors: new object -> old object its hom-sets are conjugated from
    # twists: new object n -> morphism in hom(anchor(eta n), eta(anchor n))
    if kind == "i":
        if data not in base.identity:
            raise ShapeMismatch(f"i-cell data must be an object, got {data!r}")
        y = data
        if X.eta_obj(y) != y:
            raise InvalidAttachment("i-cells require a fixed attachment object")
        new_objects = [f"{fresh}:1"]
        anchors = {new_objects[0]: y}
        eta_new = {new_objects[0]: new_objects[0]}
        twists = {new_objects[0]: base.ident(y)}
    elif kind == "Si":
        if data not in base.identity:
            raise ShapeMismatch(f"Si-cell data must be an object, got {data!r}")
        y = data
        n0, n1 = f"{fresh}:0p", f"{fresh}:1p"
        new_objects = [n0, n1]
        anchors = {n0: y, n1: X.eta_obj(y)}
        eta_new = {n0: n1, n1: n0}
        twists = {n0: base.ident(X.eta_obj(y)), n1: base.ident(y)}
    elif kind == "iprime":
        if data not in base.morphisms:
            raise ShapeMismatch(f"iprime-cell data must be a morphism, got {data!r}")
        m = data
        y = base.src(m)
        if base.tgt(m) != X.eta_obj(y):
            raise InvalidAttachment("iprime attachment must map y to eta(y)")
        if X.eta_mor(m) != base.inv(m):
            raise InvalidAttachment("iprime attachment needs eta(m) = inv(m)")
        n2 = f"{fresh}:2"
        new_objects = [n2]
        anchors = {n2: X.eta_obj(y)}  # psi attaches at eta(y)
        eta_new = {n2: n2}
        twists = {n2: base.inv(m)}

    objects = tuple(sorted(base.objects + tuple(new_objects)))
    anchor = {x: x for x in base.objects}
    anchor.update(anchors)

    # new morphisms: for every hom pair touching a new object, one copy of
    # the anchored hom-set; (u, v, core) triples get deterministic IDs.
    morphisms = dict(base.morphisms)
    identity = dict(base.identity)
    inverse = dict(base.inverse)
    triples: dict[tuple[str, str, str], str] = {}
    for u in objects:
        for v in objects:
            if u in base.identity and v in base.identity:
                continue
            for core in base.hom(anchor[u], anchor[v]):
                mid = f"{fresh}:m({u},{core},{v})"
                triples[(u, v, core)] = mid
                morphisms[mid] = (u, v)

    def from_triple(u: str, v: str, core: str) -> str:
        if u in base.identity and v in base.identity:
            return core
        return triples[(u, v, core)]

    for n in new_objects:
        identity[n] = from_triple(n, n, base.ident(anchor[n]))
    for (u, v, core), mid in triples.items():
        inverse[mid] = from_triple(v, u, base.inv(core))

    compose = dict(base.compose)
    all_triples = [(s, t, m) for m, (s, t) in base.morphisms.items()]
    all_triples += list(triples)
    by_src: dict[str, list[tuple[str, str, str]]] = {}
    for tr in all_triples:
        by_src.setdefault(tr[0], []).append(tr)
    for (u, v, c1) in all_triples:
        for (v2, w, c2) in by_src.get(v, ()):  # v2 == v
            g = from_triple(v, w, c2)
            f = from_triple(u, v, c1)
            compose[(g, f)] = from_triple(u, w, base.comp(c2, c1))

    Y = Groupoid(objects, morphisms, identity, compose, inverse)

    inv_obj = dict(eta.obj_map)
    inv_obj.update(eta_new)

    def twist(u: str) -> str:
        # an iso anchor(eta_Y(u)) -> eta(anchor(u)); identity at old objects
        if u in base.identity:
            return base.ident(X.eta_obj(u))
        return twists[u]

    inv_mor = dict(eta.mor_map)
    for (u, v, core), mid in triples.items():
        core2 = base.comp(base.comp(base.inv(twist(v)), X.eta_mor(core)), twist(u))
        inv_mor[mid] = from_triple(inv_obj[u], inv_obj[v], core2)
    IY = InvolutiveGroupoid(Y, Functor(Y, Y, inv_obj, inv_mor))
    incl = EquivariantFunctor(
        X, IY, Functor(base, Y, {x: x for x in base.objects}, {m: m for m in base.morphisms})
    )
    struct = tuple(
        from_triple(anchors[n], n, base.ident(anchors[n])) for n in new_objects
    )
    cores = {mid: tr for tr, mid in triples.items()}
    return IY, incl, CellInfo(kind, tuple(new_objects), struct, cores)


def extend_over_cell(
    comp: EquivariantFunctor,
    attached: InvolutiveGroupoid,
    info: CellInfo,
    object_images: dict[str, str],
    iso_images: dict[str, str],
) -> EquivariantFunctor:
    """Extend ``comp: X -> B`` over an attachment ``Y`` of X.

    ``object_images`` sends each new object to an object of B and
    ``iso_images`` sends each structure isomorphism to an isomorphism of B
    with matching endpoints; everything else is determined because Y's new
    hom-sets are conjugates of old ones.
    """
    B = comp.cod
    Y = attached
    old = comp.map.dom
    # per-object comparison isos: old objects get identities, new objects
    # get the prescribed images of their structure isos
    obj_map = dict(comp.map.obj_map)
    obj_map.update(object_images)
    phi: dict[str, str] = {x: B.base.ident(comp.on_obj(x)) for x in old.objects}
    for n, s in zip(info.new_objects, info.struct_isos):
        phi[n] = iso_images[s]
    mor_map = dict(comp.map.mor_map)
    for mid, (u, v, core) in info.cores.items():
        mor_map[mid] = B.base.comp(
            B.base.comp(phi[v], comp.map.mor_map[core]), B.base.inv(phi[u])
        )
    for m2, (u2, v2) in Y.base.morphisms.items():
        if m2 not in mor_map:  # only the identity of a point cell remains
            if u2 != v2:
                raise InvariantViolated(f"{m2} is neither old, conjugated nor an identity")
            mor_map[m2] = B.base.ident(obj_map[u2])
    return EquivariantFunctor(Y, B, Functor(Y.base, B.base, obj_map, mor_map))
