"""Groupoids with involution and equivariant functors.

A groupoid equipped with an involutive endofunctor is the same thing as a
presheaf of groupoids on the two-element group, and its maps are the
equivariant functors. This module provides

* the wrapper types and their validators,
* fixed-point extraction (full and strict),
* the standard shapes (terminal/initial, the walking isomorphism with and
  without the point-swapping involution, its one-fixed-point extension,
  the swapped doubles) and the generating maps between them, defined once
  in ``REGISTRY``; the command line's bundled document is this registry
  under the same names (``cli.bundled_document``),
* finite cell attachments: the pushouts along the generating trivial
  cofibrations ``i``, ``Si`` and ``iprime`` that every decomposition and
  factorization is made of. These three are the only cells; a free fixed
  point is not a cell but the coproduct ``equivariant_coproduct(X,
  REGISTRY.one)``.

Cell attachments use a conjugation representation: the attached groupoid
keeps the original morphism IDs, each new object carries an anchor in the
old groupoid, and every hom-set touching a new object is a relabelled copy
of the anchored hom-set. This makes the inclusion a full embedding by
construction and keeps IDs deterministic (they depend only on the names
supplied by the caller). The composites are not stored: each is read off
the old groupoid's through the conjugation when it is looked up. A gluing
step attaches all of its cells in one pushout, ``attach_cells``;
``attach_cell`` is its one-cell case.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ComputedComposites,
    Functor,
    Groupoid,
    compose_functors,
    coproduct,
    empty_groupoid,
    identity_functor,
    indexed_pair_id,
    interval,
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
    """Pullback of f and g over their shared codomain, with the pair
    involution, which maps to the pair IDs the pullback stores."""
    if f.cod.base != g.cod.base:
        raise CodomainMismatch("equivariant pullback needs a shared codomain")
    P, pr1, pr2 = pullback(f.map, g.map)
    obj_index, mor_index = P.compose.obj_index, P.compose.mor_index
    inv = Functor(
        P, P,
        {o: indexed_pair_id(obj_index, f.dom.eta_obj(pr1.obj_map[o]),
                            g.dom.eta_obj(pr2.obj_map[o]))
         for o in P.objects},
        {m: indexed_pair_id(mor_index, f.dom.eta_mor(pr1.mor_map[m]),
                            g.dom.eta_mor(pr2.mor_map[m]))
         for m in P.morphisms},
    )
    IP = InvolutiveGroupoid(P, inv)
    return IP, EquivariantFunctor(IP, f.dom, pr1), EquivariantFunctor(IP, g.dom, pr2)


def eq_pairing(f: EquivariantFunctor, g: EquivariantFunctor, prod: InvolutiveGroupoid) -> EquivariantFunctor:
    return EquivariantFunctor(f.dom, prod, pairing(f.map, g.map, prod.base))


def diagonal(f: EquivariantFunctor) -> EquivariantFunctor:
    """The diagonal A -> A x_C A of f: A -> C; its codomain is the
    self-pullback of f."""
    PB, _, _ = equivariant_pullback(f, f)
    return eq_pairing(eq_identity(f.dom), eq_identity(f.dom), PB)


# -- cell attachments ----------------------------------------------------------

CELL_KINDS = ("i", "Si", "iprime")


@dataclass
class CellInfo:
    """What an attachment added: each cell's new objects and structure
    isos, and the new morphisms."""

    # per cell, in template order: its new objects (c for an i-cell,
    # (c0, c1) for an Si-cell, whose c1 is the η-image of c0, the fixed
    # object for an iprime-cell) and the structure isomorphisms from
    # their anchors to them
    new_objects: tuple[tuple[str, ...], ...]
    struct_isos: tuple[tuple[str, ...], ...]
    # new morphism ID -> (src, tgt, old core morphism) in the conjugation
    # representation; lets callers extend maps without re-deriving anything
    cores: dict[str, tuple[str, str, str]]


def _cell_objects(X: InvolutiveGroupoid, kind: str, data, name: str):
    """One cell's new objects, each as (object, anchor, η-image, twist).

    The anchor is the object of X whose hom-sets the new object copies;
    the twist is an iso anchor(η n) -> η(anchor n) in X."""
    if kind not in CELL_KINDS:
        raise ShapeMismatch(f"unknown cell kind {kind!r}")
    base = X.base
    if kind == "iprime":
        if data not in base.morphisms:
            raise ShapeMismatch(f"iprime-cell data must be a morphism, got {data!r}")
        m = data
        y = base.src(m)
        if base.tgt(m) != X.eta_obj(y):
            raise InvalidAttachment("iprime attachment must map y to eta(y)")
        if X.eta_mor(m) != base.inv(m):
            raise InvalidAttachment("iprime attachment needs eta(m) = inv(m)")
        n2 = f"{name}:2"
        return [(n2, X.eta_obj(y), n2, base.inv(m))]  # psi attaches at eta(y)
    if data not in base.identity:
        raise ShapeMismatch(f"{kind}-cell data must be an object, got {data!r}")
    y = data
    if kind == "i":
        if X.eta_obj(y) != y:
            raise InvalidAttachment("i-cells require a fixed attachment object")
        n = f"{name}:1"
        return [(n, y, n, base.ident(y))]
    n0, n1, ey = f"{name}:0p", f"{name}:1p", X.eta_obj(y)
    return [(n0, y, n1, base.ident(ey)), (n1, ey, n0, base.ident(y))]


class _CellComposites(ComputedComposites):
    """The compose table of a cell attachment Y of X, read off X's.

    Every morphism of Y has a core triple ``(u, v, core)``: an old
    ``m: s -> t`` is ``(s, t, m)``, a new one is the triple it was named
    from. With f = ``(u, v, c1)`` and g = ``(v, w, c2)``, g∘f is the
    morphism u -> w whose core is c2∘c1 in X; when X is itself an
    attachment, that lookup is computed the same way. ``row(g)`` reads
    X's row of c2. The full walk reads the rows of X's morphisms, then
    those of the new ones.
    """

    __slots__ = ("_base", "_ids", "_triple", "_into")

    def __init__(self, base: Groupoid, ids: dict[str, dict[str, dict[str, str]]],
                 cores: dict[str, tuple[str, str, str]]):
        # ids[u][v] maps each core to the morphism u -> v that copies it
        self._base, self._ids = base, ids
        self._triple = {m: (s, t, m) for m, (s, t) in base.morphisms.items()}
        self._triple.update(cores)
        super().__init__(self._triple)
        self._into: dict[str, list[tuple[dict, str, str]]] | None = None

    def __getitem__(self, key) -> str:
        triple = self._triple
        try:
            g, f = key
            u, v, c1 = triple[f]
            v2, w, c2 = triple[g]
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if v != v2:
            raise KeyError(key)
        return self._ids[u][w][self._base.compose[(c2, c1)]]

    def row(self, g: str) -> dict[str, str]:
        into = self._into
        if into is None:
            # v -> (ids[u], c1, f) for every morphism f: u -> v with core c1
            into = self._into = {}
            ids = self._ids
            for f, (u, v, c1) in self._triple.items():
                into.setdefault(v, []).append((ids[u], c1, f))
        v, w, c2 = self._triple[g]
        after_c2 = self._base.composite_table()[c2]
        return {f: named[w][after_c2[c1]] for named, c1, f in into[v]}


def attach_cells(X: InvolutiveGroupoid, cells,
                 fresh: str) -> tuple[InvolutiveGroupoid, EquivariantFunctor, CellInfo]:
    """Pushout of X along a coproduct of generating trivial cofibrations.

    ``cells`` lists ``(kind, data, name)``, all attached along X at once.
    Cells come only from the three generators ``i``, ``Si`` and
    ``iprime``; any other kind raises ``ShapeMismatch`` (a free fixed
    point is the coproduct with ``REGISTRY.one``, not a cell). kind/data:
      "i"      -- data = fixed object y; adjoins one fixed object
                  isomorphic to y (the involution extends trivially).
      "Si"     -- data = object y; adjoins a swapped pair of objects
                  isomorphic to y and eta(y).
      "iprime" -- data = morphism m: y -> eta(y) with eta(m) = inv(m);
                  adjoins one fixed object with an isomorphism from eta(y).

    Returns the attached groupoid, the inclusion (a full embedding) and
    the bookkeeping needed to extend maps out of X over the new cells.
    Every new object is anchored in X. A cell's objects are named from
    its ``name``, every new morphism from ``fresh``. The composites are
    not stored: each is computed from X's on lookup (``_CellComposites``).
    """
    base = X.base
    old, b_comp, b_inv, b_eta = base.identity, base.compose, base.inverse, X.involution.mor_map
    per_cell = [_cell_objects(X, kind, data, name) for kind, data, name in cells]
    adjoined = [row for cell in per_cell for row in cell]
    new_objects = sorted(n for n, _, _, _ in adjoined)
    objects = tuple(sorted(base.objects + tuple(new_objects)))
    anchor = {x: x for x in base.objects}
    inv_obj = dict(X.involution.obj_map)
    # twists: object u -> an iso anchor(eta u) -> eta(anchor u); identities
    # at old objects
    twist = {x: old[inv_obj[x]] for x in base.objects}
    for n, a, en, tw in adjoined:
        anchor[n], inv_obj[n], twist[n] = a, en, tw

    # new morphisms: for every hom pair touching a new object, one copy of
    # the anchored hom-set; (u, v, core) triples get deterministic IDs.
    # ids[u][v] maps each core to the morphism u -> v that copies it (an
    # old morphism is its own core).
    morphisms = dict(base.morphisms)
    triples: dict[tuple[str, str, str], str] = {}
    ids: dict[str, dict[str, dict[str, str]]] = {u: {} for u in objects}
    for m, (s, t) in base.morphisms.items():
        ids[s].setdefault(t, {})[m] = m
    for u in objects:
        for v in (new_objects if u in old else objects):
            named = ids[u].setdefault(v, {})
            for core in base.hom(anchor[u], anchor[v]):
                mid = f"{fresh}:m({u},{core},{v})"
                triples[(u, v, core)] = mid
                morphisms[mid] = (u, v)
                named[core] = mid

    identity = dict(old)
    for n in new_objects:
        identity[n] = ids[n][n][old[anchor[n]]]
    inverse = dict(b_inv)
    for (u, v, core), mid in triples.items():
        inverse[mid] = ids[v][u][b_inv[core]]

    cores = {mid: tr for tr, mid in triples.items()}
    compose = _CellComposites(base, ids, cores)
    Y = Groupoid(objects, morphisms, identity, compose, inverse)
    inv_mor = dict(b_eta)
    for (u, v, core), mid in triples.items():
        core2 = b_comp[(b_comp[(b_inv[twist[v]], b_eta[core])], twist[u])]
        inv_mor[mid] = ids[inv_obj[u]][inv_obj[v]][core2]
    IY = InvolutiveGroupoid(Y, Functor(Y, Y, inv_obj, inv_mor))
    incl = EquivariantFunctor(
        X, IY, Functor(base, Y, {x: x for x in base.objects}, {m: m for m in base.morphisms})
    )
    info = CellInfo(
        new_objects=tuple(tuple(n for n, _, _, _ in cell) for cell in per_cell),
        struct_isos=tuple(tuple(ids[a][n][old[a]] for n, a, _, _ in cell) for cell in per_cell),
        cores=cores,
    )
    return IY, incl, info


def attach_cell(X: InvolutiveGroupoid, kind: str, data,
                fresh: str) -> tuple[InvolutiveGroupoid, EquivariantFunctor, CellInfo]:
    """Pushout of X along one generating trivial cofibration: the one-cell
    case of ``attach_cells``, with its objects and morphisms both named
    from ``fresh``."""
    return attach_cells(X, [(kind, data, fresh)], fresh)


def extend_over_cell(comp: EquivariantFunctor, attached: InvolutiveGroupoid,
                     info: CellInfo, images) -> EquivariantFunctor:
    """Extend ``comp: X -> B`` over an attachment ``Y`` of X.

    ``images`` holds one ``(x, iso)`` per cell: the cell's first new
    object goes to the object ``x`` of B and its structure isomorphism to
    the isomorphism ``iso`` of B ending at ``x``; an Si cell's partner
    object and iso go to their η-images. Everything else is determined
    because Y's new hom-sets are conjugates of old ones.
    """
    B, BB = comp.cod, comp.cod.base
    b_comp, b_inv = BB.compose, BB.inverse
    old_obj, old_mor = comp.map.obj_map, comp.map.mor_map
    # per-object comparison isos: old objects get identities, new objects
    # get the images of their structure isos
    obj_map = dict(old_obj)
    phi = {y: BB.identity[old_obj[y]] for y in comp.map.dom.objects}
    for objs, (x, iso) in zip(info.new_objects, images, strict=True):
        for n, image in zip(objs, ((x, iso), (B.eta_obj(x), B.eta_mor(iso)))):
            obj_map[n], phi[n] = image
    mor_map = dict(old_mor)
    for mid, (u, v, core) in info.cores.items():
        mor_map[mid] = b_comp[(b_comp[(phi[v], old_mor[core])], b_inv[phi[u]])]
    if len(mor_map) != attached.base.n_morphisms:
        raise InvariantViolated("a morphism of the attachment is neither old nor conjugated")
    return EquivariantFunctor(attached, B, Functor(attached.base, BB, obj_map, mor_map))
