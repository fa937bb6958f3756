"""Finite groupoids and functors, with a decidable predicate suite.

Everything is enumerated explicitly: a :class:`Groupoid` has full
composition, identity and inverse tables (the composition tables of
pullbacks, cell attachments and the universe bundle U and Ũ are computed,
see below), so every predicate downstream (equivalence, isofibration,
lifting, ...) is decided by finite search.
Values are treated as immutable after construction; all operations are
pure functions of their inputs.

Conventions
-----------
* ``compose[(g, f)]`` is the composite ``g after f``; it is defined exactly
  on the composable pairs ``tgt(f) == src(g)``. The functor search relies
  on this: a lookup in ``compose`` is its composability test.
* The indexes that searches iterate (``objects``, ``hom``, ``out``,
  ``non_identities``) are sorted by ID, so searches are deterministic and
  "least witness" always means lexicographically least. The key order of
  a table, stored or computed, is deterministic but not otherwise
  promised; JSON output is written with sorted keys.
* Derived indexes (a groupoid's morphism IDs in order, its hom-sets,
  the morphisms out of each object, its non-identity morphisms in ID
  order, its per-morphism composite table, its spanning tree and whether
  its identities obey the unit laws; whether a functor preserves
  identities, and the fiber of objects over each image) are built once
  per value and cached on it.
  That is sound only because values are immutable after construction:
  tables must not be edited once a groupoid or functor is built.
* One construction per concept. A product is the pullback of the two
  functors to the point (:func:`terminal_functor`), :func:`subgroupoid`
  is the one restriction to a set of objects and morphisms (full, fixed
  and fiber subgroupoids are all built with it), and
  ``equivariant.diagonal`` is the one diagonal of a map into its
  self-pullback.
* Pullbacks name each pair ``(a,b)`` with :func:`pair_id`. Pair IDs are
  labels only: nothing parses them back, the projections ``pr1``/``pr2``
  decode them. Names containing ``,`` or parentheses can make two pairs
  share an ID; the construction then raises ``MalformedDocument``. Each
  pair ID is made once, in the pullback's pair index, and nothing outside
  this module formats or indexes one: others read it with
  :func:`pair_cells` and :func:`indexed_pair_id`.
* The groupoids that grow with the universe's base (pullbacks, U and Ũ,
  path objects) make each ID once. Their tables return the ID the
  groupoid stores, never an equal copy: the values of ``identity``,
  ``inverse`` and ``compose``, the endpoints in ``morphisms``, the maps
  of their involutions, and a :func:`pairing` into a pullback are keys of
  ``morphisms`` and entries of ``objects``.
* The ``compose`` of a pullback, of a cell attachment
  (``equivariant.attach_cells``) and of the universe's U and Ũ
  (``universe.build_universe``) is a :class:`ComputedComposites`: a
  read-only ``Mapping`` that computes each composite from the tables it
  was built from when it is looked up, and computes them all again on
  each full walk (iteration, ``len``, ``items``, ``dict(table.items())``,
  equality), which reads each row once. Its IDs and contents are those of
  the all-pairs table, and a row holds no strings of its own: its values
  are the stored IDs. The
  functor search, and the constructions built on such a table (a
  pullback's rows, a path object), read composites by rows
  (``composite_table``), and a computed table builds each row the first
  time it is read, so a reader that looks up a few composites, or a search
  that reads a few rows, never pays for the rest.
"""

from __future__ import annotations

from abc import abstractmethod
from collections.abc import Collection, ItemsView, Mapping
from dataclasses import dataclass, field

from .errors import CodomainMismatch, MalformedDocument, MalformedFunctor


@dataclass
class Groupoid:
    """A finite groupoid with explicit structure tables.

    objects    -- sorted tuple of object IDs
    morphisms  -- morphism ID -> (src object, tgt object)
    identity   -- object ID -> its identity morphism ID
    compose    -- (g, f) -> g∘f, total on composable pairs, keys in no
                  promised order: a dict, or any read-only Mapping (a
                  ComputedComposites, as pullbacks, cell attachments and
                  the universe's U and Ũ have, computes each composite on
                  lookup and each row of ``composite_table`` when it is
                  first read)
    inverse    -- morphism ID -> inverse morphism ID
    """

    objects: tuple[str, ...]
    morphisms: dict[str, tuple[str, str]]
    identity: dict[str, str]
    compose: Mapping[tuple[str, str], str]
    inverse: dict[str, str]
    _hom: dict[tuple[str, str], tuple[str, ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _mor_ids: tuple[str, ...] = field(init=False, repr=False, compare=False, default=())
    _out: dict[str, tuple[str, ...]] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _composites: dict[str, dict[str, str]] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _non_identities: tuple[str, ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )
    _unital: bool | None = field(init=False, repr=False, compare=False, default=None)
    _tree: dict[str, tuple[str, str]] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self):
        self.objects = tuple(sorted(self.objects))
        self._mor_ids = tuple(sorted(self.morphisms))
        hom: dict[tuple[str, str], list[str]] = {}
        for m in self._mor_ids:
            hom.setdefault(self.morphisms[m], []).append(m)
        self._hom = {k: tuple(v) for k, v in hom.items()}

    # -- accessors ---------------------------------------------------------

    def src(self, m: str) -> str:
        return self.morphisms[m][0]

    def tgt(self, m: str) -> str:
        return self.morphisms[m][1]

    def comp(self, g: str, f: str) -> str:
        """The composite g∘f (f first)."""
        return self.compose[(g, f)]

    def inv(self, m: str) -> str:
        return self.inverse[m]

    def ident(self, x: str) -> str:
        return self.identity[x]

    def hom(self, x: str, y: str) -> tuple[str, ...]:
        return self._hom.get((x, y), ())

    def out(self, x: str) -> tuple[str, ...]:
        """The morphisms out of x, by target then ID (the hom-sets of x in
        object order); built on first use."""
        if self._out is None:
            out: dict[str, list[str]] = {y: [] for y in self.objects}
            for s, t in sorted(self._hom, key=lambda st: st[1]):
                out[s].extend(self._hom[(s, t)])
            self._out = {y: tuple(ms) for y, ms in out.items()}
        return self._out[x]

    def non_identities(self) -> tuple[str, ...]:
        """The morphisms that are not identities, in ID order; built on
        first use."""
        if self._non_identities is None:
            self._non_identities = tuple(m for m in self.mor_ids() if not self.is_identity(m))
        return self._non_identities

    def composite_table(self) -> dict[str, dict[str, str]]:
        """``g -> {f: g∘f}``, read as ``table[g]`` for a morphism g.

        Made on first use. A stored ``dict`` compose is split into rows in
        one pass; a :class:`ComputedComposites` gives a table that builds
        row g from ``compose.row(g)`` the first time ``table[g]`` is read,
        so a search that reads a few rows never pays for the rest.
        """
        if self._composites is None:
            compose = self.compose
            if isinstance(compose, ComputedComposites):
                self._composites = _ComputedRows(compose.row)
            else:
                table: dict[str, dict[str, str]] = {m: {} for m in self.morphisms}
                for (g, f), h in compose.items():
                    row = table.get(g)
                    if row is not None:
                        row[f] = h
                self._composites = table
        return self._composites

    def spanning_tree(self) -> dict[str, tuple[str, str]]:
        """``x -> (r, t)``: the root r of x's connected component, its
        least object, and a tree arrow t: r -> x, the identity when x is r
        and otherwise the least morphism of hom(r, x). Built on first use.
        It reads only hom-sets: in a groupoid that obeys the laws, the
        objects r reaches by one morphism are its whole component."""
        if self._tree is None:
            tree: dict[str, tuple[str, str]] = {}
            for r in self.objects:
                if r not in tree:
                    tree[r] = (r, self.identity[r])
                    for m in self.out(r):
                        tree.setdefault(self.morphisms[m][1], (r, m))
            self._tree = tree
        return self._tree

    def roots(self) -> list[str]:
        """The roots of ``spanning_tree``, in object order."""
        return [x for x, (r, _) in self.spanning_tree().items() if x == r]

    def identities_are_units(self) -> bool:
        """Is every identity a distinct endomorphism of its object, its own
        inverse and a two-sided unit? Checked on first use; never raises,
        so a law-breaking groupoid just reads False. Like the functor
        search, it takes ``compose`` to be defined exactly on the
        composable pairs."""
        if self._unital is None:
            self._unital = self._check_units()
        return self._unital

    def _check_units(self) -> bool:
        ident, mor, comp, inv = self.identity, self.morphisms, self.compose, self.inverse
        if set(ident) != set(self.objects) or len(set(ident.values())) != len(ident):
            return False
        for x, i in ident.items():
            if mor.get(i) != (x, x) or inv.get(i) != i:
                return False
        for m, (s, t) in mor.items():
            i, j = ident.get(s), ident.get(t)
            if i is None or j is None:
                return False
            try:
                if comp[(m, i)] != m or comp[(j, m)] != m:
                    return False
            except KeyError:
                return False
        return True

    def is_identity(self, m: str) -> bool:
        s, t = self.morphisms[m]
        return s == t and self.identity.get(s) == m

    def mor_ids(self) -> tuple[str, ...]:
        return self._mor_ids

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_morphisms(self) -> int:
        return len(self.morphisms)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Groupoid({self.n_objects} objects, {self.n_morphisms} morphisms)"


@dataclass
class Functor:
    """A functor between finite groupoids, stored extensionally."""

    dom: Groupoid
    cod: Groupoid
    obj_map: dict[str, str]
    mor_map: dict[str, str]
    _keeps_identities: bool | None = field(init=False, repr=False, compare=False, default=None)
    _to_point: bool | None = field(init=False, repr=False, compare=False, default=None)
    _fibers: dict | None = field(init=False, repr=False, compare=False, default=None)

    def on_obj(self, x: str) -> str:
        return self.obj_map[x]

    def on_mor(self, m: str) -> str:
        return self.mor_map[m]

    def preserves_identities(self) -> bool:
        """Does every identity of dom go to the identity of its object's
        image? Checked on first use; never raises."""
        if self._keeps_identities is None:
            self._keeps_identities = self._check_identities()
        return self._keeps_identities

    def collapses_to_point(self) -> bool:
        """Is cod a point, one object and one morphism, to which every
        object and every morphism of dom goes? Checked on first use; never
        raises."""
        if self._to_point is None:
            self._to_point = self._check_to_point()
        return self._to_point

    def fibers(self) -> dict[str, list[tuple[int, str]]]:
        """``image -> [(position, x), ...]``: the objects x of dom that go
        to each image, with their positions in ``dom.objects``, in that
        order. Built on first use; raises ``KeyError`` if an object of dom
        has no image."""
        if self._fibers is None:
            fibers: dict[str, list[tuple[int, str]]] = {}
            obj_map = self.obj_map
            for pos, x in enumerate(self.dom.objects):
                fibers.setdefault(obj_map[x], []).append((pos, x))
            self._fibers = fibers
        return self._fibers

    def _check_identities(self) -> bool:
        cod_ident, obj_map, mor_map = self.cod.identity, self.obj_map, self.mor_map
        for x, i in self.dom.identity.items():
            j = cod_ident.get(obj_map.get(x))
            if j is None or mor_map.get(i) != j:
                return False
        return True

    def _check_to_point(self) -> bool:
        cod = self.cod
        if len(cod.objects) != 1 or len(cod.morphisms) != 1:
            return False
        (star,), (one,) = cod.objects, cod.morphisms
        obj_map, mor_map = self.obj_map, self.mor_map
        return (all(obj_map.get(x) == star for x in self.dom.objects)
                and all(mor_map.get(m) == one for m in self.dom.morphisms))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Functor({self.dom!r} -> {self.cod!r})"


@dataclass
class FunctorReport:
    """Decidable predicate flags for a functor (see ``classify_functor``)."""

    injective_on_objects: bool
    full: bool
    faithful: bool
    essentially_surjective: bool
    equivalence: bool
    isofibration: bool
    discrete_fibration: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


# -- construction helpers ---------------------------------------------------


def discrete(objects) -> Groupoid:
    objects = tuple(sorted(objects))
    morphisms = {f"id({x})": (x, x) for x in objects}
    identity = {x: f"id({x})" for x in objects}
    compose = {(i, i): i for i in morphisms}
    inverse = {i: i for i in morphisms}
    return Groupoid(objects, morphisms, identity, compose, inverse)


def empty_groupoid() -> Groupoid:
    return discrete(())


def unit() -> Groupoid:
    return discrete(("*",))


def codiscrete(objects) -> Groupoid:
    """Exactly one morphism between each ordered pair of objects."""
    objects = tuple(sorted(objects))

    def mid(x, y):
        return f"id({x})" if x == y else f"iso({x},{y})"

    morphisms = {mid(x, y): (x, y) for x in objects for y in objects}
    identity = {x: mid(x, x) for x in objects}
    compose = {}
    for x in objects:
        for y in objects:
            for z in objects:
                compose[(mid(y, z), mid(x, y))] = mid(x, z)
    inverse = {mid(x, y): mid(y, x) for x in objects for y in objects}
    return Groupoid(objects, morphisms, identity, compose, inverse)


def interval() -> Groupoid:
    """The groupoid with two objects 0, 1 and one isomorphism phi between them."""
    objects = ("0", "1")
    morphisms = {
        "id(0)": ("0", "0"),
        "id(1)": ("1", "1"),
        "phi": ("0", "1"),
        "inv(phi)": ("1", "0"),
    }
    identity = {"0": "id(0)", "1": "id(1)"}
    compose = {}
    for m, (s, t) in morphisms.items():
        compose[(m, identity[s])] = m
        compose[(identity[t], m)] = m
    compose[("inv(phi)", "phi")] = "id(0)"
    compose[("phi", "inv(phi)")] = "id(1)"
    inverse = {"id(0)": "id(0)", "id(1)": "id(1)", "phi": "inv(phi)", "inv(phi)": "phi"}
    return Groupoid(objects, morphisms, identity, compose, inverse)


def identity_functor(G: Groupoid) -> Functor:
    return Functor(G, G, {x: x for x in G.objects}, {m: m for m in G.morphisms})


def compose_functors(g: Functor, f: Functor) -> Functor:
    """The composite g∘f."""
    if g.dom is not f.cod and g.dom != f.cod:
        raise CodomainMismatch("functor composition: cod(f) != dom(g)")
    return Functor(
        f.dom,
        g.cod,
        {x: g.obj_map[y] for x, y in f.obj_map.items()},
        {m: g.mor_map[n] for m, n in f.mor_map.items()},
    )


def functors_equal(f: Functor, g: Functor) -> bool:
    return f.obj_map == g.obj_map and f.mor_map == g.mor_map


def subgroupoid(G: Groupoid, objects, keep=None) -> tuple[Groupoid, Functor]:
    """The subgroupoid on ``objects`` together with its inclusion.

    It holds the morphisms of G between those objects that ``keep``
    accepts (every one when ``keep`` is None: the full subgroupoid).
    ``keep`` must accept the identities and be closed under composition
    and inverses. Every table follows G's order.
    """
    objs = set(objects)
    morphisms = {m: st for m, st in G.morphisms.items()
                 if st[0] in objs and st[1] in objs and (keep is None or keep(m))}
    identity = {x: G.identity[x] for x in sorted(objs)}
    compose = {
        (g, f): h
        for (g, f), h in G.compose.items()
        if g in morphisms and f in morphisms
    }
    inverse = {m: G.inverse[m] for m in morphisms}
    sub = Groupoid(tuple(identity), morphisms, identity, compose, inverse)
    incl = Functor(sub, G, {x: x for x in sub.objects}, {m: m for m in morphisms})
    return sub, incl


# -- validation --------------------------------------------------------------


def validate_groupoid(G: Groupoid) -> list[str]:
    """Check every groupoid law; return one message per violation."""
    problems: list[str] = []
    for m, (s, t) in G.morphisms.items():
        if s not in G.identity or t not in G.identity:
            problems.append(f"morphism {m} has endpoint outside the object set")
    for x in G.objects:
        i = G.identity.get(x)
        if i is None or i not in G.morphisms:
            problems.append(f"object {x} has no identity morphism")
            continue
        if G.morphisms[i] != (x, x):
            problems.append(f"identity {i} of {x} is not an endomorphism of {x}")
    mids = G.mor_ids()
    n_present = 0
    for g in mids:
        for f in mids:
            composable = G.tgt(f) == G.src(g)
            present = (g, f) in G.compose
            n_present += present
            if composable and not present:
                problems.append(f"composite of ({g}, {f}) is missing")
            elif not composable and present:
                problems.append(f"composite of non-composable pair ({g}, {f}) declared")
            elif present:
                h = G.compose[(g, f)]
                if h not in G.morphisms:
                    problems.append(f"composite {h} of ({g}, {f}) is not a morphism")
                elif G.morphisms[h] != (G.src(f), G.tgt(g)):
                    problems.append(f"composite {h} of ({g}, {f}) has wrong endpoints")
    if len(G.compose) > n_present:
        problems += [f"composite of ({g}, {f}) declared, which names a non-morphism"
                     for g, f in G.compose if g not in G.morphisms or f not in G.morphisms]
    if problems:
        return problems  # structure too broken for the law checks below
    for m in mids:
        s, t = G.morphisms[m]
        if G.comp(m, G.ident(s)) != m or G.comp(G.ident(t), m) != m:
            problems.append(f"identity law fails at {m}")
    for h in mids:
        for g in mids:
            if G.tgt(g) != G.src(h):
                continue
            for f in mids:
                if G.tgt(f) != G.src(g):
                    continue
                if G.comp(G.comp(h, g), f) != G.comp(h, G.comp(g, f)):
                    problems.append(f"associativity fails at ({h}, {g}, {f})")
    for m in mids:
        w = G.inverse.get(m)
        if w is None or w not in G.morphisms:
            problems.append(f"morphism {m} has no inverse")
            continue
        s, t = G.morphisms[m]
        if G.morphisms[w] != (t, s):
            problems.append(f"inverse {w} of {m} has wrong endpoints")
        elif G.comp(w, m) != G.ident(s) or G.comp(m, w) != G.ident(t):
            problems.append(f"inverse law fails at {m} (inverse {w})")
    return problems


def _endpoint_problems(F: Functor) -> list[str]:
    """Objects and morphisms that F leaves unmapped, maps outside cod, or
    maps without their endpoints."""
    problems: list[str] = []
    for x in F.dom.objects:
        if x not in F.obj_map:
            problems.append(f"object {x} not mapped")
        elif F.obj_map[x] not in F.cod.identity:
            problems.append(f"object {x} mapped outside the codomain")
    for m, (s, t) in F.dom.morphisms.items():
        n = F.mor_map.get(m)
        if n is None:
            problems.append(f"morphism {m} not mapped")
            continue
        if n not in F.cod.morphisms:
            problems.append(f"morphism {m} mapped outside the codomain")
            continue
        if F.cod.morphisms[n] != (F.obj_map.get(s), F.obj_map.get(t)):
            problems.append(f"morphism {m}: source/target not preserved")
    return problems


def validate_functor(F: Functor) -> list[str]:
    problems = _endpoint_problems(F)
    if problems:
        return problems
    for x in F.dom.objects:
        if F.mor_map[F.dom.ident(x)] != F.cod.ident(F.obj_map[x]):
            problems.append(f"identity of {x} not preserved")
    cod_comp, mor_map = F.cod.compose, F.mor_map
    for (g, f), h in F.dom.compose.items():
        if cod_comp[(mor_map[g], mor_map[f])] != mor_map[h]:
            problems.append(f"composition not preserved at ({g}, {f})")
    return problems


def is_functor(F: Functor) -> bool:
    """Does F preserve endpoints, identities and composites? Decided from
    dom's spanning tree and vertex groups, without walking dom's compose
    table. For m: x -> y with tree arrows t_x, t_y out of the root r,
    g = t_y⁻¹∘m∘t_x lies in Aut(r), and F is a functor iff (a) F is a
    homomorphism on each Aut(r) and (b) F(m) = F(t_y)∘F(g)∘F(t_x)⁻¹ for
    every m: then g(n∘m) = g(n)∘g(m) gives F(n∘m) = F(n)∘F(m). Exact
    when dom and cod obey the groupoid laws (``validate_functor`` makes
    no such assumption); a table that lacks an entry reads False."""
    if _endpoint_problems(F) or not F.preserves_identities():
        return False
    dom, mor_map = F.dom, F.mor_map
    d_comp, c_comp, c_inv = dom.compose, F.cod.compose, F.cod.inverse
    tree = dom.spanning_tree()
    try:
        for r in dom.roots():  # (a)
            aut = dom.hom(r, r)
            for g in aut:
                Fg = mor_map[g]
                for f in aut:
                    if c_comp[(Fg, mor_map[f])] != mor_map[d_comp[(g, f)]]:
                        return False
        legs = {}  # x -> (t_x, t_x⁻¹, F(t_x), F(t_x)⁻¹)
        for x, (_, t) in tree.items():
            Ft = mor_map[t]
            legs[x] = (t, dom.inverse[t], Ft, c_inv[Ft])
        for m, (x, y) in dom.morphisms.items():  # (b)
            tx, _, _, Ftx_inv = legs[x]
            _, ty_inv, Fty, _ = legs[y]
            g = d_comp[(ty_inv, d_comp[(m, tx)])]
            if c_comp[(Fty, c_comp[(mor_map[g], Ftx_inv)])] != mor_map[m]:
                return False
    except KeyError:
        return False
    return True


def require_valid_functor(F: Functor) -> None:
    """Raise ``MalformedFunctor`` unless F is a functor. The verdict is
    :func:`is_functor`'s, exact when dom and cod obey the groupoid laws;
    the message lists the problems ``validate_functor`` finds."""
    if not is_functor(F):
        problems = validate_functor(F)
        if problems:
            raise MalformedFunctor("; ".join(problems))


# -- predicates --------------------------------------------------------------


def lifts_of(F: Functor, h: str, x: str) -> list[str]:
    """All morphisms of dom(F) with source ``x`` mapping to ``h``."""
    return [m for m in sorted(F.dom.out(x)) if F.mor_map[m] == h]


def lift_census(F: Functor) -> tuple[bool, bool]:
    """``(isofibration, discrete_fibration)``: does every morphism out of
    F(x) have a lift out of x, and exactly one? A tree arrow t: r -> x
    turns the lifts out of r into those out of x (m -> m∘t⁻¹), so the
    census at the roots of dom's spanning tree decides both flags. F must
    be a functor between groupoids that obey the laws (unchecked here)."""
    discrete_fib = True
    for r in F.dom.roots():
        images = [F.mor_map[m] for m in F.dom.out(r)]
        n_out = len(F.cod.out(F.obj_map[r]))
        if len(set(images)) != n_out:
            return False, False
        discrete_fib = discrete_fib and len(images) == n_out
    return True, discrete_fib


def classify_functor(F: Functor) -> FunctorReport:
    """Decide the standard predicate flags of a functor by enumeration.

    Precondition: dom and cod obey the groupoid laws, as every groupoid
    the package builds does, and every groupoid of a document that
    ``cli.merged_document`` accepts (it rejects law-breaking ones). Under
    it, F is checked to be a functor (``require_valid_functor``) from
    dom's spanning tree and vertex groups, and full and faithful are
    decided per component: F is faithful iff it is injective on each
    vertex group Aut(r), and full iff it maps each Aut(r) onto Aut(F r)
    and sends distinct components of dom into distinct components of
    cod. It is essentially surjective iff it meets every component of
    cod. The fibration flags are :func:`lift_census`'s.
    On other input the flags mean nothing.
    """
    require_valid_functor(F)
    G, H = F.dom, F.cod
    obj_map, mor_map = F.obj_map, F.mor_map

    inj = len(set(obj_map.values())) == len(obj_map)

    roots = G.roots()
    full = True
    faithful = True
    for r in roots:
        images = {mor_map[m] for m in G.hom(r, r)}
        if len(images) != len(G.hom(r, r)):
            faithful = False
        if len(images) != len(H.hom(obj_map[r], obj_map[r])):
            full = False
    cod_tree = H.spanning_tree()
    hit = {cod_tree[obj_map[r]][0] for r in roots}  # the components F meets
    full = full and len(hit) == len(roots)
    ess = len(hit) == len(H.roots())
    isofib, discrete_fib = lift_census(F)

    return FunctorReport(
        injective_on_objects=inj,
        full=full,
        faithful=faithful,
        essentially_surjective=ess,
        equivalence=full and faithful and ess,
        isofibration=isofib,
        discrete_fibration=discrete_fib,
    )


# -- finite (co)limits --------------------------------------------------------


def pair_id(a: str, b: str) -> str:
    return f"({a},{b})"


def indexed_pair_id(index: Mapping[str, Mapping[str, str]], a: str, b: str) -> str:
    """The ID that a pair index ``{a: {b: ID of (a, b)}}`` holds for (a,
    b), or a new ``pair_id(a, b)`` when it holds none: a pullback or
    pairing of maps that are not functors names pairs it does not have."""
    try:
        return index[a][b]
    except KeyError:
        return pair_id(a, b)


def _pair_cells(a_cells, b_cells, f_map: dict[str, str], g_map: dict[str, str]):
    """The pairs (a, b) with f(a) = g(b), in ``a_cells`` then ``b_cells``
    order: their index ``{a: {b: ID of (a, b)}}`` and the projections
    ``{ID: a}`` and ``{ID: b}``. Two pairs must not share an ID."""
    match: dict[str, list[str]] = {}
    for b in b_cells:
        match.setdefault(g_map[b], []).append(b)
    index, pr_a, pr_b = {}, {}, {}
    for a in a_cells:
        row = index[a] = {}
        for b in match.get(f_map[a], ()):
            p = row[b] = pair_id(a, b)
            pr_a[p], pr_b[p] = a, b
    n_pairs = sum(map(len, index.values()))
    if len(pr_a) != n_pairs:
        raise MalformedDocument(f"pullback: {n_pairs - len(pr_a)} pair ID(s) name more than one "
                                "pair (an object or morphism name contains ',' or parentheses)")
    return index, pr_a, pr_b


def terminal_functor(G: Groupoid, point: Groupoid) -> Functor:
    """The unique functor from G to ``point``, whose one object is ``*``."""
    return Functor(G, point, {x: "*" for x in G.objects}, {m: "id(*)" for m in G.morphisms})


def binary_product(G: Groupoid, H: Groupoid) -> tuple[Groupoid, Functor, Functor]:
    """G × H: the pullback of the two functors to the point."""
    point = unit()
    return pullback(terminal_functor(G, point), terminal_functor(H, point))


def coproduct(G: Groupoid, H: Groupoid) -> tuple[Groupoid, Functor, Functor]:
    def l(x):
        return f"l:{x}"

    def r(x):
        return f"r:{x}"

    objects = tuple(sorted([l(x) for x in G.objects] + [r(x) for x in H.objects]))
    morphisms = {}
    for m, (s, t) in G.morphisms.items():
        morphisms[l(m)] = (l(s), l(t))
    for m, (s, t) in H.morphisms.items():
        morphisms[r(m)] = (r(s), r(t))
    identity = {l(x): l(G.identity[x]) for x in G.objects}
    identity.update({r(x): r(H.identity[x]) for x in H.objects})
    compose = {(l(g), l(f)): l(h) for (g, f), h in G.compose.items()}
    compose.update({(r(g), r(f)): r(h) for (g, f), h in H.compose.items()})
    inverse = {l(m): l(w) for m, w in G.inverse.items()}
    inverse.update({r(m): r(w) for m, w in H.inverse.items()})
    C = Groupoid(objects, morphisms, identity, compose, inverse)
    inl = Functor(G, C, {x: l(x) for x in G.objects}, {m: l(m) for m in G.morphisms})
    inr = Functor(H, C, {x: r(x) for x in H.objects}, {m: r(m) for m in H.morphisms})
    return C, inl, inr


class ComputedComposites(Mapping):
    """A compose table computed from other tables instead of stored.

    ``[(g, f)]`` computes g∘f and raises ``KeyError`` unless tgt(f) ==
    src(g); ``get`` and ``in`` follow. ``row(g)`` is ``{f: g∘f}`` over
    every f composable with g, which the functor search reads through
    ``Groupoid.composite_table``. A full walk (iteration, ``len``,
    ``items``, ``dict(table.items())``, equality) reads the row of each
    morphism once, in the order given to ``__init__``, and stores
    nothing; ``dict(table)`` itself takes the keys and then looks each one
    up, as Python's ``dict`` does for any ``Mapping``. Every composite is
    the ID the groupoid's ``morphisms`` holds, not an equal copy, and a
    row holds no strings of its own. A table supplies ``__getitem__`` and
    ``row``.
    """

    __slots__ = ("_order",)

    def __init__(self, order: Collection[str]):
        self._order = order

    @abstractmethod
    def row(self, g: str) -> dict[str, str]: ...

    def __iter__(self):
        for g in self._order:
            for f in self.row(g):
                yield g, f

    def __len__(self) -> int:
        return sum(len(self.row(g)) for g in self._order)

    def items(self) -> ItemsView:
        return _RowItems(self)


class _RowItems(ItemsView):
    """A computed table's ``items()``: ``((g, f), g∘f)`` read off each row
    once, with no lookup per key."""

    __slots__ = ()

    def __iter__(self):
        table = self._mapping
        for g in table._order:
            for f, h in table.row(g).items():
                yield (g, f), h


class _ComputedRows(dict):
    """A computed table's ``g -> {f: g∘f}``: a row is built from
    ``row(g)`` the first time it is read. It holds the table's bound
    ``row``, not the groupoid, so it forms no reference cycle."""

    __slots__ = ("_row",)

    def __init__(self, row):
        super().__init__()
        self._row = row

    def __missing__(self, g: str) -> dict[str, str]:
        row = self[g] = self._row(g)
        return row


class _PairComposites(ComputedComposites):
    """The compose table of a pullback, read off its two factors A and B.

    It keeps the pullback's pair indexes (:func:`pair_cells`) and its
    projections' morphism maps, which decode a pair ID. Every composite it
    returns is read from ``mor_index``: ``[(p1, p2)]`` looks up the pair of
    the factors' composites, and ``row(p1)`` pairs the factors' rows
    (``composite_table``) for every p2 into src(p1), in morphism order.
    """

    __slots__ = ("_morphisms", "_A", "_B", "_pr1", "_pr2", "_by_tgt", "obj_index", "mor_index")

    def __init__(self, morphisms: dict[str, tuple[str, str]], A: Groupoid, B: Groupoid,
                 pr1: dict[str, str], pr2: dict[str, str],
                 obj_index: dict[str, dict[str, str]], mor_index: dict[str, dict[str, str]]):
        super().__init__(morphisms)
        self._morphisms, self._A, self._B = morphisms, A, B
        self._pr1, self._pr2 = pr1, pr2
        self.obj_index, self.mor_index = obj_index, mor_index
        self._by_tgt: dict[str, list[tuple[str, str, str]]] | None = None

    def __getitem__(self, key) -> str:
        try:
            p1, p2 = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        morphisms = self._morphisms
        if p1 in morphisms and p2 in morphisms and morphisms[p2][1] == morphisms[p1][0]:
            pr1, pr2 = self._pr1, self._pr2
            return indexed_pair_id(self.mor_index, self._A.compose[(pr1[p1], pr1[p2])],
                                   self._B.compose[(pr2[p1], pr2[p2])])
        raise KeyError(key)

    def row(self, p1: str) -> dict[str, str]:
        by_tgt = self._by_tgt
        if by_tgt is None:
            by_tgt = self._by_tgt = {}
            for (p, (_, t)), m, n in zip(self._morphisms.items(), self._pr1.values(),
                                         self._pr2.values()):
                by_tgt.setdefault(t, []).append((p, m, n))
        a_row = self._A.composite_table()[self._pr1[p1]]
        b_row = self._B.composite_table()[self._pr2[p1]]
        ids = self.mor_index
        return {p2: indexed_pair_id(ids, a_row[m2], b_row[n2])
                for p2, m2, n2 in by_tgt.get(self._morphisms[p1][0], ())}


def pair_cells(P: Groupoid) -> tuple[Mapping, Mapping]:
    """A pullback's pair indexes ``(obj_index, mor_index)``, each ``{a: {b:
    ID of (a, b)}}``, read with :func:`indexed_pair_id`; any other groupoid
    has empty ones, so its pairs are named with :func:`pair_id`."""
    compose = P.compose
    if isinstance(compose, _PairComposites):
        return compose.obj_index, compose.mor_index
    return {}, {}


def pullback(f: Functor, g: Functor) -> tuple[Groupoid, Functor, Functor]:
    """The pullback of ``f`` and ``g`` over their shared codomain.

    Each cell is kept once: its ID is made once, in the pair indexes
    (:func:`pair_cells`), and the projections' maps decode it; endpoints,
    identities, inverses and composites are read from the indexes.
    """
    if f.cod != g.cod:
        raise CodomainMismatch("pullback needs a shared codomain")
    A, B = f.dom, g.dom
    obj_index, obj_a, obj_b = _pair_cells(A.objects, B.objects, f.obj_map, g.obj_map)
    mor_index, mor_a, mor_b = _pair_cells(A.mor_ids(), B.mor_ids(), f.mor_map, g.mor_map)
    A_mor, B_mor = A.morphisms, B.morphisms
    morphisms: dict[str, tuple[str, str]] = {}
    for (p, m), n in zip(mor_a.items(), mor_b.values()):
        (sm, tm), (sn, tn) = A_mor[m], B_mor[n]
        morphisms[p] = (indexed_pair_id(obj_index, sm, sn), indexed_pair_id(obj_index, tm, tn))
    identity = {o: indexed_pair_id(mor_index, A.identity[x], B.identity[y])
                for (o, x), y in zip(obj_a.items(), obj_b.values())}
    compose = _PairComposites(morphisms, A, B, mor_a, mor_b, obj_index, mor_index)
    inverse = {p: indexed_pair_id(mor_index, A.inv(m), B.inv(n))
               for (p, m), n in zip(mor_a.items(), mor_b.values())}
    P = Groupoid(tuple(obj_a), morphisms, identity, compose, inverse)
    return P, Functor(P, A, obj_a, mor_a), Functor(P, B, obj_b, mor_b)


def pairing(f: Functor, g: Functor, product: Groupoid) -> Functor:
    """The functor <f, g> into a product (or pullback). Into a pullback it
    maps to the pair IDs the pullback stores (:func:`pair_cells`); into
    any other product it names pairs with ``pair_id``."""
    if f.dom != g.dom:
        raise CodomainMismatch("pairing needs a shared domain")
    obj_index, mor_index = pair_cells(product)
    obj_map = {x: indexed_pair_id(obj_index, f.obj_map[x], g.obj_map[x]) for x in f.dom.objects}
    mor_map = {m: indexed_pair_id(mor_index, f.mor_map[m], g.mor_map[m])
               for m in f.dom.morphisms}
    for o in obj_map.values():
        if o not in product.identity:
            raise CodomainMismatch("pairing does not land in the given product")
    return Functor(f.dom, product, obj_map, mor_map)
