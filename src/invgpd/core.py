"""Finite groupoids and functors, with a decidable predicate suite.

Everything is enumerated explicitly: a :class:`Groupoid` has full
composition, identity and inverse tables (the composition tables of
pullbacks and cell attachments are computed, see below), so every
predicate downstream (equivalence, isofibration, lifting, ...) is decided
by finite search.
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
* Derived indexes (a groupoid's hom-sets, the morphisms out of each
  object, its non-identity morphisms in ID order, its per-morphism
  composite table and whether its identities obey the unit laws; whether
  a functor preserves identities) are built once per value and cached on
  it. That is sound only because values are immutable after construction:
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
  share an ID; the construction then raises ``MalformedDocument``.
* The ``compose`` of a pullback, and of a cell attachment
  (``equivariant.attach_cells``), is a :class:`ComputedComposites`: a
  read-only ``Mapping`` that computes each composite from the tables it
  was built from when it is looked up, and computes them all again on
  each full walk (iteration, ``len``, ``items``, ``dict(...)``,
  equality). Its IDs and contents are those of the all-pairs table. The
  functor search reads composites by rows (``composite_table``), and a
  computed table builds each row the first time it is read, so a reader
  that looks up a few composites, or a search that reads a few rows,
  never pays for the rest.
"""

from __future__ import annotations

from abc import abstractmethod
from collections.abc import Collection, Mapping
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
                  ComputedComposites, as pullbacks and cell attachments
                  have, computes each composite on lookup and each row
                  of ``composite_table`` when it is first read)
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

    def __post_init__(self):
        self.objects = tuple(sorted(self.objects))
        hom: dict[tuple[str, str], list[str]] = {}
        for m in sorted(self.morphisms):
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
        return tuple(sorted(self.morphisms))

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

    def _check_identities(self) -> bool:
        cod_ident, obj_map, mor_map = self.cod.identity, self.obj_map, self.mor_map
        for x, i in self.dom.identity.items():
            j = cod_ident.get(obj_map.get(x))
            if j is None or mor_map.get(i) != j:
                return False
        return True

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
    for g in mids:
        for f in mids:
            composable = G.tgt(f) == G.src(g)
            present = (g, f) in G.compose
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


def validate_functor(F: Functor) -> list[str]:
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


def require_valid_functor(F: Functor) -> None:
    problems = validate_functor(F)
    if problems:
        raise MalformedFunctor("; ".join(problems))


# -- predicates --------------------------------------------------------------


def lifts_of(F: Functor, h: str, x: str) -> list[str]:
    """All morphisms of dom(F) with source ``x`` mapping to ``h``."""
    return [m for m in sorted(F.dom.out(x)) if F.mor_map[m] == h]


def classify_functor(F: Functor) -> FunctorReport:
    """Decide the standard predicate flags of a functor by enumeration."""
    require_valid_functor(F)
    G, H = F.dom, F.cod

    inj = len(set(F.obj_map.values())) == len(F.obj_map)

    full = True
    faithful = True
    for x in G.objects:
        for y in G.objects:
            images = [F.mor_map[m] for m in G.hom(x, y)]
            if len(set(images)) != len(images):
                faithful = False
            target = H.hom(F.obj_map[x], F.obj_map[y])
            if not set(target) <= set(images):
                full = False

    fiber: dict[str, list[str]] = {}
    for x in G.objects:
        fiber.setdefault(F.obj_map[x], []).append(x)

    ess = all(
        any(H.hom(F.obj_map[x], c) for x in G.objects) for c in H.objects
    )

    lift_count: dict[tuple[str, str], int] = {}
    for m in G.mor_ids():
        key = (G.src(m), F.mor_map[m])
        lift_count[key] = lift_count.get(key, 0) + 1

    isofib = True
    discrete_fib = True
    for h in H.mor_ids():
        for x in fiber.get(H.src(h), ()):
            n = lift_count.get((x, h), 0)
            if n == 0:
                isofib = False
                discrete_fib = False
            elif n > 1:
                discrete_fib = False

    return FunctorReport(
        injective_on_objects=inj,
        full=full,
        faithful=faithful,
        essentially_surjective=ess,
        equivalence=full and faithful and ess,
        isofibration=isofib,
        discrete_fibration=isofib and discrete_fib,
    )


# -- finite (co)limits --------------------------------------------------------


def pair_id(a: str, b: str) -> str:
    return f"({a},{b})"


def _require_distinct_ids(n_ids: int, n_pairs: int) -> None:
    """Pair IDs are labels: two component pairs must not share one."""
    if n_ids != n_pairs:
        raise MalformedDocument(
            f"pullback: {n_pairs - n_ids} pair ID(s) name more than one pair "
            "(an object or morphism name contains ',' or parentheses)"
        )


def terminal_functor(G: Groupoid, point: Groupoid | None = None) -> Functor:
    """The unique functor from G to the point (``unit()`` unless given)."""
    if point is None:
        point = unit()
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
    ``items``, ``dict(...)``, equality) reads the row of each morphism,
    in the order given to ``__init__``, and stores nothing. A table
    supplies ``__getitem__`` and ``row``.
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
    """The compose table of a pullback, read off its two factors.

    ``[(p1, p2)]`` decodes both pair IDs and pairs the factors'
    composites. ``row(p1)`` pairs them for every p2 into src(p1), in
    morphism order.
    """

    __slots__ = ("_pairs", "_morphisms", "_a_comp", "_b_comp", "_by_tgt")

    def __init__(self, pairs: dict[str, tuple[str, str]],
                 morphisms: dict[str, tuple[str, str]],
                 a_comp: Mapping[tuple[str, str], str],
                 b_comp: Mapping[tuple[str, str], str]):
        super().__init__(pairs)
        self._pairs, self._morphisms = pairs, morphisms
        self._a_comp, self._b_comp = a_comp, b_comp
        self._by_tgt: dict[str, list[tuple[str, str, str]]] | None = None

    def __getitem__(self, key) -> str:
        try:
            p1, p2 = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        pairs, morphisms = self._pairs, self._morphisms
        if p1 in pairs and p2 in pairs and morphisms[p2][1] == morphisms[p1][0]:
            (m1, n1), (m2, n2) = pairs[p1], pairs[p2]
            return pair_id(self._a_comp[(m1, m2)], self._b_comp[(n1, n2)])
        raise KeyError(key)

    def row(self, p1: str) -> dict[str, str]:
        by_tgt = self._by_tgt
        if by_tgt is None:
            by_tgt = self._by_tgt = {}
            morphisms = self._morphisms
            for p, (m, n) in self._pairs.items():
                by_tgt.setdefault(morphisms[p][1], []).append((p, m, n))
        m1, n1 = self._pairs[p1]
        A_comp, B_comp = self._a_comp, self._b_comp
        return {p2: pair_id(A_comp[(m1, m2)], B_comp[(n1, n2)])
                for p2, m2, n2 in by_tgt.get(self._morphisms[p1][0], ())}


def pullback(f: Functor, g: Functor) -> tuple[Groupoid, Functor, Functor]:
    """The pullback of ``f`` and ``g`` over their shared codomain."""
    if f.cod != g.cod:
        raise CodomainMismatch("pullback needs a shared codomain")
    A, B = f.dom, g.dom
    obj_match: dict[str, list[str]] = {}
    for y in B.objects:
        obj_match.setdefault(g.obj_map[y], []).append(y)
    obj_pairs = {
        pair_id(x, y): (x, y) for x in A.objects for y in obj_match.get(f.obj_map[x], ())
    }
    _require_distinct_ids(len(obj_pairs),
                          sum(len(obj_match.get(f.obj_map[x], ())) for x in A.objects))
    mor_match: dict[str, list[str]] = {}
    for n in B.mor_ids():
        mor_match.setdefault(g.mor_map[n], []).append(n)
    mids = A.mor_ids()
    mor_pairs = {
        pair_id(m, n): (m, n) for m in mids for n in mor_match.get(f.mor_map[m], ())
    }
    _require_distinct_ids(len(mor_pairs),
                          sum(len(mor_match.get(f.mor_map[m], ())) for m in mids))
    A_mor, B_mor = A.morphisms, B.morphisms
    morphisms: dict[str, tuple[str, str]] = {}
    for p, (m, n) in mor_pairs.items():
        (sm, tm), (sn, tn) = A_mor[m], B_mor[n]
        morphisms[p] = (pair_id(sm, sn), pair_id(tm, tn))
    identity = {o: pair_id(A.identity[x], B.identity[y]) for o, (x, y) in obj_pairs.items()}
    compose = _PairComposites(mor_pairs, morphisms, A.compose, B.compose)
    inverse = {p: pair_id(A.inv(m), B.inv(n)) for p, (m, n) in mor_pairs.items()}
    P = Groupoid(tuple(obj_pairs), morphisms, identity, compose, inverse)
    pr1 = Functor(P, A, {o: x for o, (x, _) in obj_pairs.items()},
                  {p: m for p, (m, _) in mor_pairs.items()})
    pr2 = Functor(P, B, {o: y for o, (_, y) in obj_pairs.items()},
                  {p: n for p, (_, n) in mor_pairs.items()})
    return P, pr1, pr2


def pairing(f: Functor, g: Functor, product: Groupoid) -> Functor:
    """The functor <f, g> into a product (or pullback) built from pair IDs."""
    if f.dom != g.dom:
        raise CodomainMismatch("pairing needs a shared domain")
    obj_map = {x: pair_id(f.obj_map[x], g.obj_map[x]) for x in f.dom.objects}
    mor_map = {m: pair_id(f.mor_map[m], g.mor_map[m]) for m in f.dom.morphisms}
    for o in obj_map.values():
        if o not in product.identity:
            raise CodomainMismatch("pairing does not land in the given product")
    return Functor(f.dom, product, obj_map, mor_map)
