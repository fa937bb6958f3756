"""Constrained backtracking search for functors between finite groupoids.

This is the engine behind lifting problems, slice-hom enumeration,
homotopy search, section enumeration and isomorphism search. It
enumerates functors ``F: dom -> cod`` subject to optional constraints:

* ``obj_seed`` / ``mor_seed``  -- pinned partial assignments,
* ``post = (q, r)``            -- a post-composition equation ``q∘F = r``
                                  (q.dom is cod, r.dom is dom),
* ``equiv = (ed, ec)``         -- an equivariance equation ``F∘ed = ec∘F``.

Isomorphisms and involutions are not a constraint of the search: their
callers seed each object bijection (``find_isomorphism`` below) or each
object involution (``generators.involutions_of``) and filter what it
yields.

Assignments are explored in sorted ID order (objects first, then
morphisms) and every derived consequence (identities, inverses,
composites, equivariance partners) is propagated immediately, so results
come out in a stable lexicographic order and "first found" is a
well-defined least witness.

Budget: one unit per object or morphism assignment tried (including one
that only confirms an existing image), per candidate morphism and per
queued morphism that ``propagate`` processes. Two stretches never yield,
so they count their units in a local int and charge them once, when they
end: ``seed_morphism_stage`` (identities and ``mor_seed``) and
``propagate``. Under ``post``, ``solve_obj`` walks only the fiber of q over
the image that r asks for (``Functor.fibers``, in cod's object order) and
charges the candidates it skips, one unit each as the ``post`` object
check would, in bulk: those before a fiber object when it tries that
object, and those after the last at the end of its loop, never across a
``yield``. Because a bulk ``Budget.spend(n)`` stops at the same unit as
``n`` single spends, and nothing is yielded in between, the functors
yielded before ``BudgetExceeded`` and the final ``budget.used`` are
exactly those of charging every unit as it is spent.

Identity pops are charged, not walked. The seed stage maps every identity
of dom before any other morphism and the queue is LIFO, so the identities'
pops come last, after all other propagation, and each only confirms
images already mapped: together they charge exactly

    |dom objects| * (2 + [equiv given]) + 2 * |mmap|

(two units for the pop and its inverse, one for the equivariance partner,
and one per mapped morphism at its source and one at its target). When
that holds, the identities are assigned but not queued and the sum is
charged once the other pops succeed. It needs every ``identity[x]`` of dom
and cod to be a distinct endomorphism of x, its own inverse and a
two-sided unit (``Groupoid.identities_are_units``), and ``ed``/``ec`` to be endofunctors
of dom/cod that send identities to identities. Otherwise the identities
are queued and walked like any other morphism.

Under the same conditions the identities are not walked as partners
either. They are then never queued, and every other morphism is mapped
after them, so every pop is a non-identity m and the identities are the
first |dom objects| entries of ``mmap`` (they are on the seed stage's
trail, which is undone after every later one). Of those, exactly two
compose with m: ``id(src m)`` on one side and ``id(tgt m)`` on the other
(one identity twice when m is an endomorphism). By the unit laws both
composites are m, and both images' composites are m's image, so they
never fail and never assign: each pop charges their 2 units and walks
only the mapped morphisms after the identity prefix, a slice of
``mapped`` (``mmap``'s items in insertion order). Otherwise each pop
walks every mapped morphism. In either case the seed stage maps the
identities in one pass, checking each as ``assign_mor`` would (endpoints
and ``post``) at one unit per identity, before it seeds ``mor_seed``.

Dead leaves are charged, not walked, in searches without ``post`` whose
identities are charged. At each leaf (a full object map) the seed stage
runs again before ``solve_mor(0)``. Suppose the first leaf's stage
succeeded and every non-identity on its trail, and every key
of ``mor_seed``, has both ends among the objects mapped before
``solve_obj(0)``, whose images never change. Then every later stage
repeats it: the identity pass cannot fail on a cod whose identities are
units and costs one unit per object, and every other step reads only the
images of those objects (by the groupoid laws the trail's inverses,
partners and composites have their ends among its ends). So it assigns
the same trail and spends the same units. When the hom-set between the
images of the ends of the first morphism of ``mor_order`` off that trail
is empty, ``solve_mor(0)`` then spends and yields nothing: the leaf is
dead, and the search charges it the first stage's units in one lump. The
second leaf works this out from the first stage's trail, so a one-leaf
search pays nothing for it. Under ``post`` a q or r that breaks the laws
can fail the identity pass at some leaves only, and filler searches
reach too few leaves to repay the set-up, so the rule is off there,
except under a post into the point, which the search drops (below).

A post into the point is no constraint, and the search drops it. That
holds when ``q.dom is cod``, ``r.dom is dom`` and ``q.cod is r.cod``, and
q and r send every object and every morphism of their domains to the one
object and the one morphism of that codomain
(``Functor.collapses_to_point``). Then every ``post`` read compares that
object, or that morphism, with itself: the object check in ``set_obj``,
the morphism checks in ``assign_mor``, the seed stage's identity pass and
``solve_mor``, and ``solve_obj``'s fiber of q over r(x), which is all of
cod's objects in cod's order. No unit depends on them. ``set_obj``
spends its unit before its checks; the seed stage and ``propagate``
count one unit per assignment tried, whether or not it is made;
``solve_mor`` spends a candidate's second unit only when the check
passes, which it always does; and the fiber skips no candidate, so
``solve_obj`` charges nothing in bulk. The search without ``post``
therefore yields the same functors, in the same order, and spends the
same units at the same points, so it runs instead. Being a search
without ``post``, it charges its dead leaves, and the argument above
holds for it as it stands. Posts that are partial or break the laws, and
points with more than one morphism, keep the generic path.
"""

from __future__ import annotations

from typing import Iterator

from .budget import Budget, ensure_budget
from .core import Functor, Groupoid


def iter_functors(
    dom: Groupoid,
    cod: Groupoid,
    *,
    obj_seed: dict[str, str] | None = None,
    mor_seed: dict[str, str] | None = None,
    post: tuple[Functor, Functor] | None = None,
    equiv: tuple[Functor, Functor] | None = None,
    budget: Budget | int | None = None,
) -> Iterator[Functor]:
    budget = ensure_budget(budget)
    q, r = post if post is not None else (None, None)
    # a post into the point rejects nothing (module docstring)
    if (q is not None and q.dom is cod and r.dom is dom and q.cod is r.cod
            and q.collapses_to_point() and r.collapses_to_point()):
        q = r = None
    ed, ec = equiv if equiv is not None else (None, None)

    omap: dict[str, str] = {}
    mmap: dict[str, str] = {}
    # mmap's items in insertion order, cut back with it by undo_mor; the
    # walk in propagate reads its slices
    mapped: list[tuple[str, str]] = []

    dom_mor, dom_inv, cod_mor, cod_inv = dom.morphisms, dom.inverse, cod.morphisms, cod.inverse
    dom_ident, cod_ident = dom.identity, cod.identity
    q_mor, r_mor = (q.mor_map, r.mor_map) if q is not None else (None, None)
    ed_mor, ec_mor = (ed.mor_map, ec.mor_map) if ed is not None else (None, None)

    # set at the first seed stage, which many searches never reach: the
    # composite tables (a computed compose builds each row the first time
    # it is read, so only the rows the search reads are built), and whether
    # identities are charged, not walked (they only confirm images when the
    # unit laws hold; module docstring). When they are, each pop's walk
    # skips the identity prefix of ``mapped`` and charges its two identity
    # partners instead.
    dom_after = cod_after = None
    charge_identities = False
    identity_units = dom.n_objects * (2 if ed is None else 3)
    skip = partner_units = 0

    obj_order = dom.objects
    mor_order = dom.non_identities()

    # the dead-leaf rule (module docstring): the first leaf keeps its
    # stage's trail and units, and the second sets ``probe`` from them
    first_leaf = q is None
    cod_hom = cod.hom
    first_stage: list[str] | None = None
    probe: tuple[str, str] | None = None
    stage_units = 0

    def set_obj(x: str, c: str, trail: list[str]) -> bool:
        budget.spend()
        if x in omap:
            return omap[x] == c
        if c not in cod.identity:
            return False
        if q is not None and q.obj_map[c] != r.obj_map[x]:
            return False
        omap[x] = c
        trail.append(x)
        if ed is not None:
            return set_obj(ed.obj_map[x], ec.obj_map[c], trail)
        return True

    def undo_obj(trail: list[str]) -> None:
        for x in trail:
            del omap[x]

    def assign_mor(m: str, n: str, trail: list[str], queue: list[str]) -> bool:
        """Map the unmapped ``m`` to ``n`` if the constraints allow it."""
        s, t = dom_mor[m]
        if cod_mor.get(n) != (omap[s], omap[t]):
            return False
        if q is not None and q_mor[n] != r_mor[m]:
            return False
        mmap[m] = n
        mapped.append((m, n))
        trail.append(m)
        queue.append(m)
        return True

    def undo_mor(trail: list[str]) -> None:
        for m in trail:
            del mmap[m]
        # the trail holds the last len(trail) assignments
        del mapped[len(mapped) - len(trail):]

    # propagate and seed_morphism_stage never yield: they count one unit per
    # queued morphism and per assignment tried, as solve_mor spends on each
    # candidate it assigns, and charge the count once (see the module docstring)
    def propagate(queue: list[str], trail: list[str]) -> bool:
        units = 0
        try:
            while queue:
                m = queue.pop()
                n = mmap[m]
                units += 2
                x, y = dom_inv[m], cod_inv[n]
                w = mmap.get(x)
                if w is None:
                    if not assign_mor(x, y, trail, queue):
                        return False
                elif w != y:
                    return False
                if ed is not None:
                    units += 1
                    x, y = ed_mor[m], ec_mor[n]
                    w = mmap.get(x)
                    if w is None:
                        if not assign_mor(x, y, trail, queue):
                            return False
                    elif w != y:
                        return False
                # the identity partners, when charged (module docstring)
                units += partner_units
                # a composite table row holds exactly the composable
                # partners, so a lookup both tests composability and finds
                # the composite
                m_after, n_after = dom_after[m], cod_after[n]
                for k, v in mapped[skip:]:
                    x = m_after.get(k)
                    if x is not None:
                        units += 1
                        y = n_after[v]
                        w = mmap.get(x)
                        if w is None:
                            if not assign_mor(x, y, trail, queue):
                                return False
                        elif w != y:
                            return False
                    x = dom_after[k].get(m)
                    if x is not None:
                        units += 1
                        y = cod_after[v][n]
                        w = mmap.get(x)
                        if w is None:
                            if not assign_mor(x, y, trail, queue):
                                return False
                        elif w != y:
                            return False
            return True
        finally:
            budget.spend(units)

    def seed_morphism_stage(trail: list[str]) -> bool:
        nonlocal dom_after, cod_after, charge_identities, skip, partner_units
        if dom_after is None:
            dom_after, cod_after = dom.composite_table(), cod.composite_table()
            charge_identities = (
                dom.identities_are_units() and cod.identities_are_units()
                and (ed is None or (ed.dom is dom is ed.cod and ec.dom is cod is ec.cod
                                    and ed.preserves_identities()
                                    and ec.preserves_identities()))
            )
            if charge_identities:
                skip, partner_units = dom.n_objects, 2
        queue: list[str] = []
        units = 0
        try:
            # the identities in one pass, each checked and mapped as
            # assign_mor would; when they are charged, not walked, they are
            # not queued (see the module docstring)
            for x in obj_order:
                units += 1
                m, n = dom_ident[x], cod_ident[omap[x]]
                w = mmap.get(m)
                if w is not None:
                    if w != n:
                        return False
                    continue
                s, t = dom_mor[m]
                if cod_mor.get(n) != (omap[s], omap[t]):
                    return False
                if q is not None and q_mor[n] != r_mor[m]:
                    return False
                mmap[m] = n
                mapped.append((m, n))
                trail.append(m)
                if not charge_identities:
                    queue.append(m)
            if mor_seed:
                for m, n in mor_seed.items():
                    units += 1
                    w = mmap.get(m)
                    if w is None:
                        if not assign_mor(m, n, trail, queue):
                            return False
                    elif w != n:
                        return False
        finally:
            budget.spend(units)
        if not propagate(queue, trail):
            return False
        if charge_identities:
            budget.spend(identity_units + 2 * len(mmap))
        return True

    def solve_mor(i: int) -> Iterator[Functor]:
        while i < len(mor_order) and mor_order[i] in mmap:
            i += 1
        if i == len(mor_order):
            yield Functor(dom, cod, dict(omap), dict(mmap))
            return
        m = mor_order[i]
        s, t = dom_mor[m]
        for n in cod.hom(omap[s], omap[t]):
            budget.spend()
            if q is not None and q_mor[n] != r_mor[m]:
                continue
            budget.spend()
            trail: list[str] = []
            queue: list[str] = []
            if assign_mor(m, n, trail, queue) and propagate(queue, trail):
                yield from solve_mor(i + 1)
            undo_mor(trail)

    def solve_obj(i: int) -> Iterator[Functor]:
        nonlocal first_leaf, first_stage, probe, stage_units
        while i < len(obj_order) and obj_order[i] in omap:
            i += 1
        if i == len(obj_order):
            if first_stage is not None:
                if charge_identities:
                    probe = _dead_leaf_probe(dom, first_stage, seed_trail, mor_seed)
                first_stage = None
            # a dead leaf: its stage would repeat the first one and then
            # solve_mor(0) would find no candidate for the probed morphism
            if probe is not None and not cod_hom(omap[probe[0]], omap[probe[1]]):
                budget.spend(stage_units)
                return
            trail: list[str] = []
            if first_leaf:
                first_leaf = False
                before = budget.used
                if seed_morphism_stage(trail):
                    first_stage, stage_units = trail, budget.used - before
                    yield from solve_mor(0)
            elif seed_morphism_stage(trail):
                yield from solve_mor(0)
            undo_mor(trail)
            return
        x = obj_order[i]
        # x is unmapped, so set_obj would reject a candidate off the post
        # constraint for exactly one unit and no change: under post only
        # the fiber of q over r(x) is tried, and the candidates skipped
        # before each one (q.dom is cod, so the positions are cod's) are
        # charged before it and the rest after the loop, never across a
        # yield; without post nothing is skipped
        candidates = (enumerate(cod.objects) if q is None
                      else q.fibers().get(r.obj_map[x], ()))
        last = -1
        for pos, c in candidates:
            budget.spend(pos - last - 1)
            last = pos
            trail: list[str] = []
            if set_obj(x, c, trail):
                yield from solve_obj(i + 1)
            undo_obj(trail)
        budget.spend(len(cod.objects) - last - 1)

    seed_trail: list[str] = []
    feasible = True
    # set_obj, solve_obj and solve_mor call themselves through their closure
    # cells, a reference cycle that would keep dom and cod alive until the
    # next full GC pass; clearing the cells lets reference counting free them.
    try:
        if obj_seed:
            for x, c in obj_seed.items():
                if not set_obj(x, c, seed_trail):
                    feasible = False
                    break
        if feasible:
            yield from solve_obj(0)
        undo_obj(seed_trail)
    finally:
        set_obj = solve_obj = solve_mor = None


def _dead_leaf_probe(dom: Groupoid, trail: list[str], seed_objects: list[str],
                     mor_seed: dict[str, str] | None) -> tuple[str, str] | None:
    """The ends of the first non-identity of dom that a seed stage with
    identities charged left off ``trail``, when every later stage repeats
    that stage: when each non-identity on the trail, and each key of
    ``mor_seed``, has both ends among ``seed_objects`` (module docstring).
    Else None. The trail opens with dom's identities."""
    ends = dom.morphisms
    assigned = trail[dom.n_objects:]
    if assigned or mor_seed:
        seeded = set(seed_objects)
        for m in (*assigned, *(mor_seed or ())):
            s, t = ends[m]
            if s not in seeded or t not in seeded:
                return None
        assigned = set(assigned)
    for m in dom.non_identities():
        if m not in assigned:
            return ends[m]
    return None


def _object_invariants(G: Groupoid) -> dict[str, tuple[int, int]]:
    """x -> (the number of objects x reaches by one morphism, |hom(x, x)|):
    in a groupoid that obeys the laws, the object count of x's component
    and the order of its vertex group. A functor bijective on objects and
    on morphisms maps each hom-set onto its image's, so it keeps both."""
    ends = G.morphisms
    return {x: (len({ends[m][1] for m in G.out(x)}), len(G.hom(x, x))) for x in G.objects}


def _bijections(rest: list[str], free: list[str], key_G: dict, key_H: dict):
    """The bijections rest -> free that keep the invariant (``key_G[x] ==
    key_H[image]``), as tuples of images, in ``itertools.permutations(free)``
    order: the permutations that break it are skipped, not listed."""
    if not rest:
        yield ()
        return
    want = key_G[rest[0]]
    for i, c in enumerate(free):
        if key_H[c] == want:
            for more in _bijections(rest[1:], free[:i] + free[i + 1:], key_G, key_H):
                yield (c, *more)


def find_isomorphism(G: Groupoid, H: Groupoid, budget: Budget | int | None = None,
                     obj_seed: dict | None = None) -> Functor | None:
    """Search for an isomorphism of groupoids G -> H.

    The first functor of the search, in ID order, that is injective on
    objects and on morphisms, which between groupoids of the same sizes
    makes it an isomorphism; so the answer is deterministic. ``obj_seed``
    pins part of the object map (used for over-the-codomain comparisons).
    Only bijections on objects can carry an isomorphism, and only those
    that keep each object's invariant (:func:`_object_invariants`: the
    object count of its component and the order of its vertex group). So
    G and H whose multisets of invariants differ, or an ``obj_seed`` pair
    that breaks one, give None with no search, and each bijection that
    extends ``obj_seed`` and keeps the invariants is searched as a seed of
    its own, in ``itertools.permutations`` order (as
    ``generators.involutions_of`` searches each object involution). That
    is the order in which the unrestricted search meets them, and the seed
    lists ``obj_seed``'s keys first, as that search's object map does, so
    the first answer and its maps' insertion order are the unrestricted
    search's.
    """
    if G.n_objects != H.n_objects or G.n_morphisms != H.n_morphisms:
        return None
    budget = ensure_budget(budget)
    obj_seed = obj_seed or {}
    key_G, key_H = _object_invariants(G), _object_invariants(H)
    if sorted(key_G.values()) != sorted(key_H.values()):
        return None
    if any(key_G.get(x) != key_H.get(c) for x, c in obj_seed.items()):
        return None
    rest = [x for x in G.objects if x not in obj_seed]
    free = [c for c in H.objects if c not in obj_seed.values()]
    if len(rest) != len(free):
        return None
    for images in _bijections(rest, free, key_G, key_H):
        seed = {**obj_seed, **dict(zip(rest, images))}
        for F in iter_functors(G, H, obj_seed=seed, budget=budget):
            if len(set(F.mor_map.values())) == G.n_morphisms:
                return F
    return None
