"""Constrained backtracking search for functors between finite groupoids.

This is the engine behind lifting problems, slice-hom enumeration,
homotopy search, section enumeration and isomorphism search. It
enumerates functors ``F: dom -> cod`` subject to optional constraints:

* ``obj_seed`` / ``mor_seed``  -- pinned partial assignments,
* ``post = (q, r)``            -- a post-composition equation ``q∘F = r``,
* ``equiv = (ed, ec)``         -- an equivariance equation ``F∘ed = ec∘F``,
* ``bijective``                -- restrict to isomorphisms.

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
``propagate``. ``solve_obj`` likewise counts the candidates that fail the
``post`` object check and charges them before the next candidate it tries
and at the end of its loop, never across a ``yield``. Because a bulk
``Budget.spend(n)`` stops at the same unit as ``n`` single spends, and
nothing is yielded in between, the functors yielded before
``BudgetExceeded`` and the final ``budget.used`` are exactly those of
charging every unit as it is spent.

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
    bijective: bool = False,
    budget: Budget | int | None = None,
) -> Iterator[Functor]:
    budget = ensure_budget(budget)
    if bijective and (dom.n_objects != cod.n_objects or dom.n_morphisms != cod.n_morphisms):
        return
    q, r = post if post is not None else (None, None)
    ed, ec = equiv if equiv is not None else (None, None)

    omap: dict[str, str] = {}
    mmap: dict[str, str] = {}
    used_obj: set[str] = set()
    used_mor: set[str] = set()

    dom_mor, dom_inv, cod_mor, cod_inv = dom.morphisms, dom.inverse, cod.morphisms, cod.inverse
    dom_ident, cod_ident = dom.identity, cod.identity
    q_mor, r_mor = (q.mor_map, r.mor_map) if q is not None else (None, None)
    ed_mor, ec_mor = (ed.mor_map, ec.mor_map) if ed is not None else (None, None)

    # set at the first seed stage, which many searches never reach: the
    # composite tables, and whether identity pops are charged, not walked
    # (they only confirm images when the unit laws hold; module docstring)
    dom_after = cod_after = None
    charge_identities = False
    identity_units = dom.n_objects * (2 if ed is None else 3)

    obj_order = list(dom.objects)
    mor_order = [m for m in dom.mor_ids() if not dom.is_identity(m)]

    def set_obj(x: str, c: str, trail: list[str]) -> bool:
        budget.spend()
        if x in omap:
            return omap[x] == c
        if c not in cod.identity:
            return False
        if q is not None and q.obj_map[c] != r.obj_map[x]:
            return False
        if bijective:
            if c in used_obj:
                return False
            used_obj.add(c)
        omap[x] = c
        trail.append(x)
        if ed is not None:
            return set_obj(ed.obj_map[x], ec.obj_map[c], trail)
        return True

    def undo_obj(trail: list[str]) -> None:
        for x in trail:
            if bijective:
                used_obj.discard(omap[x])
            del omap[x]

    def assign_mor(m: str, n: str, trail: list[str], queue: list[str]) -> bool:
        """Map the unmapped ``m`` to ``n`` if the constraints allow it."""
        s, t = dom_mor[m]
        if cod_mor.get(n) != (omap[s], omap[t]):
            return False
        if q is not None and q_mor[n] != r_mor[m]:
            return False
        if bijective:
            if n in used_mor:
                return False
            used_mor.add(n)
        mmap[m] = n
        trail.append(m)
        queue.append(m)
        return True

    def set_mor(m: str, n: str, trail: list[str], queue: list[str]) -> bool:
        budget.spend()
        if m in mmap:
            return mmap[m] == n
        return assign_mor(m, n, trail, queue)

    def undo_mor(trail: list[str]) -> None:
        for m in trail:
            if bijective:
                used_mor.discard(mmap[m])
            del mmap[m]

    # propagate and seed_morphism_stage never yield: they count one unit per
    # queued morphism and per assignment tried, as set_mor would spend, and
    # charge the count once (see the module docstring)
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
                # a composite table row holds exactly the composable
                # partners, so a lookup both tests composability and finds
                # the composite
                m_after, n_after = dom_after[m], cod_after[n]
                for k, v in list(mmap.items()):
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
        nonlocal dom_after, cod_after, charge_identities
        if dom_after is None:
            dom_after, cod_after = dom.composite_table(), cod.composite_table()
            charge_identities = (
                dom.identities_are_units() and cod.identities_are_units()
                and (ed is None or (ed.dom is dom is ed.cod and ec.dom is cod is ec.cod
                                    and ed.preserves_identities()
                                    and ec.preserves_identities()))
            )
        queue: list[str] = []
        # when identities are charged, not walked, they are assigned but
        # not queued (see the module docstring)
        ident_queue: list[str] = [] if charge_identities else queue
        seeds = [(dom_ident[x], cod_ident[omap[x]], ident_queue) for x in dom.objects]
        if mor_seed:
            seeds += [(m, n, queue) for m, n in mor_seed.items()]
        units = 0
        try:
            for m, n, into in seeds:
                units += 1
                w = mmap.get(m)
                if w is None:
                    if not assign_mor(m, n, trail, into):
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
            trail: list[str] = []
            queue: list[str] = []
            if set_mor(m, n, trail, queue) and propagate(queue, trail):
                yield from solve_mor(i + 1)
            undo_mor(trail)

    def solve_obj(i: int) -> Iterator[Functor]:
        while i < len(obj_order) and obj_order[i] in omap:
            i += 1
        if i == len(obj_order):
            trail: list[str] = []
            if seed_morphism_stage(trail):
                yield from solve_mor(0)
            undo_mor(trail)
            return
        x = obj_order[i]
        # x is unmapped, so set_obj rejects a candidate off the post
        # constraint for exactly one unit and no change; those are counted
        # and charged before the next candidate that is tried, never
        # carried across a yield
        want = r.obj_map[x] if q is not None else None
        rejected = 0
        for c in cod.objects:
            if q is not None and q.obj_map[c] != want:
                rejected += 1
                continue
            if rejected:
                budget.spend(rejected)
                rejected = 0
            trail: list[str] = []
            if set_obj(x, c, trail):
                yield from solve_obj(i + 1)
            undo_obj(trail)
        budget.spend(rejected)

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


def find_isomorphism(G: Groupoid, H: Groupoid, budget: Budget | int | None = None,
                     obj_seed: dict | None = None) -> Functor | None:
    """Search for an isomorphism of groupoids G -> H.

    Backtracks over object bijections, then hom bijections, in ID order;
    the first success wins, so the answer is deterministic. ``obj_seed``
    pins part of the object map (used for over-the-codomain comparisons).
    """
    if G.n_objects != H.n_objects or G.n_morphisms != H.n_morphisms:
        return None
    budget = ensure_budget(budget)
    for F in iter_functors(G, H, bijective=True, obj_seed=obj_seed, budget=budget):
        return F
    return None
