"""The functor search as it was before it charged dead leaves.

``invgpd.search.iter_functors`` runs the seed stage at every leaf of its
object search only until the dead-leaf rule of its module docstring is
set; from then on it charges a leaf that cannot yield instead of walking
it, and it drops a post into the point. This copy walks every leaf and
reads every post. It is the oracle that ``test_search.py`` checks both
rules against: the same functors, in the same order, and the same
``budget.used``, also when the budget runs out inside a charged leaf.

It also keeps the ``bijective`` mode that the package search no longer
has, which restricts the search to isomorphisms. ``test_search.py``
checks ``generators.involutions_of``, which seeds each object involution,
and ``search.find_isomorphism``, which seeds each object bijection,
against it: the same functors, in the same order.
"""

from __future__ import annotations

from typing import Iterator

from invgpd.budget import Budget, ensure_budget
from invgpd.core import Functor, Groupoid


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
    # mmap's items in insertion order, cut back with it by undo_mor; the
    # walk in propagate reads its slices
    mapped: list[tuple[str, str]] = []
    used_obj: set[str] = set()
    used_mor: set[str] = set()

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
        mapped.append((m, n))
        trail.append(m)
        queue.append(m)
        return True

    def undo_mor(trail: list[str]) -> None:
        for m in trail:
            if bijective:
                used_mor.discard(mmap[m])
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
                if bijective:
                    if n in used_mor:
                        return False
                    used_mor.add(n)
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
        while i < len(obj_order) and obj_order[i] in omap:
            i += 1
        if i == len(obj_order):
            trail: list[str] = []
            if seed_morphism_stage(trail):
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
