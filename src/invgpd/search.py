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

    dom_mor, dom_comp, dom_inv = dom.morphisms, dom.compose, dom.inverse
    cod_mor, cod_comp, cod_inv = cod.morphisms, cod.compose, cod.inverse

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

    def set_mor(m: str, n: str, trail: list[str], queue: list[str]) -> bool:
        budget.spend()
        if m in mmap:
            return mmap[m] == n
        s, t = dom_mor[m]
        if cod_mor.get(n) != (omap[s], omap[t]):
            return False
        if q is not None and q.mor_map[n] != r.mor_map[m]:
            return False
        if bijective:
            if n in used_mor:
                return False
            used_mor.add(n)
        mmap[m] = n
        trail.append(m)
        queue.append(m)
        return True

    def undo_mor(trail: list[str]) -> None:
        for m in trail:
            if bijective:
                used_mor.discard(mmap[m])
            del mmap[m]

    def propagate(queue: list[str], trail: list[str]) -> bool:
        while queue:
            budget.spend()
            m = queue.pop()
            n = mmap[m]
            if not set_mor(dom_inv[m], cod_inv[n], trail, queue):
                return False
            if ed is not None and not set_mor(ed.mor_map[m], ec.mor_map[n], trail, queue):
                return False
            # compose is defined exactly on the composable pairs, so a
            # lookup both tests composability and finds the composite
            for k, v in list(mmap.items()):
                mk = dom_comp.get((m, k))
                if mk is not None and not set_mor(mk, cod_comp[(n, v)], trail, queue):
                    return False
                km = dom_comp.get((k, m))
                if km is not None and not set_mor(km, cod_comp[(v, n)], trail, queue):
                    return False
        return True

    def seed_morphism_stage(trail: list[str]) -> bool:
        queue: list[str] = []
        for x in dom.objects:
            if not set_mor(dom.ident(x), cod.ident(omap[x]), trail, queue):
                return False
        if mor_seed:
            for m, n in mor_seed.items():
                if not set_mor(m, n, trail, queue):
                    return False
        return propagate(queue, trail)

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
            if q is not None and q.mor_map[n] != r.mor_map[m]:
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
        for c in cod.objects:
            trail: list[str] = []
            if set_obj(x, c, trail):
                yield from solve_obj(i + 1)
            undo_obj(trail)

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


def count_functors(dom: Groupoid, cod: Groupoid, **kw) -> int:
    return sum(1 for _ in iter_functors(dom, cod, **kw))
