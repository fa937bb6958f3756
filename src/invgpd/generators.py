"""Deterministic instance catalogs and seeded random generators.

The exhaustive catalogs back the characterization checks: underlying
groupoids are disjoint unions of components over canonical partitions of
up to ``max_objects`` labeled objects (one representative per
component-size multiset), where a component is either codiscrete (one
morphism between each ordered pair) or carries a two-element vertex
group. Involutions are enumerated exhaustively by functor search, so the
involutive catalog is complete for this family.

Seeded generators draw from the same family (plus classified small
fibrations over the universe) and are deterministic functions of their
``random.Random`` argument.
"""

from __future__ import annotations

import random
from itertools import accumulate, product as iproduct

from .budget import Budget, ensure_budget
from .core import (
    Functor,
    Groupoid,
    classify_functor,
    codiscrete,
    subgroupoid,
)
from .equivariant import (
    EquivariantFunctor,
    InvolutiveGroupoid,
    validate_involutive,
)
from .errors import InvariantViolated
from .search import iter_functors

OBJ_NAMES = ("o0", "o1", "o2", "o3", "o4")


def partitions(n: int):
    """Partitions of n as weakly decreasing tuples."""
    if n == 0:
        yield ()
        return
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def _blocks(names, part) -> list[tuple[str, ...]]:
    """``names`` cut into consecutive blocks of the sizes in ``part``."""
    return [tuple(names[end - size:end]) for size, end in zip(part, accumulate(part))]


def z2_component(objs) -> Groupoid:
    """A connected component whose vertex groups have two elements."""
    morphisms, compose, inverse, identity = {}, {}, {}, {}
    def mid(x, y, e):
        return f"m({x},{y},{e})"
    for x in objs:
        for y in objs:
            for e in (0, 1):
                morphisms[mid(x, y, e)] = (x, y)
    for x in objs:
        identity[x] = mid(x, x, 0)
        for y in objs:
            for e in (0, 1):
                inverse[mid(x, y, e)] = mid(y, x, e)
            for z in objs:
                for e1 in (0, 1):
                    for e2 in (0, 1):
                        compose[(mid(y, z, e2), mid(x, y, e1))] = mid(x, z, (e1 + e2) % 2)
    return Groupoid(tuple(objs), morphisms, identity, compose, inverse)


def assemble(objs, parts) -> Groupoid:
    """Disjoint union of components; parts = list of (objects, kind)."""
    morphisms, compose, inverse, identity = {}, {}, {}, {}
    for block, kind in parts:
        C = codiscrete(block) if kind == "cod" else z2_component(block)
        morphisms.update(C.morphisms)
        compose.update(C.compose)
        inverse.update(C.inverse)
        identity.update(C.identity)
    return Groupoid(tuple(objs), morphisms, identity, compose, inverse)


def plain_catalog(max_objects: int = 3, vertex_z2: bool = False) -> list[Groupoid]:
    """One labeled representative per (partition, component kinds)."""
    out = []
    kinds = ("cod", "z2") if vertex_z2 else ("cod",)
    for n in range(max_objects + 1):
        for part in partitions(n):
            names = list(OBJ_NAMES[:n])
            blocks = _blocks(names, part)
            for kind_choice in iproduct(kinds, repeat=len(blocks)):
                out.append(assemble(names, list(zip(blocks, kind_choice))))
    return out


def involutions_of(G: Groupoid, budget: Budget | int | None = None) -> list[Functor]:
    """All involutive endofunctors, by exhaustive bijective functor search."""
    budget = ensure_budget(budget)
    out = []
    for F in iter_functors(G, G, bijective=True, budget=budget):
        if all(F.obj_map[F.obj_map[x]] == x for x in G.objects) and \
                all(F.mor_map[F.mor_map[m]] == m for m in G.morphisms):
            out.append(F)
    return out


def involutive_catalog(max_objects: int = 3, vertex_z2: bool = False,
                       budget: Budget | int | None = None) -> list[InvolutiveGroupoid]:
    budget = ensure_budget(budget)
    out = []
    for G in plain_catalog(max_objects, vertex_z2):
        for inv in involutions_of(G, budget):
            X = InvolutiveGroupoid(G, inv)
            if validate_involutive(X):
                raise InvariantViolated("the functor search found a non-involution")
            out.append(X)
    return out


def equivariant_functors(X: InvolutiveGroupoid, Y: InvolutiveGroupoid,
                         budget: Budget | int | None = None,
                         limit: int | None = None) -> list[EquivariantFunctor]:
    budget = ensure_budget(budget)
    out = []
    for F in iter_functors(X.base, Y.base, equiv=(X.involution, Y.involution), budget=budget):
        out.append(EquivariantFunctor(X, Y, F))
        if limit is not None and len(out) >= limit:
            break
    return out


# -- seeded random generators ---------------------------------------------------


def random_involutive(rng: random.Random, max_objects: int = 4,
                      vertex_z2: bool = True) -> InvolutiveGroupoid:
    """A random nonempty catalog groupoid with a random involution."""
    n = rng.randint(1, max_objects)
    parts = list(partitions(n))
    part = rng.choice(parts)
    names = list(OBJ_NAMES[:n])
    kinds = ("cod", "z2") if vertex_z2 else ("cod",)
    G = assemble(names, [(b, rng.choice(kinds)) for b in _blocks(names, part)])
    invs = involutions_of(G)
    return InvolutiveGroupoid(G, rng.choice(invs))


def random_equivariant(rng: random.Random, X: InvolutiveGroupoid,
                       Y: InvolutiveGroupoid) -> EquivariantFunctor | None:
    fs = equivariant_functors(X, Y, limit=200)
    return rng.choice(fs) if fs else None


def random_isofibration(rng: random.Random, max_objects: int = 3) -> EquivariantFunctor:
    """A random equivariant levelwise isofibration between catalog objects."""
    for _ in range(40):
        A = random_involutive(rng, max_objects, vertex_z2=False)
        B = random_involutive(rng, max_objects, vertex_z2=False)
        fs = [f for f in equivariant_functors(A, B, limit=400)
              if classify_functor(f.map).isofibration]
        if fs:
            return rng.choice(fs)
    raise RuntimeError("no isofibration found; generator parameters too tight")


def random_stable_equivalent_subgroupoid(
    rng: random.Random, B: InvolutiveGroupoid
) -> EquivariantFunctor:
    """A full, involution-stable subgroupoid meeting every component,
    included into B: an injective trivial cofibration by construction."""
    comps: dict[str, list[str]] = {}  # tree root -> its component
    for x, (r, _) in B.base.spanning_tree().items():
        comps.setdefault(r, []).append(x)
    keep: set[str] = set()
    for comp in comps.values():
        pick = rng.choice(sorted(comp))
        keep.add(pick)
        keep.add(B.eta_obj(pick))
    extra = [x for x in B.base.objects if x not in keep]
    for x in extra:
        if rng.random() < 0.4:
            keep.add(x)
            keep.add(B.eta_obj(x))
    return _stable_subgroupoid(B, keep)


def random_projective_trivial_cofibration(
    rng: random.Random, B: InvolutiveGroupoid
) -> EquivariantFunctor:
    """Like the above, but the subgroupoid keeps every fixed point."""
    f = random_stable_equivalent_subgroupoid(rng, B)
    return _stable_subgroupoid(B, set(f.dom.base.objects) | set(B.fixed_objects()))


def _stable_subgroupoid(B: InvolutiveGroupoid, objects) -> EquivariantFunctor:
    """The full subgroupoid of B on an involution-stable set of objects,
    with the restricted involution, included into B."""
    sub, incl = subgroupoid(B.base, objects)
    inv = Functor(
        sub, sub,
        {x: B.eta_obj(x) for x in sub.objects},
        {m: B.eta_mor(m) for m in sub.morphisms},
    )
    return EquivariantFunctor(InvolutiveGroupoid(sub, inv), B, incl)
