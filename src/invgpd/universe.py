"""The universe of small discrete groupoids with involution.

Over a finite base set V, the universe groupoid has as objects the
triples (A0, A1, phi) of two subsets of V and a bijection between them;
its pointed variant also carries a marked element of A0. The involution
swaps the two subsets and inverts the bijection; forgetting the point is
the universal map. Its pullbacks are exactly the discrete fibrations
whose fibers fit into V ("small fibrations").

This module builds the bundle, classifies small fibrations back into it,
constructs the space of equivalences as the canonical path object of the
universe over the point, and renders the two univalence verdicts:

* projectively, the identity-equivalence map into the space of
  equivalences misses fixed points as soon as |V| >= 2 (a two-element
  subset carries a fixed swap equivalence), so it is not a homotopy
  equivalence and univalence FAILS;
* injectively, the same map is a trivial cofibration between fibrant
  objects whose second factor is a fibration, so univalence HOLDS.

Smallness is "fiber object-sets inject into V": closure statements are
checked up to that size bound, and violations caused purely by fiber
growth are reported as OVERFLOW, never as failures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import comb, factorial

from .budget import Budget, ensure_budget
from .core import (
    ComputedComposites,
    Functor,
    Groupoid,
    classify_functor,
    compose_functors,
    discrete,
    functors_equal,
    indexed_pair_id,
    lifts_of,
    pair_cells,
)
from .equivariant import (
    EquivariantFunctor,
    InvolutiveGroupoid,
    REGISTRY,
    diagonal,
    eq_compose,
    eq_identity,
    equivariant_pullback,
    terminal_map,
    trivial_action,
    validate_equivariant,
)
from .errors import BaseTooSmall, InvariantViolated, NotSmall
from .homotopy import (
    PathFactorization,
    is_homotopy_equivalence_projective,
    path_object,
    po,
)
from .lifting import (
    StructureTag,
    fixed_point_bijection,
    injective_classify,
    is_fibrant,
    is_injective_fibration,
)
from .pi import pi_of


def _set_id(elems) -> str:
    # commas and parentheses are reserved by the pair-ID scheme
    return "{" + ".".join(sorted(elems)) + "}"


def _bij_id(bij: dict) -> str:
    return ";".join(f"{k}>{bij[k]}" for k in sorted(bij))


def _object_id(A0, A1, phi: dict) -> str:
    """The ID of the U-object (A0, A1, phi)."""
    return f"[{_set_id(A0)}|{_set_id(A1)}|{_bij_id(phi)}]"


def _morphism_id(src: str, tgt: str, rho0: dict) -> str:
    """The ID of the U-morphism src -> tgt with first component rho0."""
    return f"<{src}->{tgt}:{_bij_id(rho0)}>"


@dataclass
class UniverseBundle:
    base: tuple[str, ...]
    U: InvolutiveGroupoid
    Utilde: InvolutiveGroupoid
    p: EquivariantFunctor
    # object/morphism decodings
    u_morphisms: dict[str, dict]            # id -> the first-component bijection
    ut_objects: dict[str, tuple[str, str]]  # id -> (U object id, marked point)

    def u_object_id(self, A0, A1, phi: dict) -> str | None:
        """The U-object (A0, A1, phi) for subsets A0, A1 of the base and a
        bijection phi between them, or None if it is no object of U."""
        oid = _object_id(A0, A1, phi)
        return oid if oid in self.U.base.identity else None

    def u_morphism_id(self, src: str, tgt: str, rho0: dict) -> str | None:
        """The U-morphism src -> tgt with first component rho0, or None."""
        mid = _morphism_id(src, tgt, rho0)
        return mid if mid in self.U.base.morphisms else None


class _UniverseComposites(ComputedComposites):
    """U's compose table, computed by permutation arithmetic.

    A morphism ρ: s -> t between objects of fiber size k is the bijection
    at some place j of ``permutations`` order, and ``out[s]`` lists the
    morphisms out of s in blocks of k!, one block per object of size k in
    object order: ρ is ``out[s][offset + j]`` with ``(offset, mult) =
    block[t]``. As permutations of positions, ρ₂∘ρ₁ sits at place
    ``mult[j1][j2]``, so it is ``out[s1][offset of t2 + mult[j1][j2]]``.
    ``row(ρ₂)`` reads that for every ρ₁ into src(ρ₂); the walk reads the
    rows in morphism order.
    """

    __slots__ = ("_morphisms", "_out", "_place", "_block", "_into")

    def __init__(self, morphisms: dict[str, tuple[str, str]], out: dict[str, list[str]],
                 place: dict[str, int], block: dict[str, tuple[int, list[list[int]]]]):
        super().__init__(morphisms)
        self._morphisms, self._out, self._place, self._block = morphisms, out, place, block
        self._into: dict[str, list[tuple[str, list[str], list[int]]]] | None = None

    def __getitem__(self, key) -> str:
        try:
            g, f = key
            s1, t1 = self._morphisms[f]
            s2, t2 = self._morphisms[g]
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if t1 != s2:
            raise KeyError(key)
        offset, mult = self._block[t2]
        return self._out[s1][offset + mult[self._place[f]][self._place[g]]]

    def row(self, g: str) -> dict[str, str]:
        into = self._into
        if into is None:
            # t -> (f, out[s], mult[j]) for every f: s -> t at place j
            into = self._into = {}
            out, place, block = self._out, self._place, self._block
            for f, (s, t) in self._morphisms.items():
                into.setdefault(t, []).append((f, out[s], block[s][1][place[f]]))
        s2, t2 = self._morphisms[g]
        j2, offset = self._place[g], self._block[t2][0]
        return {f: out_s[offset + mult_j1[j2]] for f, out_s, mult_j1 in into[s2]}


class _PointedComposites(ComputedComposites):
    """Ũ's compose table, read off U's: (ρ₂@b)∘(ρ₁@a) = (ρ₂∘ρ₁)@a.

    ``decode[ρ@a]`` is ``(ρ, "@a")``, and ``ids["@a"][ρ]`` is the ID ρ@a
    that Ũ's ``morphisms`` holds: a composite is read from ``ids``, never
    concatenated, so a row holds no strings of its own. ``row(ρ₂@b)``
    reads U's row of ρ₂ (``composite_table``) for every ρ₁@a into
    src(ρ₂@b); the walk reads the rows in morphism order.
    """

    __slots__ = ("_U", "_morphisms", "_decode", "_ids", "_into")

    def __init__(self, U: Groupoid, morphisms: dict[str, tuple[str, str]],
                 decode: dict[str, tuple[str, str]], ids: dict[str, dict[str, str]]):
        super().__init__(morphisms)
        self._U, self._morphisms, self._decode, self._ids = U, morphisms, decode, ids
        self._into: dict[str, list[tuple[str, str, dict[str, str]]]] | None = None

    def __getitem__(self, key) -> str:
        try:
            g, f = key
            _, t1 = self._morphisms[f]
            s2, _ = self._morphisms[g]
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if t1 != s2:
            raise KeyError(key)
        (m1, at), (m2, _) = self._decode[f], self._decode[g]
        return self._ids[at][self._U.compose[(m2, m1)]]

    def row(self, g: str) -> dict[str, str]:
        into = self._into
        if into is None:
            # t -> (ρ@a, ρ, ids["@a"]) for every pointed morphism ρ@a into t
            into = self._into = {}
            decode, ids = self._decode, self._ids
            for f, (_, t) in self._morphisms.items():
                m1, at = decode[f]
                into.setdefault(t, []).append((f, m1, ids[at]))
        after = self._U.composite_table()[self._decode[g][0]]
        return {f: ids_at[after[m1]] for f, m1, ids_at in into[self._morphisms[g][0]]}


def build_universe(V, budget: Budget | int | None = None) -> UniverseBundle:
    """Enumerate the universe of small discrete groupoids over the base V.

    It charges one unit per object and per morphism of U, per composite
    of U and per pointed morphism out of each object of Ũ, all before it
    builds anything. With n_k = C(|V|,k)²·k! objects of fiber size k, U
    has n_k²·k! morphisms and n_k³·(k!)² composites among them, and Ũ has
    n_k·k objects with n_k·k! morphisms out of each: the charge is
    Σ_k n_k + n_k²·k! + n_k³·(k!)² + n_k²·k·k!, one k at a time, so a
    base too large for the budget stops at the first k it cannot pay
    for (161, 34,839 and 41,632,339 units at |V| = 2, 3, 4). The composites
    of U and Ũ are computed, not stored (``_UniverseComposites``,
    ``_PointedComposites``).
    """
    budget = ensure_budget(budget)
    V = tuple(sorted(V))
    for e in V:
        if any(ch in e for ch in ",()<>;.@|"):
            raise ValueError(f"base element name {e!r} uses a reserved character")
    for k in range(len(V) + 1):
        k_fact = factorial(k)
        n = comb(len(V), k) ** 2 * k_fact
        budget.spend(n + n * n * k_fact + n ** 3 * k_fact ** 2 + n * n * k * k_fact)

    subsets = []
    for k in range(len(V) + 1):
        subsets.extend(tuple(c) for c in combinations(V, k))

    # mults[k][j1][j2] is the place of perms[j2]∘perms[j1] among the
    # permutations of range(k), and inverse_place[k][j] that of perms[j]⁻¹
    mults: dict[int, list[list[int]]] = {}
    for k in range(len(V) + 1):
        perms = list(permutations(range(k)))
        index = {perm: j for j, perm in enumerate(perms)}
        mults[k] = [[index[tuple(perm2[i] for i in perm1)] for perm2 in perms]
                    for perm1 in perms]
    inverse_place = {k: [row.index(0) for row in mult] for k, mult in mults.items()}

    # the object (A0, A1, phi) with phi(A0[i]) = A1[perms[j][i]] is
    # on_sets[(A0, A1)][j], and j is its phi_place
    u_objects: dict[str, tuple[frozenset, frozenset, dict]] = {}
    phi_place: dict[str, int] = {}
    on_sets: dict[tuple[tuple[str, ...], tuple[str, ...]], list[str]] = {}
    for A0 in subsets:
        for A1 in subsets:
            if len(A0) != len(A1):
                continue
            oids = on_sets[(A0, A1)] = []
            for j, image in enumerate(permutations(A1)):
                phi = dict(zip(A0, image))
                oid = _object_id(A0, A1, phi)
                u_objects[oid] = (frozenset(A0), frozenset(A1), phi)
                phi_place[oid] = j
                oids.append(oid)

    # the involution on objects: (A0, A1, phi) -> (A1, A0, phi⁻¹)
    u_inv = {oid: on_sets[(A1, A0)][inverse_place[len(A0)][j]]
             for (A0, A1), oids in on_sets.items() for j, oid in enumerate(oids)}

    # block[o] = (offset, mult): the morphisms into o sit at out[s][offset:
    # offset + k!] for every s of o's fiber size k, and mult = mults[k]
    n_same: dict[int, int] = {}  # fiber size -> objects of that size so far
    block: dict[str, tuple[int, list[list[int]]]] = {}
    for oid, (A0, _, _) in u_objects.items():
        k = len(A0)
        rank = n_same[k] = n_same.get(k, -1) + 1
        block[oid] = (rank * len(mults[k]), mults[k])
    u_morphisms: dict[str, dict] = {}
    morphisms: dict[str, tuple[str, str]] = {}
    out: dict[str, list[str]] = {}
    place: dict[str, int] = {}
    for src, (A0, _, _) in u_objects.items():
        mids = out[src] = []
        for tgt, (B0, _, _) in u_objects.items():
            if len(A0) != len(B0):
                continue
            for j, image in enumerate(permutations(sorted(B0))):
                rho0 = dict(zip(sorted(A0), image))
                mid = _morphism_id(src, tgt, rho0)
                u_morphisms[mid] = rho0
                morphisms[mid] = (src, tgt)
                mids.append(mid)
                place[mid] = j

    # place 0 is the identity, and the inverse of a morphism sits at the
    # place of the inverse permutation
    identity = {oid: out[oid][block[oid][0]] for oid in u_objects}
    inverse = {
        mid: out[t][block[s][0] + inverse_place[len(u_objects[s][0])][place[mid]]]
        for mid, (s, t) in morphisms.items()
    }
    GU = Groupoid(tuple(u_objects), morphisms, identity,
                  _UniverseComposites(morphisms, out, place, block), inverse)
    # the involution sends rho: s -> t, the permutation r, to psi∘rho∘phi⁻¹:
    # η(s) -> η(t) for the bijections phi of s and psi of t, which is the
    # permutation psi∘r∘phi⁻¹ of their places
    inv_mor = {}
    for mid, (s, t) in morphisms.items():
        mult = block[s][1]
        phi_inv = inverse_place[len(u_objects[s][0])][phi_place[s]]
        j = mult[mult[phi_inv][place[mid]]][phi_place[t]]
        inv_mor[mid] = out[u_inv[s]][block[u_inv[t]][0] + j]
    U = InvolutiveGroupoid(GU, Functor(GU, GU, {o: u_inv[o] for o in GU.objects}, inv_mor))

    # the pointed variant: one pointed morphism ρ@a: o1@a -> o2@ρ0[a] per
    # U-morphism ρ: o1 -> o2 and point a of o1
    at = {a: "@" + a for a in V}
    pointed: dict[str, dict[str, str]] = {}  # o -> a -> the ID of o@a
    ut_objects: dict[str, tuple[str, str]] = {}
    for oid, (A0, _, _) in u_objects.items():
        ids = pointed[oid] = {}
        for a in sorted(A0):
            ids[a] = oid + at[a]
            ut_objects[ids[a]] = (oid, a)
    ut_morphisms: dict[str, tuple[str, str]] = {}
    ut_decode: dict[str, tuple[str, str]] = {}  # ρ@a -> (ρ, "@a")
    ut_ids: dict[str, dict[str, str]] = {at[a]: {} for a in V}  # "@a" -> ρ -> ρ@a
    for po1, (o1, a) in ut_objects.items():
        ids = ut_ids[at[a]]
        for mid in out[o1]:
            pmid = ids[mid] = mid + at[a]
            ut_morphisms[pmid] = (po1, pointed[morphisms[mid][1]][u_morphisms[mid][a]])
            ut_decode[pmid] = (mid, at[a])
    ut_identity = {po: ut_ids[at[a]][identity[o]] for po, (o, a) in ut_objects.items()}
    ut_inverse = {
        p: ut_ids[at[ut_objects[t][1]]][inverse[ut_decode[p][0]]]
        for p, (s, t) in ut_morphisms.items()
    }
    GUt = Groupoid(tuple(ut_objects), ut_morphisms, ut_identity,
                   _PointedComposites(GU, ut_morphisms, ut_decode, ut_ids), ut_inverse)

    def ut_inv_obj(po: str) -> str:
        o, a = ut_objects[po]
        return pointed[u_inv[o]][u_objects[o][2][a]]

    ut_inv_mor = {}
    for p, (s, t) in ut_morphisms.items():
        o, a = ut_objects[s]
        phi = u_objects[o][2]
        ut_inv_mor[p] = ut_ids[at[phi[a]]][inv_mor[ut_decode[p][0]]]
    Ut = InvolutiveGroupoid(
        GUt, Functor(GUt, GUt, {po: ut_inv_obj(po) for po in GUt.objects}, ut_inv_mor)
    )

    p = EquivariantFunctor(
        Ut, U,
        Functor(GUt, GU, {po: ut_objects[po][0] for po in GUt.objects},
                {pm: mid for pm, (mid, _) in ut_decode.items()}),
    )
    return UniverseBundle(
        base=V, U=U, Utilde=Ut, p=p, u_morphisms=u_morphisms, ut_objects=ut_objects,
    )


# -- small fibrations -----------------------------------------------------------


def _fiber_sizes(f: EquivariantFunctor) -> dict[str, int]:
    """The number of objects over each codomain object."""
    sizes = dict.fromkeys(f.cod.base.objects, 0)
    for x in f.dom.base.objects:
        sizes[f.on_obj(x)] += 1
    return sizes


def _closure_verdict(f: EquivariantFunctor, bundle: UniverseBundle) -> tuple[str, dict]:
    rep = classify_functor(f.map)
    cap = len(bundle.base)
    sizes = _fiber_sizes(f)
    too_big = {y: n for y, n in sizes.items() if n > cap}
    if not rep.discrete_fibration:
        return "FAIL", {"discrete_fibration": False}
    if too_big:
        worst = max(too_big.values())
        return "OVERFLOW", {"fiber_sizes": too_big, "largest_fiber": worst, "base_size": cap}
    return "SMALL", {"largest_fiber": max(sizes.values(), default=0), "base_size": cap}


def is_small_fibration(f: EquivariantFunctor, bundle: UniverseBundle) -> bool:
    """Underlying discrete fibration whose fiber object-sets inject into V."""
    return _closure_verdict(f, bundle)[0] == "SMALL"


@dataclass
class SmallClassification:
    classifying: EquivariantFunctor      # g: B' -> U
    pullback: InvolutiveGroupoid         # B' x_U Utilde
    pullback_map: EquivariantFunctor     # the projection to B'
    chi: EquivariantFunctor              # iso dom(f) -> pullback over B'


def classify_small_fibration(f: EquivariantFunctor, bundle: UniverseBundle,
                             budget: Budget | int | None = None) -> SmallClassification:
    """The classifying map into U and the comparison isomorphism.

    The fiber over each base object is renamed into the base set V by the
    order-preserving injection onto an initial segment; the classifying
    map sends x to (fiber over x, fiber over eta(x), conjugation by the
    involution), and a morphism to transport along its unique lifts.

    Raises ``InvariantViolated`` if the classifying map or the comparison
    isomorphism comes out wrong.
    """
    if not is_small_fibration(f, bundle):
        raise NotSmall("only discrete fibrations with fibers inside V are classifiable")
    budget = ensure_budget(budget)
    C, Bp = f.dom, f.cod
    GC, GB = C.base, Bp.base
    V = bundle.base

    fiber_objs = {y: sorted(x for x in GC.objects if f.on_obj(x) == y) for y in GB.objects}
    rename = {y: {x: V[i] for i, x in enumerate(fiber_objs[y])} for y in GB.objects}

    def unique_lift(u: str, x: str) -> str:
        ls = lifts_of(f.map, u, x)
        if len(ls) != 1:
            raise InvariantViolated(f"{u} has {len(ls)} lifts at {x}, not one")
        return ls[0]

    def transport(u: str) -> dict:
        # fiber(src u) -> fiber(tgt u) on renamed elements
        y, y2 = GB.morphisms[u]
        out = {}
        for x in fiber_objs[y]:
            out[rename[y][x]] = rename[y2][GC.tgt(unique_lift(u, x))]
        return out

    g_obj: dict[str, str] = {}
    for y in GB.objects:
        ey = Bp.eta_obj(y)
        phi = {rename[y][x]: rename[ey][C.eta_obj(x)] for x in fiber_objs[y]}
        oid = bundle.u_object_id(rename[y].values(), rename[ey].values(), phi)
        if oid is None:
            raise InvariantViolated(f"the fiber over {y} is no object of U")
        g_obj[y] = oid
    g_mor: dict[str, str] = {}
    for u in GB.mor_ids():
        budget.spend()
        src, tgt = g_obj[GB.src(u)], g_obj[GB.tgt(u)]
        mid = bundle.u_morphism_id(src, tgt, transport(u))
        if mid is None:
            raise InvariantViolated(f"the transport along {u} is no morphism of U")
        g_mor[u] = mid
    g = EquivariantFunctor(Bp, bundle.U, Functor(GB, bundle.U.base, g_obj, g_mor))
    problems = validate_equivariant(g)
    if problems:
        raise InvariantViolated(f"classifying map: {'; '.join(problems[:3])}")

    PB, prB, _ = equivariant_pullback(g, bundle.p)
    obj_index, mor_index = pair_cells(PB.base)
    chi_obj = {}
    for x in GC.objects:
        y = f.on_obj(x)
        chi_obj[x] = indexed_pair_id(obj_index, y, f"{g_obj[y]}@{rename[y][x]}")
    chi_mor = {}
    for m in GC.mor_ids():
        u = f.on_mor(m)
        chi_mor[m] = indexed_pair_id(mor_index, u, f"{g_mor[u]}@{rename[GB.src(u)][GC.src(m)]}")
    chi = EquivariantFunctor(C, PB, Functor(GC, PB.base, chi_obj, chi_mor))
    problems = validate_equivariant(chi)
    if problems:
        raise InvariantViolated(f"comparison map: {'; '.join(problems[:3])}")
    if (len(set(chi_obj.values())) != PB.base.n_objects
            or len(set(chi_mor.values())) != PB.base.n_morphisms):
        raise InvariantViolated("comparison map is not bijective")
    if not functors_equal(compose_functors(prB.map, chi.map), f.map):
        raise InvariantViolated("comparison map does not lie over the base")
    return SmallClassification(classifying=g, pullback=PB, pullback_map=prB, chi=chi)


# -- the space of equivalences and the univalence verdicts ----------------------


def equivalence_space(bundle: UniverseBundle) -> PathFactorization:
    """The canonical path object of U over the point: ``path`` is E, whose
    fiber over (A, B) is the set of isomorphisms A -> B in U (the object
    ``po(rho)`` is rho); ``delta1``: U -> E and ``delta2``: E -> U x U."""
    return path_object(terminal_map(bundle.U))


@dataclass
class UnivalenceReport:
    """The verdict and its witness. The injective verdict's witness holds
    one flag per check, and ``units`` the budget units each check spent,
    under the same keys; ``units`` is not part of the witness and is empty
    for the projective verdict, which runs no search."""

    verdict: str                 # "HOLDS" | "FAILS"
    witness: dict
    units: dict[str, int] = field(default_factory=dict)


def projective_univalence_witness(bundle: UniverseBundle,
                                  space: PathFactorization | None = None) -> str:
    """The least fixed point of E outside the image of delta1.

    Raises BaseTooSmall when every fixed equivalence is an identity
    (which happens exactly for |V| < 2).
    """
    space = space or equivalence_space(bundle)
    image = set(space.delta1.map.obj_map.values())
    E = space.path
    for eid in E.base.objects:
        if E.eta_obj(eid) == eid and eid not in image:
            return eid
    raise BaseTooSmall("no non-identity fixed equivalence exists over this base")


def check_univalence(bundle: UniverseBundle, tag: StructureTag,
                     budget: Budget | int | None = None,
                     space: PathFactorization | None = None) -> UnivalenceReport:
    """Decide whether the identity-equivalence map U -> E is a homotopy
    equivalence for the given structure.

    ``space`` is E with its two legs, as built by
    ``equivalence_space(bundle)``; pass it to share one build between the
    two structures.
    """
    budget = ensure_budget(budget)
    space = space or equivalence_space(bundle)
    d1 = space.delta1
    if tag == StructureTag.PROJECTIVE:
        lw = classify_functor(d1.map).equivalence
        bij = fixed_point_bijection(d1)
        if lw and bij:
            return UnivalenceReport(
                verdict="HOLDS",
                witness={
                    "note": "identity-equivalence map is bijective on fixed points",
                    "levelwise_equivalence": True,
                },
            )
        witness_id = projective_univalence_witness(bundle, space)
        GU = bundle.U.base
        rho = next(m for m in GU.morphisms if po(m) == witness_id)
        A, B = GU.morphisms[rho]
        return UnivalenceReport(
            verdict="FAILS",
            witness={
                "fixed_equivalence_outside_image": witness_id,
                "source_type": A,
                "target_type": B,
                "equivalence": rho,
                "levelwise_equivalence": lw,
                "fixed_point_bijection": bij,
            },
        )
    checks: dict[str, bool] = {}
    units: dict[str, int] = {}
    for name, check in (
        ("delta1_trivial_cofibration", lambda: injective_classify(d1, budget).trivial_cofibration),
        ("delta2_fibration", lambda: is_injective_fibration(space.delta2, budget)),
        ("p_fibration", lambda: is_injective_fibration(bundle.p, budget)),
        ("U_fibrant", lambda: is_fibrant(bundle.U, StructureTag.INJECTIVE, budget)),
        ("Utilde_fibrant", lambda: is_fibrant(bundle.Utilde, StructureTag.INJECTIVE, budget)),
        ("E_fibrant", lambda: is_fibrant(space.path, StructureTag.INJECTIVE, budget)),
    ):
        before = budget.used
        checks[name] = check()
        units[name] = budget.used - before
    verdict = "HOLDS" if all(checks.values()) else "FAILS"
    return UnivalenceReport(verdict=verdict, witness=checks, units=units)


# -- the function extensionality counterexample ----------------------------------


@dataclass
class FunextReport:
    homotopy_equivalence_input: bool
    pi_objects: int
    pi_fixed_points: int
    terminal_fixed_points: int
    pi_is_homotopy_equivalence: bool
    verdict: str

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def funext_instance() -> tuple[EquivariantFunctor, EquivariantFunctor]:
    """g: the swapped pair over the point; f: the swapped interval folded
    onto the swapped pair (a levelwise trivial fibration with no fixed
    points on either side)."""
    return terminal_map(REGISTRY.shape("S1")), REGISTRY.map("fold")


def check_funext_counterexample(budget: Budget | int | None = None) -> FunextReport:
    """Function extensionality fails projectively: a dependent product of
    a homotopy equivalence along a fibration that is no longer one."""
    budget = ensure_budget(budget)
    g, f = funext_instance()
    he_in = is_homotopy_equivalence_projective(f)
    bundle = pi_of(g, f, budget)
    fixed = bundle.dom_pi.fixed_objects()
    he_out = is_homotopy_equivalence_projective(bundle.projection)
    one_fixed = len(REGISTRY.shape("1!").fixed_objects())
    verdict = "FAILS" if (he_in and not he_out) else "HOLDS"
    return FunextReport(
        homotopy_equivalence_input=he_in,
        pi_objects=bundle.dom_pi.base.n_objects,
        pi_fixed_points=len(fixed),
        terminal_fixed_points=one_fixed,
        pi_is_homotopy_equivalence=he_out,
        verdict=verdict,
    )


# -- universe closure -----------------------------------------------------------


@dataclass
class ClosureReport:
    entries: list[dict]

    def verdicts(self) -> list[str]:
        return [e["verdict"] for e in self.entries]


def universe_closure_checks(bundle: UniverseBundle,
                            samples: list[tuple[str, EquivariantFunctor]],
                            budget: Budget | int | None = None) -> ClosureReport:
    """Check closure of small fibrations under identity, composition,
    dependent product and diagonal on the given samples.

    Every sample must be a small fibration. Closure can only fail by
    fiber-size overflow; a structural failure would be reported as FAIL
    and is asserted against in the test suite.
    """
    budget = ensure_budget(budget)
    entries: list[dict] = []
    for name, f in samples:
        if not is_small_fibration(f, bundle):
            raise NotSmall(f"sample {name} is not a small fibration")

    for name, f in samples:
        v, w = _closure_verdict(eq_identity(f.cod), bundle)
        entries.append({"kind": "identity", "inputs": [name], "verdict": v, "witness": w})

    for n1, f1 in samples:
        for n2, f2 in samples:
            if f1.cod.base != f2.dom.base:
                continue
            comp = eq_compose(f2, f1)
            v, w = _closure_verdict(comp, bundle)
            entries.append({"kind": "composite", "inputs": [n2, n1], "verdict": v, "witness": w})

    for name, f in samples:
        v, w = _closure_verdict(diagonal(f), bundle)
        entries.append({"kind": "diagonal", "inputs": [name], "verdict": v, "witness": w})

    for n1, f in samples:
        for n2, g in samples:
            if f.cod.base != g.dom.base:
                continue
            if not classify_functor(g.map).isofibration:
                continue
            pi = pi_of(g, f, budget)
            v, w = _closure_verdict(pi.projection, bundle)
            entries.append({"kind": "pi", "inputs": [n2, n1], "verdict": v, "witness": w})
    return ClosureReport(entries=entries)


def double_cover_of_interval() -> EquivariantFunctor:
    """The swapped interval over the plain interval: a discrete fibration
    with two-point fibers (the involutive double cover)."""
    si = REGISTRY.shape("SI")
    I = REGISTRY.shape("I")
    cover = Functor(
        si.base, I.base,
        {"l:0": "0", "l:1": "1", "r:0": "0", "r:1": "1"},
        {
            "l:id(0)": "id(0)", "r:id(0)": "id(0)",
            "l:id(1)": "id(1)", "r:id(1)": "id(1)",
            "l:phi": "phi", "r:phi": "phi",
            "l:inv(phi)": "inv(phi)", "r:inv(phi)": "inv(phi)",
        },
    )
    return EquivariantFunctor(si, I, cover)


def default_closure_samples(bundle: UniverseBundle) -> list[tuple[str, EquivariantFunctor]]:
    """A fixed sample family of small fibrations (needs |V| >= 2).

    Includes a chain of discrete maps whose composite has four-point
    fibers, so bases with |V| < 4 exercise the OVERFLOW verdict.
    """
    if len(bundle.base) < 2:
        raise BaseTooSmall("closure samples need at least two base elements")
    s1 = REGISTRY.shape("S1")
    samples: list[tuple[str, EquivariantFunctor]] = [
        ("S1->1!", terminal_map(s1)),
        ("SI->I", double_cover_of_interval()),
    ]
    d4 = trivial_action(discrete(("w0", "w1", "w2", "w3")))
    d2 = trivial_action(discrete(("v0", "v1")))
    to_d2 = EquivariantFunctor(
        d4, d2,
        Functor(d4.base, d2.base,
                {"w0": "v0", "w1": "v0", "w2": "v1", "w3": "v1"},
                {f"id(w{k})": f"id(v{0 if k < 2 else 1})" for k in range(4)}),
    )
    samples.append(("D4->D2", to_d2))
    samples.append(("D2->1!", terminal_map(d2)))
    samples.append(("p", bundle.p))
    return samples
