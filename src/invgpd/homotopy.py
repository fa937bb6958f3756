"""Canonical path objects, right-homotopy search, homotopy equivalences.

The canonical path object of a map f: A -> C has as objects the triples
(x, y, phi) with phi an isomorphism of A over an identity of C, and as
morphisms the pairs (sigma, tau) conjugating one triple into another. A
:class:`PathFactorization` holds it as ``path`` (P) with its two legs:
``delta1``: A -> P sends x to (x, x, id), an injective-on-objects
levelwise equivalence, and ``delta2``: P -> A x_C A sends (x, y, phi) to
(x, y), a map with the right lifting property against the injective
generators. Their composite is the diagonal ``equivariant.diagonal(f)``,
and ``delta2.cod`` is A x_C A.

Right homotopies are always searched against this single construction;
existence does not depend on the choice of path object because all the
objects involved are fibrant in the structures we care about.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget, ensure_budget
from .core import Functor, Groupoid, classify_functor, indexed_pair_id, subgroupoid
from .equivariant import (
    EquivariantFunctor,
    InvolutiveGroupoid,
    diagonal,
    eq_compose,
    eq_identity,
    eq_pairing,
    equivariant_pullback,
    terminal_map,
)
from .errors import CodomainMismatch
from .lifting import StructureTag, factorize
from .search import iter_functors


@dataclass
class PathFactorization:
    path: InvolutiveGroupoid                # P_C A
    delta1: EquivariantFunctor              # A -> P_C A
    delta2: EquivariantFunctor              # P_C A -> A x_C A


@dataclass
class HomotopyWitness:
    H: EquivariantFunctor                   # A -> P_C B
    f: EquivariantFunctor
    g: EquivariantFunctor


def po(phi: str) -> str:
    """The path-object object (x, y, phi)."""
    return f"po({phi})"


def pm(phi: str, sigma: str, tau: str) -> str:
    """The path-object morphism (sigma, tau) out of po(phi)."""
    return f"pm({phi},{sigma},{tau})"


def _path_groupoid(f: EquivariantFunctor):
    """The groupoid of the canonical path object of f, with its involution.

    Each ID is made once: ``po_of`` maps φ to its object ``po(φ)`` and
    ``pm_of`` maps (φ, σ, τ) to its morphism ``pm(φ, σ, τ)``, and the
    endpoints, identities, composites, inverses and the involution are
    read from them (:func:`_po_id`, :func:`_pm_id`). Also returns
    ``po_of``, ``pm_of`` and, for each morphism, its data (φ, σ, τ, φ of
    the target).
    """
    A, C = f.dom, f.cod
    GA = A.base
    after = GA.composite_table()  # g -> {f: g∘f}, read by rows

    po_of = {m: po(m) for m in GA.mor_ids() if C.base.is_identity(f.on_mor(m))}

    morphisms: dict[str, tuple[str, str]] = {}
    pm_of: dict[tuple[str, str, str], str] = {}
    data: dict[str, tuple[str, str, str, str]] = {}  # (phi, sigma, tau, phi of the target)
    by_src: dict[str, list[str]] = {}                  # phi -> morphisms out of po(phi)
    for phi, o in po_of.items():
        x, y = GA.morphisms[phi]
        for sigma in GA.out(x):
            for tau in GA.out(y):
                if f.on_mor(sigma) != f.on_mor(tau):
                    continue
                phi2 = after[after[tau][phi]][GA.inv(sigma)]
                mid = pm_of[(phi, sigma, tau)] = pm(phi, sigma, tau)
                morphisms[mid] = (o, _po_id(po_of, phi2))
                data[mid] = (phi, sigma, tau, phi2)
                by_src.setdefault(phi, []).append(mid)

    identity = {o: _pm_id(pm_of, phi, GA.ident(GA.src(phi)), GA.ident(GA.tgt(phi)))
                for phi, o in po_of.items()}
    compose = {}
    for m1, (phi1, s1, t1, phi2) in data.items():
        for m2 in by_src.get(phi2, ()):
            _, s2, t2, _ = data[m2]
            compose[(m2, m1)] = _pm_id(pm_of, phi1, after[s2][s1], after[t2][t1])
    inverse = {m1: _pm_id(pm_of, phi2, GA.inv(s), GA.inv(t))
               for m1, (_, s, t, phi2) in data.items()}
    P = Groupoid(tuple(po_of.values()), morphisms, identity, compose, inverse)
    eta = A.eta_mor
    inv = Functor(
        P, P,
        {o: _po_id(po_of, eta(phi)) for phi, o in po_of.items()},
        {m: _pm_id(pm_of, eta(d[0]), eta(d[1]), eta(d[2])) for m, d in data.items()},
    )
    return InvolutiveGroupoid(P, inv), po_of, pm_of, data


def _po_id(po_of: dict[str, str], phi: str) -> str:
    """The ID of the object po(φ) that ``po_of`` holds, or a new one when
    φ is no object (f is not a functor, or not equivariant)."""
    return po_of.get(phi) or po(phi)


def _pm_id(pm_of: dict[tuple[str, str, str], str], phi: str, sigma: str, tau: str) -> str:
    """The ID of the morphism pm(φ, σ, τ) that ``pm_of`` holds, or a new
    one when there is no such morphism (f is not a functor, or not
    equivariant)."""
    return pm_of.get((phi, sigma, tau)) or pm(phi, sigma, tau)


def path_object(f: EquivariantFunctor) -> PathFactorization:
    """The canonical path object of f, with delta2∘delta1 = diagonal. Both
    legs map to the IDs their codomains store: delta1 to those of the
    path object, delta2 to the pair IDs of A x_C A."""
    IP, po_of, pm_of, data = _path_groupoid(f)
    A, P = f.dom, IP.base
    GA = A.base
    product, _, _ = equivariant_pullback(f, f)
    obj_index, mor_index = product.base.compose.obj_index, product.base.compose.mor_index
    d1 = EquivariantFunctor(
        A, IP,
        Functor(
            GA, P,
            {x: _po_id(po_of, GA.ident(x)) for x in GA.objects},
            {m: _pm_id(pm_of, GA.ident(GA.src(m)), m, m) for m in GA.morphisms},
        ),
    )
    d2 = EquivariantFunctor(
        IP, product,
        Functor(
            P, product.base,
            {o: indexed_pair_id(obj_index, *GA.morphisms[phi]) for phi, o in po_of.items()},
            {m: indexed_pair_id(mor_index, d[1], d[2]) for m, d in data.items()},
        ),
    )
    return PathFactorization(path=IP, delta1=d1, delta2=d2)


def path_factorization(over: EquivariantFunctor,
                       budget: Budget | int | None = None) -> PathFactorization:
    """A path object for the projective structure.

    The explicit tuple construction is a path object for the injective
    structure (and for plain groupoids, where there is no fixed-point
    condition), but its first leg need not be a projective trivial
    cofibration: a tuple (x, y, phi) of two fixed points and a fixed
    isomorphism is a fixed point not hit by the diagonal. Projective
    homotopies therefore factor the diagonal by the swapped-interval
    gluing construction instead, which attaches no fixed points.

    ``find_right_homotopy`` does not build this object; it stays as the
    reference that the test suite checks that search against.
    """
    fact = factorize(diagonal(over), StructureTag.PROJECTIVE, budget=budget)
    return PathFactorization(path=fact.j.cod, delta1=fact.j, delta2=fact.q)


def homotopy_against(pf: PathFactorization, f: EquivariantFunctor,
                     g: EquivariantFunctor,
                     budget: Budget | int | None = None) -> HomotopyWitness | None:
    """Search H: A -> P with delta2∘H = <f, g> against a fixed path object."""
    budget = ensure_budget(budget)
    target = eq_pairing(f, g, pf.delta2.cod)
    for H in iter_functors(
        f.dom.base, pf.path.base,
        post=(pf.delta2.map, target.map),
        equiv=(f.dom.involution, pf.path.involution),
        budget=budget,
    ):
        return HomotopyWitness(H=EquivariantFunctor(f.dom, pf.path, H), f=f, g=g)
    return None


def find_natural_iso(
    f: EquivariantFunctor,
    g: EquivariantFunctor,
    strict_fixed: bool,
    budget: Budget | int | None = None,
) -> dict[str, str] | None:
    """An equivariant natural isomorphism f => g, if any.

    With ``strict_fixed`` the component at every fixed object must be an
    identity. Naturality makes components propagate along morphisms, so
    the search assigns one component per connected piece and derives the
    rest.
    """
    budget = ensure_budget(budget)
    A, X = f.dom, f.cod
    GA, GX = A.base, X.base
    nu: dict[str, str] = {}

    def ok(a: str, m: str) -> bool:
        if GX.morphisms[m] != (f.on_obj(a), g.on_obj(a)):
            return False
        if strict_fixed and A.eta_obj(a) == a and not GX.is_identity(m):
            return False
        return True

    def propagate(a: str, m: str, trail: list[str]) -> bool:
        stack = [(a, m)]
        while stack:
            budget.spend()
            a, m = stack.pop()
            if a in nu:
                if nu[a] != m:
                    return False
                continue
            if not ok(a, m):
                return False
            nu[a] = m
            trail.append(a)
            partner = (A.eta_obj(a), X.eta_mor(m))
            stack.append(partner)
            for alpha in sorted(GA.out(a)):
                forced = GX.comp(GX.comp(g.on_mor(alpha), m), GX.inv(f.on_mor(alpha)))
                stack.append((GA.tgt(alpha), forced))
        return True

    def solve(order: list[str]) -> bool:
        pending = [a for a in order if a not in nu]
        if not pending:
            return True
        a = pending[0]
        for m in GX.hom(f.on_obj(a), g.on_obj(a)):
            budget.spend()
            trail: list[str] = []
            if propagate(a, m, trail) and solve(order):
                return True
            for key in trail:
                del nu[key]
        return False

    if solve(list(GA.objects)):
        return dict(nu)
    return None


def witness_from_iso(f: EquivariantFunctor, g: EquivariantFunctor,
                     nu: dict[str, str]) -> HomotopyWitness:
    """Package a natural isomorphism as a map into the tuple path object of
    f's codomain over the point. Only the path groupoid is built: the
    witness never reads the legs or the product they map to."""
    path, po_of, pm_of, _ = _path_groupoid(terminal_map(f.cod))
    GA = f.dom.base
    obj_map = {a: _po_id(po_of, nu[a]) for a in GA.objects}
    mor_map = {alpha: _pm_id(pm_of, nu[GA.src(alpha)], f.on_mor(alpha), g.on_mor(alpha))
               for alpha in GA.morphisms}
    H = EquivariantFunctor(f.dom, path, Functor(GA, path.base, obj_map, mor_map))
    return HomotopyWitness(H=H, f=f, g=g)


def find_right_homotopy(
    f: EquivariantFunctor,
    g: EquivariantFunctor,
    tag=None,
    budget: Budget | int | None = None,
) -> HomotopyWitness | None:
    """Search for a right homotopy from f to g (over the point).

    ``tag`` selects the structure the homotopy lives in (projective by
    default, matching the theorems this feeds); existence is independent
    of the choice of path object within a fixed structure because all
    relevant objects are fibrant.

    A homotopy into any path object is the same data as an equivariant
    natural isomorphism; for the projective structure its
    components at fixed objects must additionally be identities, because
    the glued path object has no fixed points outside the diagonal. The
    search runs on that characterization directly, and the returned
    witness is the induced map into the explicit tuple path object (the
    image of the glued witness under the comparison map).
    """
    if tag is None:
        tag = StructureTag.PROJECTIVE
    if f.dom.base != g.dom.base or f.cod.base != g.cod.base:
        raise CodomainMismatch("homotopy needs parallel maps")
    budget = ensure_budget(budget)
    nu = find_natural_iso(f, g, strict_fixed=(tag == StructureTag.PROJECTIVE), budget=budget)
    if nu is None:
        return None
    return witness_from_iso(f, g, nu)


def full_fixed_isomorphism(f: EquivariantFunctor) -> bool:
    """Does f restrict to an isomorphism of the full fixed subgroupoids?"""
    Gf, _ = subgroupoid(f.dom.base, f.dom.fixed_objects())
    Hf, _ = subgroupoid(f.cod.base, f.cod.fixed_objects())
    objs = [f.on_obj(x) for x in Gf.objects]
    if len(set(objs)) != len(objs) or set(objs) != set(Hf.objects):
        return False
    mors = [f.on_mor(m) for m in Gf.morphisms]
    return len(set(mors)) == len(mors) and set(mors) == set(Hf.morphisms)


def is_homotopy_equivalence_projective(f: EquivariantFunctor) -> bool:
    """Levelwise equivalence inducing an isomorphism of full fixed subgroupoids."""
    rep = classify_functor(f.map)
    return rep.equivalence and full_fixed_isomorphism(f)


def find_homotopy_inverse(
    f: EquivariantFunctor, tag=None, budget: Budget | int | None = None
) -> tuple[EquivariantFunctor, HomotopyWitness, HomotopyWitness] | None:
    """Brute-force homotopy inverse: enumerate candidates g and homotopies
    f∘g ~ id and g∘f ~ id (projective homotopies by default)."""
    budget = ensure_budget(budget)
    A, B = f.dom, f.cod
    for gmap in iter_functors(
        B.base, A.base, equiv=(B.involution, A.involution), budget=budget
    ):
        g = EquivariantFunctor(B, A, gmap)
        H1 = find_right_homotopy(eq_compose(f, g), eq_identity(B), tag=tag, budget=budget)
        if H1 is None:
            continue
        H2 = find_right_homotopy(eq_compose(g, f), eq_identity(A), tag=tag, budget=budget)
        if H2 is not None:
            return g, H1, H2
    return None
