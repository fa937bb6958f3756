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

Right homotopies are equivariant natural isomorphisms, and
:func:`find_natural_iso` decides each one at the roots of the domain's
spanning tree, with no backtracking; ``search.iter_functors`` is the
package's only backtracking search. Existence does not depend on the
choice of path object because all the objects involved are fibrant in
the structures we care about.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget, ensure_budget
from .core import (
    ComputedComposites,
    Functor,
    Groupoid,
    classify_functor,
    indexed_pair_id,
    pair_cells,
)
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
from .lifting import StructureTag, factorize, fixed_point_bijection
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


class _PathComposites(ComputedComposites):
    """E's compose table, read off A's: (σ₂,τ₂)∘(σ₁,τ₁) at po(φ₁) is
    pm(φ₁, σ₂∘σ₁, τ₂∘τ₁).

    ``data[m]`` is (φ, σ, τ, φ of the target) for each morphism m, and m₁
    composes with m₂ when m₁'s target φ is m₂'s φ. Every composite is named
    by :func:`_pm_id`: the ID ``pm_of`` holds, or a new one for a composite
    that E lacks (f is not a functor, or not equivariant). ``row(m₂)``
    reads A's rows of σ₂ and τ₂ (``composite_table``) for every m₁ into
    src(m₂); the walk reads the rows in morphism order.
    """

    __slots__ = ("_A", "_data", "_pm_of", "_into")

    def __init__(self, A: Groupoid, data: dict[str, tuple[str, str, str, str]],
                 pm_of: dict[tuple[str, str, str], str]):
        super().__init__(data)
        self._A, self._data, self._pm_of = A, data, pm_of
        self._into: dict[str, list[str]] | None = None

    def __getitem__(self, key) -> str:
        try:
            g, f = key
            phi1, s1, t1, via = self._data[f]
            at, s2, t2, _ = self._data[g]
        except (TypeError, ValueError, KeyError):
            raise KeyError(key) from None
        if via != at:
            raise KeyError(key)
        compose = self._A.compose
        return _pm_id(self._pm_of, phi1, compose[(s2, s1)], compose[(t2, t1)])

    def row(self, g: str) -> dict[str, str]:
        data, into = self._data, self._into
        if into is None:
            # φ -> every morphism into po(φ)
            into = self._into = {}
            for f, d in data.items():
                into.setdefault(d[3], []).append(f)
        phi, s2, t2, _ = data[g]
        after = self._A.composite_table()
        after_s2, after_t2, pm_of = after[s2], after[t2], self._pm_of
        row = {}
        for f in into.get(phi, ()):
            phi1, s1, t1, _ = data[f]
            row[f] = _pm_id(pm_of, phi1, after_s2[s1], after_t2[t1])
        return row


def _path_groupoid(f: EquivariantFunctor):
    """The groupoid of the canonical path object of f, with its involution.

    Each ID is made once: ``po_of`` maps φ to its object ``po(φ)`` and
    ``pm_of`` maps (φ, σ, τ) to its morphism ``pm(φ, σ, τ)``, and the
    endpoints, identities, inverses and the involution are read from them
    (:func:`_po_id`, :func:`_pm_id`). The composites are not stored: each
    is computed from A's on lookup (:class:`_PathComposites`), so a caller
    that reads none, as :func:`witness_from_iso`, pays for none. Also
    returns ``po_of``, ``pm_of`` and, for each morphism, its data (φ, σ, τ,
    φ of the target).
    """
    A, C = f.dom, f.cod
    GA = A.base
    after = GA.composite_table()  # g -> {f: g∘f}, read by rows

    po_of = {m: po(m) for m in GA.mor_ids() if C.base.is_identity(f.on_mor(m))}

    morphisms: dict[str, tuple[str, str]] = {}
    pm_of: dict[tuple[str, str, str], str] = {}
    data: dict[str, tuple[str, str, str, str]] = {}  # (phi, sigma, tau, phi of the target)
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

    identity = {o: _pm_id(pm_of, phi, GA.ident(GA.src(phi)), GA.ident(GA.tgt(phi)))
                for phi, o in po_of.items()}
    inverse = {m1: _pm_id(pm_of, phi2, GA.inv(s), GA.inv(t))
               for m1, (_, s, t, phi2) in data.items()}
    P = Groupoid(tuple(po_of.values()), morphisms, identity,
                 _PathComposites(GA, data, pm_of), inverse)
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
    obj_index, mor_index = pair_cells(product.base)
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
    """An equivariant natural isomorphism ν: f => g, if any; with
    ``strict_fixed`` its component at every fixed object is an identity.

    Decided at the roots of dom's spanning tree, one unit per candidate.
    With tree arrows t_x: r -> x, ν is fixed on r's component by
    m = ν_r: ν_x = g(t_x)∘m∘f(t_x)⁻¹. That ν is natural iff
    g(k)∘m = m∘f(k) for every k in Aut(r), by the tree argument of
    ``core.is_functor``. Equivariance, ν_ηx = η(ν_x), holds on the whole
    component once it holds at ηr when ηr lies in it, and otherwise it
    fills η's image component, which no other constraint touches.
    Components are independent, so each keeps its first surviving m in
    hom-set order, and one with none gives ``None`` at once: nothing is
    backtracked. f and g must be equivariant functors between groupoids
    that obey the laws (unchecked here).
    """
    budget = ensure_budget(budget)
    A, X = f.dom, f.cod
    GA, GX = A.base, X.base
    fm, gm, comp, inv = f.map.mor_map, g.map.mor_map, GX.comp, GX.inv
    tree = GA.spanning_tree()
    legs: dict[str, list[tuple[str, str]]] = {}  # root -> (x, t_x) over its component
    for x, (r, t) in tree.items():
        legs.setdefault(r, []).append((x, t))
    nu: dict[str, str] = {}
    for r in GA.roots():
        if r in nu:
            continue
        aut = [(fm[k], gm[k]) for k in GA.hom(r, r)]
        er = A.eta_obj(r)
        fixed = [x for x, _ in legs[r] if A.eta_obj(x) == x] if strict_fixed else []
        for m in GX.hom(f.on_obj(r), g.on_obj(r)):
            budget.spend()
            if any(comp(gk, m) != comp(m, fk) for fk, gk in aut):
                continue
            part = {x: comp(gm[t], comp(m, inv(fm[t]))) for x, t in legs[r]}
            if tree[er][0] != r:  # η moves the component: fill its image
                part.update([(A.eta_obj(x), X.eta_mor(n)) for x, n in part.items()])
            elif part[er] != X.eta_mor(m):
                continue
            if any(not GX.is_identity(part[x]) for x in fixed):
                continue
            nu.update(part)
            break
        else:
            return None
    return nu


def witness_from_iso(f: EquivariantFunctor, g: EquivariantFunctor,
                     nu: dict[str, str]) -> HomotopyWitness:
    """Package a natural isomorphism as a map into the tuple path object of
    f's codomain over the point. Only the path groupoid is built, and none
    of its composites: the witness never reads them, the legs or the
    product the legs map to."""
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
    tag: StructureTag = StructureTag.PROJECTIVE,
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
    the glued path object has no fixed points outside the diagonal.
    :func:`find_natural_iso` decides that isomorphism, and the returned
    witness is the induced map into the explicit tuple path object (the
    image of the glued witness under the comparison map). f and g must be
    parallel as equivariant maps: the same involutive domain and
    codomain.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise CodomainMismatch("homotopy needs parallel maps")
    nu = find_natural_iso(f, g, strict_fixed=(tag == StructureTag.PROJECTIVE), budget=budget)
    if nu is None:
        return None
    return witness_from_iso(f, g, nu)


def is_homotopy_equivalence_projective(f: EquivariantFunctor) -> bool:
    """Is f a levelwise equivalence inducing an isomorphism of the full
    fixed subgroupoids? A levelwise equivalence is fully faithful, so it
    maps each hom-set between fixed objects bijectively; the induced map
    of full fixed subgroupoids is then an isomorphism exactly when it is
    a bijection on fixed objects (:func:`fixed_point_bijection`)."""
    return classify_functor(f.map).equivalence and fixed_point_bijection(f)


def find_homotopy_inverse(
    f: EquivariantFunctor, tag: StructureTag = StructureTag.PROJECTIVE,
    budget: Budget | int | None = None,
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
