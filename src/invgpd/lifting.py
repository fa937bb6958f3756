"""Lifting problems and the two fibration-structure predicate suites.

The solver enumerates diagonal fillers for a commuting square by
constrained functor search. On top of it sit:

* ``has_rlp`` / ``has_llp``  -- orthogonality against a finite set of maps,
  enumerating every commuting square and reporting the least failing one,
* ``generator_squares`` / ``generator_orthogonal`` -- the commuting
  squares from a structure's generating trivial cofibrations, and the
  RLP against them, read off the local data each generator's squares
  and fillers amount to (no search); ``iter_squares`` and ``has_rlp``
  are their test oracles,
* ``projective_classify`` / ``injective_classify`` -- the predicate suites
  for the two structures on groupoids with involution; every injective
  fibration test goes through ``is_injective_fibration``,
* ``decompose_trivial_cofibration`` -- the greedy cell decomposition of a
  trivial cofibration (interval cells for plain groupoids, swapped-pair
  and fixed-point cells in the injective structure),
* ``factorize`` -- the gluing construction: each step attaches one cell
  per square of ``generator_squares`` in one pushout, until
  ``generator_orthogonal`` holds of the right factor; it runs no search.

Projective cofibrations are only ever reported as *bounded evidence*
(LLP against a finite family of trivial fibrations); trivial cofibrations
are decided exactly via the fixed-point characterization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache

from .budget import Budget, ensure_budget
from .core import FunctorReport, classify_functor, compose_functors, functors_equal, lift_census
from .equivariant import (
    EquivariantFunctor,
    InvolutiveGroupoid,
    REGISTRY,
    attach_cell,
    attach_cells,
    eq_compose,
    eq_identity,
    equivariant_product,
    extend_over_cell,
    terminal_map,
    trivial_action,
    validate_equivariant,
)
from .errors import (
    InvariantViolated,
    IterationCapExceeded,
    NonCommutingSquare,
    NotTrivialCofibration,
)
from .search import iter_functors


class StructureTag(str, Enum):
    PROJECTIVE = "projective"
    INJECTIVE = "injective"
    GPD = "gpd"


def generating_trivial_cofibrations(tag: StructureTag) -> list[tuple[str, EquivariantFunctor]]:
    if tag == StructureTag.GPD:
        return [("i", REGISTRY.map("i"))]
    if tag == StructureTag.PROJECTIVE:
        return [("Si", REGISTRY.map("Si"))]
    return [("Si", REGISTRY.map("Si")), ("iprime", REGISTRY.map("iprime"))]


def as_equivariant(f) -> EquivariantFunctor:
    """Wrap a plain functor as an equivariant one with identity involutions."""
    if isinstance(f, EquivariantFunctor):
        return f
    return EquivariantFunctor(trivial_action(f.dom), trivial_action(f.cod), f)


@dataclass
class LiftingProblem:
    """A commuting square: left i, right p, top and bottom."""

    left: EquivariantFunctor
    right: EquivariantFunctor
    top: EquivariantFunctor
    bottom: EquivariantFunctor

    def check_commutes(self) -> None:
        if not functors_equal(compose_functors(self.right.map, self.top.map),
                              compose_functors(self.bottom.map, self.left.map)):
            raise NonCommutingSquare("p∘top != bottom∘i")


def _seeds(left: EquivariantFunctor, obj_image: dict[str, str], mor_image: dict[str, str]):
    """The seeds that force ``h∘left`` to send each object a of left's domain
    to ``obj_image[a]`` and each morphism m to ``mor_image[m]``, or None
    when two of them ask one object or morphism for different images."""
    obj_seed: dict[str, str] = {}
    mor_seed: dict[str, str] = {}
    dom = left.dom.base
    for seed, on, image, cells in ((obj_seed, left.map.obj_map, obj_image, dom.objects),
                                   (mor_seed, left.map.mor_map, mor_image, dom.morphisms)):
        for a in cells:
            if seed.setdefault(on[a], image[a]) != image[a]:
                return None
    return obj_seed, mor_seed


def _fillers(P: LiftingProblem, budget: Budget):
    """All diagonal fillers of the square, in deterministic order; the
    caller checks that it commutes (``iter_squares`` builds only squares
    that do)."""
    i, p, top, bottom = P.left, P.right, P.top, P.bottom
    seeds = _seeds(i, top.map.obj_map, top.map.mor_map)
    if seeds is None:
        return  # the constraint h∘i = top is unsatisfiable
    obj_seed, mor_seed = seeds
    for F in iter_functors(
        i.cod.base,
        p.dom.base,
        obj_seed=obj_seed,
        mor_seed=mor_seed,
        post=(p.map, bottom.map),
        equiv=(i.cod.involution, p.dom.involution),
        budget=budget,
    ):
        yield EquivariantFunctor(i.cod, p.dom, F)


def solve_lifting(P: LiftingProblem, budget: Budget | int | None = None,
                  count_all: bool = False):
    """First filler of the square, or None; with ``count_all`` also the
    exact number of fillers (used for discrete-fibration uniqueness).
    Raises ``NonCommutingSquare`` if the square does not commute."""
    P.check_commutes()
    fillers = _fillers(P, ensure_budget(budget))
    first = next(fillers, None)
    if not count_all:
        return first
    return first, sum(1 for _ in fillers) + (first is not None)


def iter_squares(left: EquivariantFunctor, right: EquivariantFunctor,
                 budget: Budget | int | None = None):
    """All commuting squares with the given left and right maps.

    Enumerated in the engine's lexicographic order, so the first failure
    reported by ``has_rlp`` is the least one.

    The bottom search depends only on the seeds that p∘g gives. When a g
    has the seeds of the g before it, that search is not run again: its
    h's are replayed, each after a charge of the units the search spent
    before yielding it, and the units it spent after its last h are
    charged at the end. A bulk ``Budget.spend`` stops at the same unit as
    single ones, so the squares yielded and ``budget.used`` at every point
    are those of searching again. Only the last seeds' h's are kept, and
    nothing outlives the call.
    """
    budget = ensure_budget(budget)
    A, B = left.dom, left.cod
    X, Y = right.dom, right.cod
    r_obj, r_mor = right.map.obj_map, right.map.mor_map
    # _seeds inserts its keys in an order fixed by left alone, so equal
    # seeds are equal item by item and ask for the same search
    last_seeds = replay = tail = None
    for g in iter_functors(A.base, X.base, equiv=(A.involution, X.involution), budget=budget):
        seeds = _seeds(left, {a: r_obj[b] for a, b in g.obj_map.items()},
                       {m: r_mor[n] for m, n in g.mor_map.items()})
        if seeds is None:
            continue
        top = EquivariantFunctor(A, X, g)
        if seeds == last_seeds:
            for units, bottom in replay:
                budget.spend(units)
                yield top, bottom
            budget.spend(tail)
            continue
        obj_seed, mor_seed = seeds
        hs = iter_functors(
            B.base, Y.base, obj_seed=obj_seed, mor_seed=mor_seed,
            equiv=(B.involution, Y.involution), budget=budget,
        )
        replay = []
        while True:
            before = budget.used
            h = next(hs, None)
            units = budget.used - before
            if h is None:
                break
            bottom = EquivariantFunctor(B, Y, h)
            replay.append((units, bottom))
            yield top, bottom
        last_seeds, tail = seeds, units


def functor_as_dict(F: EquivariantFunctor) -> dict:
    return {"objects": dict(F.map.obj_map), "morphisms": dict(F.map.mor_map)}


@dataclass
class OrthogonalityReport:
    ok: bool
    squares_checked: int
    witness: dict | None = None  # least failing square, serializable

    def to_dict(self) -> dict:
        d = {"ok": self.ok, "squares_checked": self.squares_checked}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


def has_rlp(p, generators, budget: Budget | int | None = None) -> OrthogonalityReport:
    """Does p have the right lifting property against every generator?

    ``generators`` is a list of ``(name, map)`` pairs; a failure's witness
    names its generator."""
    p = as_equivariant(p)
    pairs = [(name, as_equivariant(gen), p) for name, gen in generators]
    return _orthogonality(pairs, "generator", budget)


def is_injective_fibration(f, budget: Budget | int | None = None) -> bool:
    """Is f an injective fibration? Exact: ``has_rlp`` against the
    swapped-interval and fixed-point generators."""
    return has_rlp(f, generating_trivial_cofibrations(StructureTag.INJECTIVE), budget).ok


def has_llp(i, tests, budget: Budget | int | None = None) -> OrthogonalityReport:
    """Does i have the left lifting property against every test map?

    ``tests`` is a sequence of ``(name, map)`` pairs; a failure's witness
    names its test map."""
    i = as_equivariant(i)
    pairs = [(name, i, as_equivariant(p)) for name, p in tests]
    return _orthogonality(pairs, "test", budget)


def _orthogonality(pairs, key: str, budget: Budget | int | None) -> OrthogonalityReport:
    """Solve every commuting square of each named (left, right) pair in
    order; the witness names the failing pair under ``key``."""
    budget = ensure_budget(budget)
    checked = 0
    for name, left, right in pairs:
        for g, h in iter_squares(left, right, budget):
            checked += 1
            # iter_squares seeds h from g, so the square commutes
            if next(_fillers(LiftingProblem(left, right, g, h), budget), None) is None:
                return OrthogonalityReport(
                    ok=False,
                    squares_checked=checked,
                    witness={
                        key: name,
                        "top": functor_as_dict(g),
                        "bottom": functor_as_dict(h),
                    },
                )
    return OrthogonalityReport(ok=True, squares_checked=checked)


def generator_squares(q, tag: StructureTag):
    """The commuting squares from the tag's generating trivial cofibrations
    to q, in ``iter_squares`` order, each as ``(name, data, x, iso)``: the
    cell the gluing construction attaches for it and where the extended q
    sends that cell.

    Each square is local data, read off q's hom-sets, so this runs no
    search and takes no budget:
      "i"      -- a fixed y and an η-fixed v: q(y) -> x; data = y,
      "Si"     -- any y and any v: q(y) -> x; data = y,
      "iprime" -- an m: y -> ηy with η(m) = m⁻¹ and a v: q(ηy) -> x with
                  η(v) = v∘q(m); data = m,
    with iso = v. ``iter_squares`` stays the oracle the tests check it
    against.
    """
    q = as_equivariant(q)
    X, Y = q.dom, q.cod
    XB, YB, q_obj = X.base, Y.base, q.map.obj_map
    if tag == StructureTag.GPD:
        for y in X.fixed_objects():
            for v in YB.out(q_obj[y]):
                if Y.eta_mor(v) == v:
                    yield "i", y, YB.tgt(v), v
        return
    for y in XB.objects:
        for v in YB.out(q_obj[y]):
            yield "Si", y, YB.tgt(v), v
    if tag == StructureTag.PROJECTIVE:
        return
    for y in XB.objects:
        ey = X.eta_obj(y)
        for m in XB.hom(y, ey):
            if X.eta_mor(m) != XB.inv(m):
                continue
            qm = q.map.mor_map[m]
            for v in YB.out(q_obj[ey]):
                if Y.eta_mor(v) == YB.comp(v, qm):
                    yield "iprime", m, YB.tgt(v), v


def generator_orthogonal(q, tag: StructureTag) -> bool:
    """Does q have the RLP against the tag's generating trivial cofibrations?

    Decides what ``has_rlp(q, generating_trivial_cofibrations(tag)).ok``
    decides, from the local condition that each generator's squares and
    fillers amount to, so it runs no search and takes no budget: the
    square ``(name, data, x, v)`` of ``generator_squares`` has a filler
    iff some w with q(w) = v starts at
      "i"      -- y = data, with η(w) = w,
      "Si"     -- y = data,
      "iprime" -- ηy = tgt(m) for m = data, with η(w) = w∘m.
    Each condition is read once per component. Composing with t: r -> y
    turns the squares and lifts at r into those at y, so a condition that
    holds at r holds at y: "Si" and "iprime" (with m₂ = η(t)∘m∘t⁻¹) are
    read at the spanning-tree roots of X, and "i", which only an η-fixed t
    carries, at the roots of the fixed-point groupoid's components (the
    fixed objects and η-fixed morphisms). "Si" is the isofibration flag of
    ``core.lift_census``. That needs X and Y to obey the laws, as
    ``classify_functor`` does. ``has_rlp`` stays the oracle the tests
    check it against.
    """
    q = as_equivariant(q)
    X, Y = q.dom, q.cod
    XB, YB, q_obj, q_mor = X.base, Y.base, q.map.obj_map, q.map.mor_map
    if tag == StructureTag.GPD:
        return all(
            {v for v in YB.out(q_obj[r]) if Y.eta_mor(v) == v}
            <= {q_mor[w] for w in XB.out(r) if X.eta_mor(w) == w}
            for r in _fixed_roots(X))
    if not lift_census(q.map)[0]:  # "Si": q is an isofibration
        return False
    if tag == StructureTag.PROJECTIVE:
        return True
    for r in XB.roots():
        er = X.eta_obj(r)
        for m in XB.hom(r, er):
            if X.eta_mor(m) != XB.inv(m):
                continue
            qm = q_mor[m]
            lifts = {q_mor[w] for w in XB.out(er) if X.eta_mor(w) == XB.comp(w, m)}
            if any(Y.eta_mor(v) == YB.comp(v, qm) and v not in lifts
                   for v in YB.out(q_obj[er])):
                return False
    return True


def _fixed_roots(X: InvolutiveGroupoid) -> list[str]:
    """The least object of each component of X's fixed-point groupoid.
    The η-fixed morphisms out of a fixed object reach its whole component,
    since they form a groupoid."""
    XB, roots, seen = X.base, [], set()
    for r in X.fixed_objects():
        if r not in seen:
            roots.append(r)
            seen.update(XB.tgt(w) for w in XB.out(r) if X.eta_mor(w) == w)
    return roots


# -- structure predicate suites ------------------------------------------------


def fixed_point_bijection(f: EquivariantFunctor) -> bool:
    """Is f a bijection from the fixed objects of dom onto those of cod?"""
    dom_fixed = f.dom.fixed_objects()
    cod_fixed = set(f.cod.fixed_objects())
    image = [f.on_obj(x) for x in dom_fixed]
    return len(set(image)) == len(image) and set(image) == cod_fixed


def _trivial_cofibration(f: EquivariantFunctor, rep: FunctorReport, tag: StructureTag) -> bool:
    """The trivial-cofibration rule, read off f's ``classify_functor``
    report: levelwise (injective on objects and an equivalence), and
    projectively also a bijection on fixed objects."""
    lw = rep.injective_on_objects and rep.equivalence
    return lw and (tag != StructureTag.PROJECTIVE or fixed_point_bijection(f))


@dataclass
class ProjectiveReport:
    weak_equivalence: bool
    fibration: bool
    trivial_cofibration: bool
    cofibration_evidence: bool
    evidence_family: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "weak_equivalence": self.weak_equivalence,
            "fibration": self.fibration,
            "trivial_cofibration": self.trivial_cofibration,
            "cofibration_evidence": self.cofibration_evidence,
            "evidence_family": list(self.evidence_family),
        }


@cache
def sample_trivial_fibrations() -> tuple[tuple[str, EquivariantFunctor], ...]:
    """A fixed family of projective trivial fibrations used as LLP evidence.

    Built once per process and shared by every caller; a tuple, so that
    no caller can change it.
    """
    ic = REGISTRY.shape("Icheck")
    nb = REGISTRY.shape("nabla")
    prod, pr1, _ = equivariant_product(ic, ic)
    return (
        ("Icheck->1!", terminal_map(ic)),
        ("nabla->1!", terminal_map(nb)),
        ("SI->S1", REGISTRY.map("fold")),
        ("IcheckxIcheck->Icheck", pr1),
    )


def projective_classify(f, budget: Budget | int | None = None) -> ProjectiveReport:
    """Projective-structure flags.

    Weak equivalences and fibrations are levelwise and decided exactly;
    trivial cofibrations use the fixed-point characterization. The plain
    cofibration flag is only bounded evidence (LLP against a sampled
    family of trivial fibrations), never presented as a decision.
    """
    f = as_equivariant(f)
    rep = classify_functor(f.map)
    family = sample_trivial_fibrations()
    evidence = has_llp(f, family, budget).ok
    return ProjectiveReport(
        weak_equivalence=rep.equivalence,
        fibration=rep.isofibration,
        trivial_cofibration=_trivial_cofibration(f, rep, StructureTag.PROJECTIVE),
        cofibration_evidence=evidence,
        evidence_family=tuple(name for name, _ in family),
    )


@dataclass
class InjectiveReport:
    cofibration: bool
    weak_equivalence: bool
    fibration: bool
    trivial_cofibration: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def injective_classify(f, budget: Budget | int | None = None) -> InjectiveReport:
    """Injective-structure flags; the fibration test is exact (RLP against
    the swapped-interval and fixed-point generators)."""
    f = as_equivariant(f)
    rep = classify_functor(f.map)
    return InjectiveReport(
        cofibration=rep.injective_on_objects,
        weak_equivalence=rep.equivalence,
        fibration=is_injective_fibration(f, budget),
        trivial_cofibration=_trivial_cofibration(f, rep, StructureTag.INJECTIVE),
    )


def is_fibrant(X: InvolutiveGroupoid, tag: StructureTag,
               budget: Budget | int | None = None) -> bool:
    if tag in (StructureTag.PROJECTIVE, StructureTag.GPD):
        return True
    return is_injective_fibration(terminal_map(X), budget)


def is_trivial_cofibration(f, tag: StructureTag) -> bool:
    f = as_equivariant(f)
    return _trivial_cofibration(f, classify_functor(f.map), tag)


# -- cell decomposition ---------------------------------------------------------


@dataclass
class CellSequence:
    """A finite list of cell attachments witnessing a decomposition."""

    start: InvolutiveGroupoid
    steps: list[tuple[str, object]] = field(default_factory=list)

    def recompose(self) -> tuple[InvolutiveGroupoid, EquivariantFunctor]:
        X = self.start
        incl = eq_identity(X)
        for k, (kind, data) in enumerate(self.steps):
            X, step_incl, _ = attach_cell(X, kind, data, fresh=f"c{k}")
            incl = eq_compose(step_incl, incl)
        return X, incl


def decompose_trivial_cofibration(f, tag: StructureTag) -> CellSequence:
    """Greedy cell decomposition of a trivial cofibration.

    Repeatedly picks the least object of the codomain missing from the
    image and attaches the cell dictated by its fixed/non-fixed status:
    an interval cell for plain groupoids, a swapped pair for a non-fixed
    object, a fixed-point cell (attached along a morphism m with
    eta(m) = inv(m)) for a fixed one. Each choice is read off the hom-sets
    directly: the decomposition runs no search, so it takes no budget.
    """
    f = as_equivariant(f)
    if not is_trivial_cofibration(f, tag):
        raise NotTrivialCofibration(f"not a {tag.value} trivial cofibration")
    B = f.cod
    comp = f
    X = f.dom
    seq = CellSequence(start=X)
    while True:
        image = {comp.on_obj(x) for x in X.base.objects}
        missing = [x for x in B.base.objects if x not in image]
        if not missing:
            break
        x = missing[0]
        choice = next(((y, phi) for y in X.base.objects
                       for phi in B.base.hom(comp.on_obj(y), x)), None)
        if choice is None:
            raise InvariantViolated("essential surjectivity failed")
        y, phi = choice
        if tag == StructureTag.GPD:
            kind, data, iso = "i", y, phi
        elif B.eta_obj(x) != x:
            kind, data, iso = "Si", y, phi
        else:
            if tag == StructureTag.PROJECTIVE:
                raise NotTrivialCofibration(
                    "projective trivial cofibrations hit every fixed point"
                )
            iso = B.eta_mor(phi)
            m_B = B.base.comp(B.base.inv(iso), phi)  # comp(y) -> comp(eta y)
            pre = [m for m in X.base.hom(y, X.eta_obj(y)) if comp.on_mor(m) == m_B]
            if len(pre) != 1:
                raise InvariantViolated("fully faithful comparison expected")
            kind, data = "iprime", pre[0]
        X, _, info = attach_cell(X, kind, data, fresh=f"c{len(seq.steps)}")
        comp = extend_over_cell(comp, X, info, [(x, iso)])
        seq.steps.append((kind, data))
        problems = validate_equivariant(comp)
        if problems:
            raise InvariantViolated(f"extended comparison: {'; '.join(problems[:3])}")
    return seq


# -- factorization via the gluing construction ----------------------------------


@dataclass
class Factorization:
    j: EquivariantFunctor  # trivial cofibration (a composite of cells)
    q: EquivariantFunctor  # has RLP against the tag's generators
    gluing_steps: int
    cells_attached: int


def factorize(f, tag: StructureTag, max_gluing_steps: int = 8,
              budget: Budget | int | None = None) -> Factorization:
    """Factor f as a cell composite followed by a generator-orthogonal map.

    One gluing step attaches a cell for every commuting square between a
    generator and the current right factor, exactly as in the small object
    argument, in one pushout (``attach_cells``); steps repeat until the
    right factor has the RLP or the cap is hit. It runs no search: the
    squares are read off in closed form by ``generator_squares`` and the
    RLP is decided by ``generator_orthogonal``, with ``iter_squares`` and
    ``has_rlp`` as their oracles. The budget is charged one unit per cell
    attached, so it still bounds the construction. The cap is checked
    before a step's cells are read off or charged: a run that hits it
    builds no step it would discard, and reports the cap even where a
    tight budget would also have run out.
    """
    f = as_equivariant(f)
    budget = ensure_budget(budget)
    X = f.dom
    q = f
    j = eq_identity(f.dom)
    cells = 0
    for step in range(max_gluing_steps + 1):
        if generator_orthogonal(q, tag):
            return Factorization(j=j, q=q, gluing_steps=step, cells_attached=cells)
        if step == max_gluing_steps:
            break
        squares = list(generator_squares(q, tag))
        budget.spend(len(squares))
        X, incl, info = attach_cells(
            X, [(name, data, f"g{step}.{idx}") for idx, (name, data, _, _) in enumerate(squares)],
            fresh=f"g{step}",
        )
        q = extend_over_cell(q, X, info, [(x, iso) for _, _, x, iso in squares])
        j = eq_compose(incl, j)
        cells += len(squares)
    raise IterationCapExceeded(
        f"gluing construction did not converge in {max_gluing_steps} steps"
    )
