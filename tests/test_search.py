"""The functor search pinned to its enumeration order and budget.

Every result of the paper's checks, and every ``budget_used`` in a report,
depends on the order in which ``iter_functors`` yields functors and on how
many candidates it spends. These digests were recorded from the scanning
``propagate`` that the composite lookups replaced; any change to the order
of assignments, to the yielded maps (insertion order included) or to the
spend count shows up here. The limit sweep was recorded from the search
that charged one unit per ``spend()`` call, before stretches that cannot
yield were charged in bulk: a bulk charge that stops at another unit, or
lets one more functor out, shows up there. The ``rlp`` and ``llp`` runs,
the square and filler searches that ``has_rlp`` and ``has_llp`` made when
every square ran its own bottom search, were recorded from the search that
still walked each pop's identity partners and seeded the identities one
``assign_mor`` call at a time; they are now made by a test-local copy of
that square search, and ``has_rlp`` and ``has_llp``, which replay bottom
searches, are checked against it. Dead leaves, which the search now
charges instead of walking, and posts into the point, which it drops, are
checked against ``reference_search``, a copy of the search that walked
every leaf and read every post.
"""

import hashlib
import random
from dataclasses import dataclass, field
from functools import cache
from itertools import permutations

import pytest

import reference_search
from invgpd import cli, docformat, lifting
from invgpd.budget import Budget, ensure_budget
from invgpd.core import (
    Functor,
    Groupoid,
    codiscrete,
    coproduct,
    discrete,
    identity_functor,
    terminal_functor,
    unit,
)
from invgpd.equivariant import EquivariantFunctor, InvolutiveGroupoid, diagonal, terminal_map
from invgpd.errors import BudgetExceeded
from invgpd.generators import equivariant_functors, involutions_of, plain_catalog, z2_component
from invgpd.lifting import (
    OrthogonalityReport,
    StructureTag,
    functor_as_dict,
    generating_trivial_cofibrations,
    has_llp,
    has_rlp,
    sample_trivial_fibrations,
)
from invgpd.search import _bijections, find_isomorphism, iter_functors
from invgpd.universe import build_universe, equivalence_space

CATALOG = plain_catalog(3, vertex_z2=True)
INVOLUTIVE = [InvolutiveGroupoid(G, involutions_of(G)[-1]) for G in CATALOG]


def functor_bytes(F) -> bytes:
    return repr((list(F.obj_map.items()), list(F.mor_map.items()))).encode()


def run_digest(dom, cod, **kw) -> str:
    """Digest of the yielded (obj_map, mor_map) sequence, then budget.used."""
    budget = Budget()
    h = hashlib.sha256()
    for F in iter_functors(dom, cod, budget=budget, **kw):
        h.update(functor_bytes(F))
    return f"{h.hexdigest()} {budget.used}\n"


def catalog_digest(runs) -> str:
    h = hashlib.sha256()
    for dom, cod, kw in runs:
        h.update(run_digest(dom, cod, **kw).encode())
    return h.hexdigest()


def plain_runs():
    return [(A, B, {}) for A in CATALOG for B in CATALOG]


def equivariant_runs():
    return [
        (X.base, Y.base, {"equiv": (X.involution, Y.involution)})
        for X in INVOLUTIVE for Y in INVOLUTIVE
    ]


def post_runs():
    # endofunctors of X over Y along an equivariant map g, as in the
    # right-homotopy search: g∘F = g and F commutes with the involution
    return [
        (X.base, X.base, {"post": (g.map, g.map), "equiv": (X.involution, X.involution)})
        for X in INVOLUTIVE for Y in INVOLUTIVE
        for g in equivariant_functors(X, Y, limit=1)
    ]


@cache
def recorded_maps() -> tuple:
    """Each terminal map of the involutive catalog and one equivariant map
    between each ordered pair of it."""
    return tuple([terminal_map(X) for X in INVOLUTIVE] + [
        g for X in INVOLUTIVE for Y in INVOLUTIVE for g in equivariant_functors(X, Y, limit=1)
    ])


def recorded_runs(check) -> list:
    """The ``(dom, cod, kwargs)`` of every search that ``check(f)`` makes,
    for f each of ``recorded_maps``. Square searches carry ``equiv`` and
    the seeds; filler searches carry ``obj_seed``, ``mor_seed``, ``post``
    and ``equiv`` together."""
    maps = recorded_maps()
    runs = []

    def recording(dom, cod, *, budget, **kw):
        runs.append((dom, cod, kw))
        return iter_functors(dom, cod, budget=budget, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lifting, "iter_functors", recording)
        for f in maps:
            check(f)
    return runs


# -- the square search before it replayed bottom searches ----------------------
#
# ``has_rlp`` and ``has_llp`` as they were when every g ran its own bottom
# search. They call ``iter_functors`` through ``lifting``, so that
# ``recorded_runs`` sees their searches, and are the reference that the
# replay is checked against.


def reference_squares(left, right, budget):
    A, B, X, Y = left.dom, left.cod, right.dom, right.cod
    r_obj, r_mor = right.map.obj_map, right.map.mor_map
    for g in lifting.iter_functors(A.base, X.base, equiv=(A.involution, X.involution),
                                   budget=budget):
        seeds = lifting._seeds(left, {a: r_obj[b] for a, b in g.obj_map.items()},
                               {m: r_mor[n] for m, n in g.mor_map.items()})
        if seeds is None:
            continue
        for h in lifting.iter_functors(B.base, Y.base, obj_seed=seeds[0], mor_seed=seeds[1],
                                       equiv=(B.involution, Y.involution), budget=budget):
            yield EquivariantFunctor(A, X, g), EquivariantFunctor(B, Y, h)


def reference_orthogonality(pairs, key, budget=None):
    budget = ensure_budget(budget)
    checked = 0
    for name, left, right in pairs:
        for g, h in reference_squares(left, right, budget):
            checked += 1
            seeds = lifting._seeds(left, g.map.obj_map, g.map.mor_map)
            if next(lifting._filler_search(left, right, seeds, h.map, budget), None) is None:
                witness = {key: name, "top": functor_as_dict(g), "bottom": functor_as_dict(h)}
                return OrthogonalityReport(False, checked, witness)
    return OrthogonalityReport(True, checked)


GENERATORS = generating_trivial_cofibrations(StructureTag.INJECTIVE)


def ref_rlp(f, budget=None):
    return reference_orthogonality([(n, gen, f) for n, gen in GENERATORS], "generator", budget)


def ref_llp(f, budget=None):
    return reference_orthogonality([(n, f, p) for n, p in sample_trivial_fibrations()], "test",
                                   budget)


def rlp(f, budget=None):
    return has_rlp(f, GENERATORS, budget)


def llp(f, budget=None):
    return has_llp(f, sample_trivial_fibrations(), budget)


def rlp_runs():
    return recorded_runs(ref_rlp)


def llp_runs():
    return recorded_runs(ref_llp)


@pytest.mark.parametrize("runs, expected", [
    (plain_runs, "58afc05b6762ccd7c4283af8248394d4ebeb06727e444937158c4ff3ceec9521"),
    (equivariant_runs, "edc74721598f9caa91b497f316c52f04b4fa79cb063d0cc33172aa18349c45f1"),
    (post_runs, "ee5bb95484ab30666b543ae22a461ff0f3e6c43b0967a66379f1957ca762a986"),
    (rlp_runs, "2d7a932d894745cce58efe9d684f0f0c04ff2b78aee9d4d0491dae4b36b99fad"),
    (llp_runs, "fcfaefbe34f17998958692fb8c1e4930567b4fdb0066df2281ec50295747f205"),
], ids=["plain", "equiv", "post", "rlp", "llp"])
def test_search_order_and_budget_are_pinned(runs, expected):
    assert catalog_digest(runs()) == expected


def outcome(check, f, limit):
    """The report of ``check(f)`` under ``limit``, or its ``BudgetExceeded``
    message, with the units spent."""
    budget = Budget(limit=limit)
    try:
        result = check(f, budget).to_dict()
    except BudgetExceeded as exc:
        result = str(exc)
    return result, budget.used


@pytest.mark.parametrize("check, reference", [(rlp, ref_rlp), (llp, ref_llp)],
                         ids=["rlp", "llp"])
def test_replayed_squares_stop_where_the_searches_did(check, reference):
    """Replayed bottom searches give the report, or stop, at the unit where
    searching again did: for a spread of limits per map, and at its full
    spend and one unit under it, where a charge moved earlier would stop a
    run that ends on a failing square."""
    stops = failures = 0
    for i, f in enumerate(recorded_maps()):
        total = Budget()
        reference(f, total)
        step = max(7, total.used // 12)
        for limit in sorted({*range(i % 7, total.used, step), total.used - 1, total.used}):
            want = outcome(reference, f, limit)
            assert outcome(check, f, limit) == want
            stops += isinstance(want[0], str)
            failures += isinstance(want[0], dict) and not want[0]["ok"]
    assert stops and failures


def square_trace(squares, budget) -> tuple[list, list]:
    """Each square with the units spent when it was yielded, then the
    units spent at the end; and the bottom maps."""
    trace, bottoms = [], []
    for g, h in squares:
        trace.append((functor_bytes(g.map), functor_bytes(h.map), budget.used))
        bottoms.append(h)
    return trace + [budget.used], bottoms


def test_replayed_squares_charge_each_unit_where_the_search_did():
    """Every square comes with the units spent before it, as when each g
    searched again: a replay that charges its units in one lump, or late,
    shows up at its first square."""
    replayed = 0
    for f in recorded_maps():
        pairs = [(gen, f) for _, gen in GENERATORS]
        pairs += [(f, p) for _, p in sample_trivial_fibrations()]
        for left, right in pairs:
            budget = Budget()
            found, bottoms = square_trace(lifting.iter_squares(left, right, budget), budget)
            budget = Budget()
            assert found == square_trace(reference_squares(left, right, budget), budget)[0]
            # a replayed square yields the bottom map it recorded
            replayed += len(bottoms) - len({id(h) for h in bottoms})
    assert replayed


@pytest.fixture(scope="module")
def base3_bundle():
    return build_universe(cli.base_elements(3))


# universe-b3's injective fibrancy checks: p and the maps from U and Ũ to the
# point, recorded from the search that ran a bottom search for every g; the
# per-component kernel gives the same verdicts
@pytest.mark.parametrize("name, report, units", [
    ("p", {"ok": True, "squares_checked": 2484}, 482_409),
    ("U", {"ok": True, "squares_checked": 104}, 39_825),
    ("Utilde", {"ok": True, "squares_checked": 144}, 71_748),
])
def test_base3_fibrancy_checks_are_pinned(base3_bundle, name, report, units):
    f = base3_bundle.p if name == "p" else terminal_map(getattr(base3_bundle, name))
    budget = Budget()
    assert (rlp(f, budget).to_dict(), budget.used) == (report, units)
    assert lifting.generator_orthogonal(f, StructureTag.INJECTIVE) == report["ok"]


@pytest.mark.parametrize("tag", list(StructureTag), ids=lambda tag: tag.value)
def test_generator_orthogonal_agrees_at_base3(base3_bundle, tag):
    """The per-component kernel decides what the square search decides on
    the closure checks' diagonal of p and on the maps from U and Ũ to the
    point, for every tag."""
    gens = generating_trivial_cofibrations(tag)
    for f in (diagonal(base3_bundle.p), terminal_map(base3_bundle.U),
              terminal_map(base3_bundle.Utilde)):
        assert lifting.generator_orthogonal(f, tag) == has_rlp(f, gens).ok


@pytest.mark.parametrize("name, searches", [("p", [33, 61]), ("U", [1, 1]), ("Utilde", [1, 1])])
def test_one_bottom_search_per_run_of_equal_seeds(base3_bundle, name, searches, monkeypatch):
    """On p, the 63 Si squares' g's have 33 runs of equal seeds and the 81
    iprime ones 61; every g into U or Ũ asks the same of the point."""
    f = base3_bundle.p if name == "p" else terminal_map(getattr(base3_bundle, name))
    runs = []

    def recording(dom, cod, **kw):
        runs.append((dom, kw))
        return iter_functors(dom, cod, **kw)

    monkeypatch.setattr(lifting, "iter_functors", recording)
    rlp(f)
    # bottom searches are the seeded searches without a post constraint
    assert [sum(1 for dom, kw in runs if dom is gen.cod.base and "obj_seed" in kw
                and "post" not in kw) for _, gen in GENERATORS] == searches


def test_filler_seeds_are_read_once_per_top(base3_bundle, monkeypatch):
    """``has_rlp(p)`` reads ``_seeds`` twice per g, once for its bottom
    search and once for its fillers, not once per square: 63 Si and 81
    iprime g's, against 2,484 squares."""
    seeds, calls = lifting._seeds, []

    def counted(*args):
        calls.append(args)
        return seeds(*args)

    monkeypatch.setattr(lifting, "_seeds", counted)
    assert rlp(base3_bundle.p).squares_checked == 2484
    assert len(calls) == 2 * (63 + 81)


# -- the post constraint reads candidates off the fiber -------------------------


def test_fibers_are_the_walk_over_dom_objects():
    fibers = 0
    for A in CATALOG:
        for B in CATALOG:
            for F in iter_functors(A, B):
                walk = {}
                for pos, x in enumerate(A.objects):
                    walk.setdefault(F.obj_map[x], []).append((pos, x))
                assert F.fibers() == walk
                fibers += len(walk)
    assert fibers


def test_post_functor_without_an_object_raises():
    X = INVOLUTIVE[-1]
    q = identity_functor(X.base)
    lacking = Functor(q.dom, q.cod, dict(list(q.obj_map.items())[:-1]), q.mor_map)
    with pytest.raises(KeyError):
        next(iter_functors(X.base, X.base, post=(lacking, q)))


def test_search_budget_exceeded_at_the_same_point():
    big = max(CATALOG, key=lambda G: G.n_morphisms)  # codiscrete z2 on 3 objects
    budget = Budget(limit=10_000)
    h = hashlib.sha256()
    with pytest.raises(BudgetExceeded):
        for F in iter_functors(big, big, budget=budget):
            h.update(functor_bytes(F))
    assert (h.hexdigest(), budget.used) == (
        "e9b3bed3e4ed03a7551b5d1f41eb096f052872ef6ad55494b3282939f868a2b7", 10_001)


def sweep_digest(runs, stride=11, points=16) -> str:
    """Digest, for a spread of limits per run, what the search yields
    before ``BudgetExceeded`` and ``budget.used`` when it stops.

    Each run is tried at limits ``offset, offset + step, ...`` up to its
    full spend (which completes), with the offset varying by run so the
    crossing points fall in every stretch of the search.
    """
    h = hashlib.sha256()
    for i, (dom, cod, kw) in enumerate(runs):
        total = Budget()
        for _ in iter_functors(dom, cod, budget=total, **kw):
            pass
        for limit in range(i % stride, total.used + 1, max(stride, total.used // points)):
            budget = Budget(limit=limit)
            g = hashlib.sha256()
            try:
                for F in iter_functors(dom, cod, budget=budget, **kw):
                    g.update(functor_bytes(F))
            except BudgetExceeded:
                pass
            h.update(f"{g.hexdigest()} {budget.used}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("runs, expected", [
    (equivariant_runs, "75faaa20e14238004d62698673f66528eaa61ffb58d0f37e4ca1a80041d918ce"),
    (post_runs, "ba961245db5e86e307557c257a0fb508c8abd419fd04718535c82c2ae6954a73"),
    (rlp_runs, "4bb86675c27946e0cc291a4df9585032450813fd6febd2f574d868dc88d7658d"),
    (llp_runs, "13daf74e3490c66d5983a525b124dfb96f159e6011007207f5419ce2cdf69946"),
], ids=["equiv", "post", "rlp", "llp"])
def test_search_stops_at_the_same_unit_for_every_limit(runs, expected):
    assert sweep_digest(runs()) == expected


# -- identity pops charged in bulk, against the generic walk ------------------
#
# When the identities obey the unit laws, ``iter_functors`` charges the
# pops of the identities it seeds instead of walking them. Patching the
# unit-law check to False forces the generic walk, which is the reference.


def force_generic_walk(monkeypatch):
    monkeypatch.setattr(Groupoid, "identities_are_units", lambda self: False)


@pytest.mark.parametrize("runs", [plain_runs, equivariant_runs, post_runs, rlp_runs, llp_runs],
                         ids=["plain", "equiv", "post", "rlp", "llp"])
def test_identity_charge_matches_the_generic_walk(runs, monkeypatch):
    assert all(G.identities_are_units() for G in CATALOG)
    assert all(X.involution.preserves_identities() for X in INVOLUTIVE)
    charged = catalog_digest(runs())
    force_generic_walk(monkeypatch)
    assert catalog_digest(runs()) == charged


# two z2 vertex groups on o0 ~ o1, and one on o2; its identities are the
# m(x,x,0), so m(o2,o2,1) is a non-identity endomorphism of o2
Z2 = CATALOG[14]


def seed_conflict_case():
    # the identity of o2 seeded to a non-identity: a seed stage exit after
    # the identities are assigned, at the second mor_seed entry
    return Z2, Z2, {"mor_seed": {"m(o0,o1,1)": "m(o0,o1,1)", "m(o2,o2,0)": "m(o2,o2,1)"}}


def post_rejects_identity_case():
    # r sends the identity of o2 to a non-identity, so q∘F = r rejects the
    # image of the last identity the seed stage assigns
    r = Functor(Z2, Z2, {x: x for x in Z2.objects},
                {m: "m(o2,o2,1)" if m == "m(o2,o2,0)" else m for m in Z2.morphisms})
    return Z2, Z2, {"post": (identity_functor(Z2), r)}


# recorded from the search that seeded the identities one assign_mor call
# at a time
@pytest.mark.parametrize("case, expected", [
    (seed_conflict_case, "824136755fa3f26b723ce6bfd0bd7eef6d8d11fcfc630def1a1d1bb15563b9c2"),
    (post_rejects_identity_case,
     "6140e7da77510c9addb106bbbed3cdab3e626e2fcf9128ec19b9b438bbfa5ca2"),
], ids=["mor_seed", "post"])
def test_identity_seeding_exits_match_the_generic_walk(case, expected, monkeypatch):
    dom, cod, kw = case()
    assert dom.identities_are_units() and cod.identities_are_units()
    # stride 1 and more points than units: a stop at every limit from 0 to
    # the full spend, so at every unit of every seed stage
    charged = sweep_digest([(dom, cod, kw)], stride=1, points=10**9)
    assert charged == expected
    force_generic_walk(monkeypatch)
    assert sweep_digest([(dom, cod, kw)], stride=1, points=10**9) == charged


@pytest.fixture(scope="module")
def base2_maps():
    bundle = build_universe(cli.base_elements(2))
    space = equivalence_space(bundle)
    return {
        "q": space.delta2,
        "p": bundle.p,
        "U": terminal_map(bundle.U),
        "Utilde": terminal_map(bundle.Utilde),
        "E": terminal_map(space.path),
    }


def rlp_trace(f, monkeypatch) -> tuple[str, dict]:
    """Run ``has_rlp(f)`` against the injective generators, digesting every
    square and filler search it makes: each yielded functor with the
    budget spent so far, and each search's spend when it runs out."""
    h = hashlib.sha256()

    def recorded(dom, cod, *, budget, **kw):
        h.update(b"search\n")
        for F in iter_functors(dom, cod, budget=budget, **kw):
            h.update(functor_bytes(F) + f" {budget.used}\n".encode())
            yield F
        h.update(f"end {budget.used}\n".encode())

    monkeypatch.setattr(lifting, "iter_functors", recorded)
    budget = Budget()
    report = has_rlp(f, generating_trivial_cofibrations(StructureTag.INJECTIVE), budget)
    return h.hexdigest(), {**report.to_dict(), "budget_used": budget.used}


# q and p as in check_univalence; U, Utilde and E as its is_fibrant checks
@pytest.mark.parametrize("name", ["q", "p", "U", "Utilde", "E"])
def test_base2_rlp_searches_match_the_generic_walk(base2_maps, name, monkeypatch):
    f = base2_maps[name]
    assert f.dom.base.identities_are_units() and f.cod.base.identities_are_units()
    charged = rlp_trace(f, monkeypatch)
    force_generic_walk(monkeypatch)
    assert rlp_trace(f, monkeypatch) == charged


# compose id(a) . id(a) = f breaks the unit law at id(a) itself; only the
# pop of id(a) compares that composite with its image's, so charging the
# identity pops instead of walking them would accept maps the walk rejects
NON_UNIT_DOC = """
groupoid G
  objects a b
  morphism f : a -> a
  morphism u : a -> b
  inverse f = f
  compose id(a) . id(a) = f

involutive X
  base G

functor F : X -> X
  object a -> a
  object b -> b
  morphism f -> f
  morphism u -> u
"""

# recorded from the search that walked every identity pop
NON_UNIT_FLAGS = {
    "cofibration": True,
    "fibration": True,
    "trivial_cofibration": True,
    "weak_equivalence": True,
}


def test_non_unit_identity_takes_the_generic_walk(tmp_path, capsys):
    path = tmp_path / "non_unit.gpd"
    path.write_text(NON_UNIT_DOC, encoding="utf-8")
    doc = docformat.load(str(path))
    assert not doc.groupoids["G"].identities_are_units()
    budget = Budget()
    flags = lifting.injective_classify(doc.functors["F"], budget)
    assert (flags.to_dict(), budget.used) == (NON_UNIT_FLAGS, 398)
    # the command line does not search a document that is not a groupoid
    code = cli.main(["classify", "F", "--structure", "injective", "--file", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# -- dead leaves charged, against the search that walked them ------------------
#
# ``reference_search.iter_functors`` is the search before the dead-leaf rule:
# it runs the seed stage at every leaf. Each run below must yield the same
# functors, in the same order, with the same ``budget.used``: to its end, and
# under limits that stop inside a leaf the rule charges, at the first and
# the last unit of each part in which the reference spends that leaf.


@dataclass
class Ledger(Budget):
    """A budget that records each charge as (units used before it, amount)."""

    charges: list = field(default_factory=list, compare=False)

    def spend(self, amount: int = 1) -> None:
        self.charges.append((self.used, amount))
        super().spend(amount)


def search_trace(search, dom, cod, kw, budget) -> tuple[list, int, bool]:
    """The bytes of each yielded functor, ``budget.used``, and whether the
    budget ran out."""
    found = []
    try:
        for F in search(dom, cod, budget=budget, **kw):
            found.append(functor_bytes(F))
    except BudgetExceeded:
        return found, budget.used, True
    return found, budget.used, False


def charged_leaves(dom, cod, kw) -> list[list[tuple[int, int]]]:
    """Check a full run against the reference, and give, for each leaf the
    rule charged, the reference's charges inside it. The two ledgers differ
    only there: one lump against the stage's parts."""
    charged, walked = Ledger(), Ledger()
    assert (search_trace(iter_functors, dom, cod, kw, charged)
            == search_trace(reference_search.iter_functors, dom, cod, kw, walked))
    parts = set(walked.charges)
    return [[(s, a) for s, a in walked.charges if start <= s < start + units and a]
            for start, units in charged.charges if (start, units) not in parts]


def check_charged_leaves(runs) -> int:
    """Every run agrees with the reference to its end, and when stopped at
    each part of its first and last charged leaf; the number of charged
    leaves."""
    total = 0
    for dom, cod, kw in runs:
        leaves = charged_leaves(dom, cod, kw)
        total += len(leaves)
        for limit in sorted({limit for leaf in leaves[:1] + leaves[-1:]
                             for s, a in leaf for limit in (s, s + a - 1)}):
            assert (search_trace(iter_functors, dom, cod, kw, Budget(limit))
                    == search_trace(reference_search.iter_functors, dom, cod, kw,
                                    Budget(limit))), (kw, limit)
    return total


def rlp_searches(f) -> list:
    """The ``(dom, cod, kwargs)`` of every search that ``has_rlp(f)`` makes."""
    runs = []

    def recording(dom, cod, *, budget, **kw):
        runs.append((dom, cod, kw))
        return iter_functors(dom, cod, budget=budget, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lifting, "iter_functors", recording)
        rlp(f)
    return runs


def square_runs(f) -> list:
    """The top and bottom searches (those without ``post``) of ``has_rlp(f)``."""
    return [run for run in rlp_searches(f) if "post" not in run[2]]


def filler_runs(f) -> list:
    """The filler searches (those with ``post``) of ``has_rlp(f)``."""
    return [run for run in rlp_searches(f) if "post" in run[2]]


# the leaves of those searches the rule charges: 1,210 of the 2,102 leaves
# for p at |V| = 3, and 1,418 of the 1,904 for delta2 at |V| = 2; none for
# the maps from U and Ũ to the point, whose top searches meet no dead leaf
# and whose bottom searches into the point have one leaf each
@pytest.mark.parametrize("name, charged", [
    ("p", 1210), ("U", 0), ("Utilde", 0), ("delta2", 1418),
])
def test_has_rlp_square_searches_charge_dead_leaves_exactly(base3_bundle, base2_maps,
                                                            name, charged):
    if name == "delta2":
        f = base2_maps["q"]
    else:
        f = base3_bundle.p if name == "p" else terminal_map(getattr(base3_bundle, name))
    assert check_charged_leaves(square_runs(f)) == charged


# the filler searches of the maps from U and Ũ to the point at |V| = 3: their
# post sends everything to the point, so they run without it and charge the
# leaves the rule finds
@pytest.mark.parametrize("name, charged", [("U", 1280), ("Utilde", 2934)])
def test_fibrancy_filler_searches_charge_dead_leaves_exactly(base3_bundle, name, charged):
    f = terminal_map(getattr(base3_bundle, name))
    assert check_charged_leaves(filler_runs(f)) == charged


def unseeded_runs():
    # obj_seed pins o0 and mor_seed one morphism m with an end outside it
    # (an identity among them); the stage then repeats only at the leaves
    # that agree with the first on m's other end. When n does not end at
    # cod's first object, the first leaf's stage fails.
    runs = []
    for A, B in ((CATALOG[3], CATALOG[14]), (CATALOG[12], CATALOG[14]),
                 (CATALOG[14], CATALOG[10])):
        x0 = A.objects[0]
        for c in B.objects:
            for m, ends in A.morphisms.items():
                if ends != (x0, x0):
                    runs += [(A, B, {"obj_seed": {x0: c}, "mor_seed": {m: n}})
                             for n in B.morphisms]
    return runs


def lawless_post_runs():
    # q sends the identity of B's last object to the non-identity of the z2
    # point, so under post the seed stage fails exactly at the leaves that
    # send an object there; the first leaf sends every object to B's first
    point = CATALOG[2]
    (star,), g = point.objects, point.non_identities()[0]
    runs = []
    for A in CATALOG[1:]:
        r = Functor(A, point, dict.fromkeys(A.objects, star),
                    dict.fromkeys(A.morphisms, point.identity[star]))
        for B in CATALOG[1:]:
            last = B.identity[B.objects[-1]]
            q = Functor(B, point, dict.fromkeys(B.objects, star),
                        {n: g if n == last else point.identity[star] for n in B.morphisms})
            runs.append((A, B, {"post": (q, r)}))
    return runs


# the identity of b is not a unit (id(b) . id(b) = f), so the identities are
# walked: the stage fails at the leaves that send an object to b, but not at
# the first, which sends every object to a
NON_UNIT_COD = docformat.loads("""
groupoid G
  objects a b c
  morphism f : b -> b
  inverse f = f
  compose id(b) . id(b) = f
""").groupoids["G"]


def non_unit_cod_runs():
    return [(A, NON_UNIT_COD, kw) for A in CATALOG[1:]
            for kw in [{}, *({"obj_seed": {A.objects[0]: c}} for c in NON_UNIT_COD.objects)]]


# the catalog searches without post, and the cases the rule must leave alone:
# a seed with an end outside obj_seed, a post constraint that fails at some
# leaves only, and a cod whose identities are not units
@pytest.mark.parametrize("runs, charged", [
    (plain_runs, 696), (equivariant_runs, 50), (unseeded_runs, 0),
    (lawless_post_runs, 0), (non_unit_cod_runs, 0),
], ids=["plain", "equiv", "unseeded", "lawless-post", "non-unit-cod"])
def test_catalog_searches_charge_dead_leaves_exactly(runs, charged):
    assert check_charged_leaves(runs()) == charged


# -- a post into the point is dropped -----------------------------------------
#
# A post whose q and r send everything to the one object and the one morphism
# of the point rejects nothing, so ``iter_functors`` runs the search without
# it. Each run must agree with the search without post, to its end and under
# a limit, and with ``reference_search`` under the same post, to its end and
# inside the leaves the rule charges. Posts that are not of that kind must
# keep the generic path.


def outcome_trace(search, dom, cod, kw, limit=None):
    """``search_trace`` under ``limit``, or the type of what the search raised."""
    try:
        return search_trace(search, dom, cod, kw, Budget() if limit is None else Budget(limit))
    except KeyError:
        return KeyError


def point_post_runs():
    point = unit()
    runs = []
    for A in CATALOG:
        for B in CATALOG:
            post = (terminal_functor(B, point), terminal_functor(A, point))
            runs.append((A, B, {"post": post}))
            if A.objects and B.objects:
                runs.append((A, B, {"post": post, "obj_seed": {A.objects[0]: B.objects[-1]}}))
    return runs


def not_point_post_runs():
    # posts into a point that the rule must leave alone: into the z2 point
    # (lawless_post_runs), and into the point from maps that miss an object,
    # send a morphism elsewhere, or are defined on another groupoid than
    # the search's cod or dom, or into another point than r's
    point, other = unit(), discrete(("pt",))
    one = CATALOG[1]
    runs = lawless_post_runs()[::3]
    for A in CATALOG[3::3]:
        for B in CATALOG[3::3]:
            q, r = terminal_functor(B, point), terminal_functor(A, point)
            x, m = A.objects[-1], A.identity[A.objects[-1]]
            missing = Functor(A, point, {y: "*" for y in A.objects if y != x}, r.mor_map)
            elsewhere = Functor(A, point, r.obj_map, {**r.mor_map, m: "id(pt)"})
            runs += [(A, B, {"post": post}) for post in (
                (q, missing),
                (q, elsewhere),
                (terminal_functor(one, point), r),
                (q, terminal_functor(one, point)),
                (q, Functor(A, other, dict.fromkeys(A.objects, "pt"),
                            dict.fromkeys(A.morphisms, "id(pt)"))),
            )]
    return runs


def without_post(kw: dict) -> dict:
    return {k: v for k, v in kw.items() if k != "post"}


def test_post_into_the_point_is_no_constraint():
    runs = point_post_runs()
    for i, (dom, cod, kw) in enumerate(runs):
        bare = without_post(kw)
        whole = search_trace(iter_functors, dom, cod, kw, Budget())
        assert whole == search_trace(iter_functors, dom, cod, bare, Budget())
        # one stop per run, at a point that moves from run to run
        limit = whole[1] * (1 + i % 7) // 8
        assert (search_trace(iter_functors, dom, cod, kw, Budget(limit))
                == search_trace(iter_functors, dom, cod, bare, Budget(limit))), (kw, limit)
    # to its end, and in each part of its first and last charged leaf, each
    # run agrees with the search that walked every leaf under post; the
    # rule fires
    assert check_charged_leaves(runs) == 900


def test_post_into_the_point_keeps_every_other_post():
    """A post the rule must not drop rejects a candidate or raises, so the
    search without it would differ; with it, the search agrees with the
    reference to its end and under a spread of limits."""
    for i, (dom, cod, kw) in enumerate(not_point_post_runs()):
        whole = outcome_trace(iter_functors, dom, cod, kw)
        assert whole == outcome_trace(reference_search.iter_functors, dom, cod, kw)
        assert whole != outcome_trace(iter_functors, dom, cod, without_post(kw)), kw
        if whole is KeyError:
            continue
        for limit in range(i % 5, whole[1], max(5, whole[1] // 4)):
            assert (outcome_trace(iter_functors, dom, cod, kw, limit)
                    == outcome_trace(reference_search.iter_functors, dom, cod, kw, limit))


# -- involutions and isomorphisms, against the bijective search ---------------
#
# ``reference_search.iter_functors`` keeps the mode that restricted the
# search to isomorphisms. ``involutions_of`` searches each object involution
# instead, and ``find_isomorphism`` searches each object bijection and
# keeps the first functor injective on morphisms; both must give what the
# bijective search gave, in its order.


def reference_involutions(G) -> list:
    return [F for F in reference_search.iter_functors(G, G, bijective=True)
            if all(F.obj_map[F.obj_map[x]] == x for x in G.objects)
            and all(F.mor_map[F.mor_map[m]] == m for m in G.morphisms)]


def test_involutions_are_those_of_the_bijective_search():
    catalog = plain_catalog(3, vertex_z2=True) + plain_catalog(4, vertex_z2=True)
    assert len(catalog) == 80
    for G in catalog:
        assert ([functor_bytes(F) for F in involutions_of(G)]
                == [functor_bytes(F) for F in reference_involutions(G)]), G.objects


def test_isomorphisms_are_those_of_the_bijective_search():
    found = 0
    for A in CATALOG:
        for B in CATALOG:
            seeds = [{A.objects[0]: y} for y in B.objects] if A.objects else []
            for seed in [None, *seeds]:
                want = next(reference_search.iter_functors(A, B, bijective=True,
                                                           obj_seed=seed), None)
                got = find_isomorphism(A, B, obj_seed=seed)
                assert (got and functor_bytes(got)) == (want and functor_bytes(want))
                found += want is not None
    assert found


def test_isomorphism_of_eight_discrete_objects_stays_in_budget():
    """Only object bijections are searched: filtering the unrestricted
    search tries 8^8 object maps for the identity of eight discrete
    objects, and runs out of the default budget."""
    D = discrete(tuple(f"o{i}" for i in range(8)))
    F = find_isomorphism(D, D)
    assert F.obj_map == {x: x for x in D.objects}
    assert F.mor_map == {m: m for m in D.morphisms}


def one_object_group(name: str, n: int, mult) -> Groupoid:
    """The group on range(n) with product ``mult`` as a one-object groupoid."""
    g = [f"{name}{i}" for i in range(n)]
    compose = {(g[b], g[a]): g[mult(b, a)] for a in range(n) for b in range(n)}
    inverse = {g[a]: g[next(b for b in range(n) if mult(b, a) == 0)] for a in range(n)}
    return Groupoid(("*",), {m: ("*", "*") for m in g}, {"*": g[0]}, compose, inverse)


@pytest.mark.parametrize("n_discrete", [6, 7])
def test_isomorphism_search_skips_bijections_that_break_an_invariant(n_discrete):
    """Two codiscrete objects against two one-object Z/2 components, each
    beside the same discrete objects: equal sizes, but one component of
    two objects with trivial vertex groups against two of one object with
    vertex groups of order 2. No bijection keeps the invariants, so nothing
    is searched. Searching every bijection would take 40,320 searches and
    1,935,360 units at 6 discrete objects, and exceed the default budget
    at 7."""
    rest = discrete(tuple(f"d{i}" for i in range(n_discrete)))
    G, _, _ = coproduct(codiscrete(("p", "q")), rest)
    Z, _, _ = coproduct(z2_component(("p",)), z2_component(("q",)))
    H, _, _ = coproduct(Z, rest)
    assert (G.n_objects, G.n_morphisms) == (H.n_objects, H.n_morphisms)
    budget = Budget()
    assert find_isomorphism(G, H, budget=budget) is None
    assert find_isomorphism(H, G, budget=budget) is None
    assert budget.used == 0
    # a seed that pairs objects of different invariants searches nothing
    pq, d0 = "l:p", "r:d0"
    assert find_isomorphism(G, G, budget=budget, obj_seed={pq: d0}) is None
    assert budget.used == 0
    F = find_isomorphism(G, G, budget=budget, obj_seed={pq: "l:q"})
    assert F.obj_map[pq] == "l:q" and budget.used > 0


def test_matching_bijections_come_in_permutations_order():
    """``_bijections`` lists exactly the permutations that keep every key,
    in ``itertools.permutations`` order."""
    rng = random.Random(3)
    for n in range(7):
        for _ in range(20):
            rest, free = [f"x{i}" for i in range(n)], [f"c{i}" for i in range(n)]
            key_G = {x: rng.randint(0, 2) for x in rest}
            key_H = {c: rng.randint(0, 2) for c in free}
            want = [p for p in permutations(free)
                    if all(key_G[x] == key_H[c] for x, c in zip(rest, p))]
            assert list(_bijections(rest, free, key_G, key_H)) == want


def test_isomorphism_search_runs_when_the_invariants_agree():
    """Z/4 and Z/2 × Z/2 share their invariants (one object, a vertex group
    of order 4): the one bijection is searched, and finds no isomorphism."""
    z4 = one_object_group("z", 4, lambda b, a: (a + b) % 4)
    klein = one_object_group("k", 4, lambda b, a: a ^ b)
    budget = Budget()
    assert find_isomorphism(z4, klein, budget=budget) is None and budget.used > 0
    assert find_isomorphism(z4, z4) is not None and find_isomorphism(klein, klein) is not None
