"""The functor search pinned to its enumeration order and budget.

Every result of the paper's checks, and every ``budget_used`` in a report,
depends on the order in which ``iter_functors`` yields functors and on how
many candidates it spends. These digests were recorded from the scanning
``propagate`` that the composite lookups replaced; any change to the order
of assignments, to the yielded maps (insertion order included) or to the
spend count shows up here. The limit sweep was recorded from the search
that charged one unit per ``spend()`` call, before stretches that cannot
yield were charged in bulk: a bulk charge that stops at another unit, or
lets one more functor out, shows up there.
"""

import hashlib

import pytest

from invgpd import cli, docformat, lifting
from invgpd.budget import Budget
from invgpd.core import Groupoid
from invgpd.equivariant import InvolutiveGroupoid
from invgpd.errors import BudgetExceeded
from invgpd.generators import equivariant_functors, involutions_of, plain_catalog
from invgpd.lifting import StructureTag, generating_trivial_cofibrations, has_rlp
from invgpd.search import iter_functors
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


def bijective_runs():
    return [(A, B, {"bijective": True}) for A in CATALOG for B in CATALOG]


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


@pytest.mark.parametrize("runs, expected", [
    (plain_runs, "58afc05b6762ccd7c4283af8248394d4ebeb06727e444937158c4ff3ceec9521"),
    (bijective_runs, "fb0811572c87c30adaa2f6bd1189f07ecfc8b4816d60bf1d9fd5552d5e4cdb2f"),
    (equivariant_runs, "edc74721598f9caa91b497f316c52f04b4fa79cb063d0cc33172aa18349c45f1"),
    (post_runs, "ee5bb95484ab30666b543ae22a461ff0f3e6c43b0967a66379f1957ca762a986"),
], ids=["plain", "bijective", "equiv", "post"])
def test_search_order_and_budget_are_pinned(runs, expected):
    assert catalog_digest(runs()) == expected


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
], ids=["equiv", "post"])
def test_search_stops_at_the_same_unit_for_every_limit(runs, expected):
    assert sweep_digest(runs()) == expected


# -- identity pops charged in bulk, against the generic walk ------------------
#
# When the identities obey the unit laws, ``iter_functors`` charges the
# pops of the identities it seeds instead of walking them. Patching the
# unit-law check to False forces the generic walk, which is the reference.


def force_generic_walk(monkeypatch):
    monkeypatch.setattr(Groupoid, "identities_are_units", lambda self: False)


@pytest.mark.parametrize("runs", [plain_runs, bijective_runs, equivariant_runs, post_runs],
                         ids=["plain", "bijective", "equiv", "post"])
def test_identity_charge_matches_the_generic_walk(runs, monkeypatch):
    assert all(G.identities_are_units() for G in CATALOG)
    assert all(X.involution.preserves_identities() for X in INVOLUTIVE)
    charged = catalog_digest(runs())
    force_generic_walk(monkeypatch)
    assert catalog_digest(runs()) == charged


@pytest.fixture(scope="module")
def base2_maps():
    bundle = build_universe(cli.base_elements(2))
    return {"q": equivalence_space(bundle).delta2, "p": bundle.p}


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


@pytest.mark.parametrize("name", ["q", "p"])
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
