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

from invgpd.budget import Budget
from invgpd.equivariant import InvolutiveGroupoid
from invgpd.errors import BudgetExceeded
from invgpd.generators import equivariant_functors, involutions_of, plain_catalog
from invgpd.search import iter_functors

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
