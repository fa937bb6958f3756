"""The lookup contract of computed compose tables (pullbacks, cell
attachments, the universe bundle U and Ũ and path objects), checked
against an all-pairs table."""

import pytest

from invgpd.core import ComputedComposites


def assert_lookups_agree(compose, want, mids):
    """``[]``, ``get`` and ``in`` agree with ``want`` on every ordered pair
    of ``mids``; a pair outside it gives ``KeyError``, None and False."""
    for g in mids:
        for f in mids:
            key = (g, f)
            if key in want:
                assert compose[key] == compose.get(key) == want[key] and key in compose
            else:
                try:
                    compose[key]
                except KeyError:
                    pass
                else:
                    pytest.fail(f"{key} is not composable, yet has a composite")
                assert compose.get(key) is None and key not in compose


def assert_rows_and_walk(G, want):
    """G's compose is computed, and ``row(g)``, ``composite_table()[g]``
    and the full walk agree with the all-pairs table ``want``: rows for
    every morphism g, and the walk lists each composite of ``want`` once."""
    compose = G.compose
    assert isinstance(compose, ComputedComposites)
    rows = {g: {} for g in G.morphisms}
    for (g, f), h in want.items():
        rows[g][f] = h
    table = G.composite_table()
    for g, row in rows.items():
        assert compose.row(g) == row and table[g] == row
    items = list(compose.items())
    assert len(items) == len(want) and dict(items) == want
    assert len(compose) == len(want) and compose == want


def assert_computed_composites(G, want):
    """G's compose is computed and agrees with the all-pairs table
    ``want``: lookups before and after a full walk, and rows and the walk
    as ``assert_rows_and_walk`` checks them."""
    assert isinstance(G.compose, ComputedComposites)
    assert_lookups_agree(G.compose, want, G.morphisms)
    assert_rows_and_walk(G, want)
    assert_lookups_agree(G.compose, want, G.morphisms)
