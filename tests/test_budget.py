"""Budget.spend(n) is exact: it acts as n calls of spend()."""

import pytest

from invgpd.budget import Budget
from invgpd.errors import BudgetExceeded


def one_by_one(limit: int, used: int, n: int) -> tuple[int, str | None]:
    budget = Budget(limit=limit, used=used)
    try:
        for _ in range(n):
            budget.spend()
    except BudgetExceeded as exc:
        return budget.used, str(exc)
    return budget.used, None


def in_bulk(limit: int, used: int, n: int) -> tuple[int, str | None]:
    budget = Budget(limit=limit, used=used)
    try:
        budget.spend(n)
    except BudgetExceeded as exc:
        return budget.used, str(exc)
    return budget.used, None


def test_spend_zero_never_raises():
    for limit, used in ((5, 5), (5, 9), (-1, 0), (-3, 4)):
        budget = Budget(limit=limit, used=used)
        budget.spend(0)
        assert budget.used == used


def test_bulk_spend_stops_at_the_first_unit_over_the_limit():
    budget = Budget(limit=10, used=7)
    with pytest.raises(BudgetExceeded, match=r"\(11 > 10 candidates\)"):
        budget.spend(50)
    assert budget.used == 11


def test_bulk_spend_over_a_spent_limit_charges_one_unit():
    budget = Budget(limit=3, used=5)
    with pytest.raises(BudgetExceeded, match=r"\(6 > 3 candidates\)"):
        budget.spend(4)
    assert budget.used == 6


@pytest.mark.parametrize("limit", [-2, -1, 0, 1, 4, 7, 12])
@pytest.mark.parametrize("used", [0, 3, 7, 9])
def test_bulk_spend_equals_single_spends(limit, used):
    for n in range(8):
        assert in_bulk(limit, used, n) == one_by_one(limit, used, n), n
