"""Enumeration budget shared by all backtracking searches.

A ``Budget`` counts candidate assignments across one logical operation.
Exceeding it raises :class:`~invgpd.errors.BudgetExceeded`; a search never
degrades into a silent partial answer.

A bulk ``spend(n)`` is exact: it leaves ``used`` and raises exactly as
``n`` calls of ``spend()`` would. ``spend(0)`` never raises, and a charge
that crosses the limit stops at the first unit over it, so a search may
count the units of a stretch in which it yields nothing and charge them
at once without moving the point where it stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BudgetExceeded

DEFAULT_BUDGET = 10**7


@dataclass
class Budget:
    limit: int = DEFAULT_BUDGET
    used: int = field(default=0, compare=False)

    def spend(self, amount: int = 1) -> None:
        if amount <= 0:
            return
        used = self.used + amount
        if used > self.limit:
            self.used = max(self.used + 1, self.limit + 1)
            raise BudgetExceeded(
                f"enumeration budget exceeded ({self.used} > {self.limit} candidates)"
            )
        self.used = used


def ensure_budget(budget: Budget | int | None) -> Budget:
    """Coerce ``None`` or a raw limit into a fresh ``Budget``."""
    if budget is None:
        return Budget()
    if isinstance(budget, int):
        return Budget(limit=budget)
    return budget
