"""Scan-budget guard.

Operations that walk O(X), O(Q^2 B) or O(M N) grids estimate their work in
elementary steps and refuse to start past the budget.  The default is generous
for desk scale; override with the MISSINGDIGIT_BUDGET environment variable.
"""

import math
import os
from decimal import Context, Decimal

from .errors import BudgetError

DEFAULT_BUDGET = 200_000_000

# Values per numpy pass of the blocked scans (sequential sums, pair blocks,
# membership counts): bounds the scratch memory of one pass however long the
# scan is.
SCAN_BLOCK = 1 << 17


def budget_limit() -> float:
    """The step limit; MISSINGDIGIT_BUDGET=inf means no limit."""
    raw = os.environ.get("MISSINGDIGIT_BUDGET")
    if raw is None:
        return DEFAULT_BUDGET
    try:
        limit = float(raw)
    except ValueError:
        raise BudgetError(f"MISSINGDIGIT_BUDGET is not a number: {raw!r}") from None
    if math.isnan(limit):
        raise BudgetError(f"MISSINGDIGIT_BUDGET is not a number: {raw!r}")
    return limit if math.isinf(limit) else int(limit)


def check_budget(steps: float, what: str) -> None:
    limit = budget_limit()
    if steps > limit:
        try:
            shown = f"{steps:.3g}"
        except OverflowError:  # an int past the float range: 10^400 shows as 1e+400
            shown = f"{Decimal(steps).normalize(Context(prec=3)):g}"
        raise BudgetError(f"{what} needs ~{shown} steps, budget is {limit}")
