"""Shared plumbing: search budgets, counter-based RNG, canonical JSON."""

import json
import os

BUDGET_ENV = "LATTICELAB_BUDGET"
DEFAULT_BUDGET = 10_000_000


class BudgetError(RuntimeError):
    """Raised when a computation exceeds its budget."""


class NegativeResult(RuntimeError):
    """A certified negative: an exhaustive search proved that no object
    of the kind asked for exists."""


def default_budget():
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise ValueError("%s must be an integer, got %r" % (BUDGET_ENV, raw))
    if value <= 0:
        raise ValueError("%s must be positive" % BUDGET_ENV)
    return value


class BudgetCounter:
    """Counts units of work and raises BudgetError past the limit.

    unit names what is counted and work what counts it, in the error's
    message: "<work> exceeded the <unit> budget of <budget>".  The
    default is a search's nodes.
    """

    def __init__(self, budget=None, unit="node", work="search"):
        self.budget = default_budget() if budget is None else budget
        self.unit, self.work = unit, work
        self.nodes = 0

    def tick(self, amount=1):
        self.nodes += amount
        if self.nodes > self.budget:
            raise BudgetError("%s exceeded the %s budget of %d"
                              % (self.work, self.unit, self.budget))


_MASK = (1 << 64) - 1


def splitmix64(x):
    """One round of the splitmix64 mixer on a 64-bit value."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def counter_rng(seed, counter):
    """Deterministic 64-bit stream value for (seed, counter).

    Counter-based so parallel or reordered consumers draw identical values.
    """
    return splitmix64((splitmix64(seed & _MASK) + counter) & _MASK)


def canonical_json(obj):
    """Deterministic single-line JSON encoding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
