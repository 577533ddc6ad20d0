"""Independent oracles for the sensing allocator, used only by the tests.

`brute_force_alloc` enumerates every allocation to check `water_fill`;
`table_model` builds a model from explicit per-node mean sensing times.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import agecourier as ac
from agecourier.sensing_alloc import InsufficientBudget, MaxMExceeded

BRUTE_FORCE_LIMIT = 10**7


class InstanceTooLarge(ValueError):
    """Brute-force enumeration would exceed the composition guard."""


def brute_force_alloc(model: ac.SensingModel, n_s: int) -> ac.SensingAllocation:
    """Enumerate every allocation of n_s robots with at least one per node,
    minimizing the summed mean sensing time; ties resolve to the
    lexicographically smallest allocation."""
    k = model.node_count
    if n_s < k:
        raise InsufficientBudget(f"need at least {k} robots, got {n_s}")
    count = comb(n_s - 1, k - 1)
    if count > BRUTE_FORCE_LIMIT:
        raise InstanceTooLarge(f"{count} compositions exceed {BRUTE_FORCE_LIMIT}")
    best_m = None
    best_obj = None
    for dividers in combinations(range(1, n_s), k - 1):
        bounds = (0,) + dividers + (n_s,)
        parts = tuple(bounds[j + 1] - bounds[j] for j in range(k))
        if any(p > model.max_m for p in parts):
            continue
        obj = sum(model.mu_table[i][p - 1] for i, p in enumerate(parts))
        # compositions enumerate in lexicographic order, so a strict < keeps
        # the lexicographically smallest among exact ties
        if best_obj is None or obj < best_obj:
            best_obj = obj
            best_m = parts
    if best_m is None:
        raise MaxMExceeded(f"no allocation of {n_s} fits under max_m={model.max_m}")
    return ac.SensingAllocation(m=best_m)


def table_model(rows) -> ac.SensingModel:
    """A model of the given mean sensing times, one row per node; alphas are
    the single-robot means."""
    rows = tuple(tuple(float(v) for v in row) for row in rows)
    return ac.SensingModel(alphas=tuple(row[0] for row in rows), max_m=len(rows[0]), mu_table=rows)
