"""Sensing robot allocation under parallel memoryless group sensing.

Each node i needs alpha_i expected robot-slots of work per sample. A group of
m robots working in parallel completes a sample in a geometric number of slots
with success probability q_i(m) = min(m / alpha_i, 1), so the mean completion
time is mu_i(m) = max(alpha_i / m, 1). The marginal benefit of one extra robot
shrinks as the group grows, which is exactly the structure the greedy
water-filling allocator needs to be optimal; a brute-force enumerator is kept
alongside as an independent oracle.

Model indices follow the alphas vector: index i corresponds to non-base node
i + 1 once paired with a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, inf

BRUTE_FORCE_LIMIT = 10**7


class NonPositiveAlpha(ValueError):
    """Sensing workload alpha must be finite and strictly positive."""


class ConvexityViolation(ValueError):
    """Marginal benefits increase somewhere, breaking greedy optimality."""

    def __init__(self, node: int, m: int):
        self.node = node
        self.m = m
        super().__init__(
            f"marginal benefit increases at node index {node}, m={m}"
        )


class OutOfRange(ValueError):
    """Node index or robot count outside the model's domain."""


class InsufficientBudget(ValueError):
    """Fewer sensing robots than nodes; every node needs at least one."""


class MaxMExceeded(ValueError):
    """An allocation would push some node beyond max_m robots."""


class InstanceTooLarge(ValueError):
    """Brute-force enumeration would exceed the composition guard."""


@dataclass(frozen=True)
class SensingModel:
    """Per-node mean sensing times for every group size 1..max_m.

    mu_table[i][m - 1] is the mean completion time of node index i with m
    robots; q_table holds the matching per-slot success probabilities. A
    model checks its means when made: they may flatten out (the clamp at 1)
    but never rise, and the gain of each extra robot must shrink, so
    `water_fill` is optimal on every model.
    """

    alphas: tuple[float, ...]
    max_m: int
    mu_table: tuple[tuple[float, ...], ...]
    q_table: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        for i, row in enumerate(self.mu_table):
            for m in range(1, len(row)):
                if row[m] > row[m - 1]:
                    raise ConvexityViolation(i, m)
            benefits = [row[m - 1] - row[m] for m in range(1, len(row))]
            for m in range(1, len(benefits)):
                if benefits[m] > benefits[m - 1] + 1e-12:
                    raise ConvexityViolation(i, m + 1)

    @property
    def node_count(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class SensingAllocation:
    """Robots per node index; every node keeps at least one."""

    m: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.m)

    def __post_init__(self):
        if any(v < 1 for v in self.m):
            raise ValueError("every node needs at least one sensing robot")


def make_model(alphas, max_m: int) -> SensingModel:
    """Build the clamped parametric model from per-node workloads."""
    alphas = tuple(float(a) for a in alphas)
    for i, a in enumerate(alphas):
        if not 0 < a < inf:
            raise NonPositiveAlpha(f"alpha at index {i} must be finite and > 0, got {a}")
    if max_m < 1:
        raise OutOfRange(f"max_m must be >= 1, got {max_m}")
    mu_rows = []
    q_rows = []
    for a in alphas:
        mu_rows.append(tuple(max(a / m, 1.0) for m in range(1, max_m + 1)))
        q_rows.append(tuple(min(m / a, 1.0) for m in range(1, max_m + 1)))
    return SensingModel(alphas=alphas, max_m=max_m, mu_table=tuple(mu_rows), q_table=tuple(q_rows))


def model_from_mu_table(mu_table) -> SensingModel:
    """Build a model from explicit per-node mean sensing times.

    Accepts any table of positive, nonincreasing means with diminishing
    marginal benefit; success probabilities are the reciprocals. alphas are
    recorded as the single-robot means.
    """
    rows = tuple(tuple(float(v) for v in row) for row in mu_table)
    if not rows or not rows[0]:
        raise OutOfRange("mu table must have at least one node and one column")
    max_m = len(rows[0])
    if any(len(row) != max_m for row in rows):
        raise OutOfRange("all mu table rows must have the same length")
    q_rows = []
    for i, row in enumerate(rows):
        if any(not v > 0 for v in row):
            raise NonPositiveAlpha(f"mu values at index {i} must be > 0")
        q_rows.append(tuple(1.0 / v for v in row))
    return SensingModel(
        alphas=tuple(row[0] for row in rows),
        max_m=max_m,
        mu_table=rows,
        q_table=tuple(q_rows),
    )


def _check_index(model: SensingModel, i: int, m: int) -> None:
    if not 0 <= i < model.node_count:
        raise OutOfRange(f"node index {i} outside 0..{model.node_count - 1}")
    if not 1 <= m <= model.max_m:
        raise OutOfRange(f"robot count {m} outside 1..{model.max_m}")


def mu(model: SensingModel, i: int, m: int) -> float:
    """Mean sensing time of node index i with m robots."""
    _check_index(model, i, m)
    return model.mu_table[i][m - 1]


def success_probability(model: SensingModel, i: int, m: int) -> float:
    """Per-slot completion probability of node index i with m robots."""
    _check_index(model, i, m)
    return model.q_table[i][m - 1]


def allocation_objective(model: SensingModel, alloc: SensingAllocation) -> float:
    """Sum of per-node mean sensing times under the allocation."""
    if len(alloc.m) != model.node_count:
        raise OutOfRange("allocation length does not match model")
    return sum(mu(model, i, mi) for i, mi in enumerate(alloc.m))


def water_fill(model: SensingModel, n_s: int) -> SensingAllocation:
    """Greedy water-filling: start with one robot everywhere, then hand each
    spare robot to the node with the largest marginal benefit (ties to the
    lowest node index). Optimal because marginal benefits never increase."""
    k = model.node_count
    if n_s < k:
        raise InsufficientBudget(f"need at least {k} robots, got {n_s}")
    m = [1] * k
    for _ in range(n_s - k):
        best_i = -1
        best_b = -1.0
        for i in range(k):
            if m[i] >= model.max_m:
                continue
            b = model.mu_table[i][m[i] - 1] - model.mu_table[i][m[i]]
            if b > best_b:  # strict: ties go to the lowest node index
                best_b = b
                best_i = i
        if best_i < 0:
            raise MaxMExceeded(f"all nodes already at max_m={model.max_m}")
        m[best_i] += 1
    return SensingAllocation(m=tuple(m))


def brute_force_alloc(model: SensingModel, n_s: int) -> SensingAllocation:
    """Independent oracle: enumerate every allocation of n_s robots with at
    least one per node, minimizing the summed mean sensing time; ties resolve
    to the lexicographically smallest allocation."""
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
    return SensingAllocation(m=best_m)


def uniform_alloc(model: SensingModel, n_s: int) -> SensingAllocation:
    """Spread robots as evenly as integers allow; leftovers go to the lowest
    node indices."""
    k = model.node_count
    if n_s < k:
        raise InsufficientBudget(f"need at least {k} robots, got {n_s}")
    base, extra = divmod(n_s, k)
    m = tuple(base + 1 if i < extra else base for i in range(k))
    if m[0] > model.max_m:
        raise MaxMExceeded(f"uniform share {m[0]} exceeds max_m={model.max_m}")
    return SensingAllocation(m=m)
