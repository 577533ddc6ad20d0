"""Sensing robot allocation under parallel memoryless group sensing.

Each node i needs alpha_i expected robot-slots of work per sample. A group of
m robots working in parallel completes a sample in a geometric number of
slots with mean mu_i(m) = max(alpha_i / m, 1), so its per-slot success
probability is q_i(m) = 1 / mu_i(m), which is min(m / alpha_i, 1) up to
rounding. The marginal benefit of one extra robot shrinks as the group grows,
which is exactly the structure the greedy water-filling allocator needs to be
optimal. A `SensingModel` is only its table of means, and checks every rule
of that structure when made, however it is built; `make_model` fills the
table from the alphas and checks the one rule they add.

Model indices follow the table's rows (make_model's alphas): index i
corresponds to non-base node i + 1 once paired with a graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf


class ConvexityViolation(ValueError):
    """Marginal benefits increase somewhere, breaking greedy optimality."""

    def __init__(self, node: int, m: int):
        self.node = node
        self.m = m
        super().__init__(
            f"marginal benefit increases at node index {node}, m={m}"
        )


@dataclass(frozen=True)
class SensingModel:
    """Per-node mean sensing times for every group size 1..max_m.

    mu_table[i][m - 1] is the mean completion time of node index i with m
    robots; its per-slot success probability is the reciprocal. The table is
    the whole model, checked when made, in order: one row per node (one at
    least), every row of one length max_m >= 1; finite means of at least one
    slot; and means that never rise, with shrinking gains, so `water_fill`
    is optimal.
    """

    mu_table: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.mu_table:
            raise ValueError("a model needs at least one node")
        lengths = sorted({len(row) for row in self.mu_table})
        if len(lengths) > 1 or lengths[0] < 1:
            raise ValueError(f"mu_table rows must all hold max_m >= 1 entries, got {lengths}")
        for i, row in enumerate(self.mu_table):
            if not all(0 < v < inf for v in row):
                raise ValueError(f"mu values at index {i} must be finite and > 0")
            if min(row) < 1:  # q = 1 / mu is a probability
                raise ValueError(f"mu values at index {i} must be at least one slot")
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
        return len(self.mu_table)

    @property
    def max_m(self) -> int:
        return len(self.mu_table[0])


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
    """The clamped model mu_i(m) = max(alpha_i / m, 1), m in 1..max_m. Alphas must
    be finite and > 0; the model checks the rest (max_m >= 1, one alpha at least)."""
    alphas = tuple(float(a) for a in alphas)
    for i, a in enumerate(alphas):
        if not 0 < a < inf:
            raise ValueError(f"alpha at index {i} must be finite and > 0, got {a}")
    ms = range(1, max_m + 1)
    return SensingModel(mu_table=tuple(tuple(max(a / m, 1.0) for m in ms) for a in alphas))


def _check_index(model: SensingModel, i: int, m: int) -> None:
    if not 0 <= i < model.node_count:
        raise ValueError(f"node index {i} outside 0..{model.node_count - 1}")
    if not 1 <= m <= model.max_m:
        raise ValueError(f"robot count {m} outside 1..{model.max_m}")


def mu(model: SensingModel, i: int, m: int) -> float:
    """Mean sensing time of node index i with m robots."""
    _check_index(model, i, m)
    return model.mu_table[i][m - 1]


def success_probability(model: SensingModel, i: int, m: int) -> float:
    """Per-slot completion probability of node index i with m robots: the
    reciprocal of its geometric mean sensing time."""
    return 1.0 / mu(model, i, m)


def allocation_objective(model: SensingModel, alloc: SensingAllocation) -> float:
    """Sum of per-node mean sensing times under the allocation."""
    if len(alloc.m) != model.node_count:
        raise ValueError("allocation length does not match model")
    return sum(mu(model, i, mi) for i, mi in enumerate(alloc.m))


def water_fill(model: SensingModel, n_s: int) -> SensingAllocation:
    """Greedy water-filling: start with one robot everywhere, then hand each
    spare robot to the node with the largest marginal benefit (ties to the
    lowest node index). Optimal because marginal benefits never increase."""
    k, max_m = model.node_count, model.max_m
    if n_s < k:
        raise ValueError(f"need at least {k} robots, got {n_s}")
    m = [1] * k
    for _ in range(n_s - k):
        best_i = -1
        best_b = -1.0
        for i in range(k):
            if m[i] >= max_m:
                continue
            b = model.mu_table[i][m[i] - 1] - model.mu_table[i][m[i]]
            if b > best_b:  # strict: ties go to the lowest node index
                best_b = b
                best_i = i
        if best_i < 0:
            raise ValueError(f"all nodes already at max_m={max_m}")
        m[best_i] += 1
    return SensingAllocation(m=tuple(m))


def uniform_alloc(model: SensingModel, n_s: int) -> SensingAllocation:
    """Spread robots as evenly as integers allow; leftovers go to the lowest
    node indices."""
    k = model.node_count
    if n_s < k:
        raise ValueError(f"need at least {k} robots, got {n_s}")
    base, extra = divmod(n_s, k)
    m = tuple(base + 1 if i < extra else base for i in range(k))
    if m[0] > model.max_m:
        raise ValueError(f"uniform share {m[0]} exceeds max_m={model.max_m}")
    return SensingAllocation(m=m)
