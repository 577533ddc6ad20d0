"""Analytic floors and experiment sweeps over one scenario.

Every non-base node's average age is floored by 2 mu_i(m_i) - 2 + d_i: the
sensing mean enters twice (age accrues while a sample is sensed and again
while the next one is), and the hop distance d_i, the depth of the scenario's
shortest-path tree, is the minimum shipping time. Sweeps split a fixed robot
budget between sensing and conveying to locate the best division of labor,
and phase comparisons vary only the conveyor schedule. Both build their whole
list of scenarios first, so a variant that cannot be built fails before the
first run, and one loop runs the list, each scenario's seeds back to back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter

from .conveyor_plan import clustered_phases, random_phases, uniform_phases
from .sensing_alloc import mu, water_fill
from .sim_engine import SimConfig, run, run_energy, shared_draws


@dataclass(frozen=True)
class BoundReport:
    per_node_bound: dict[int, float]

    @property
    def network_bound(self) -> float:
        """The mean of the per-node floors."""
        return sum(self.per_node_bound.values()) / len(self.per_node_bound)


@dataclass(frozen=True)
class SweepCell:
    n_s: int
    n_c: int
    mean_aoi: float
    std_aoi: float
    bound: float


@dataclass(frozen=True)
class PhaseRow:
    strategy: str
    n_c: int | None
    mean_aoi: float
    std_aoi: float


def lower_bound(cfg: SimConfig) -> BoundReport:
    """Per-node analytic age floor 2 mu_i(m_i) - 2 + d_i of the scenario `cfg`,
    with d_i its tree depth; the report derives the network mean."""
    k, depth = cfg.model.node_count, cfg.tree.depth
    per_node = {
        i + 1: 2.0 * mu(cfg.model, i, cfg.alloc.m[i]) - 2.0 + depth[i + 1] for i in range(k)
    }
    return BoundReport(per_node_bound=per_node)


def mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (0 for a single value)."""
    n = len(values)
    if not n:
        raise ValueError("mean_std needs at least one value")
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def seed_runs(cfg: SimConfig, seeds):
    """Lazily yield `cfg`'s result per seed: `run_energy` when it has energy, else `run`."""
    for seed in seeds:
        c = replace(cfg, seed=seed)
        yield run_energy(c) if c.energy is not None else run(c)


def _mean_std_each(scenarios, seeds) -> list[tuple[float, float]]:
    """`mean_std` of `network_aoi` over `seeds` per scenario: the scenarios in
    order, each one's seeds back to back, under one draw store, since they vary
    only an allocation or a phase set (see `shared_draws`). Equal scenarios,
    such as every schedule of n_c = L conveyors, run once."""
    seeds = list(seeds)
    with shared_draws():
        # no delivery log is read here, so none is built
        distinct = dict.fromkeys(scenarios)  # SimConfig is a frozen, hashable dataclass
        results = {s: mean_std([res.network_aoi for res in seed_runs(s, seeds)]) for s in distinct}
    return [results[s] for s in scenarios]


def split_sweep(cfg: SimConfig, total: int, seeds) -> tuple[list[SweepCell], SweepCell]:
    """Sweep every split of `total` robots into n_s sensors plus n_c conveyors.

    Each split varies the scenario `cfg`: its sensing robots are water-filled
    under `cfg.model`, and its conveyors get evenly spread phases. Splits
    asking for more conveyors than walk positions run one conveyor per walk
    position, and the cell records the n_c asked for. Returns all cells plus
    the argmin cell (ties resolve to the larger n_s, favoring sensing once
    conveying is saturated). Every split is built before the first run, so a
    split that cannot be built fails the sweep before any simulation.
    """
    k = cfg.graph.node_count - 1
    if total < k + 1:
        raise ValueError(f"total {total} cannot cover {k} sensors plus one conveyor")
    L = cfg.walk.length
    n_s_values = range(k, total)
    splits = [
        replace(
            cfg, alloc=water_fill(cfg.model, n_s), phase_set=uniform_phases(L, min(total - n_s, L))
        )
        for n_s in n_s_values
    ]
    cells = [
        SweepCell(n_s, total - n_s, mean, std, lower_bound(split).network_bound)
        for n_s, split, (mean, std) in zip(n_s_values, splits, _mean_std_each(splits, seeds))
    ]
    # the last least mean: ties resolve to the larger n_s
    return cells, min(reversed(cells), key=attrgetter("mean_aoi"))


def phase_comparison(
    cfg: SimConfig, n_c_values, seeds, random_draws: int = 5, phase_seed: int = 0
) -> list[PhaseRow]:
    """Compare phase strategies at several conveyor counts in the scenario `cfg`.

    For each n_c the table holds one row for the evenly spread schedule, one
    for the clustered convoy, and one per seeded random draw; a final row
    carries the analytic floor of `cfg`'s allocation for reference. Only
    the phase set changes. Every schedule is built before the first run, so
    a conveyor count that cannot be scheduled fails before any simulation.
    """
    L = cfg.walk.length
    schedules = [
        (name, n_c, phases)
        for n_c in n_c_values
        for name, phases in (
            ("uniform", uniform_phases(L, n_c)),
            ("clustered", clustered_phases(n_c, L)),
            *((f"random{j}", random_phases(n_c, L, phase_seed + j)) for j in range(random_draws)),
        )
    ]
    results = _mean_std_each([replace(cfg, phase_set=phases) for *_, phases in schedules], seeds)
    rows = [PhaseRow(name, n_c, *result) for (name, n_c, _), result in zip(schedules, results)]
    rows.append(PhaseRow("bound", None, lower_bound(cfg).network_bound, 0.0))
    return rows
