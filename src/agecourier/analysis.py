"""Analytic floors and experiment sweeps over one scenario.

Every non-base node's average age is floored by 2 mu_i(m_i) - 2 + d_i: the
sensing mean enters twice (age accrues while a sample is sensed and again
while the next one is), and the hop distance d_i, the depth of the scenario's
shortest-path tree, is the minimum shipping time. Sweeps split a fixed robot
budget between sensing and conveying to locate the best division of labor,
and phase comparisons vary only the conveyor schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter

from .conveyor_plan import clustered_phases, random_phases, uniform_phases
from .sensing_alloc import mu, water_fill
from .sim_engine import SimConfig, run, run_energy, shared_draws


class BudgetTooSmall(ValueError):
    """Total robot budget cannot cover one sensor per node plus one conveyor."""


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


def _network_mean_std(cfg: SimConfig, seeds) -> tuple[float, float]:
    # no delivery log is read here, so none is built
    return mean_std(list(map(attrgetter("network_aoi"), seed_runs(cfg, seeds))))


def split_sweep(cfg: SimConfig, total: int, seeds) -> tuple[list[SweepCell], SweepCell]:
    """Sweep every split of `total` robots into n_s sensors plus n_c conveyors.

    Each split varies the scenario `cfg`: its sensing robots are water-filled
    under `cfg.model`, and its conveyors get evenly spread phases. Splits
    asking for more conveyors than walk positions run one conveyor per walk
    position, and the cell records the n_c asked for. Returns all cells plus
    the argmin cell (ties resolve to the larger n_s, favoring sensing once
    conveying is saturated). A split changes one node's allocation at a time,
    so the runs share their generation processes (see `shared_draws`).
    """
    k = cfg.graph.node_count - 1
    if total < k + 1:
        raise BudgetTooSmall(f"total {total} cannot cover {k} sensors plus one conveyor")
    L = cfg.walk.length
    seeds = list(seeds)

    cells: list[SweepCell] = []
    best: SweepCell | None = None
    with shared_draws():
        for n_s in range(k, total):
            n_c = total - n_s
            alloc = water_fill(cfg.model, n_s)
            split = replace(cfg, alloc=alloc, phase_set=uniform_phases(L, min(n_c, L)))
            mean, std = _network_mean_std(split, seeds)
            cell = SweepCell(
                n_s=n_s,
                n_c=n_c,
                mean_aoi=mean,
                std_aoi=std,
                bound=lower_bound(split).network_bound,
            )
            cells.append(cell)
            if best is None or cell.mean_aoi <= best.mean_aoi:  # ties: larger n_s wins
                best = cell
    return cells, best


def phase_comparison(
    cfg: SimConfig, n_c_values, seeds, random_draws: int = 5, phase_seed: int = 0
) -> list[PhaseRow]:
    """Compare phase strategies at several conveyor counts in the scenario `cfg`.

    For each n_c the table holds one row for the evenly spread schedule, one
    for the clustered convoy, and one per seeded random draw; a final row
    carries the analytic floor of `cfg`'s allocation for reference. Only
    the phase set changes, so every row's runs share their generation
    processes (see `shared_draws`).
    """
    L = cfg.walk.length
    seeds = list(seeds)

    rows: list[PhaseRow] = []
    with shared_draws():
        for n_c in n_c_values:
            schedules = [("uniform", uniform_phases(L, n_c))]
            schedules.append(("clustered", clustered_phases(n_c, L)))
            for j in range(random_draws):
                schedules.append((f"random{j}", random_phases(n_c, L, phase_seed + j)))
            for name, phases in schedules:
                mean, std = _network_mean_std(replace(cfg, phase_set=phases), seeds)
                rows.append(PhaseRow(strategy=name, n_c=n_c, mean_aoi=mean, std_aoi=std))
    rows.append(
        PhaseRow(
            strategy="bound",
            n_c=None,
            mean_aoi=lower_bound(cfg).network_bound,
            std_aoi=0.0,
        )
    )
    return rows
