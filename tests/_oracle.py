"""Independent oracles, used only by the tests.

`brute_force_alloc` enumerates every allocation to check `water_fill`;
`table_model` builds a model from explicit per-node mean sensing times.
`baseward_departure_slots` and `static_coverage_audit` are the static pickup
model of an unconstrained fleet, read off the walk and the phases alone: each
conveyor picks up at its last visit of a node before the walk's end. The
engine's pickups are a subset of these (a departure whose sample a later one
overtakes is no pickup), so `coverage_audit` finds at least these gaps.
`cyclic_gaps` and `residual_life_mean` are the gap analytics of a phase set
behind acceptance criterion 4; `pickup_wait_mean` measures the waits that
criterion 8 holds against `residual_life_mean`, on the engine's own pickups.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

import agecourier as ac
from agecourier.graph_core import BASE
from agecourier.sensing_alloc import success_probability
from agecourier.sim_engine import _fleet

BRUTE_FORCE_LIMIT = 10**7


class InstanceTooLarge(ValueError):
    """Brute-force enumeration would exceed the composition guard."""


class NodeIsBase(ValueError):
    """Operation asked about the base node, which never ships samples."""


def brute_force_alloc(model: ac.SensingModel, n_s: int) -> ac.SensingAllocation:
    """Enumerate every allocation of n_s robots with at least one per node,
    minimizing the summed mean sensing time; ties resolve to the
    lexicographically smallest allocation."""
    k = model.node_count
    if n_s < k:
        raise ValueError(f"need at least {k} robots, got {n_s}")
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
        raise ValueError(f"no allocation of {n_s} fits under max_m={model.max_m}")
    return ac.SensingAllocation(m=best_m)


def table_model(rows) -> ac.SensingModel:
    """A model of the given mean sensing times, one row per node."""
    return ac.SensingModel(mu_table=tuple(tuple(float(v) for v in row) for row in rows))


def baseward_departure_slots(w: ac.EulerWalk, node: int, p: ac.PhaseSet) -> tuple[int, ...]:
    """Per-period slot residues at which some conveyor leaves `node` toward
    the base. A conveyor with offset phi stands at walk position j at every
    slot t with (t + phi) mod L == j."""
    if node == BASE:
        raise NodeIsBase("the base has no baseward departures")
    L = w.length
    # A closed tour leaves a node for the last time across its parent edge,
    # so the baseward step starts at the node's last visit before w_L.
    try:
        j = L - 1 - w.sequence[L - 1 :: -1].index(node)
    except ValueError:
        raise ValueError(f"node {node} does not appear in the walk") from None
    return tuple(sorted((j - phi) % L for phi in p.phases))


def static_coverage_audit(w: ac.EulerWalk, p: ac.PhaseSet) -> tuple[tuple[int, int], ...]:
    """Every (node, slot residue) at which no conveyor departs the non-base
    node toward the base on the next step; none means full coverage."""
    violations = []
    for node in sorted(set(w.sequence) - {BASE}):
        covered = set(baseward_departure_slots(w, node, p))
        violations += [(node, r) for r in range(w.length) if r not in covered]
    return tuple(violations)


def cyclic_gaps(p: ac.PhaseSet) -> list[int]:
    """Gaps between cyclically consecutive phases; positive, summing to L."""
    phases, L = p.phases, p.walk_length
    gaps = [phases[i + 1] - phases[i] for i in range(len(phases) - 1)]
    gaps.append(L - phases[-1] + phases[0])
    return gaps


def residual_life_mean(p: ac.PhaseSet) -> Fraction:
    """Mean residual life of the conveyor arrival cycle, sum(h^2) / (2 L).

    Returned as an exact Fraction so schedule comparisons never hinge on
    float rounding.
    """
    gaps = cyclic_gaps(p)
    return Fraction(sum(h * h for h in gaps), 2 * p.walk_length)


def pickup_wait_mean(cfg: ac.SimConfig) -> float:
    """Average wait from each sensing completion to its node's first pickup
    at or after it (0 when the pickup is the same slot), over [0,
    cfg.horizon) of seed cfg.seed with no warmup, on the generation streams
    and the fleet of `run`. A completion with no later pickup delivered
    inside the horizon is not counted."""
    arrivals, _ = _fleet(cfg)
    total = count = 0
    for node in range(1, cfg.graph.node_count):
        q = success_probability(cfg.model, node - 1, cfg.alloc.m[node - 1])
        gens = np.flatnonzero(ac.generation_mask(cfg.seed, node, q, cfg.horizon))
        b, _ = arrivals.pickups(node, cfg.horizon)
        nxt = np.searchsorted(b, gens)
        waited = nxt < b.size
        total += int((b[nxt[waited]] - gens[waited]).sum())
        count += int(waited.sum())
    return total / count if count else float("nan")
