"""Analytic floors, pickup waits, budget sweeps, and phase comparisons."""

import contextlib
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import agecourier as ac
from agecourier import analysis, sim_engine
from agecourier.analysis import BudgetTooSmall
from agecourier.sim_engine import ConfigInvalid

from _support import (
    REF_ALPHAS,
    REF_BOUNDS_M1,
    REF_NETWORK_M1,
    REF_WATERFILL_10,
    checked_run,
    ref_config,
)


def test_reference_bounds_single_robot():
    rep = ac.lower_bound(ref_config())
    assert rep.per_node_bound == {i + 1: REF_BOUNDS_M1[i] for i in range(7)}
    assert rep.network_bound == REF_NETWORK_M1


def test_reference_bounds_waterfilled():
    rep = ac.lower_bound(ref_config(m=REF_WATERFILL_10))
    assert rep.per_node_bound == {1: 7.0, 2: 11.0, 3: 6.0, 4: 9.0, 5: 11.0, 6: 8.0, 7: 8.0}
    assert rep.network_bound == pytest.approx(60.0 / 7.0)


def test_bound_single_edge():
    rep = ac.lower_bound(
        ac.SimConfig(
            graph=ac.build_graph(2, [(0, 1)]), phase_set=ac.uniform_phases(2, 1),
            model=ac.make_model((2.0,), max_m=1), alloc=ac.SensingAllocation((1,)),
            horizon=10, warmup=0, seed=0,
        )
    )
    assert rep.per_node_bound == {1: 3.0}
    assert rep.network_bound == 3.0


def test_bound_dimension_mismatch():
    with pytest.raises(ConfigInvalid):
        ac.lower_bound(
            dataclasses.replace(
                ref_config(),
                model=ac.make_model((2.0, 2.0), max_m=1),
                alloc=ac.SensingAllocation((1, 1)),
            )
        )


def test_seed_runs_is_lazy_and_dispatches_on_energy():
    cfg = ref_config(n_c=5, horizon=600, warmup=50)
    runs = ac.seed_runs(cfg, [3, -1])
    first = next(runs)  # the invalid second seed has not run yet
    assert first.per_node_aoi == checked_run(dataclasses.replace(cfg, seed=3)).per_node_aoi
    assert first.energy_trace is None
    with pytest.raises(ConfigInvalid, match="seed"):
        next(runs)
    energized = dataclasses.replace(cfg, energy=ac.EnergyParams(b_max=12.0, e_move=2.0, r_chg=2.0))
    (res,) = ac.seed_runs(energized, [3])
    assert res.energy_trace is not None
    assert res.network_aoi == ac.run_energy(dataclasses.replace(energized, seed=3)).network_aoi


def test_mean_std():
    assert ac.mean_std([2.0]) == (2.0, 0.0)
    assert ac.mean_std([1.0, 3.0]) == (2.0, math.sqrt(2.0))


def test_split_sweep_budget_guard():
    with pytest.raises(BudgetTooSmall):
        ac.split_sweep(ref_config(horizon=300, warmup=30), 7, seeds=[0])


def test_split_sweep_cells_and_plateau(monkeypatch):
    # one non-base node: walk length 2, so any n_c above 2 reuses both offsets;
    # the sensing mean is clamped at 1 from two robots on, so the capped cells
    # are exact replicas of each other
    g = ac.build_graph(2, [(0, 1)])
    scenario = ac.SimConfig(
        graph=g, phase_set=ac.uniform_phases(2, 1), model=ac.make_model((2.0,), max_m=6),
        alloc=ac.SensingAllocation((1,)), horizon=1200, warmup=100, seed=0,
    )
    fleets = []

    def run(cfg):
        fleets.append(len(cfg.phase_set.phases))
        return sim_engine.run(cfg)

    monkeypatch.setattr(analysis, "run", run)
    cells, best = ac.split_sweep(scenario, 6, seeds=[0, 1, 2])
    assert [(c.n_s, c.n_c) for c in cells] == [(1, 5), (2, 4), (3, 3), (4, 2), (5, 1)]
    # the conveyors each split runs, once per seed
    assert fleets == [n for n in (2, 2, 2, 2, 1) for _ in range(3)]
    by_ns = {c.n_s: c for c in cells}
    assert by_ns[2].mean_aoi == by_ns[3].mean_aoi == by_ns[4].mean_aoi
    assert by_ns[2].std_aoi == by_ns[4].std_aoi
    # ties between replicas resolve toward more sensing
    assert best == by_ns[4]
    assert best.mean_aoi == min(c.mean_aoi for c in cells)


def test_split_sweep_bounds_recorded():
    cfg = ref_config(horizon=600, warmup=60)
    cells, _ = ac.split_sweep(cfg, 9, seeds=[0])
    model = ac.make_model(REF_ALPHAS, max_m=9)
    for cell in cells:
        alloc = ac.water_fill(model, cell.n_s)
        expect = ac.lower_bound(dataclasses.replace(cfg, model=model, alloc=alloc)).network_bound
        assert cell.bound == expect
        assert cell.mean_aoi > cell.bound  # scarce conveyors always pay transport


def test_phase_comparison_shape_and_bound_row():
    cfg = ref_config(horizon=800, warmup=80)
    rows = ac.phase_comparison(cfg, (3, 14), seeds=[0, 1], random_draws=2, phase_seed=5)
    strategies = [r.strategy for r in rows]
    assert strategies == [
        "uniform", "clustered", "random0", "random1",
        "uniform", "clustered", "random0", "random1",
        "bound",
    ]
    assert rows[-1].n_c is None
    assert rows[-1].std_aoi == 0.0
    model = ac.make_model(REF_ALPHAS, max_m=8)
    alloc = ac.water_fill(model, 7)
    assert rows[-1].mean_aoi == ac.lower_bound(
        dataclasses.replace(cfg, model=model, alloc=alloc)
    ).network_bound
    # at full staffing every strategy degenerates to the same offset set
    full = [r for r in rows if r.n_c == 14]
    assert len({(r.mean_aoi, r.std_aoi) for r in full}) == 1


@pytest.fixture
def mask_calls(monkeypatch):
    """Every (seed, node, q, horizon) that generation_mask draws, in call order."""
    calls = []
    real = sim_engine.generation_mask

    def counting(seed, node, q, horizon):
        calls.append((seed, node, q, horizon))
        return real(seed, node, q, horizon)

    monkeypatch.setattr(sim_engine, "generation_mask", counting)
    return calls


def _processes(cfg, allocs, seeds):
    return {
        (seed, node, ac.success_probability(cfg.model, node - 1, alloc.m[node - 1]), cfg.horizon)
        for alloc in allocs
        for seed in seeds
        for node in range(1, cfg.graph.node_count)
    }


def test_sweeps_draw_each_generation_process_once(mask_calls):
    cfg = ref_config(horizon=600, warmup=60)
    seeds = [0, 1]
    ac.split_sweep(cfg, 10, seeds)
    allocs = [ac.water_fill(cfg.model, n_s) for n_s in (7, 8, 9)]
    assert sorted(mask_calls) == sorted(_processes(cfg, allocs, seeds))
    assert len(mask_calls) < 3 * len(seeds) * 7  # one new q per split

    mask_calls.clear()
    ac.phase_comparison(cfg, (2, 5), seeds, random_draws=2)
    assert sorted(mask_calls) == sorted(_processes(cfg, [cfg.alloc], seeds))


def test_sweeps_build_one_fleet_arrivals_per_split():
    # every seed of a split shares its phase set's arrivals: an unconstrained
    # fleet's motion is not keyed on the seed
    sim_engine._fleet_arrivals.cache_clear()
    cells, _ = ac.split_sweep(ref_config(horizon=600, warmup=60), 10, seeds=[0, 1, 2])
    assert sim_engine._fleet_arrivals.cache_info().misses == len(cells) == 3


def test_shared_draws_leave_sweep_cells_unchanged(monkeypatch):
    cfg = ref_config(horizon=600, warmup=60)
    seeds = [0, 3]

    def tables():
        return (
            ac.split_sweep(cfg, 10, seeds),
            ac.phase_comparison(cfg, (2, 5), seeds, random_draws=2, phase_seed=4),
        )

    shared = tables()
    monkeypatch.setattr(analysis, "shared_draws", contextlib.nullcontext)
    assert tables() == shared


def test_pickup_wait_matches_exact_residual_computation():
    # single conveyor: the wait from a completion at residue r to the next
    # baseward departure is deterministic, so the simulated mean must sit
    # near the per-residue average weighted by the generation process
    cfg = ref_config(n_c=7, horizon=60_000)
    waits = [ac.pickup_wait_mean(dataclasses.replace(cfg, seed=s)) for s in range(5)]
    mean = sum(waits) / len(waits)
    # discrete waits 0..h-1 per gap average to sum(h^2)/(2L) - 1/2 = 0.5
    expect = float(ac.residual_life_mean(cfg.phase_set)) - 0.5
    assert abs(mean - expect) < 0.02


def test_pickup_wait_rejects_energy_configs():
    # battery detours move conveyors off the walk the waits are computed from
    cfg = ref_config(n_c=4, energy=ac.EnergyParams(b_max=6.0, e_move=2.0, r_chg=0.5))
    with pytest.raises(ConfigInvalid, match="energy"):
        ac.pickup_wait_mean(cfg)


def test_pickup_wait_checks_its_scenario_like_run():
    # a phase set built for another walk, and an allocation that misses a node:
    # neither scenario can be made, so neither reaches `run` or the waits
    cfg = ac.SimConfig(
        graph=ac.build_graph(4, [(0, 1), (1, 2), (2, 3)]),
        phase_set=ac.PhaseSet((0,), 6),
        model=ac.make_model((2.0, 3.0, 4.0), max_m=1),
        alloc=ac.SensingAllocation((1, 1, 1)),
        horizon=2000,
        warmup=0,
        seed=0,
    )
    assert ac.pickup_wait_mean(cfg) >= 0
    for change, match in (
        ({"phase_set": ac.PhaseSet((0,), 4)}, "different walk length"),
        ({"alloc": ac.SensingAllocation((1, 1))}, "covers 2 nodes"),
    ):
        with pytest.raises(ConfigInvalid, match=match):
            dataclasses.replace(cfg, **change)


def test_residual_life_mean_is_exact_fraction():
    assert ac.residual_life_mean(ac.uniform_phases(14, 7)) == Fraction(1, 1)
    val = ac.residual_life_mean(ac.clustered_phases(3, 14))
    assert isinstance(val, Fraction)
    assert val == Fraction(1 + 1 + 144, 28)
