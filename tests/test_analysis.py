"""Analytic floors, pickup waits, budget sweeps, and phase comparisons."""

import contextlib
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agecourier as ac
from agecourier import analysis, cli, sim_engine
from agecourier.sim_engine import ConfigInvalid

from _oracle import pickup_wait_mean, residual_life_mean, table_model
from _support import (
    REF_ALPHAS,
    REF_BOUNDS_M1,
    REF_L,
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


def test_a_table_model_attains_its_floor_at_full_fleet():
    # a convex table no (alpha, m) clamp produces, one robot to three per node
    rows = (
        (5.5, 3.0, 2.0), (7.25, 4.0, 3.5), (3.0, 2.5, 2.25), (9.5, 5.0, 3.0),
        (6.0, 3.5, 2.0), (8.0, 4.5, 2.5), (4.5, 2.0, 1.25),
    )
    cfg = dataclasses.replace(
        ref_config(horizon=50_000, warmup=1000),
        model=table_model(rows),
        alloc=ac.SensingAllocation(m=(2, 1, 3, 2, 1, 3, 2)),
    )
    floors = ac.lower_bound(cfg).per_node_bound
    seeds = range(8)
    ages = np.array(
        [[res.per_node_aoi[node] for node in range(1, 8)] for res in ac.seed_runs(cfg, seeds)]
    )
    # every walk offset is staffed, so each node's seed mean lies within four
    # standard errors of its floor 2 * mu - 2 + d
    mean = ages.mean(axis=0)
    stderr = ages.std(axis=0, ddof=1) / math.sqrt(len(seeds))
    for i, node in enumerate(range(1, 8)):
        assert abs(mean[i] - floors[node]) <= 4 * stderr[i], (node, mean[i], floors[node])


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
    # no values, as from a sweep or phase comparison over no seeds, is named
    with pytest.raises(ValueError, match="mean_std needs at least one value"):
        ac.mean_std([])
    cfg = ref_config(horizon=300, warmup=30)
    with pytest.raises(ValueError, match="mean_std needs at least one value"):
        ac.split_sweep(cfg, 9, seeds=[])
    with pytest.raises(ValueError, match="mean_std needs at least one value"):
        ac.phase_comparison(cfg, [2], seeds=[])


def test_split_sweep_budget_guard():
    with pytest.raises(ValueError, match="^total 7 cannot cover 7 sensors plus one conveyor$"):
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
def runs(monkeypatch):
    """Every scenario that `analysis` runs, in call order."""
    calls = []

    def run(cfg):
        calls.append(cfg)
        return sim_engine.run(cfg)

    monkeypatch.setattr(analysis, "run", run)
    return calls


def test_sweeps_build_every_variant_before_the_first_run(runs):
    # a split or schedule that cannot be built fails the call before any run
    cfg = ref_config(horizon=300, warmup=30, max_m=1)  # one robot per node
    with pytest.raises(ValueError, match="^all nodes already at max_m=1$"):
        ac.split_sweep(cfg, 7 + 2, seeds=[0, 1])  # the second split needs a robot more
    assert len(runs) == 0
    with pytest.raises(ValueError, match="^conveyor count 15 outside 1..14$"):
        ac.phase_comparison(cfg, (2, REF_L + 1), [0, 1], random_draws=1)
    assert len(runs) == 0


def test_equal_schedules_run_once(runs):
    # at n_c = L every schedule staffs every walk offset: one scenario
    cfg = ref_config(horizon=300, warmup=30)
    schedules = [
        ac.uniform_phases(REF_L, REF_L),
        ac.clustered_phases(REF_L, REF_L),
        *(ac.random_phases(REF_L, REF_L, j) for j in range(2)),
    ]
    assert len(set(schedules)) == 1
    rows = ac.phase_comparison(cfg, (REF_L,), [0, 1], random_draws=2)
    assert len(runs) == 2
    assert [r.strategy for r in rows] == ["uniform", "clustered", "random0", "random1", "bound"]
    for row, phases in zip(rows, schedules):
        expected = _mean_std_of_runs(dataclasses.replace(cfg, phase_set=phases), [0, 1])
        assert (row.mean_aoi, row.std_aoi) == expected


@st.composite
def _experiments(draw):
    n = draw(st.integers(2, 7))
    g = ac.build_graph(n, [(draw(st.integers(0, i - 1)), i) for i in range(1, n)])
    k, L = n - 1, 2 * (n - 1)
    max_m = draw(st.integers(1, 3))
    alphas = tuple(draw(st.lists(st.floats(1.0, 9.0), min_size=k, max_size=k)))
    horizon = draw(st.integers(30, 400))
    cfg = ac.SimConfig(
        graph=g,
        phase_set=ac.uniform_phases(L, draw(st.integers(1, L))),
        model=ac.make_model(alphas, max_m),
        alloc=ac.SensingAllocation((1,) * k),
        horizon=horizon,
        warmup=draw(st.integers(0, horizon - 1)),
        seed=0,
    )
    seeds = draw(st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True))
    total = draw(st.integers(k + 1, k * max_m + 1))  # every split water-fills
    n_c_values = draw(st.lists(st.integers(1, L), min_size=1, max_size=2))
    return cfg, seeds, total, n_c_values, draw(st.integers(0, 2)), draw(st.integers(0, 5))


def _mean_std_of_runs(cfg, seeds):
    return ac.mean_std([ac.run(dataclasses.replace(cfg, seed=s)).network_aoi for s in seeds])


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(_experiments())
def test_sweep_cells_and_phase_rows_equal_their_runs(case):
    cfg, seeds, total, n_c_values, random_draws, phase_seed = case
    L = cfg.walk.length
    cells, best = ac.split_sweep(cfg, total, seeds)
    for cell in cells:
        split = dataclasses.replace(
            cfg,
            alloc=ac.water_fill(cfg.model, cell.n_s),
            phase_set=ac.uniform_phases(L, min(cell.n_c, L)),
        )
        assert (cell.mean_aoi, cell.std_aoi) == _mean_std_of_runs(split, seeds)
    least = min(c.mean_aoi for c in cells)
    assert best == [c for c in cells if c.mean_aoi == least][-1]

    rows = ac.phase_comparison(cfg, n_c_values, seeds, random_draws, phase_seed)
    for row in rows[:-1]:
        if row.strategy == "uniform":
            phases = ac.uniform_phases(L, row.n_c)
        elif row.strategy == "clustered":
            phases = ac.clustered_phases(row.n_c, L)
        else:
            j = int(row.strategy.removeprefix("random"))
            phases = ac.random_phases(row.n_c, L, phase_seed + j)
        assert (row.mean_aoi, row.std_aoi) == _mean_std_of_runs(
            dataclasses.replace(cfg, phase_set=phases), seeds
        )
    assert len(rows) == len(n_c_values) * (2 + random_draws) + 1


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


_CACHE_CONFIG = """\
[graph]
nodes = 8
edges = 0-1, 1-3, 0-2, 2-4, 0-5, 5-6, 6-7

[sensing]
alphas = 4, 6, 3, 9, 6, 8, 7
allocation = waterfill
n_s = 10

[conveyors]
phases = uniform
n_c = 5

[simulation]
horizon = 600
warmup = 60
seeds = 0, 1, 2
"""


def _fleet_builds(fn, *args, **kwargs) -> int:
    """How many fleets `fn(*args, **kwargs)` builds, from a cleared cache."""
    sim_engine._fleet_arrivals.cache_clear()
    fn(*args, **kwargs)
    return sim_engine._fleet_arrivals.cache_info().misses


def test_sweeps_build_one_fleet_arrivals_per_split():
    # every seed of a split shares its phase set's arrivals: an unconstrained
    # fleet's motion is not keyed on the seed
    sim_engine._fleet_arrivals.cache_clear()
    cells, _ = ac.split_sweep(ref_config(horizon=600, warmup=60), 10, seeds=[0, 1, 2])
    assert sim_engine._fleet_arrivals.cache_info().misses == len(cells) == 3

    # the cache keeps one fleet, and every caller replays a fleet's seeds
    # back to back, so each subcommand builds each of its fleets once
    assert sim_engine._fleet_arrivals.cache_info().maxsize == 1
    cfg = ref_config(horizon=600, warmup=60)
    L = cfg.walk.length
    schedules = [
        phases
        for n_c in (2, 5)
        for phases in (ac.uniform_phases(L, n_c), ac.clustered_phases(n_c, L))
        + tuple(ac.random_phases(n_c, L, j) for j in range(2))
    ]
    assert len(set(schedules)) == len(schedules) == 8  # no fleet comes back later
    assert _fleet_builds(ac.phase_comparison, cfg, (2, 5), [0, 1, 2], random_draws=2) == 8
    exp = ac.parse_config(_CACHE_CONFIG)
    battery = ac.parse_config(_CACHE_CONFIG + "\n[energy]\nb_max = 4\ne_move = 1\nr_chg = 1\n")
    for exp_cfg, command, builds in (
        (exp, cli.cmd_simulate, 1),  # an unconstrained fleet is keyed on seed 0
        (battery, cli.cmd_simulate, len(battery.seeds)),  # each seed's run, then its unserved nodes
        (exp, cli.cmd_audit, 1),
        (battery, cli.cmd_audit, 1),
    ):
        assert _fleet_builds(command, exp_cfg, cli._scenario(exp_cfg)) == builds


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
    # the wait from a completion at residue r to its node's next pickup is
    # deterministic, so the simulated mean must sit near the per-residue
    # average weighted by the generation process
    cfg = ref_config(n_c=7, horizon=60_000)
    waits = [pickup_wait_mean(dataclasses.replace(cfg, seed=s)) for s in range(5)]
    mean = sum(waits) / len(waits)
    # discrete waits 0..h-1 per gap average to sum(h^2)/(2L) - 1/2 = 0.5
    expect = float(residual_life_mean(cfg.phase_set)) - 0.5
    assert abs(mean - expect) < 0.02


def test_pickup_wait_of_a_battery_fleet():
    # the waits read the pickups of the fleet the run replays, detours included
    cfg = ref_config(n_c=4, energy=ac.EnergyParams(b_max=6.0, e_move=2.0, r_chg=0.5))
    assert math.isfinite(pickup_wait_mean(cfg))
    # free moves never leave the walk: the unconstrained waits, bit for bit
    free = ref_config(n_c=4, energy=ac.EnergyParams(b_max=6.0, e_move=0.0, r_chg=0.5))
    assert pickup_wait_mean(free) == pickup_wait_mean(ref_config(n_c=4))


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
    assert pickup_wait_mean(cfg) >= 0
    for change, match in (
        ({"phase_set": ac.PhaseSet((0,), 4)}, "different walk length"),
        ({"alloc": ac.SensingAllocation((1, 1))}, "covers 2 nodes"),
    ):
        with pytest.raises(ConfigInvalid, match=match):
            dataclasses.replace(cfg, **change)


def test_residual_life_mean_is_exact_fraction():
    assert residual_life_mean(ac.uniform_phases(14, 7)) == Fraction(1, 1)
    val = residual_life_mean(ac.clustered_phases(3, 14))
    assert isinstance(val, Fraction)
    assert val == Fraction(1 + 1 + 144, 28)
