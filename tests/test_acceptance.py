"""End-to-end acceptance checks for the package's headline guarantees.

Each test prints one line of the form

    [acceptance] criterion N: PASS - <what was verified>

after its assertions hold; the lines are echoed again in the terminal summary.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import time

import numpy as np

import agecourier as ac

from _oracle import brute_force_alloc, cyclic_gaps, pickup_wait_mean, residual_life_mean
from _support import (
    CHECK_STATS,
    REF_BOUNDS_M1,
    REF_DEPTHS,
    REF_L,
    REF_NETWORK_M1,
    REF_WATERFILL_10,
    _verify_invariants,
    checked_run,
    checked_run_energy,
    every_slot_config,
    paired_nonincreasing,
    random_tree_graph,
    record_acceptance,
    ref_config,
    ref_graph,
    trend_config,
)


def _custom_config(
    alphas,
    m,
    *,
    n_c=REF_L,
    horizon=4000,
    warmup=200,
    seed=1,
    max_m=None,
    energy=None,
    phases=None,
):
    """Reference tree with a custom workload vector and sensing allocation."""
    if phases is None:
        phases = ac.uniform_phases(REF_L, n_c)
    return ac.SimConfig(
        graph=ref_graph(),
        phase_set=phases,
        model=ac.make_model(alphas, max_m if max_m is not None else max(m) + 1),
        alloc=ac.SensingAllocation(m=tuple(m)),
        horizon=horizon,
        warmup=warmup,
        seed=seed,
        energy=energy,
    )


# ---------------------------------------------------------------------------
# 1. long-horizon simulation attains the analytic per-node floors
# ---------------------------------------------------------------------------

def test_criterion_1_floor_attainment():
    sim_seconds = 0.0
    runs = []
    for seed in range(10):
        cfg = ref_config(horizon=200_000, warmup=1000, seed=seed)
        t0 = time.monotonic()
        res = ac.run(cfg, engine="table")
        sim_seconds += time.monotonic() - t0
        runs.append((cfg, res))
    for cfg, res in runs:
        _verify_invariants(cfg, res)

    net_mean = float(np.mean([res.network_aoi for _, res in runs]))
    node_means = np.mean(
        [[res.per_node_aoi[i] for i in range(1, 8)] for _, res in runs], axis=0
    )
    assert abs(net_mean - REF_NETWORK_M1) <= 0.02 * REF_NETWORK_M1
    for i, floor in enumerate(REF_BOUNDS_M1):
        assert abs(node_means[i] - floor) <= 0.03 * floor
    assert sim_seconds < 30.0
    record_acceptance(
        "[acceptance] criterion 1: PASS - network age "
        f"{net_mean:.3f} within 2% of {REF_NETWORK_M1:g} and all 7 node averages "
        f"within 3% of their floors over 10 seeds ({sim_seconds:.1f}s of simulation)"
    )


# ---------------------------------------------------------------------------
# 2. unit workloads with full staffing are exactly deterministic
# ---------------------------------------------------------------------------

def test_criterion_2_degenerate_determinism():
    expected = {i: float(REF_DEPTHS[i]) for i in range(1, 8)}
    for seed in (0, 3, 11):
        for engine in ("stepper", "table"):
            cfg = _custom_config(
                (1.0,) * 7, (1,) * 7, horizon=2000, warmup=100, seed=seed, max_m=2
            )
            res = checked_run(cfg, engine=engine)
            assert res.per_node_aoi == expected
            assert res.network_aoi == sum(REF_DEPTHS[1:]) / 7
    record_acceptance(
        "[acceptance] criterion 2: PASS - unit workloads with every offset staffed "
        "give per-node age exactly equal to hop depth on both engines, all seeds, "
        "zero variance"
    )


# ---------------------------------------------------------------------------
# 3. greedy allocation matches exhaustive search
# ---------------------------------------------------------------------------

def test_criterion_3_greedy_matches_exhaustive():
    t0 = time.monotonic()
    rng = np.random.default_rng(202406)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 5))
        n_s = int(rng.integers(k, k + 7))
        alphas = tuple(float(a) for a in rng.uniform(1.0, 10.0, size=k))
        model = ac.make_model(alphas, max_m=n_s)
        greedy = ac.allocation_objective(model, ac.water_fill(model, n_s))
        brute = ac.allocation_objective(model, brute_force_alloc(model, n_s))
        worst = max(worst, abs(greedy - brute))
        assert abs(greedy - brute) <= 1e-9
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    record_acceptance(
        "[acceptance] criterion 3: PASS - greedy objective equals exhaustive "
        f"optimum on 200 random instances (worst gap {worst:.2e}, {elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 4. evenly spread offsets minimize both the worst gap and the gap energy
# ---------------------------------------------------------------------------

def test_criterion_4_even_offsets_are_optimal():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = random_tree_graph(rng, int(rng.integers(2, 10)))
        walk = ac.euler_walk(ac.shortest_path_tree(g))
        L = walk.length
        for n_c in range(1, L + 1):
            assert max(cyclic_gaps(ac.uniform_phases(L, n_c))) == math.ceil(L / n_c)

    checked_sets = 0
    for L in (2, 4, 6, 8, 10, 12):
        for n_c in range(1, min(4, L) + 1):
            uni = ac.uniform_phases(L, n_c)
            best_gap = max(cyclic_gaps(uni))
            best_energy = sum(h * h for h in cyclic_gaps(uni))
            for combo in itertools.combinations(range(L), n_c):
                p = ac.PhaseSet(phases=combo, walk_length=L)
                assert max(cyclic_gaps(p)) >= best_gap
                assert sum(h * h for h in cyclic_gaps(p)) >= best_energy
                checked_sets += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    record_acceptance(
        "[acceptance] criterion 4: PASS - even offsets hit ceil(L/n) on 50 random "
        f"trees at every budget, and none of {checked_sets} exhaustively enumerated "
        f"offset sets beats them on worst gap or gap energy ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 5. L conveyors give full coverage, L-1 never do
# ---------------------------------------------------------------------------

def test_criterion_5_minimal_fleet_size():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    trees = [random_tree_graph(rng, int(rng.integers(2, 8))) for _ in range(8)]
    failures = 0
    for g in trees:
        L = 2 * (g.node_count - 1)
        assert ac.coverage_audit(every_slot_config(g, ac.uniform_phases(L, L))).full_coverage
        for combo in itertools.combinations(range(L), L - 1):
            p = ac.PhaseSet(phases=combo, walk_length=L)
            assert not ac.coverage_audit(every_slot_config(g, p)).full_coverage
            failures += 1

    assert ac.coverage_audit(ref_config(phases=ac.uniform_phases(REF_L, REF_L))).full_coverage
    # every one of the C(14,13) = 14 possible size-13 sets, a superset of any
    # 1000-sample draw
    for combo in itertools.combinations(range(REF_L), REF_L - 1):
        p = ac.PhaseSet(phases=combo, walk_length=REF_L)
        assert not ac.coverage_audit(ref_config(phases=p)).full_coverage
        failures += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    record_acceptance(
        "[acceptance] criterion 5: PASS - a full fleet always audits as covering; "
        f"all {failures} fleets one short of full fail the audit ({elapsed:.1f}s)"
    )


# ---------------------------------------------------------------------------
# 6. event-log age accounting equals slot sampling on every run
# ---------------------------------------------------------------------------

def test_criterion_6_event_log_age_identity():
    before = CHECK_STATS["runs_checked"]
    for seed in range(3):
        for n_c in (3, 7, 14):
            checked_run(ref_config(n_c=n_c, seed=seed, horizon=3000, warmup=150))
    checked_run_energy(
        ref_config(
            horizon=3000,
            warmup=150,
            energy=ac.EnergyParams(b_max=12.0, e_move=1.0, r_chg=2.0),
        )
    )
    assert CHECK_STATS["runs_checked"] - before == 10
    assert CHECK_STATS["events_checked"] > 0
    record_acceptance(
        "[acceptance] criterion 6: PASS - event-log age reconstruction matched the "
        f"slot-sampled averages exactly on every one of {CHECK_STATS['runs_checked']} "
        f"runs verified so far ({CHECK_STATS['events_checked']} delivery events)"
    )


# ---------------------------------------------------------------------------
# 7. no delivery beats the hop-distance floor; full staffing always meets it
# ---------------------------------------------------------------------------

def test_criterion_7_transport_floor():
    before_eq = CHECK_STATS["full_coverage_equality_events"]
    full = checked_run(ref_config(horizon=4000, seed=2))
    partial = checked_run(ref_config(n_c=5, horizon=4000, seed=2))
    checked_run_energy(
        ref_config(
            horizon=4000,
            seed=2,
            energy=ac.EnergyParams(b_max=12.0, e_move=1.0, r_chg=2.0),
        )
    )
    gained = CHECK_STATS["full_coverage_equality_events"] - before_eq
    assert gained == len(full.delivery_log) > 0

    log = partial.delivery_log
    floors = np.asarray(REF_DEPTHS, dtype=np.int64)[log.origin]
    slack = (log.delivered - log.generated) - floors
    assert int(slack.min()) >= 0
    assert int((slack > 0).sum()) > 0  # understaffed runs really do queue
    record_acceptance(
        "[acceptance] criterion 7: PASS - every delivery in every verified run took "
        "at least its hop distance, with exact equality for 100% of events under "
        f"full staffing ({CHECK_STATS['events_checked']} events checked)"
    )


# ---------------------------------------------------------------------------
# 8. measured pickup wait sits in the residual-life band
# ---------------------------------------------------------------------------

def test_criterion_8_pickup_wait_band():
    summary = []
    for n_c in (2, 4, 7):
        cfg = ref_config(n_c=n_c, horizon=20000)
        ideal = float(residual_life_mean(cfg.phase_set))
        waits = [pickup_wait_mean(dataclasses.replace(cfg, seed=s)) for s in range(10)]
        mean = float(np.mean(waits))
        sigma = float(np.std(waits, ddof=1)) / math.sqrt(len(waits))
        assert ideal - 0.5 - 3 * sigma <= mean <= ideal + 3 * sigma
        summary.append(f"n_c={n_c}: {mean:.3f} vs {ideal - 0.5:.3f}")
    record_acceptance(
        "[acceptance] criterion 8: PASS - seed-averaged pickup wait lies in the "
        "residual-life band for 2, 4, and 7 conveyors (" + "; ".join(summary) + ")"
    )


# ---------------------------------------------------------------------------
# 9. evenly spread offsets are never beaten by clustered or random ones
# ---------------------------------------------------------------------------

def _networks(phases, seeds, horizon=5000, warmup=250):
    return np.array(
        [
            checked_run(
                ref_config(m=REF_WATERFILL_10, phases=phases, seed=s,
                           horizon=horizon, warmup=warmup)
            ).network_aoi
            for s in seeds
        ]
    )


def test_criterion_9_even_offsets_win_in_simulation():
    seeds = range(10)
    for n_c in (3, 5, 7, 10):
        uniform = _networks(ac.uniform_phases(REF_L, n_c), seeds)
        clustered = _networks(ac.clustered_phases(n_c, REF_L), seeds)
        mean, band = paired_nonincreasing(clustered, uniform)
        assert mean >= -band, f"clustered beat uniform at n_c={n_c}"
        for draw in range(5):
            random_set = _networks(ac.random_phases(n_c, REF_L, draw), seeds)
            mean, band = paired_nonincreasing(random_set, uniform)
            assert mean >= -band, f"random draw {draw} beat uniform at n_c={n_c}"

    full = ac.uniform_phases(REF_L, REF_L)
    assert ac.clustered_phases(REF_L, REF_L) == full
    for draw in range(5):
        assert ac.random_phases(REF_L, REF_L, draw) == full
    a = checked_run(ref_config(m=REF_WATERFILL_10, phases=full, seed=0))
    b = checked_run(
        ref_config(m=REF_WATERFILL_10, phases=ac.clustered_phases(REF_L, REF_L), seed=0)
    )
    assert a.per_node_aoi == b.per_node_aoi
    record_acceptance(
        "[acceptance] criterion 9: PASS - even offsets beat clustered and 5 random "
        "offset sets at 3 sigma over 10 paired seeds for n_c in {3,5,7,10}, and all "
        "strategies coincide exactly at n_c=14"
    )


# ---------------------------------------------------------------------------
# 10. water-filling never loses to uniform sensing allocation
# ---------------------------------------------------------------------------

def test_criterion_10_waterfill_beats_uniform_split():
    regimes = (
        (6.0,) * 7,
        (4.0, 5.0, 4.0, 8.0, 6.0, 7.0, 8.0),
        (3.0, 5.0, 3.0, 12.0, 6.0, 9.0, 10.0),
    )
    seeds = range(10)
    for alphas in regimes:
        model = ac.make_model(alphas, max_m=11)
        greedy = ac.water_fill(model, 10)
        even = ac.uniform_alloc(model, 10)
        greedy_nets = np.array(
            [
                checked_run(
                    _custom_config(alphas, greedy.m, max_m=11, seed=s,
                                   horizon=5000, warmup=250)
                ).network_aoi
                for s in seeds
            ]
        )
        even_nets = np.array(
            [
                checked_run(
                    _custom_config(alphas, even.m, max_m=11, seed=s,
                                   horizon=5000, warmup=250)
                ).network_aoi
                for s in seeds
            ]
        )
        mean, band = paired_nonincreasing(even_nets, greedy_nets)
        assert mean >= -band, f"uniform split beat water-filling for {alphas}"

    model = ac.make_model((6.0,) * 7, max_m=15)
    greedy = ac.water_fill(model, 14)
    even = ac.uniform_alloc(model, 14)
    assert greedy.m == even.m == (2,) * 7
    assert ac.allocation_objective(model, greedy) == ac.allocation_objective(model, even)
    record_acceptance(
        "[acceptance] criterion 10: PASS - water-filling is no worse than an even "
        "split at 3 sigma on all three workload mixes, with exact equality when the "
        "homogeneous budget divides evenly"
    )


# ---------------------------------------------------------------------------
# 11. battery constraints: exact no-op limits, capacity trend, bound gap
# ---------------------------------------------------------------------------

def test_criterion_11a_energy_noop_limits_are_bit_exact():
    base = checked_run(ref_config(horizon=4000), engine="stepper")
    for params in (
        ac.EnergyParams(b_max=12.0, e_move=0.0, r_chg=2.0),
        ac.EnergyParams(b_max=1e9, e_move=2.0, r_chg=2.0),
    ):
        res = checked_run_energy(ref_config(horizon=4000, energy=params))
        assert res.per_node_aoi == base.per_node_aoi
        assert res.network_aoi == base.network_aoi
        assert res.delivery_log == base.delivery_log
    record_acceptance(
        "[acceptance] criterion 11a: PASS - zero move cost and huge batteries both "
        "reproduce the unconstrained run bit-exactly (ages and full delivery log)"
    )


def test_criterion_11b_bigger_batteries_never_hurt():
    nets = {
        b: np.array(
            [checked_run_energy(trend_config(b_max=b, seed=s)).network_aoi
             for s in range(10)]
        )
        for b in (20.0, 30.0, 40.0)
    }
    m1, band1 = paired_nonincreasing(nets[20.0], nets[30.0])
    m2, band2 = paired_nonincreasing(nets[30.0], nets[40.0])
    assert m1 >= -band1, "capacity 30 was worse than 20 beyond 3 sigma"
    assert m2 >= -band2, "capacity 40 was worse than 30 beyond 3 sigma"
    record_acceptance(
        "[acceptance] criterion 11b: PASS - mean age is nonincreasing in battery "
        f"capacity over (20, 30, 40) at 3 sigma (paired diffs {m1:+.3f} and {m2:+.3f})"
    )


def test_criterion_11c_energy_gap_shrinks_with_fleet_size():
    bound = ac.lower_bound(ref_config(m=REF_WATERFILL_10)).network_bound
    params = ac.EnergyParams(b_max=12.0, e_move=1.0, r_chg=2.0)
    gaps = []
    for n_c in (7, 10, 14):
        nets = np.array(
            [
                checked_run_energy(
                    ref_config(m=REF_WATERFILL_10, n_c=n_c, horizon=15000,
                               warmup=1000, seed=s, energy=params)
                ).network_aoi
                for s in range(10)
            ]
        )
        diff = nets - bound
        mean = float(diff.mean())
        band = 3.0 * float(diff.std(ddof=1)) / math.sqrt(diff.size)
        assert mean > band, f"age not above the floor at 3 sigma for n_c={n_c}"
        gaps.append(mean)
    assert gaps[0] > gaps[1] > gaps[2]
    record_acceptance(
        "[acceptance] criterion 11c: PASS - battery-limited age stays above the "
        "analytic floor at 3 sigma and the gap shrinks with fleet size "
        f"({gaps[0]:.2f} > {gaps[1]:.2f} > {gaps[2]:.2f})"
    )
