"""Shared fixtures and the instrumented run wrapper used across the suite.

Every simulation in the tests goes through `checked_run` / `checked_run_energy`,
which verify two global invariants on each run before handing the result back:

* the event-log reconstruction of per-node average age equals the slot-sampled
  average exactly (integer arithmetic, no tolerance);
* every delivery took at least the origin's hop distance, with exact equality
  for every event when every walk offset is staffed and motion is unconstrained.

The acceptance tests report how many runs these checks covered.
"""

from __future__ import annotations

import numpy as np

import agecourier as ac
from agecourier.sim_engine import UnsortedLog

# ---------------------------------------------------------------------------
# The 8-node reference instance used throughout: a tree with arms
# 0-1-3, 0-2-4, and 0-5-6-7, workloads (4,6,3,9,6,8,7).
# ---------------------------------------------------------------------------

REF_EDGES = ((0, 1), (1, 3), (0, 2), (2, 4), (0, 5), (5, 6), (6, 7))
REF_ALPHAS = (4.0, 6.0, 3.0, 9.0, 6.0, 8.0, 7.0)
REF_NODE_COUNT = 8
REF_DEPTHS = (0, 1, 1, 2, 2, 1, 2, 3)
REF_WALK = (0, 1, 3, 1, 0, 2, 4, 2, 0, 5, 6, 7, 6, 5, 0)
REF_L = 14
# analytic per-node floors for one sensing robot everywhere
REF_BOUNDS_M1 = (7.0, 11.0, 6.0, 18.0, 11.0, 16.0, 15.0)
REF_NETWORK_M1 = 12.0
# water-filling of 10 sensing robots over the workloads above
REF_WATERFILL_10 = (1, 1, 1, 2, 1, 2, 2)

# spider instance for the battery-capacity trend: two depth-3 arms and three
# leaves, chosen because its recharge duty cycle strictly rises with capacity
TREND_EDGES = ((0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (0, 8), (0, 9))
TREND_ALPHAS = (4.0, 6.0, 3.0, 9.0, 6.0, 8.0, 7.0, 5.0, 4.0)
TREND_NODE_COUNT = 10

# counters reported by the acceptance suite
CHECK_STATS = {
    "runs_checked": 0,
    "events_checked": 0,
    "full_coverage_equality_events": 0,
}

# pass/fail lines recorded by acceptance tests, echoed in the terminal summary
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def ref_graph() -> ac.Graph:
    return ac.build_graph(REF_NODE_COUNT, REF_EDGES)


def ref_tree() -> ac.ShortestPathTree:
    return ac.shortest_path_tree(ref_graph())


def ref_walk() -> ac.EulerWalk:
    return ac.euler_walk(ref_tree())


def ref_model(max_m: int = 3) -> ac.SensingModel:
    return ac.make_model(REF_ALPHAS, max_m=max_m)


def ref_config(
    *,
    n_c: int = REF_L,
    m: tuple[int, ...] | None = None,
    horizon: int = 4000,
    warmup: int = 200,
    seed: int = 1,
    max_m: int = 3,
    energy: ac.EnergyParams | None = None,
    phases: ac.PhaseSet | None = None,
) -> ac.SimConfig:
    if phases is None:
        phases = ac.uniform_phases(REF_L, n_c)
    return ac.SimConfig(
        graph=ref_graph(),
        phase_set=phases,
        model=ref_model(max_m),
        alloc=ac.SensingAllocation(m=m or (1,) * 7),
        horizon=horizon,
        warmup=warmup,
        seed=seed,
        energy=energy,
    )


def trend_config(
    *, b_max: float, seed: int, horizon: int = 15000, warmup: int = 1000
) -> ac.SimConfig:
    return ac.SimConfig(
        graph=ac.build_graph(TREND_NODE_COUNT, TREND_EDGES),
        phase_set=ac.uniform_phases(2 * (TREND_NODE_COUNT - 1), 14),
        model=ac.make_model(TREND_ALPHAS, max_m=2),
        alloc=ac.SensingAllocation(m=(1,) * 9),
        horizon=horizon,
        warmup=warmup,
        seed=seed,
        energy=ac.EnergyParams(b_max=b_max, e_move=2.0, r_chg=2.0),
    )


def random_tree_graph(rng, node_count: int) -> ac.Graph:
    """Random rooted tree: each node above 0 picks a parent below itself."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, node_count)]
    return ac.build_graph(node_count, edges)


def _verify_invariants(cfg: ac.SimConfig, res: ac.SimResult) -> None:
    k = cfg.graph.node_count - 1
    rebuilt = ac.aoi_from_event_log(
        res.delivery_log, cfg.horizon, cfg.warmup, origins=range(1, k + 1)
    )
    assert rebuilt == res.per_node_aoi, "event-log ages diverge from slot-sampled ages"

    log = res.delivery_log
    CHECK_STATS["runs_checked"] += 1
    CHECK_STATS["events_checked"] += len(log)
    if len(log):
        depth = np.asarray(cfg.tree.depth, dtype=np.int64)
        transit = log.delivered - log.generated
        floor = depth[log.origin]
        assert np.all(transit >= floor), "a delivery beat the hop-distance floor"
        full_coverage = (
            cfg.energy is None and len(cfg.phase_set.phases) == cfg.walk.length
        )
        if full_coverage:
            assert np.all(transit == floor), (
                "full coverage must deliver every sample in exactly its depth"
            )
            CHECK_STATS["full_coverage_equality_events"] += len(log)


def aoi_from_event_log_loop(
    log: ac.DeliveryLog, horizon: int, warmup: int = 0, origins=None
) -> dict[int, float]:
    """Reference for `ac.aoi_from_event_log`: the same ramp sums, one event
    at a time in Python integers."""
    if not 0 <= warmup < horizon:
        raise ValueError(f"need 0 <= warmup < horizon, got {warmup}, {horizon}")
    fresh = log.became_freshest
    org, dlv, srt = log.origin[fresh], log.delivered[fresh], log.sensing_start[fresh]
    order = np.argsort(org, kind="stable")  # group by origin, log order within
    org, dlv, srt = org[order], dlv[order], srt[order]
    if origins is None:
        origins = np.unique(org).tolist()

    n_slots = horizon - warmup
    out: dict[int, float] = {}
    for node in origins:
        lo, hi = np.searchsorted(org, (node, node + 1))
        d = dlv[lo:hi]
        s = srt[lo:hi]
        if d.size and np.any(d[1:] <= d[:-1]):
            raise UnsortedLog(f"events for origin {node} are not time-ordered")
        total = 0
        prev_d = 0
        prev_s = 0
        # closing sentinel covers the tail segment [last delivery, horizon)
        for dj, sj in zip(d.tolist() + [horizon], s.tolist() + [0]):
            lo = max(prev_d, warmup)
            hi = min(dj, horizon)
            if lo < hi:
                width = hi - lo
                # age ramp: starts at lo - prev_s, rises by one per slot
                total += (lo - prev_s) * width + width * (width - 1) // 2
            prev_d = dj
            prev_s = sj
        out[node] = total / n_slots
    return out


def checked_run(cfg: ac.SimConfig, engine: str = "table") -> ac.SimResult:
    res = ac.run(cfg, engine=engine)
    _verify_invariants(cfg, res)
    return res


def checked_run_energy(cfg: ac.SimConfig) -> ac.SimResult:
    res = ac.run_energy(cfg)
    _verify_invariants(cfg, res)
    return res


def paired_nonincreasing(prev: np.ndarray, nxt: np.ndarray) -> tuple[float, float]:
    """Mean and 3-sigma band (of the mean) for the paired difference prev - nxt.

    The claim "nxt is no worse than prev" holds when mean >= -band.
    """
    d = np.asarray(prev) - np.asarray(nxt)
    band = 3.0 * d.std(ddof=1) / np.sqrt(d.size)
    return float(d.mean()), float(band)
