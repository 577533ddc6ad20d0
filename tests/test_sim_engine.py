"""Simulation engines: RNG streams, event order, dual-engine equality,
event-log reconstruction, and the battery state machine."""

import dataclasses
import gc
import threading
import types
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import agecourier as ac
from agecourier import sim_engine
from agecourier.sim_engine import (
    BASE,
    BatteryTooSmall,
    ConfigInvalid,
    _NEVER,
    _deliveries,
    _fleet_arrivals,
    _fleet_states,
    _run_stepper,
)

from _support import (
    REF_L,
    REF_WALK,
    aoi_from_event_log_loop,
    checked_run,
    checked_run_energy,
    every_slot_config,
    random_tree_graph,
    ref_config,
    ref_walk,
    trend_config,
    traced_peak,
)


# ---------------------------------------------------------------------------
# randomness primitives
# ---------------------------------------------------------------------------

def test_generation_mask_matches_stream_and_probability():
    mask = ac.generation_mask(7, 2, 0.3, 50_000)
    again = ac.generation_mask(7, 2, 0.3, 50_000)
    assert np.array_equal(mask, again)
    assert abs(mask.mean() - 0.3) < 0.01
    other_node = ac.generation_mask(7, 3, 0.3, 50_000)
    other_seed = ac.generation_mask(8, 2, 0.3, 50_000)
    assert not np.array_equal(mask, other_node)
    assert not np.array_equal(mask, other_seed)
    with pytest.raises(ValueError, match=r"^q must be in \(0, 1\], got 0.0$"):
        ac.generation_mask(7, 2, 0.0, 10)


@pytest.mark.parametrize("horizon", [3 * 16384 + 7, 16384, 5000, 1])
def test_generation_mask_drawn_in_blocks_equals_one_draw(horizon):
    assert sim_engine._DRAW_BLOCK == 16384
    for q in (0.05, 0.3, 0.999, 1.0):
        one_draw = sim_engine._node_stream(11, 3).random(horizon) < q
        assert np.array_equal(ac.generation_mask(11, 3, q, horizon), one_draw)


def test_node_streams_are_independent_and_stable():
    a = sim_engine._node_stream(5, 1).random(8)
    b = sim_engine._node_stream(5, 1).random(8)
    c = sim_engine._node_stream(5, 2).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(
    horizon=st.sampled_from((1, 63, 64, 65, 1000, 80_000)),
    q=st.sampled_from((0.01, 0.3, 1.0)),
    kind=st.sampled_from(("drawn", "none", "word edges")),
    seed=st.integers(0, 2**32),
)
def test_the_word_scan_finds_what_a_search_of_the_successes_finds_property(
    horizon, q, kind, seed
):
    mask = ac.generation_mask(seed, 1, q, horizon)
    if kind != "drawn":
        mask[:] = False
    if kind == "word edges":  # slot 0 and both sides of every word boundary
        mask[0] = True
        mask[63::64] = True
        mask[64::64] = True
    draws = {}
    with mock.patch.object(sim_engine, "generation_mask", lambda *args: mask):
        words, before = sim_engine._words(draws, seed, 1, q, horizon)
    assert draws[seed, 1, q, horizon].nbytes == 8 * -(-horizon // 64)

    gens = np.flatnonzero(mask)
    t = np.arange(horizon)
    last = np.append(gens, -1)[np.searchsorted(gens, t, "right") - 1]  # -1: none yet
    assert np.array_equal(sim_engine._last_success(words, before, t), last)
    below = sim_engine._last_success(words, before, t, below=True)
    assert np.array_equal(below, np.append(-1, last[:-1]))


# ---------------------------------------------------------------------------
# configuration validation and dispatch
# ---------------------------------------------------------------------------

def test_config_validation_errors():
    # a scenario checks itself when made, directly or as a replace copy
    good = ref_config()
    fields = {f.name: getattr(good, f.name) for f in dataclasses.fields(good)}
    for change in (
        {"warmup": good.horizon},
        {"warmup": -1},
        {"seed": -2},
        {"phase_set": ac.PhaseSet((0,), 6)},
        {"alloc": ac.SensingAllocation((1, 1))},
        {"model": ac.make_model((2.0, 2.0), max_m=2)},
        {"alloc": ac.SensingAllocation((9,) + (1,) * 6)},
    ):
        with pytest.raises(ConfigInvalid):
            dataclasses.replace(good, **change)
        with pytest.raises(ConfigInvalid):
            ac.SimConfig(**{**fields, **change})


def test_tree_and_walk_are_derived_from_the_graph():
    names = [f.name for f in dataclasses.fields(ac.SimConfig)]
    assert names == ["graph", "phase_set", "model", "alloc", "horizon", "warmup", "seed", "energy"]
    cfg = ref_config()
    assert cfg.tree == ac.shortest_path_tree(cfg.graph)
    assert cfg.walk.sequence == REF_WALK
    path = dataclasses.replace(
        cfg,
        graph=ac.build_graph(3, [(0, 1), (1, 2)]),
        phase_set=ac.PhaseSet((0,), 4),
        model=ac.make_model((2.0, 3.0), max_m=1),
        alloc=ac.SensingAllocation((1, 1)),
    )
    assert path.tree.depth == (0, 1, 2)
    assert path.walk.sequence == (0, 1, 2, 1, 0)
    # every check runs when a config is made; there is no separate validate
    assert not hasattr(ac.SimConfig, "validate")


def test_horizon_too_long_for_int64_age_sums_is_rejected():
    good = ref_config()
    dataclasses.replace(good, horizon=2**31 - 1)
    with pytest.raises(ConfigInvalid, match="horizon"):
        dataclasses.replace(good, horizon=2**31)


@pytest.mark.parametrize("name, value", [("horizon", 3000.0), ("warmup", 100.0), ("seed", 1.0)])
def test_slot_counts_and_seeds_must_be_integers(name, value):
    good = ref_config(horizon=3000, warmup=100)
    with pytest.raises(ConfigInvalid, match=f"^{name} must be an integer, got {value!r}$"):
        dataclasses.replace(good, **{name: value})
    # numpy integers are integers
    assert checked_run(dataclasses.replace(good, **{name: np.int64(value)})) == checked_run(
        dataclasses.replace(good, **{name: int(value)})
    )


def test_event_log_slot_counts_must_be_integers():
    log = ac.DeliveryLog([1], [1], [2], [3])
    with pytest.raises(ConfigInvalid, match=r"^horizon must be an integer, got 3000\.0$"):
        ac.aoi_from_event_log(log, 3000.0)
    with pytest.raises(ConfigInvalid, match=r"^warmup must be an integer, got 10\.0$"):
        ac.aoi_from_event_log(log, 3000, warmup=10.0)
    assert ac.aoi_from_event_log(log, np.int64(3000), np.int64(10)) == ac.aoi_from_event_log(
        log, 3000, 10
    )


def test_run_dispatch_guards():
    cfg = ref_config()
    with pytest.raises(ConfigInvalid):
        ac.run(cfg, engine="warp")
    with pytest.raises(ConfigInvalid):
        ac.run_energy(cfg)
    energized = dataclasses.replace(
        cfg, energy=ac.EnergyParams(b_max=20.0, e_move=1.0, r_chg=1.0)
    )
    with pytest.raises(ConfigInvalid):
        ac.run(energized)


def test_energy_params_validation():
    with pytest.raises(ConfigInvalid):
        ac.EnergyParams(b_max=0.0, e_move=1.0, r_chg=1.0)
    with pytest.raises(ConfigInvalid):
        ac.EnergyParams(b_max=5.0, e_move=-1.0, r_chg=1.0)
    with pytest.raises(ConfigInvalid):
        ac.EnergyParams(b_max=5.0, e_move=1.0, r_chg=0.0)


@pytest.mark.parametrize("field", ["b_max", "e_move", "r_chg"])
def test_energy_params_reject_nan(field):
    # a NaN compares false both ways, so each check must be written to fail on it
    params = {"b_max": 12.0, "e_move": 2.0, "r_chg": 2.0, field: float("nan")}
    with pytest.raises(ConfigInvalid, match=field):
        ac.EnergyParams(**params)


def test_battery_must_cover_deepest_return():
    with pytest.raises(BatteryTooSmall):
        ref_config(energy=ac.EnergyParams(b_max=5.0, e_move=2.0, r_chg=2.0))
    # equal to the deepest return cost is acceptable
    ok = ref_config(
        horizon=400, warmup=50, energy=ac.EnergyParams(b_max=6.0, e_move=2.0, r_chg=2.0)
    )
    checked_run_energy(ok)


# ---------------------------------------------------------------------------
# engine equality and determinism
# ---------------------------------------------------------------------------

def _assert_identical(a: ac.SimResult, b: ac.SimResult):
    assert a.per_node_aoi == b.per_node_aoi
    assert a.network_aoi == b.network_aoi
    assert a.delivery_log == b.delivery_log


def test_engines_bit_identical_on_reference_instance():
    for n_c in (14, 7, 3, 1):
        for seed in (0, 1, 9):
            cfg = ref_config(n_c=n_c, horizon=1500, warmup=100, seed=seed)
            _assert_identical(checked_run(cfg, engine="table"), checked_run(cfg, engine="stepper"))


def test_engines_bit_identical_on_random_instances():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = random_tree_graph(rng, n)
        L = 2 * (n - 1)
        n_c = int(rng.integers(1, L + 1))
        strategy = rng.integers(0, 3)
        if strategy == 0:
            phases = ac.uniform_phases(L, n_c)
        elif strategy == 1:
            phases = ac.clustered_phases(n_c, L)
        else:
            phases = ac.random_phases(n_c, L, seed=int(rng.integers(1 << 20)))
        alphas = tuple(float(a) for a in rng.uniform(1.0, 9.0, size=n - 1))
        cfg = ac.SimConfig(
            graph=g,
            phase_set=phases,
            model=ac.make_model(alphas, max_m=2),
            alloc=ac.SensingAllocation((1,) * (n - 1)),
            horizon=1200,
            warmup=150,
            seed=int(rng.integers(1 << 20)),
        )
        _assert_identical(checked_run(cfg, engine="table"), checked_run(cfg, engine="stepper"))


@pytest.mark.parametrize(
    "cfg",
    [ref_config(n_c=3), trend_config(b_max=20.0, seed=1, horizon=4000, warmup=100)],
    ids=["reference", "battery"],
)
def test_stepper_oracle_fleets_meet_in_groups(cfg):
    # the stepper merges every conveyor at a node in one rule: the fleets the
    # equality tests step must put two or more at a non-base node, and at the base
    at_node = at_base = 0
    for _, states in zip(range(cfg.horizon), _fleet(cfg)):
        counts = Counter(s[1] for s in states)
        at_base += counts.pop(BASE, 0) >= 2
        at_node += max(counts.values(), default=0) >= 2
    assert at_node > 0 and at_base > 0


@pytest.mark.parametrize(
    "cfg",
    [
        ref_config(n_c=3, horizon=3000, warmup=100, seed=2),
        trend_config(b_max=30.0, seed=1, horizon=3000, warmup=100),
    ],
    ids=["reference", "battery"],
)
def test_a_run_starts_no_thread(cfg, monkeypatch):
    def start(self):
        raise AssertionError("a run started a thread")

    monkeypatch.setattr(threading.Thread, "start", start)
    res = checked_run(cfg) if cfg.energy is None else checked_run_energy(cfg)
    _assert_identical(res, _run_stepper(cfg))
    assert len(res.delivery_log) > 0


@pytest.mark.parametrize("failing", [1, 5])
def test_a_failing_node_fails_the_run(failing, monkeypatch):
    real_mask = sim_engine.generation_mask

    def mask(seed, node, q, horizon):
        if node == failing:
            raise RuntimeError(f"node {node} failed")
        return real_mask(seed, node, q, horizon)

    monkeypatch.setattr(sim_engine, "generation_mask", mask)
    with pytest.raises(RuntimeError, match=f"node {failing} failed"):
        ac.run(ref_config(horizon=300, warmup=10))


def test_shared_draws_restore_the_outer_store():
    assert sim_engine._DRAWS.get() is None
    with sim_engine.shared_draws():
        outer = sim_engine._DRAWS.get()
        assert outer == {}
        with sim_engine.shared_draws():
            assert sim_engine._DRAWS.get() is not outer
        assert sim_engine._DRAWS.get() is outer
        with pytest.raises(RuntimeError, match="inside"):
            with sim_engine.shared_draws():
                raise RuntimeError("inside")
        assert sim_engine._DRAWS.get() is outer
    assert sim_engine._DRAWS.get() is None


@pytest.mark.parametrize(
    "cfg",
    [
        ref_config(n_c=3, horizon=1500, warmup=100, seed=3),
        trend_config(b_max=30.0, seed=2, horizon=1500, warmup=100),
    ],
    ids=["reference", "battery"],
)
def test_a_log_read_after_shared_draws_replays_their_store(cfg, monkeypatch):
    with sim_engine.shared_draws():
        res = ac.run(cfg) if cfg.energy is None else ac.run_energy(cfg)
    expected = _run_stepper(cfg)

    def no_draw(*args):
        raise AssertionError("the log drew a generation process again")

    monkeypatch.setattr(sim_engine, "generation_mask", no_draw)
    assert res.delivery_log == expected.delivery_log
    assert res.per_node_aoi == expected.per_node_aoi


def test_a_stored_process_is_the_read_only_words_every_read_returns(monkeypatch):
    # the store holds each process in the one form the word scan reads, so a
    # later read neither draws nor converts it
    cfg = trend_config(b_max=30.0, seed=2, horizon=1500, warmup=100)
    with sim_engine.shared_draws():
        ac.run_energy(cfg)
        store = dict(sim_engine._DRAWS.get())
    assert len(store) == cfg.graph.node_count - 1

    def no_draw(*args):
        raise AssertionError("a stored process was drawn again")

    monkeypatch.setattr(sim_engine, "generation_mask", no_draw)
    for key, words in store.items():
        assert words.dtype == np.uint64 and words.dtype.isnative
        assert not words.flags.writeable
        assert sim_engine._words(store, *key)[0] is words


def _reachable_arrays(root) -> dict[int, np.ndarray]:
    """Arrays reachable from root through object references, not through
    functions, types or modules (which reach every global)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, arrays = set(), [root], {}
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return arrays


def test_a_result_holds_no_delivery_arrays_until_its_log_is_read():
    cfg = ref_config(n_c=3, horizon=1500, warmup=100)
    res = ac.run(cfg)
    arrivals, _ = sim_engine._fleet(cfg)
    held = _reachable_arrays(res)
    # only the scenario's and the shared schedule's own arrays
    assert held and held.keys() <= _reachable_arrays((cfg, arrivals)).keys()
    log = res.delivery_log
    assert id(log.delivered) in _reachable_arrays(res)


def test_a_run_and_its_unserved_nodes_share_one_fleet_build():
    # an unconstrained fleet is keyed on seed 0 whatever the scenario's seed,
    # and `unserved_nodes` reads the build the run cached
    cfg = ref_config(n_c=3, horizon=2000, warmup=100, seed=5)
    _fleet_arrivals.cache_clear()
    ac.run(cfg)
    assert sim_engine.unserved_nodes(cfg) == ()
    assert _fleet_arrivals.cache_info().misses == 1


# ---------------------------------------------------------------------------
# the delivery log: each node's events merged in blocks of whole slots
# ---------------------------------------------------------------------------

def _sorted_log(cfg: ac.SimConfig) -> ac.DeliveryLog:
    """Reference log: every node's `_deliveries` concatenated and put in slot
    order, origins ascending within a slot, by one lexsort."""
    arrivals = _arrivals_of(cfg)
    per_node = [_deliveries(cfg, arrivals, None, v) for v in range(1, cfg.graph.node_count)]
    origin = np.concatenate([np.full(dk.size, v) for v, (dk, _, _) in enumerate(per_node, 1)])
    dk, gk, sk = (np.concatenate(column) for column in zip(*per_node))
    order = np.lexsort((origin, dk))
    return ac.DeliveryLog(origin[order], sk[order], gk[order], dk[order])


def test_a_horizon_before_the_first_delivery_gives_an_empty_log():
    cfg = ref_config(n_c=1, horizon=4, warmup=0)
    res = checked_run(cfg)
    log = res.delivery_log
    assert len(log) == 0 and log == _run_stepper(cfg).delivery_log
    ages = ac.aoi_from_event_log(log, cfg.horizon, cfg.warmup, origins=range(1, 8))
    assert ages == res.per_node_aoi and list(ages) == list(range(1, 8))
    # the same scenario one slot later delivers
    assert len(checked_run(dataclasses.replace(cfg, horizon=5)).delivery_log) > 0


def test_a_battery_prefix_and_a_node_that_never_delivers_place_like_a_sort():
    cfg = ac.SimConfig(
        graph=ac.build_graph(3, [(0, 1), (1, 2)]),
        phase_set=ac.PhaseSet((0,), 4),
        model=ac.make_model((2.0, 3.0), max_m=1),
        alloc=ac.SensingAllocation((1, 1)),
        horizon=5000,
        warmup=0,
        seed=0,
        energy=ac.EnergyParams(b_max=2.0, e_move=1.0, r_chg=0.5),
    )
    assert _fleet_cycle(cfg)[0] > 0
    log = _assert_matches_stepper(cfg).delivery_log
    # node 2 is two hops out, and a full battery only covers one hop and the way back
    assert np.any(log.origin == 1) and not np.any(log.origin == 2)
    assert log == _sorted_log(cfg)


@pytest.mark.parametrize(
    "cfg",
    [
        ref_config(n_c=3, horizon=500_000, warmup=0, seed=5),
        trend_config(b_max=30.0, seed=3, horizon=500_000, warmup=0),
    ],
    ids=["reference", "battery"],
)
def test_a_long_log_places_like_a_sort(cfg):
    # too long for the stepper oracle: every slot of the log is checked against the sort
    res = checked_run(cfg) if cfg.energy is None else checked_run_energy(cfg)
    log = res.delivery_log
    assert log == _sorted_log(cfg)
    assert len(np.unique(log.delivered)) < len(log)  # some slots hold several origins


_LOG_CONFIGS = pytest.mark.parametrize(
    "cfg",
    [
        ref_config(n_c=2, horizon=400_000, warmup=0),
        ref_config(n_c=14, horizon=100_000, warmup=0),
        trend_config(b_max=30.0, seed=3, horizon=500_000, warmup=0),
    ],
    ids=["sparse", "dense", "battery"],
)


def _run(cfg):
    return ac.run(cfg) if cfg.energy is None else ac.run_energy(cfg)


@_LOG_CONFIGS
def test_a_log_read_peaks_below_one_and_a_half_times_its_bytes(cfg):
    # Sparse pickups (two conveyors on the reference walk), dense ones
    # (every walk offset staffed) and a battery-limited fleet. A read
    # replays the nodes on the calling thread, keeps every block (16 bytes
    # an event) and concatenates them one int64 column at a time into the
    # log (32 bytes an event), so its traced peak is near one and a half
    # times the log's bytes. Preallocated columns filled from blocks merged
    # one at a time peak at up to 1.88 times on these configs.
    res = _run(cfg)
    log, peak = traced_peak(lambda: res.delivery_log)
    log_bytes = sum(getattr(log, c).nbytes for c in log.__slots__)
    assert len(log) > 100_000
    assert peak < 1.55 * log_bytes


@_LOG_CONFIGS
def test_a_log_replay_peaks_below_four_times_its_held_deliveries(cfg):
    # On the dense config each node has a pickup almost every slot, many
    # more pickups than deliveries. The replay holds every node's deliveries
    # as three int32 columns (12 bytes an event) and one node's transients
    # at a time, each sized by its pickups, so their buffers must be reused
    # for the peak to stay under four times the held bytes.
    res = _run(cfg)
    n = len(res.delivery_log)
    _, peak = traced_peak(res.log_blocks)
    assert n > 100_000
    assert peak < 4 * 12 * n


def _concatenated(blocks) -> ac.DeliveryLog:
    rows = list(blocks)
    assert all(len(a) <= sim_engine._LOG_BLOCK for a in rows)
    for a, b in zip(rows, rows[1:]):
        assert a[-1, 3] < b[0, 3]  # blocks hold whole slots
    return ac.DeliveryLog(*np.concatenate(rows or [np.empty((0, 4), np.int64)]).T)


@pytest.mark.parametrize(
    "cfg",
    [
        ref_config(),
        trend_config(b_max=30.0, seed=0),
        ref_config(n_c=1, horizon=4, warmup=0),
        ref_config(n_c=14, horizon=100_000, warmup=0),
    ],
    ids=["reference", "battery", "empty", "dense"],
)
def test_log_blocks_concatenate_to_the_log_before_and_after_a_read(cfg):
    run = ac.run_energy if cfg.energy is not None else ac.run
    res = run(cfg)
    streamed = _concatenated(res.log_blocks())
    assert _concatenated(res.log_blocks()) == streamed  # each call replays
    log = res.delivery_log
    assert streamed == log == run(cfg).delivery_log
    assert _concatenated(res.log_blocks()) == log  # replayed after the read
    if cfg.horizon == 4:
        assert len(log) == 0 and list(res.log_blocks()) == []


def test_log_blocks_hold_at_most_the_block_size_on_uneven_deliveries(monkeypatch):
    # Deliveries are not spread evenly over the slots: on this battery run
    # five of nine nodes are unserved once the motion repeats, so the events
    # a slot span holds vary widely along the log. Blocks are cut on
    # per-bucket event counts, so none holds more than 200.
    monkeypatch.setattr(sim_engine, "_LOG_BLOCK", 200)
    res = ac.run_energy(trend_config(b_max=8.0, seed=0))
    assert _concatenated(res.log_blocks()) == res.delivery_log


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(st.integers(2, 9), st.integers(0, 2**20), st.booleans(), st.integers(1, 24))
def test_log_blocks_are_the_longest_runs_of_whole_buckets_that_fit(n, seed, battery, size):
    # A block is the most whole buckets of size // k slots that hold at most
    # size events. A node delivers at most once a slot, so only a one-slot
    # bucket, when k > size, holds more, and it is then a block of its own.
    rng = np.random.default_rng(seed)
    g, k = random_tree_graph(rng, n), n - 1
    energy = None
    if battery:
        depth = max(ac.bfs_distances(g))
        energy = ac.EnergyParams(b_max=depth + float(rng.choice([0, 2, 8])), e_move=1.0, r_chg=2.0)
    horizon = int(rng.integers(20, 3000))
    cfg = ac.SimConfig(
        graph=g,
        phase_set=ac.PhaseSet(tuple(sorted(set(rng.integers(0, 2 * k, 2 * k).tolist()))), 2 * k),
        model=ac.make_model(tuple(rng.uniform(1.0, 9.0, k)), max_m=3),
        alloc=ac.SensingAllocation(tuple(rng.integers(1, 4, k).tolist())),
        horizon=horizon,
        warmup=0,
        seed=seed,
        energy=energy,
    )
    res = _run(cfg)
    log = res.delivery_log  # one block at the default size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim_engine, "_LOG_BLOCK", size)
        blocks = list(res.log_blocks())
    assert ac.DeliveryLog(*np.concatenate([*blocks, np.empty((0, 4), np.int32)]).T) == log
    for b in blocks:
        assert len(b) and (len(b) <= size or k > size and b[0, 3] == b[-1, 3])
    for a, b in zip(blocks, blocks[1:]):
        assert a[-1, 3] < b[0, 3]  # whole slots
        assert len(a) + len(b) > size  # each block is the longest that fits


def test_same_seed_reproducible_and_seeds_differ():
    cfg = ref_config(horizon=2000, warmup=100, seed=4)
    _assert_identical(checked_run(cfg), checked_run(cfg))
    other = checked_run(dataclasses.replace(cfg, seed=5))
    assert other.per_node_aoi != checked_run(cfg).per_node_aoi


# ---------------------------------------------------------------------------
# exact age accounting
# ---------------------------------------------------------------------------

def test_degenerate_unit_workload_ages_equal_depth():
    # every sensing attempt succeeds instantly, every offset is staffed:
    # the age of node i is exactly its hop distance, every slot
    cfg = ac.SimConfig(
        graph=ac.build_graph(2, [(0, 1)]),
        phase_set=ac.uniform_phases(2, 2),
        model=ac.make_model((1.0,), max_m=1),
        alloc=ac.SensingAllocation((1,)),
        horizon=500,
        warmup=10,
        seed=0,
    )
    res = checked_run(cfg)
    assert res.per_node_aoi == {1: 1.0}


def test_event_log_reconstruction_hand_example():
    log = ac.DeliveryLog(
        origin=[1, 1], sensing_start=[1, 4], generated=[2, 5], delivered=[3, 6]
    )
    # ages ramp 0,1,2 | 2,3,4 | 2,3 over slots 0..7
    assert ac.aoi_from_event_log(log, horizon=8) == {1: 17 / 8}
    assert ac.aoi_from_event_log(log, horizon=8, warmup=2) == {1: 16 / 6}


def test_event_log_no_events_is_a_pure_ramp():
    empty = ac.DeliveryLog([], [], [], [])
    out = ac.aoi_from_event_log(empty, horizon=9, origins=[1, 2])
    assert out == {1: 36 / 9, 2: 36 / 9}
    # int64 ramp sums, as SimConfig checks
    assert ac.aoi_from_event_log(empty, horizon=2**31 - 1, origins=[1]) == {1: (2**31 - 2) / 2}
    with pytest.raises(ValueError, match=f"horizon must be < 2\\*\\*31, got {2**31}"):
        ac.aoi_from_event_log(empty, horizon=2**31, origins=[1])


def test_a_delivery_log_checks_its_columns():
    with pytest.raises(ValueError, match=r"of one length, got \[2, 1, 1, 1\]"):
        ac.DeliveryLog([1, 2], [0], [0], [5])
    with pytest.raises(ValueError, match=r"origin must be 1-D, got shape \(1, 2\)"):
        ac.DeliveryLog([[1, 2]], [0, 0], [1, 1], [5, 5])
    with pytest.raises(ValueError, match="origin must hold whole numbers"):
        ac.DeliveryLog([1.7], [0.2], [0], [5])
    with pytest.raises(ValueError, match="sensing_start must hold whole numbers"):
        ac.DeliveryLog([1], [float("nan")], [0], [5])
    # whole floats are taken, and an int64 column is kept as given
    log = ac.DeliveryLog([1.0], [0.0], [2], [5])
    assert log.origin.dtype == np.int64 and log == ac.DeliveryLog([1], [0], [2], [5])
    delivered = np.array([5, 7], dtype=np.int64)
    assert ac.DeliveryLog([1, 1], [0, 3], [2, 4], delivered).delivered is delivered


def test_event_log_respects_order():
    unsorted = ac.DeliveryLog([1, 1], [0, 2], [1, 3], [5, 4])
    with pytest.raises(ValueError, match="^events for origin 1 are not time-ordered$"):
        ac.aoi_from_event_log(unsorted, horizon=8)
    # origins interleave in slot order; only origin 2's own events go backwards
    interleaved = ac.DeliveryLog([1, 2, 1, 2], [0, 0, 2, 1], [1, 1, 3, 2], [2, 6, 4, 5])
    with pytest.raises(ValueError, match="^events for origin 2 are not time-ordered$"):
        ac.aoi_from_event_log(interleaved, horizon=8)
    with pytest.raises(ValueError):
        ac.aoi_from_event_log(ac.DeliveryLog([1], [1], [2], [3]), horizon=5, warmup=5)


@st.composite
def _event_logs(draw):
    """Random logs over origins 1..4, in delivery order or shuffled, with
    sensing starts that may fall between an origin's events, deliveries past
    the horizon, and a warmup cut."""
    horizon = draw(st.integers(2, 60))
    warmup = draw(st.integers(0, horizon - 1))
    events = draw(
        st.lists(
            st.tuples(
                st.integers(1, 4),  # origin
                st.integers(0, horizon),  # sensing start
                st.integers(0, 8),  # generation, after the start
                st.integers(0, 10),  # delivery, after generation
            ),
            max_size=30,
        )
    )
    rows = [(o, s, s + g, s + g + d) for o, s, g, d in events]
    if draw(st.booleans()):
        rows.sort(key=lambda r: r[3])
    columns = [list(c) for c in zip(*rows)] if rows else [[]] * 4
    log = ac.DeliveryLog(*columns)
    origins = draw(st.one_of(st.none(), st.lists(st.integers(1, 6), unique=True)))
    return log, horizon, warmup, origins


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_event_logs())
def test_event_log_reconstruction_equals_the_event_loop_property(case):
    # origins with no events, warmup cuts and unsorted logs, against the loop
    log, horizon, warmup, origins = case
    try:
        expected = aoi_from_event_log_loop(log, horizon, warmup, origins)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            ac.aoi_from_event_log(log, horizon, warmup, origins)
        return
    assert ac.aoi_from_event_log(log, horizon, warmup, origins) == expected


def test_delivery_log_container_protocol():
    cfg = ref_config(horizon=300, warmup=10, seed=8)
    log = checked_run(cfg).delivery_log
    assert len(log) > 0
    assert log.became_freshest.all()
    assert log == checked_run(cfg).delivery_log
    assert log != "not a log"
    assert "events" in repr(log)


# ---------------------------------------------------------------------------
# battery state machine
# ---------------------------------------------------------------------------

def test_zero_move_cost_matches_unconstrained_bit_for_bit():
    for n_c in (14, 7):
        for seed in (0, 3):
            cfg = ref_config(n_c=n_c, horizon=2500, warmup=200, seed=seed)
            free = checked_run(cfg)
            wired = checked_run_energy(
                dataclasses.replace(
                    cfg, energy=ac.EnergyParams(b_max=10.0, e_move=0.0, r_chg=1.0)
                )
            )
            _assert_identical(free, wired)
            assert wired.energy_trace is not None
            assert all(s.recharges == 0 and s.return_slots == 0 for s in wired.energy_trace)


def test_huge_battery_matches_unconstrained_bit_for_bit():
    for seed in range(6):
        cfg = ref_config(horizon=2500, warmup=200, seed=seed)
        free = checked_run(cfg)
        wired = checked_run_energy(
            dataclasses.replace(
                cfg, energy=ac.EnergyParams(b_max=1e9, e_move=2.0, r_chg=2.0)
            )
        )
        _assert_identical(free, wired)


def test_energy_trace_accounts_for_detours():
    cfg = ref_config(
        horizon=3000, warmup=200, seed=1,
        energy=ac.EnergyParams(b_max=12.0, e_move=2.0, r_chg=2.0),
    )
    res = checked_run_energy(cfg)
    assert res.energy_trace is not None and len(res.energy_trace) == 14
    assert [s.conveyor for s in res.energy_trace] == list(range(14))
    total_recharges = sum(s.recharges for s in res.energy_trace)
    total_charge = sum(s.charge_slots for s in res.energy_trace)
    assert total_recharges > 0 and total_charge > 0
    # charging to full from empty takes b_max / r_chg slots, so the per-fleet
    # ratio cannot fall below that, up to the staggered partial first charges
    assert total_charge >= total_recharges
    plain = checked_run(ref_config(horizon=3000, warmup=200, seed=1))
    assert plain.energy_trace is None
    # a tight battery must hurt: strictly more age than unconstrained motion
    assert res.network_aoi > plain.network_aoi


def test_energy_runs_are_seed_deterministic():
    cfg = ref_config(
        horizon=2000, warmup=100, seed=12,
        energy=ac.EnergyParams(b_max=20.0, e_move=2.0, r_chg=2.0),
    )
    a = checked_run_energy(cfg)
    b = checked_run_energy(cfg)
    _assert_identical(a, b)
    assert a.energy_trace == b.energy_trace


def test_walk_positions_follow_offsets():
    # one conveyor, offset 5: at slot t it stands at walk index (t + 5) mod L
    walk = ref_walk()
    cfg = ref_config(phases=ac.PhaseSet((5,), 14), horizon=900, warmup=50, seed=2)
    res = checked_run(cfg)
    # deliveries only happen when the conveyor is at the base, i.e. when
    # (t + 5) mod 14 is a walk index holding node 0
    base_slots = {j for j in range(14) if walk.sequence[(5 + j) % 14] == 0}
    assert len(res.delivery_log) > 0
    assert {int(d) % 14 for d in res.delivery_log.delivered} <= base_slots


# ---------------------------------------------------------------------------
# battery runs: arrival-DP engine against the stepper oracle
# ---------------------------------------------------------------------------

def _fleet(cfg: ac.SimConfig):
    """The fleet states of cfg's motion, slot by slot (see `_fleet_states`)."""
    stats = [[0] * len(cfg.phase_set.phases) for _ in range(4)]
    return _fleet_states(cfg.graph, cfg.phase_set, cfg.energy, cfg.seed, stats)


def _assert_matches_stepper(cfg: ac.SimConfig) -> ac.SimResult:
    fast = checked_run_energy(cfg)
    ref = _run_stepper(cfg)
    _assert_identical(fast, ref)
    assert fast.energy_trace == ref.energy_trace
    return fast


def test_battery_engine_matches_stepper_on_reference_and_trend():
    for n_c in (14, 7, 3):
        for seed in (0, 5):
            _assert_matches_stepper(
                ref_config(n_c=n_c, horizon=3000, warmup=200, seed=seed,
                           energy=ac.EnergyParams(b_max=12.0, e_move=1.0, r_chg=2.0))
            )
    for b_max in (20.0, 30.0, 40.0):
        res = _assert_matches_stepper(trend_config(b_max=b_max, seed=2, horizon=3000, warmup=200))
        assert sum(s.recharges for s in res.energy_trace) > 0


def test_battery_engine_matches_stepper_on_random_trees():
    rng = np.random.default_rng(77)
    for _ in range(12):
        n = int(rng.integers(2, 12))
        g = random_tree_graph(rng, n)
        L = 2 * (n - 1)
        n_c = int(rng.integers(1, L + 1))
        e_move = float(rng.choice([0.5, 1.0, 2.0]))
        b_max = e_move * max(ac.bfs_distances(g)) + float(rng.choice([0.0, 1.5, 6.0, 20.0]))
        r_chg = float(rng.choice([0.5, 2.0]))
        _assert_matches_stepper(
            ac.SimConfig(
                graph=g,
                phase_set=ac.random_phases(n_c, L, seed=int(rng.integers(1 << 20))),
                model=ac.make_model(tuple(rng.uniform(1.0, 9.0, size=n - 1)), max_m=3),
                alloc=ac.SensingAllocation(tuple(int(m) for m in rng.integers(1, 4, size=n - 1))),
                horizon=1500,
                warmup=100,
                seed=int(rng.integers(1 << 20)),
                energy=ac.EnergyParams(b_max=b_max, e_move=e_move, r_chg=r_chg),
            )
        )


def test_battery_engine_edge_cases_match_stepper():
    walk = ref_walk()
    # conveyors that start docked: the stagger leaves some off their walk position
    docked = ref_config(
        horizon=2000, seed=3, energy=ac.EnergyParams(b_max=12.0, e_move=2.0, r_chg=2.0)
    )
    start = next(_fleet(docked))
    assert any(s[1] == BASE != walk.sequence[phi] for s, phi in zip(start, docked.phase_set.phases))
    _assert_matches_stepper(docked)
    # battery exactly covers the deepest return (depth 3)
    _assert_matches_stepper(
        ref_config(horizon=2000, seed=4, energy=ac.EnergyParams(b_max=6.0, e_move=2.0, r_chg=1.0))
    )
    _assert_matches_stepper(trend_config(b_max=6.0, seed=4, horizon=2000, warmup=100))
    # free moves: the detour logic never fires
    res = _assert_matches_stepper(
        ref_config(
            n_c=5, horizon=2000, seed=6, energy=ac.EnergyParams(b_max=5.0, e_move=0.0, r_chg=1.0)
        )
    )
    assert all(s.recharges == s.return_slots == 0 for s in res.energy_trace)


@st.composite
def _random_instances(draw):
    n = draw(st.integers(2, 9))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    g = ac.build_graph(n, edges)
    L = 2 * (n - 1)
    phases = draw(st.sets(st.integers(0, L - 1), min_size=1, max_size=L))
    k = n - 1
    alphas = draw(st.lists(st.floats(1.0, 9.0), min_size=k, max_size=k))
    m = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    energy = None
    if draw(st.booleans()):
        e_move = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
        slack = draw(st.sampled_from([0.0, 0.5, 2.0, 7.5, 30.0]))
        energy = ac.EnergyParams(
            b_max=(e_move * max(ac.bfs_distances(g)) + slack) or 1.0,
            e_move=e_move,
            r_chg=draw(st.floats(0.25, 5.0)),
        )
    # battery runs reach past their fleet cycle at long horizons; short ones stop before it
    horizon = draw(st.integers(20, 600 if energy is None else 3000))
    return ac.SimConfig(
        graph=g,
        phase_set=ac.PhaseSet(tuple(sorted(phases)), L),
        model=ac.make_model(tuple(alphas), max_m=3),
        alloc=ac.SensingAllocation(tuple(m)),
        horizon=horizon,
        warmup=draw(st.integers(0, horizon - 1)),
        seed=draw(st.integers(0, 2**20)),
        energy=energy,
    )


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(_random_instances())
def test_arrival_dp_equals_stepper_property(cfg):
    if cfg.energy is None:
        _assert_identical(checked_run(cfg), _run_stepper(cfg))
    else:
        _assert_matches_stepper(cfg)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_random_instances())
def test_coverage_audit_equals_the_stepper_log_at_q_one(drawn):
    # every node senses every slot, so the sample of slot t reaches the base
    # only if t is a pickup, at X(v, t); the literal stepper's log shows
    # which slots of the fleet's cycle reach the base in the node's depth
    cfg = every_slot_config(
        drawn.graph, drawn.phase_set, horizon=3000, seed=drawn.seed, energy=drawn.energy
    )
    report = ac.coverage_audit(cfg)
    t0, period = report.t0, report.period
    if not period:  # no cycle inside the horizon: nothing to audit
        assert (report.full_coverage, report.violations, report.unserved) == (False, (), ())
        return
    # a pickup reaches the base within one walk period, and P is a multiple
    # of L, so every sample of the cycle that is delivered at all is logged
    cfg = dataclasses.replace(cfg, horizon=t0 + 2 * period + 2)
    assert ac.coverage_audit(cfg) == report
    log = _run_stepper(cfg).delivery_log
    in_cycle = (log.generated >= t0) & (log.generated < t0 + period)
    on_time = log.delivered - log.generated == np.asarray(cfg.tree.depth)[log.origin]
    violations, unserved = [], []
    for v in range(1, cfg.graph.node_count):
        mine = in_cycle & (log.origin == v)
        if not mine.any():
            unserved.append(v)
            continue
        covered = set(log.generated[mine & on_time].tolist())
        violations += [(v, t) for t in range(t0, t0 + period) if t not in covered]
    assert report == ac.CoverageReport(tuple(violations), tuple(unserved), t0, period)


def _arrivals_of(cfg: ac.SimConfig):
    return sim_engine._fleet(cfg)[0]


def _fleet_cycle(cfg: ac.SimConfig):
    """(t0, P) of a fleet's cycle, or None when the run has no cycle inside
    its horizon and solves the first H slots instead."""
    arrivals = _arrivals_of(cfg)
    if arrivals.period == 0:
        return None
    return arrivals.t0, arrivals.period


def _arrival_slots(arrivals, v: int, g: np.ndarray) -> np.ndarray:
    """X(v, g) slot by slot, read straight from v's prefix and cycle lists:
    X(v, g) is X at the first listed slot at or after g, and the cycle's
    slots and values repeat every period slots, shifted by the period."""
    t0, period = arrivals.t0, arrivals.period
    b, xb = arrivals.cycle[v]
    x = np.full(g.shape, _NEVER)  # no cycle: nothing held from t0 on is delivered
    if period:
        # past the period's last pickup, X is the next period's first; a node
        # the cycle never serves stays "never delivered", shifted like the rest
        k, r = np.divmod(np.maximum(g - t0, 0), period)
        first = xb[0] if b.size else _NEVER
        x = np.append(xb, first + period)[np.searchsorted(b, t0 + r)] + k * period
    times, arrive = arrivals.prefix[v]
    i = np.searchsorted(times, g)
    early = i < times.size
    x[early] = arrive[i[early]]
    return x


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(_random_instances())
def test_deliveries_never_overtake_property(cfg):
    # a later sample never reaches the base before an earlier one, and the
    # replay takes one sample per pickup: the slots where X rises
    arrivals = _arrivals_of(cfg)
    t0, period = arrivals.t0, arrivals.period
    g = np.arange(t0 + 3 * max(period, 1) + 1)  # with no cycle, still 3 slots past t0
    for v in range(1, cfg.graph.node_count):
        x = _arrival_slots(arrivals, v, g)
        assert np.all(np.diff(x) >= 0)
        # across the period wrap: X(v, t0 + P - 1) <= X(v, t0) + P = X(v, t0 + P)
        assert x[t0 + period - 1] <= x[t0] + period == x[t0 + period]
        times, arrive = arrivals.prefix[v]
        assert np.all(np.diff(times) > 0) and np.all(np.diff(arrive) > 0)

        # pickups are exactly the rising slots, across the prefix/cycle seam
        # and two period wraps: X(b) < horizon <= X(g[-1]) only for b < g[-1],
        # and the horizon one below cuts the last wrap short
        rising = np.flatnonzero(np.diff(x) > 0)
        end = min(int(x[-1]), _NEVER)
        for horizon in (end, end - 1):
            b, xb = arrivals.pickups(v, horizon)
            picked = rising[x[rising] < horizon]
            assert np.array_equal(b, picked) and np.array_equal(xb, x[picked])
            assert np.all(np.diff(b) > 0) and np.all(np.diff(xb) > 0)
            assert np.all(xb >= b + cfg.tree.depth[v])


@pytest.mark.parametrize(
    "cfg",
    [
        trend_config(b_max=16.0, seed=0, horizon=3000, warmup=0),
        trend_config(b_max=20.0, seed=2, horizon=3000, warmup=0),
    ],
    ids=["unserved", "served"],
)
def test_pickups_at_every_horizon_are_the_long_table_cut(cfg):
    # one table of the prefix and the tiled cycle, cut by one search: every
    # horizon through two periods keeps exactly the pickups with X < H
    arrivals = _arrivals_of(cfg)
    t0, period = arrivals.t0, arrivals.period
    assert t0 > 0 and period > 0
    for v in range(1, cfg.graph.node_count):
        assert arrivals.prefix[v].shape[1] > 0
        b, xb = arrivals.pickups(v, cfg.horizon)
        for horizon in range(t0 + 2 * period + 1):
            cut, xcut = arrivals.pickups(v, horizon)
            keep = xb < horizon
            assert np.array_equal(cut, b[keep]) and np.array_equal(xcut, xb[keep])


def test_random_instances_reach_both_battery_paths():
    paths = set()

    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(_random_instances())
    def collect(cfg):
        if cfg.energy is not None:
            paths.add(_fleet_cycle(cfg) is not None)

    collect()
    assert paths == {True, False}


# ---------------------------------------------------------------------------
# battery fleet cycles: each named case against the stepper oracle
# ---------------------------------------------------------------------------

@st.composite
def _undersized_batteries(draw):
    """Random trees, phase sets and capacities in [e_move * depth, 2 *
    e_move * depth): accepted, but too small for a round trip to the depth."""
    n = draw(st.integers(2, 9))
    g = ac.build_graph(n, [(draw(st.integers(0, i - 1)), i) for i in range(1, n)])
    L = 2 * (n - 1)
    e_move = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
    floor = e_move * max(ac.bfs_distances(g))
    b_max = floor * draw(st.floats(1.0, 2.0, exclude_max=True))
    assume(b_max < 2 * floor)
    return ac.SimConfig(
        graph=g,
        phase_set=ac.PhaseSet(tuple(sorted(draw(st.sets(st.integers(0, L - 1), min_size=1)))), L),
        model=ac.make_model((2.0,) * (n - 1), max_m=1),
        alloc=ac.SensingAllocation((1,) * (n - 1)),
        horizon=3000,
        warmup=0,
        seed=draw(st.integers(0, 2**20)),
        energy=ac.EnergyParams(b_max=b_max, e_move=e_move, r_chg=draw(st.floats(0.25, 5.0))),
    )


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_undersized_batteries())
def test_below_a_round_trip_no_conveyor_reaches_a_deepest_node_property(cfg):
    # after a recharge a conveyor leaves the base with b_max and spends at
    # least (depth - 1) e_move to get within one hop of a deepest node; the
    # follow rule then needs e_move (depth + 1) in hand to step onto it
    depth = cfg.tree.depth
    deepest = {v for v in range(1, cfg.graph.node_count) if depth[v] == max(depth)}
    if _arrivals_of(cfg).period:
        assert deepest <= set(sim_engine.unserved_nodes(cfg))


def test_node_unserved_after_the_prefix_matches_stepper():
    cfg = ac.SimConfig(
        graph=ac.build_graph(3, [(0, 1), (1, 2)]),
        phase_set=ac.PhaseSet((0,), 4),
        model=ac.make_model((2.0, 3.0), max_m=1),
        alloc=ac.SensingAllocation((1, 1)),
        horizon=20000,
        warmup=0,
        seed=15,
        energy=ac.EnergyParams(b_max=2.0, e_move=1.0, r_chg=0.5),
    )
    t0, _ = _fleet_cycle(cfg)
    log = _assert_matches_stepper(cfg).delivery_log
    assert np.any(log.origin == 1)
    assert not np.any(log.delivered[log.origin == 2] >= t0)


def _conveyor_prefixes(cfg: ac.SimConfig) -> list[int | None]:
    """The slot from which each conveyor's own state repeats, compared at
    multiples of the walk period inside the horizon (None: no repeat there)."""
    L = cfg.walk.length
    n_c = len(cfg.phase_set.phases)
    seen = [{} for _ in range(n_c)]
    prefixes = [None] * n_c
    for t, states in zip(range(cfg.horizon), _fleet(cfg)):
        if t % L:
            continue
        for c, s in enumerate(states):
            first = seen[c].setdefault(tuple(s), t)
            if prefixes[c] is None and first < t:
                prefixes[c] = first
    return prefixes


@pytest.mark.parametrize(
    "cfg, prefixes, cycle",
    [
        (
            ref_config(n_c=3, seed=1, energy=ac.EnergyParams(b_max=6.0, e_move=1.0, r_chg=2.0)),
            [28, 14, 14],
            (28, 14),
        ),
        (
            trend_config(b_max=40.0, seed=0, horizon=4000, warmup=0),
            [126] + [36] * 4 + [54] + [36] * 6 + [54, 72],
            (126, 126),
        ),
    ],
    ids=["ref", "trend"],
)
def test_fleet_cycle_seams_match_stepper(cfg, prefixes, cycle):
    # the conveyors repeat from different slots; the fleet from the latest
    assert _conveyor_prefixes(cfg) == prefixes
    assert _fleet_cycle(cfg) == cycle
    t0, P = cycle
    for horizon, found in [
        (t0 + P + 1, cycle),  # the repeat falls on the last slot: no slot is left to step
        (t0 + 2 * P, cycle),  # P - 1 slots of the next cycle are stepped
        (t0 + P, None),  # the repeat falls one past the horizon: no cycle
    ]:
        short = dataclasses.replace(cfg, horizon=horizon, warmup=0)
        assert _fleet_cycle(short) == found
        res = _assert_matches_stepper(short)
        assert len(res.delivery_log) > 0
        assert sum(s.return_slots for s in res.energy_trace) > 0


def test_fleet_period_beyond_the_horizon_matches_stepper():
    # the other conveyors' states repeat inside 200 slots, but conveyor 0's
    # first repeats at slot 252, so the fleet's state does not repeat inside
    # the horizon (see test_fleet_cycle_seams_match_stepper)
    cfg = trend_config(b_max=40.0, seed=0, horizon=200, warmup=20)
    assert _fleet_cycle(cfg) is None
    assert _fleet_cycle(dataclasses.replace(cfg, horizon=400)) is not None
    _assert_matches_stepper(cfg)


def test_depletion_after_the_horizon_matches_stepper():
    cfg = ref_config(
        n_c=4, horizon=3000, seed=6, energy=ac.EnergyParams(b_max=1.0, e_move=1e-4, r_chg=0.5)
    )
    assert _fleet_cycle(cfg) is None
    res = _assert_matches_stepper(cfg)
    assert all(s.return_slots == s.charge_slots == 0 for s in res.energy_trace)


def test_free_moves_repeat_with_the_walk_from_slot_zero():
    cfg = ref_config(
        n_c=5, horizon=2000, seed=6, energy=ac.EnergyParams(b_max=5.0, e_move=0.0, r_chg=1.0)
    )
    assert _fleet_cycle(cfg) == (0, REF_L)
    _assert_matches_stepper(cfg)


@pytest.mark.parametrize("n_c", [1, 3, REF_L])
def test_unconstrained_horizons_before_the_walk_repeats_match_stepper(n_c):
    # unconstrained motion first repeats at slot L, so a horizon of at most L
    # is solved over its first H slots with no cycle
    for horizon in (1, REF_L - 1, REF_L, REF_L + 1, 2 * REF_L):
        for warmup in sorted({0, horizon // 2}):
            cfg = ref_config(n_c=n_c, horizon=horizon, warmup=warmup)
            _assert_identical(checked_run(cfg), _run_stepper(cfg))
        assert _fleet_cycle(cfg) == (None if horizon <= REF_L else (0, REF_L))


def test_docked_start_cycle_matches_stepper():
    cfg = ref_config(
        horizon=2000, seed=3, energy=ac.EnergyParams(b_max=12.0, e_move=2.0, r_chg=2.0)
    )
    assert _fleet_cycle(cfg) is not None
    _assert_matches_stepper(cfg)
