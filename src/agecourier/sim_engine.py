"""Slot-stepped joint simulation of sensing robots and courier conveyors with
exact age-of-information accounting.

Within every slot t the event order is fixed:

1. conveyors move to their slot-t positions (walk offset, or energy detour);
2. every conveyor at the base unloads; the base logs at most one delivery per
   origin per slot, the freshest arriving sample, and only when it strictly
   refreshes the base copy;
3. every node runs one sensing trial; a success generates a sample stamped
   with this slot and the next attempt starts next slot;
4. co-located robots gossip, each keeping the freshest sample per origin;
5. the per-node age t - sensing_start(freshest delivered) is sampled.

Under this order a sample generated at slot g and picked up by a conveyor
departing baseward in the g -> g+1 transition reaches the base at g + depth.

One engine serves every run. Conveyor motion never depends on sensing, and it
is periodic: a conveyor's next move depends only on its mode, position,
battery and walk residue, so from some slot t0 on its motion repeats.
Unconstrained motion repeats every walk period L from slot 0; battery runs
step each conveyor only until its state repeats. A backward earliest-arrival
DP solves one fleet period to a fixed point, then the prefix before t0, and
gives each slot's first delivery slot. Conveyors pick up the freshest sample,
so only the last sample generated before each pickup can reach the base: the
replay works per pickup, not per sample, and turns each node's generation
process into its deliveries and exact ages, on one plain thread per
available CPU. A result keeps no delivery columns: its log is replayed
through the same per-node function when it is first read. Within
`shared_draws`, every run reads each node's successes from one store, so a
sweep draws each (seed, node, q, horizon) process once. A fleet with no cycle
inside the horizon is solved over its first H slots. The literal per-slot
stepper stays as the reference; the tests assert bit-identical results across
trees, phases, and batteries.
"""

from __future__ import annotations

import math
import os
import threading
from array import array
from collections.abc import Callable
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import count

import numpy as np

from .conveyor_plan import EulerWalk, PhaseSet, euler_walk
from .graph_core import BASE, Graph, ShortestPathTree, shortest_path_tree
from .sensing_alloc import SensingAllocation, SensingModel, success_probability

_FOLLOW, _RETURN, _CHARGE, _HOLD = 0, 1, 2, 3


class InvalidProbability(ValueError):
    """Success probability outside (0, 1]."""


class ConfigInvalid(ValueError):
    """Simulation configuration pieces disagree with each other."""


class BatteryTooSmall(ValueError):
    """Battery capacity cannot cover a return trip from the deepest node."""


class UnsortedLog(ValueError):
    """Delivery events are not time-ordered per origin."""


@dataclass(frozen=True)
class EnergyParams:
    """Battery capacity, per-edge move cost, and per-slot charge rate."""

    b_max: float
    e_move: float
    r_chg: float

    def __post_init__(self):
        if not self.b_max > 0:
            raise ConfigInvalid(f"b_max must be > 0, got {self.b_max}")
        if not self.e_move >= 0:
            raise ConfigInvalid(f"e_move must be >= 0, got {self.e_move}")
        if not self.r_chg > 0:
            raise ConfigInvalid(f"r_chg must be > 0, got {self.r_chg}")


class DeliveryLog:
    """Base deliveries in slot order, origins ascending within a slot.

    Runs at desk scale produce hundreds of thousands of events, so the log
    is five parallel arrays: origin, sensing_start, generated, delivered and
    became_freshest, one entry per event.
    """

    __slots__ = ("origin", "sensing_start", "generated", "delivered", "became_freshest")

    def __init__(self, origin, sensing_start, generated, delivered, became_freshest):
        self.origin = np.asarray(origin, dtype=np.int64)
        self.sensing_start = np.asarray(sensing_start, dtype=np.int64)
        self.generated = np.asarray(generated, dtype=np.int64)
        self.delivered = np.asarray(delivered, dtype=np.int64)
        self.became_freshest = np.asarray(became_freshest, dtype=bool)

    def __len__(self) -> int:
        return int(self.origin.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeliveryLog):
            return NotImplemented
        return (
            np.array_equal(self.origin, other.origin)
            and np.array_equal(self.sensing_start, other.sensing_start)
            and np.array_equal(self.generated, other.generated)
            and np.array_equal(self.delivered, other.delivered)
            and np.array_equal(self.became_freshest, other.became_freshest)
        )

    def __repr__(self) -> str:
        return f"DeliveryLog({len(self)} events)"


@dataclass(frozen=True)
class ConveyorEnergyStats:
    """Per-conveyor detour accounting for an energy-constrained run."""

    conveyor: int
    recharges: int
    charge_slots: int
    hold_slots: int
    return_slots: int


@dataclass(frozen=True)
class SimResult:
    """Exact ages of one run, and its base deliveries as `delivery_log`.

    Most callers read only the ages, so the result holds no delivery columns:
    `_make_log` replays the run's deliveries into the log when it is first
    read, and is released then.
    """

    per_node_aoi: dict[int, float]
    network_aoi: float
    energy_trace: tuple[ConveyorEnergyStats, ...] | None = None
    _make_log: Callable[[], DeliveryLog] | None = field(default=None, repr=False, compare=False)

    @cached_property
    def delivery_log(self) -> DeliveryLog:
        log = self._make_log()
        object.__setattr__(self, "_make_log", None)
        return log


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario; its tree and walk are derived from the graph.
    Per-seed and per-cell variants are `dataclasses.replace` copies."""

    graph: Graph
    phase_set: PhaseSet
    model: SensingModel
    alloc: SensingAllocation
    horizon: int
    warmup: int
    seed: int
    energy: EnergyParams | None = None

    @property
    def tree(self) -> ShortestPathTree:
        """Shortest-path tree of the graph, the conveyors' road network."""
        return _tree_and_walk(self.graph)[0]

    @property
    def walk(self) -> EulerWalk:
        """Closed Euler walk over the tree that every conveyor follows."""
        return _tree_and_walk(self.graph)[1]

    def validate(self) -> None:
        k = self.graph.node_count - 1
        if not 0 <= self.warmup < self.horizon:
            raise ConfigInvalid(
                f"need 0 <= warmup < horizon, got warmup={self.warmup}, horizon={self.horizon}"
            )
        if 2 * self.horizon**2 >= 2**63:  # int64 age sums (lo + hi - 1) * n
            raise ConfigInvalid(f"horizon must be < 2**31, got {self.horizon}")
        if self.seed < 0:
            raise ConfigInvalid(f"seed must be >= 0, got {self.seed}")
        if self.phase_set.walk_length != self.walk.length:
            raise ConfigInvalid("phase set was built for a different walk length")
        if len(self.alloc.m) != k:
            raise ConfigInvalid(f"allocation covers {len(self.alloc.m)} nodes, graph has {k}")
        if self.model.node_count != k:
            raise ConfigInvalid(f"model covers {self.model.node_count} nodes, graph has {k}")
        if max(self.alloc.m) > self.model.max_m:
            raise ConfigInvalid("allocation exceeds the model's max_m")


@lru_cache(maxsize=16)
def _tree_and_walk(graph: Graph) -> tuple[ShortestPathTree, EulerWalk]:
    """One tree and walk per graph, shared by every copy of a scenario."""
    tree = shortest_path_tree(graph)
    return tree, euler_walk(tree)


def node_stream(seed: int, node: int) -> np.random.Generator:
    """Independent per-node random stream derived from (seed, node index),
    so results never depend on node iteration order."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, node])))


_DRAW_BLOCK = 16384  # uniform draws held at once per mask


def generation_mask(seed: int, node: int, q: float, horizon: int) -> np.ndarray:
    """Per-slot success indicators for one node over the whole run.

    Work-conserving sensing means one Bernoulli(q) trial every slot, so the
    completion slots are exactly the successes of this sequence. The uniforms
    are drawn block by block into one buffer, which gives the same stream as
    one draw of `horizon` values without holding them all.
    """
    if not 0.0 < q <= 1.0:
        raise InvalidProbability(f"q must be in (0, 1], got {q}")
    stream = node_stream(seed, node)
    mask = np.empty(horizon, dtype=bool)
    buf = np.empty(min(horizon, _DRAW_BLOCK))
    for lo in range(0, horizon, _DRAW_BLOCK):
        u = buf[: min(horizon - lo, _DRAW_BLOCK)]
        stream.random(out=u)
        np.less(u, q, out=mask[lo : lo + u.size])
    return mask


# the draw store of the innermost `shared_draws` block, or None outside one
_DRAWS: ContextVar[dict | None] = ContextVar("_DRAWS", default=None)


@contextmanager
def shared_draws():
    """Within this block, runs read each node's generation process from one
    store keyed by (seed, node, q, horizon), as the packed bits of its mask
    (ceil(H / 8) bytes an entry); a missing entry is drawn and stored. A run
    keeps the store it started with, so its log replays from it after the
    block ends. The outer store comes back on exit."""
    token = _DRAWS.set({})
    try:
        yield
    finally:
        _DRAWS.reset(token)


def _successes(draws: dict | None, seed: int, node: int, q: float, horizon: int) -> np.ndarray:
    """The slots where node's sensing succeeds, read from draws when given."""
    if draws is None:
        return np.flatnonzero(generation_mask(seed, node, q, horizon))
    key = (seed, node, q, horizon)
    packed = draws.get(key)
    if packed is None:
        mask = generation_mask(seed, node, q, horizon)
        draws[key] = np.packbits(mask)
        return np.flatnonzero(mask)
    # unpacked bits are 0 or 1, so they read as bools, which nonzero scans fastest
    return np.flatnonzero(np.unpackbits(packed, count=horizon).view(bool))


def run(cfg: SimConfig, engine: str = "table") -> SimResult:
    """Simulate an unconstrained run; identical configs give identical results.

    engine: "table" (default, fast periodic-schedule path) or "stepper" (the
    literal per-slot reference loop).
    """
    cfg.validate()
    if cfg.energy is not None:
        raise ConfigInvalid("config carries energy parameters; use run_energy")
    if engine == "table":
        return _replay(cfg, _walk_arrivals(cfg.walk.sequence, cfg.phase_set.phases))
    if engine == "stepper":
        return _run_stepper(cfg)
    raise ConfigInvalid(f"unknown engine {engine!r}")


def run_energy(cfg: SimConfig) -> SimResult:
    """Simulate with battery-limited conveyors.

    A conveyor follows the walk while, after the next hop, it could still walk
    home through the tree; otherwise it returns to the base along tree edges,
    charges to full at r_chg per slot, holds until its nominal walk position is
    the base again, and resumes. Sensing, gossip, deliveries, and age
    accounting are identical to unconstrained runs. With e_move = 0 the detour
    logic never triggers and results match `run` bit for bit.
    """
    cfg.validate()
    if cfg.energy is None:
        raise ConfigInvalid("run_energy needs energy parameters")
    max_depth = max(cfg.tree.depth)
    if cfg.energy.b_max < cfg.energy.e_move * max_depth:
        raise BatteryTooSmall(
            f"b_max={cfg.energy.b_max} cannot cover a depth-{max_depth} return "
            f"at e_move={cfg.energy.e_move}"
        )
    stats = [[0] * len(cfg.phase_set.phases) for _ in range(4)]
    arrivals = _battery_arrivals(cfg, stats)
    return _replay(cfg, arrivals, _energy_trace(stats))


def _node_probs(model: SensingModel, alloc: SensingAllocation) -> list[float]:
    return [success_probability(model, i, mi) for i, mi in enumerate(alloc.m)]


# ---------------------------------------------------------------------------
# conveyor motion, shared by both engines
# ---------------------------------------------------------------------------

def _motion(cfg: SimConfig, stats):
    """Every conveyor's slot-0 state and the one-slot move rule under cfg.energy.

    A state is [mode, position, battery]. step(c, state, nxt) moves conveyor
    c's state on by one slot, given its nominal walk position nxt in the new
    slot, and counts that slot in stats: four per-conveyor counter lists in
    ConveyorEnergyStats order (recharges, charge, hold and return slots).
    Unconstrained motion is the zero move cost case: every hop is affordable
    and no conveyor starts docked.
    """
    energy = cfg.energy or EnergyParams(b_max=1.0, e_move=0.0, r_chg=1.0)
    b_max, e_move, r_chg = energy.b_max, energy.e_move, energy.r_chg
    recharges, charge_slots, hold_slots, return_slots = stats
    depth = cfg.tree.depth
    par = [0] * cfg.graph.node_count
    for i, p in cfg.tree.parent.items():
        par[i] = p
    w = cfg.walk.sequence
    phases = cfg.phase_set.phases
    # Initial charge levels are staggered: each conveyor draws a level
    # uniformly in [0, b_max) from the base-node stream (the base never
    # senses, so this collides with no sensing stream).  A conveyor whose
    # draw covers its local reserve starts on the walk; one that cannot
    # afford a single hop plus the ride home starts docked and charging.
    # The stagger spreads depletion/recharge cycles across the fleet; a
    # fleet that starts uniformly full depletes in lockstep and goes dark
    # in lockstep, and relative cycle offsets never change afterwards
    # because every conveyor advances through the same deterministic
    # deplete/return/charge/rejoin map.
    battery = (b_max * node_stream(cfg.seed, BASE).random(len(phases))).tolist()
    states = []
    for phi, b0 in zip(phases, battery):
        p = w[phi % cfg.walk.length]
        states.append([_CHARGE, BASE, b0] if b0 < e_move * (depth[p] + 1.0) else [_FOLLOW, p, b0])

    def step(c: int, s: list, nxt: int) -> None:
        mode = s[0]
        if mode == _FOLLOW:
            if s[2] - e_move >= e_move * depth[nxt]:
                s[1] = nxt
                s[2] -= e_move
                return
            mode = _RETURN
        if mode == _RETURN:
            p = s[1]
            if p != BASE:
                p = par[p]
                s[0] = _CHARGE if p == BASE else _RETURN
                s[1] = p
                s[2] -= e_move
                return_slots[c] += 1
                return
            mode = _CHARGE
        if mode == _CHARGE:
            charge_slots[c] += 1
            b = s[2] + r_chg
            if b < b_max:
                s[0] = _CHARGE
                s[2] = b
                return
            s[2] = b_max
            recharges[c] += 1
        # holding at the base until the nominal position aligns
        if nxt == BASE:
            s[0] = _FOLLOW
        else:
            s[0] = _HOLD
            hold_slots[c] += 1

    return states, step


def _fleet_positions(cfg: SimConfig, stats):
    """Yield every conveyor's position for slots 0, 1, 2, ... as one tuple
    per slot, stepping the whole fleet through every slot (see `_motion`)."""
    states, step = _motion(cfg, stats)
    L = cfg.walk.length
    w = cfg.walk.sequence
    phases = cfg.phase_set.phases
    yield tuple(s[1] for s in states)
    for t in count(1):
        for c, phi in enumerate(phases):
            step(c, states[c], w[(t + phi) % L])
        yield tuple(s[1] for s in states)


def _orbit(c: int, s: list, step, w, phi: int, horizon: int, stats):
    """Step conveyor c from its slot-0 state s until the state repeats or the
    horizon ends; return (positions, t0, period).

    The next move depends only on the state and the walk residue. The state
    is compared at multiples of the walk period L, where the residue is always
    phi, so a repeat between slots t0 < t means the motion from t0 on repeats
    every period = t - t0 slots. stats then gets the whole remaining cycles'
    counts, and the partial last cycle is stepped, so it covers slots
    1..horizon-1 as the stepper's does. positions runs from slot 0 to slot t.
    With no repeat, positions covers the horizon and the period is the
    horizon itself, which no fleet cycle fits in.
    """
    L = len(w) - 1
    positions = [s[1]]
    seen = {tuple(s): (0, [0] * 4)}
    for t in range(1, horizon):
        step(c, s, w[(t + phi) % L])
        positions.append(s[1])
        if t % L:
            continue
        counts = [col[c] for col in stats]
        t0, before = seen.setdefault(tuple(s), (t, counts))
        if t0 == t:
            continue
        period = t - t0
        cycles, rest = divmod(horizon - 1 - t, period)
        for col, n, n0 in zip(stats, counts, before):
            col[c] += cycles * (n - n0)
        for u in range(t + 1, t + 1 + rest):
            step(c, s, w[(u + phi) % L])
        return positions, t0, period
    return positions, 0, horizon


def _energy_trace(stats) -> tuple[ConveyorEnergyStats, ...]:
    return tuple(ConveyorEnergyStats(c, *counts) for c, counts in enumerate(zip(*stats)))


# ---------------------------------------------------------------------------
# reference engine: literal per-slot stepper
# ---------------------------------------------------------------------------

def _run_stepper(cfg: SimConfig) -> SimResult:
    nodes = cfg.graph.node_count
    k = nodes - 1
    horizon, warmup = cfg.horizon, cfg.warmup
    qs = _node_probs(cfg.model, cfg.alloc)
    masks = [generation_mask(cfg.seed, i + 1, qs[i], horizon).tolist() for i in range(k)]
    nc = len(cfg.phase_set.phases)
    stats = [[0] * nc for _ in range(4)]
    positions = _fleet_positions(cfg, stats)

    # per-robot freshest sample per origin: generation slot and sensing start
    store_g = [[-1] * k for _ in range(nc)]
    store_s = [[0] * k for _ in range(nc)]
    cache_g = [[-1] * k for _ in range(nodes)]
    cache_s = [[0] * k for _ in range(nodes)]
    fresh_g = [-1] * k
    fresh_s = [0] * k  # virtual sample with sensing start 0, so age grows as t
    cur_start = [0] * k
    aoi_sum = [0] * k
    touched_slot = [-1] * k
    touched: list[int] = []

    ev_origin: list[int] = []
    ev_start: list[int] = []
    ev_gen: list[int] = []
    ev_del: list[int] = []

    for t, pos in zip(range(horizon), positions):
        # 1. move: the generator has placed every conveyor for slot t

        # 2. deliveries: collect the freshest arrival per origin this slot
        for c in range(nc):
            if pos[c] != BASE:
                continue
            sg = store_g[c]
            ss = store_s[c]
            for o in range(k):
                g = sg[o]
                if g >= 0:
                    if g > fresh_g[o]:
                        fresh_g[o] = g
                        fresh_s[o] = ss[o]
                        if touched_slot[o] != t:
                            touched_slot[o] = t
                            touched.append(o)
                    sg[o] = -1
        if touched:
            touched.sort()
            for o in touched:
                ev_origin.append(o + 1)
                ev_start.append(fresh_s[o])
                ev_gen.append(fresh_g[o])
                ev_del.append(t)
            del touched[:]

        # 3. sensing: a success generates a sample stamped with this slot
        for o in range(k):
            if masks[o][t]:
                node = o + 1
                cache_g[node][o] = t
                cache_s[node][o] = cur_start[o]
                cur_start[o] = t + 1

        # 4. gossip: merge freshest-per-origin among co-located robots.
        # Conveyor stores empty at the base (step 2), so the base is a no-op.
        groups: dict[int, list[int]] = {}
        for c in range(nc):
            v = pos[c]
            if v != BASE:
                grp = groups.get(v)
                if grp is None:
                    groups[v] = [c]
                else:
                    grp.append(c)
        for v, cs in groups.items():
            cg = cache_g[v]
            csrt = cache_s[v]
            if len(cs) == 1:
                c = cs[0]
                sg = store_g[c]
                ss = store_s[c]
                for o in range(k):
                    a = cg[o]
                    b = sg[o]
                    if b > a:
                        cg[o] = b
                        csrt[o] = ss[o]
                    elif a > b:
                        sg[o] = a
                        ss[o] = csrt[o]
            else:
                for o in range(k):
                    bg = cg[o]
                    bs = csrt[o]
                    for c in cs:
                        if store_g[c][o] > bg:
                            bg = store_g[c][o]
                            bs = store_s[c][o]
                    if bg > cg[o]:
                        cg[o] = bg
                        csrt[o] = bs
                    for c in cs:
                        if store_g[c][o] < bg:
                            store_g[c][o] = bg
                            store_s[c][o] = bs

        # 5. sample ages
        if t >= warmup:
            for o in range(k):
                aoi_sum[o] += t - fresh_s[o]

    n_slots = horizon - warmup
    per_node = {o + 1: aoi_sum[o] / n_slots for o in range(k)}
    network = sum(per_node.values()) / k
    log = DeliveryLog(ev_origin, ev_start, ev_gen, ev_del, [True] * len(ev_origin))
    return SimResult(
        per_node_aoi=per_node,
        network_aoi=network,
        energy_trace=None if cfg.energy is None else _energy_trace(stats),
        _make_log=lambda: log,
    )


# ---------------------------------------------------------------------------
# fast engine: periodic earliest-arrival DP over the conveyor motion, then replay
# ---------------------------------------------------------------------------

_NEVER = 2**62  # "never delivered"


@dataclass(frozen=True)
class _Arrivals:
    """X(v, g), the first base delivery of a sample held in v's cache after
    the gossip step of slot g, as v's pickups: the slots b where X(v, b) <
    X(v, b + 1), with X(v, b); X(v, .) is constant in between. prefix[v] and
    cycle[v] hold them in [0, t0) and in [t0, t0 + period) as two rows. The
    motion repeats every period slots from t0 on (period 0: no cycle), so
    X(v, g + period) = X(v, g) + period.
    """

    t0: int
    period: int
    prefix: list[np.ndarray]
    cycle: list[np.ndarray]

    def pickups(self, node: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """node's pickup slots b with X(node, b) < horizon, and X(node, b)
        there, in slot order: the prefix, then the cycle every period slots.

        A sample in node's cache at a pickup slot b is picked up for delivery
        at X(node, b), and the samples of b + 1 wait for a later conveyor.
        """
        times, arrive = self.prefix[node]
        b, xb = self.cycle[node]
        P = self.period
        wraps = -(-(horizon - int(xb[0])) // P) if b.size else 0  # periods with some X(b) < horizon
        shift = P * np.arange(wraps)[:, None]
        b, xb = (b + shift).ravel(), (xb + shift).ravel()
        early, late = arrive < horizon, xb < horizon
        return np.concatenate((times[early], b[late])), np.concatenate((arrive[early], xb[late]))


def _backward(trajectory, x: list[int], lo: int, hi: int):
    """Lower x from X(., hi) to X(., lo) through slots hi-1 down to lo.

    X(v, t) = min(X(v, t+1), C(c, t)) over conveyors c at non-base v in slot
    t, with C(c, t) = t+1 if c is at the base in slot t+1, else
    X(pos(c, t+1), t+1). X(v, .) only drops at conveyor visits, so it comes
    back per node as change lists, not an H x n array: the slots in [lo, hi)
    where it drops and its values there, in time order: v's pickups (see
    `_Arrivals`). The recurrence gives X(v, t) <= X(v, t+1): X(v, .) never
    decreases, so each value list is strictly increasing and a later sample
    never reaches the base before an earlier one.
    """
    rev_times = [array("q") for _ in x]
    rev_arrive = [array("q") for _ in x]
    for t in range(hi - 1, lo - 1, -1):
        t1 = t + 1
        # read every X(., t1) before this slot lowers any of them
        pairs = zip(trajectory[t], trajectory[t1])
        offers = [(v, t1 if u == BASE else x[u]) for v, u in pairs if v != BASE]
        for v, a in offers:
            if a < x[v]:
                x[v] = a
                rev_times[v].append(t)
                rev_arrive[v].append(a)
    pickups = [np.array((t[::-1], a[::-1]), dtype=np.int64) for t, a in zip(rev_times, rev_arrive)]
    for p in pickups:
        p.setflags(write=False)  # `_walk_arrivals` shares them through its cache
    return pickups


def _arrivals(trajectory, t0: int, node_count: int) -> _Arrivals:
    """The pickups of X over a trajectory whose rows t0..T are one period
    P = T - t0 of the motion (row T repeats row t0): X(v, T) = X(v, t0) + P.

    The pass over the period starts from "never delivered" and repeats until
    X(., t0) stops changing. Each pass lowers X by the routes that wrap once
    more, so the first pass that changes nothing has reached the exact
    fixed point, including nodes that no conveyor serves in the cycle (they
    stay at _NEVER). One more pass covers the prefix [0, t0). P = 0 means the
    motion has no cycle: nothing held in the last row is ever delivered.
    """
    period = len(trajectory) - 1 - t0
    x = [_NEVER] * node_count
    while True:
        before = x
        x = [min(a + period, _NEVER) for a in before]
        cycle = _backward(trajectory, x, t0, t0 + period)
        if x == before:
            break
    return _Arrivals(t0, period, _backward(trajectory, x, 0, t0), cycle)


@lru_cache(maxsize=128)
def _walk_arrivals(walk_seq: tuple[int, ...], phases: tuple[int, ...]) -> _Arrivals:
    """Unconstrained motion repeats every walk period L from slot 0: the
    t0 = 0, P = L case. The cache shares the result, so its pickup arrays
    are read-only."""
    L = len(walk_seq) - 1
    trajectory = [[walk_seq[(t + phi) % L] for phi in phases] for t in range(L + 1)]
    return _arrivals(trajectory, 0, L // 2 + 1)


def _battery_arrivals(cfg: SimConfig, stats) -> _Arrivals:
    """Battery-limited motion, with each conveyor stepped only until its
    state repeats (see `_orbit`); stats gets the energy counters.

    The fleet repeats from t0 = the latest conveyor prefix with P = the lcm
    of the conveyor periods. If some conveyor does not repeat inside the
    horizon, or t0 + P reaches it, the trajectory is the first H slots with
    no cycle.
    """
    states, step = _motion(cfg, stats)
    horizon = cfg.horizon
    orbits = [
        _orbit(c, s, step, cfg.walk.sequence, phi, horizon, stats)
        for c, (s, phi) in enumerate(zip(states, cfg.phase_set.phases))
    ]
    t0 = max(start for _, start, _ in orbits)
    period = math.lcm(*(period for _, _, period in orbits))
    if t0 + period >= horizon:
        t0, period = horizon - 1, 0
    slots = np.arange(t0 + period + 1)
    columns = [
        np.asarray(positions)[np.where(slots < start, slots, start + (slots - start) % p)]
        for positions, start, p in orbits
    ]
    return _arrivals(np.column_stack(columns).tolist(), t0, cfg.graph.node_count)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _thread_map(fn, items, threads: int) -> list:
    """[fn(x) for x in items] on `threads` plain threads, the calling one
    included: thread j takes every threads-th item from item j. Results come
    back in item order; the first exception raised in any thread is re-raised
    once every thread has stopped."""
    out = [None] * len(items)
    errors = []

    def work(j: int) -> None:
        try:
            for i in range(j, len(items), threads):
                out[i] = fn(items[i])
        except BaseException as exc:
            errors.append(exc)

    workers = [threading.Thread(target=work, args=(j,)) for j in range(1, threads)]
    for w in workers:
        w.start()
    work(0)
    for w in workers:
        w.join()
    if errors:
        raise errors[0]
    return out


def _replay(cfg: SimConfig, arrivals: _Arrivals, energy_trace=None) -> SimResult:
    """Run the per-node generation processes through the arrivals' pickups
    (see `_deliveries`) and sum each node's exact ages.

    Nodes draw from their own streams, so they replay on one plain thread per
    available CPU and are collected in node order. The result holds no
    delivery columns: its log replays the same per-node deliveries, from the
    draw store active now (see `shared_draws`), when it is first read.
    """
    k = cfg.graph.node_count - 1
    horizon, warmup = cfg.horizon, cfg.warmup
    deliveries = partial(_deliveries, cfg, arrivals, _DRAWS.get())

    def age_sum(node: int) -> int:
        # integer age sum over [warmup, horizon): piecewise t - s segments
        dk, _, sk = deliveries(node)
        seg_lo = np.concatenate(([0], dk))
        seg_hi = np.append(dk, horizon)
        seg_s = np.concatenate(([0], sk))
        lo = np.maximum(seg_lo, warmup)
        width = np.maximum(seg_hi - lo, 0)
        return int(((lo + seg_hi - 1) * width // 2 - seg_s * width).sum())

    sums = _thread_map(age_sum, range(1, k + 1), min(_cpu_count(), k))
    n_slots = horizon - warmup
    per_node = {node: total / n_slots for node, total in enumerate(sums, 1)}
    network = sum(per_node.values()) / k
    return SimResult(
        per_node_aoi=per_node,
        network_aoi=network,
        energy_trace=energy_trace,
        _make_log=partial(_merge_log, deliveries, k),
    )


def _deliveries(cfg: SimConfig, arrivals: _Arrivals, draws: dict | None, node: int):
    """node's base deliveries as (delivery, generation, sensing start) slots.

    A conveyor picks up the freshest sample in a node's cache, so the one
    delivered at X(node, b) for a rising slot b (see `_Arrivals.pickups`) is
    the last sample generated at or before b, and every other sample is
    superseded before a pickup. Deliveries never overtake: X(v, .) never
    decreases (see `_backward`), so pickups come in delivery order, each
    delivery strictly refreshes the base copy, and a sample that an earlier
    pickup already took is the only repeat; no sort or refresh filter is
    needed.
    """
    q = success_probability(cfg.model, node - 1, cfg.alloc.m[node - 1])
    gens = _successes(draws, cfg.seed, node, q, cfg.horizon)
    b, dk = arrivals.pickups(node, cfg.horizon)
    j = np.searchsorted(gens, b, "right") - 1  # the last sample at or before each pickup
    new = np.diff(j, prepend=-1) > 0  # not taken by an earlier pickup
    j, dk = j[new], dk[new]
    sk = np.where(j > 0, gens[j - 1] + 1, 0)  # sensing starts one past the previous sample
    return dk, gens[j], sk


def _merge_log(deliveries, k: int) -> DeliveryLog:
    """Replay nodes 1..k's deliveries and merge them into one log in slot
    order, origins ascending within a slot."""
    dels, gens, starts = zip(*_thread_map(deliveries, range(1, k + 1), min(_cpu_count(), k)))
    org = np.repeat(np.arange(1, k + 1), [d.size for d in dels])
    del_, gen, srt = np.concatenate(dels), np.concatenate(gens), np.concatenate(starts)
    idx = np.argsort(del_, kind="stable")  # slot order; origins stay ascending within a slot
    return DeliveryLog(org[idx], srt[idx], gen[idx], del_[idx], np.ones(idx.size, dtype=bool))


# ---------------------------------------------------------------------------
# event-log reconstruction
# ---------------------------------------------------------------------------

def aoi_from_event_log(
    log: DeliveryLog, horizon: int, warmup: int = 0, origins=None
) -> dict[int, float]:
    """Rebuild per-node average ages from freshest delivery events alone.

    Between consecutive freshest deliveries the age is a straight ramp, so the
    window sum is a handful of integer series: a cycle of width W starting at
    age a contributes a*W + W*(W-1)/2. Must agree exactly with the slot
    sampled averages of the run that produced the log.

    origins fixes the node set (needed when some node never delivered); by
    default the nodes present in the log are used. Raises UnsortedLog if any
    origin's events are out of time order.
    """
    if not 0 <= warmup < horizon:
        raise ValueError(f"need 0 <= warmup < horizon, got {warmup}, {horizon}")
    if 2 * horizon**2 >= 2**63:  # int64 ramp sums, as in SimConfig.validate
        raise ValueError(f"horizon must be < 2**31, got {horizon}")
    fresh = log.became_freshest
    org, dlv, srt = log.origin[fresh], log.delivered[fresh], log.sensing_start[fresh]
    order = np.argsort(org, kind="stable")  # group by origin, log order within
    org, dlv, srt = org[order], dlv[order], srt[order]
    if origins is None:
        origins = np.unique(org).tolist()
    origins = list(origins)
    unsorted = set(org[1:][(org[1:] == org[:-1]) & (dlv[1:] <= dlv[:-1])].tolist())
    for node in origins:
        if node in unsorted:
            raise UnsortedLog(f"events for origin {node} are not time-ordered")

    # Each origin's segments: one ending at each of its events, then the tail
    # [last delivery, horizon). Segment i of an origin whose events start at
    # index a ends at event a + i and follows event a + i - 1 (none for i = 0).
    nodes = np.asarray(origins, dtype=np.int64)
    first_event = np.searchsorted(org, nodes)
    events = np.searchsorted(org, nodes + 1) - first_event
    n = events + 1
    first = np.cumsum(n) - n  # each origin's first segment
    step = np.arange(n.sum()) - np.repeat(first, n)
    ev = np.repeat(first_event, n) + step
    dlv, srt = np.append(dlv, 0), np.append(srt, 0)  # ev reaches one past the last event
    end = np.where(step == np.repeat(events, n), horizon, dlv[ev])
    prev_d = np.where(step > 0, dlv[ev - 1], 0)
    prev_s = np.where(step > 0, srt[ev - 1], 0)
    lo = np.maximum(prev_d, warmup)
    width = np.maximum(np.minimum(end, horizon) - lo, 0)
    # age ramp: starts at lo - prev_s, rises by one per slot
    ramp = (lo - prev_s) * width + width * (width - 1) // 2
    totals = np.add.reduceat(ramp, first).tolist() if nodes.size else []
    n_slots = horizon - warmup
    return {node: total / n_slots for node, total in zip(origins, totals)}
