"""Slot-stepped joint simulation of sensing robots and courier conveyors with
exact age-of-information accounting.

Within every slot t the event order is fixed:

1. conveyors move to their slot-t positions (walk offset, or energy detour);
2. every conveyor at the base unloads; the base logs at most one delivery per
   origin per slot, the freshest arriving sample, and only when it strictly
   refreshes the base copy;
3. every node runs one sensing trial; a success generates a sample stamped
   with this slot and the next attempt starts next slot;
4. at every non-base node, the node's cache and every conveyor there keep
   the freshest sample per origin (conveyors at the base are empty after 2);
5. the per-node age t - sensing_start(freshest delivered) is sampled.

Under this order a sample generated at slot g and picked up by a conveyor
departing baseward in the g -> g+1 transition reaches the base at g + depth.

One engine serves every run. Conveyor motion never depends on sensing, and it
is periodic: the fleet's next move depends only on every conveyor's mode,
position and battery and on the walk residue, so from some slot t0 on its
motion repeats. Every run steps the whole fleet as one, only until its state
repeats at a multiple of L; unconstrained motion is the zero move cost case,
which repeats at L (t0 = 0, period L), and a fleet with no repeat inside the
horizon is solved over its first H slots. A backward earliest-arrival DP
solves one fleet period to a fixed point, then the prefix before t0, and
gives each slot's first delivery slot. Conveyors pick up the freshest sample,
so only the last sample generated before each pickup can reach the base: the
replay works per pickup, not per sample. It holds each node's generation
process as uint64 words of 64 slots and finds each pickup's sample by a bit
scan of one word, then replays the nodes in order on the calling thread. A
result keeps no delivery columns: its log is replayed through the same
per-node function when it is read, and merged in blocks of whole slots, so
a reader that consumes the log in slot order, such as the trace writer,
never holds all of it. Within `shared_draws`, every run reads each node's
words from one store, so a sweep draws each (seed, node, q, horizon)
process once. The literal per-slot stepper, `run(cfg, engine="stepper")`,
stays as the reference: it performs the five steps above as written, on the
same fleet motion, and the tests assert bit-identical results across trees,
phases, and batteries.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Iterator
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
        if not math.isfinite(self.e_move):
            raise ConfigInvalid(f"e_move must be finite, got {self.e_move}")
        if not self.r_chg > 0:
            raise ConfigInvalid(f"r_chg must be > 0, got {self.r_chg}")


class DeliveryLog:
    """Base deliveries in slot order, origins ascending within a slot.

    Runs at desk scale produce hundreds of thousands of events, so the log
    is four parallel int64 arrays: origin, sensing_start, generated and
    delivered, one entry per event (32 bytes). The base logs a delivery only
    when it strictly refreshes its copy, so every event became the freshest:
    `became_freshest` is a read-only all-True view, kept for the trace format.
    """

    __slots__ = ("origin", "sensing_start", "generated", "delivered")

    def __init__(self, origin, sensing_start, generated, delivered):
        self.origin = np.asarray(origin, dtype=np.int64)
        self.sensing_start = np.asarray(sensing_start, dtype=np.int64)
        self.generated = np.asarray(generated, dtype=np.int64)
        self.delivered = np.asarray(delivered, dtype=np.int64)

    @property
    def became_freshest(self) -> np.ndarray:
        return np.broadcast_to(True, self.origin.shape)

    def __len__(self) -> int:
        return int(self.origin.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeliveryLog):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c)) for c in self.__slots__)

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


_LOG_BLOCK = 65536  # at most this many events per block of a delivery log


@dataclass(frozen=True)
class SimResult:
    """Exact ages of one run, and its base deliveries as `delivery_log` or
    as `log_blocks()`.

    Most callers read only the ages, so the result holds no delivery columns:
    `_log` replays the run's deliveries each time they are read and gives
    their count and their blocks (see `_log_blocks`).
    """

    per_node_aoi: dict[int, float]
    network_aoi: float
    energy_trace: tuple[ConveyorEnergyStats, ...] | None = None
    _log: Callable[[], tuple[int, Iterator[np.ndarray]]] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def delivery_log(self) -> DeliveryLog:
        """The whole log, its four columns filled block by block."""
        n, blocks = self._log()
        columns = [np.empty(n, dtype=np.int64) for _ in range(4)]
        at = 0
        for rows in blocks:
            for i, col in enumerate(columns):
                col[at : at + len(rows)] = rows[:, i]
            at += len(rows)
            del rows  # not held while the next block is merged
        return DeliveryLog(*columns)

    def log_blocks(self) -> Iterator[np.ndarray]:
        """The log in slot order as blocks of whole slots, at most _LOG_BLOCK
        events each: (events, 4) int32 rows of origin, sensing_start,
        generated and delivered (`validate` keeps every slot below 2**31).
        Each call replays the run; the reference stepper keeps its events
        and gives them as one block."""
        yield from self._log()[1]


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario; its tree and walk are derived from the graph.
    Per-seed and per-cell variants are `dataclasses.replace` copies. Every
    instance, each copy included, is checked by `validate` when made."""

    graph: Graph
    phase_set: PhaseSet
    model: SensingModel
    alloc: SensingAllocation
    horizon: int
    warmup: int
    seed: int
    energy: EnergyParams | None = None

    def __post_init__(self):
        self.validate()

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
        energy, depth = self.energy, max(self.tree.depth)
        if energy is not None and energy.b_max < energy.e_move * depth:
            raise BatteryTooSmall(
                f"b_max={energy.b_max} cannot cover a depth-{depth} return at e_move={energy.e_move}"
            )


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
    store keyed by (seed, node, q, horizon), as the words of its mask (see
    `_words`; 8 * ceil(H / 64) bytes an entry); a missing entry is drawn and
    stored. A run keeps the store it started with, so its log replays from
    it after the block ends. The outer store comes back on exit."""
    token = _DRAWS.set({})
    try:
        yield
    finally:
        _DRAWS.reset(token)


def _words(draws: dict | None, seed: int, node: int, q: float, horizon: int):
    """node's generation mask as native uint64 words, read from draws when
    given, and before[w], the last success ahead of word w (-1: none).

    The words are the mask's packed bits, padded with zeros to whole words
    and read big endian: slot 64 w + i is bit 63 - i of word w, so a word
    x's last success is its lowest set bit, slot 64 w + 64 -
    bitwise_count(x ^ (x - 1))."""
    key = (seed, node, q, horizon)
    packed = None if draws is None else draws.get(key)
    if packed is None:
        bits = np.packbits(generation_mask(seed, node, q, horizon))
        packed = np.pad(bits, (0, -bits.size % 8)).view(">u8")
        if draws is not None:
            draws[key] = packed
    words = packed.astype(np.uint64)
    last = 64 * np.arange(1, words.size + 1) - np.bitwise_count(words ^ (words - 1))
    before = np.maximum.accumulate(np.concatenate(([-1], np.where(words, last, -1)[:-1])))
    return words, before


def run(cfg: SimConfig, engine: str = "table") -> SimResult:
    """Simulate an unconstrained run; identical configs give identical results.

    engine: "table" (default, fast periodic-schedule path) or "stepper" (the
    literal reference: the module docstring's five steps, slot by slot).
    """
    if cfg.energy is not None:
        raise ConfigInvalid("config carries energy parameters; use run_energy")
    if engine == "table":
        return _replay(cfg)
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
    if cfg.energy is None:
        raise ConfigInvalid("run_energy needs energy parameters")
    return _replay(cfg)


def unserved_nodes(cfg: SimConfig) -> tuple[int, ...]:
    """The nodes that no conveyor of cfg's fleet (battery levels drawn from
    cfg.seed) picks up from once its motion repeats: after the motion's
    prefix the base hears nothing more from them, so their ages grow with
    the horizon. A battery-limited fleet can lock into a cycle that skips
    whole branches; an unconstrained one covers the walk. A fleet whose
    motion does not repeat inside the horizon reports none."""
    arrivals, _ = _fleet(cfg)
    if not arrivals.period:
        return ()
    return tuple(v for v in range(1, cfg.graph.node_count) if not arrivals.cycle[v].shape[1])


# ---------------------------------------------------------------------------
# conveyor motion, shared by both engines
# ---------------------------------------------------------------------------

def _fleet_states(graph: Graph, phase_set: PhaseSet, energy: EnergyParams | None, seed: int, stats):
    """Yield the whole fleet's state for slots 0, 1, 2, ...: phase_set's
    conveyors on graph's walk under energy (None: unconstrained).

    A conveyor's state is [mode, position, battery]; the yielded list of them
    is stepped in place. Each slot moves every conveyor on by one, given its
    nominal walk position in the new slot, and counts that slot in stats: four
    per-conveyor counter lists in ConveyorEnergyStats order (recharges,
    charge, hold and return slots). Unconstrained motion is the zero move
    cost case: every hop is affordable and no conveyor starts docked, so
    the seed changes nothing.
    """
    energy = energy or EnergyParams(b_max=1.0, e_move=0.0, r_chg=1.0)
    b_max, e_move, r_chg = energy.b_max, energy.e_move, energy.r_chg
    recharges, charge_slots, hold_slots, return_slots = stats
    tree, walk = _tree_and_walk(graph)
    depth = tree.depth
    par = [0] * graph.node_count
    for i, p in tree.parent.items():
        par[i] = p
    w, L = walk.sequence, walk.length
    phases = phase_set.phases
    # Initial charge levels are staggered: each conveyor draws a level
    # uniformly in [0, b_max) from seed's base-node stream (the base never
    # senses, so this collides with no sensing stream).  A conveyor whose
    # draw covers its local reserve starts on the walk; one that cannot
    # afford a single hop plus the ride home starts docked and charging.
    # The stagger spreads depletion/recharge cycles across the fleet; a
    # fleet that starts uniformly full depletes in lockstep and goes dark
    # in lockstep, and relative cycle offsets never change afterwards
    # because every conveyor advances through the same deterministic
    # deplete/return/charge/rejoin map.
    battery = (b_max * node_stream(seed, BASE).random(len(phases))).tolist()
    states = []
    for phi, b0 in zip(phases, battery):
        p = w[phi]
        states.append([_CHARGE, BASE, b0] if b0 < e_move * (depth[p] + 1.0) else [_FOLLOW, p, b0])
    yield states
    for t in count(1):
        for c, s in enumerate(states):
            nxt = w[(t + phases[c]) % L]
            mode = s[0]
            if mode == _FOLLOW:
                if s[2] - e_move >= e_move * depth[nxt]:
                    s[1] = nxt
                    s[2] -= e_move
                    continue
                mode = _RETURN
            if mode == _RETURN:
                p = s[1]
                if p != BASE:
                    p = par[p]
                    s[0] = _CHARGE if p == BASE else _RETURN
                    s[1] = p
                    s[2] -= e_move
                    return_slots[c] += 1
                    continue
                mode = _CHARGE
            if mode == _CHARGE:
                charge_slots[c] += 1
                b = s[2] + r_chg
                if b < b_max:
                    s[0] = _CHARGE
                    s[2] = b
                    continue
                s[2] = b_max
                recharges[c] += 1
            # holding at the base until the nominal position aligns
            if nxt == BASE:
                s[0] = _FOLLOW
            else:
                s[0] = _HOLD
                hold_slots[c] += 1
        yield states


def _energy_trace(stats) -> tuple[ConveyorEnergyStats, ...]:
    return tuple(ConveyorEnergyStats(c, *counts) for c, counts in enumerate(zip(*stats)))


# ---------------------------------------------------------------------------
# reference engine: literal per-slot stepper
# ---------------------------------------------------------------------------

def _run_stepper(cfg: SimConfig) -> SimResult:
    """The literal reference: the module docstring's five steps, slot by slot.

    Every conveyor store, node cache and the base holds one int per origin,
    the generation slot of its freshest sample (-1: none), so a fresher
    sample is a larger int. Each origin maps its samples' generation slots to
    their sensing starts as it senses them.
    """
    k = cfg.graph.node_count - 1
    horizon, warmup = cfg.horizon, cfg.warmup
    masks = [
        generation_mask(cfg.seed, o + 1, success_probability(cfg.model, o, m), horizon).tolist()
        for o, m in enumerate(cfg.alloc.m)
    ]
    nc = len(cfg.phase_set.phases)
    stats = [[0] * nc for _ in range(4)]
    fleet = _fleet_states(cfg.graph, cfg.phase_set, cfg.energy, cfg.seed, stats)

    store = [[-1] * k for _ in range(nc)]
    cache = [[-1] * k for _ in range(k + 1)]
    base = [-1] * k
    start_of: list[dict[int, int]] = [{} for _ in range(k)]
    next_start = [0] * k
    base_start = [0] * k  # virtual sample with sensing start 0, so age grows as t
    aoi_sum = [0] * k
    events = []

    for t, states in zip(range(horizon), fleet):
        # 1. move: the generator has placed every conveyor for slot t
        pos = [s[1] for s in states]

        # 2. delivery: the freshest sample per origin on the conveyors at the
        # base, logged if it beats the base's; those stores unload
        docked = [store[c] for c in range(nc) if pos[c] == BASE]
        for o in range(k):
            g = base[o]
            for st in docked:
                if st[o] > g:
                    g = st[o]
                st[o] = -1
            if g > base[o]:
                base[o] = g
                base_start[o] = start_of[o][g]
                events.append((o + 1, base_start[o], g, t))

        # 3. sensing: a success generates a sample stamped with this slot
        for o in range(k):
            if masks[o][t]:
                cache[o + 1][o] = t
                start_of[o][t] = next_start[o]
                next_start[o] = t + 1

        # 4. gossip: at every non-base node the cache and every conveyor there
        # take the max, merged into the cache and copied back to the conveyors
        away = [c for c in range(nc) if pos[c] != BASE]
        for c in away:
            here, st = cache[pos[c]], store[c]
            for o in range(k):
                if st[o] > here[o]:
                    here[o] = st[o]
        for c in away:
            store[c][:] = cache[pos[c]]

        # 5. sample ages
        if t >= warmup:
            for o in range(k):
                aoi_sum[o] += t - base_start[o]

    n_slots = horizon - warmup
    per_node = {o + 1: aoi_sum[o] / n_slots for o in range(k)}
    rows = np.array(events, dtype=np.int32).reshape(-1, 4)
    return SimResult(
        per_node_aoi=per_node,
        network_aoi=sum(per_node.values()) / k,
        energy_trace=None if cfg.energy is None else _energy_trace(stats),
        _log=lambda: (len(rows), iter((rows,))),
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
        late = np.searchsorted(xb, horizon)  # X rises, so the cut is one search
        b, xb = b[:late], xb[:late]
        early = np.searchsorted(arrive, horizon)
        if not early:  # no prefix pickup, as in every unconstrained run
            return b, xb
        return np.concatenate((times[:early], b)), np.concatenate((arrive[:early], xb))


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
        p.setflags(write=False)  # `_fleet_arrivals` shares them through its cache
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
def _fleet_arrivals(
    graph: Graph, phase_set: PhaseSet, energy: EnergyParams | None, seed: int, horizon: int
) -> tuple[_Arrivals, tuple[ConveyorEnergyStats, ...]]:
    """The arrivals of the fleet `_fleet_states` moves, stepped as one only
    until its state repeats, and its energy trace: the counters of slots
    1..H-1, as the stepper's.

    The next move depends only on the fleet's state and the walk residue. The
    state is compared at multiples of the walk period L, where every residue
    is its conveyor's phase, so a repeat between slots t0 < t means the motion
    from t0 on repeats every P = t - t0 slots; unconstrained motion repeats
    at t = L, giving t0 = 0, P = L. The counters then get the whole remaining
    cycles' counts, and the partial last cycle is stepped. With no repeat
    inside the horizon, the trajectory is the first H slots with no cycle.
    The cache shares the result, so its pickup arrays are read-only.
    """
    L = phase_set.walk_length
    stats = [[0] * len(phase_set.phases) for _ in range(4)]
    fleet = _fleet_states(graph, phase_set, energy, seed, stats)
    trajectory, seen = [], {}
    for t, states in zip(range(horizon), fleet):
        trajectory.append([s[1] for s in states])
        if t % L:
            continue
        counts = [col.copy() for col in stats]
        t0, before = seen.setdefault(tuple(map(tuple, states)), (t, counts))
        if t0 < t:
            cycles, rest = divmod(horizon - 1 - t, t - t0)
            for col, now, then in zip(stats, counts, before):
                col[:] = [n + cycles * (n - n0) for n, n0 in zip(now, then)]
            for _ in range(rest):
                next(fleet)
            return _arrivals(trajectory, t0, graph.node_count), _energy_trace(stats)
    return _arrivals(trajectory, horizon - 1, graph.node_count), _energy_trace(stats)


def _fleet(cfg: SimConfig) -> tuple[_Arrivals, tuple[ConveyorEnergyStats, ...]]:
    """cfg's cached `_fleet_arrivals`, under the one key every caller shares:
    unconstrained fleets use seed 0, since the seed only draws battery levels,
    inert at zero move cost, so every seed of a phase set shares one build."""
    seed = 0 if cfg.energy is None else cfg.seed
    return _fleet_arrivals(cfg.graph, cfg.phase_set, cfg.energy, seed, cfg.horizon)


def _replay(cfg: SimConfig) -> SimResult:
    """Run the per-node generation processes through the pickups of cfg's
    fleet (see `_fleet` and `_deliveries`) and sum each node's exact ages.

    Nodes replay in order on the calling thread. The result holds no
    delivery columns: its log replays the same per-node deliveries, from the
    draw store active now (see `shared_draws`), when it is read (see
    `_log_blocks`).
    """
    k = cfg.graph.node_count - 1
    horizon, warmup = cfg.horizon, cfg.warmup
    arrivals, energy_trace = _fleet(cfg)
    deliveries = partial(_deliveries, cfg, arrivals, _DRAWS.get())
    n_slots = horizon - warmup
    ramp = (warmup + horizon - 1) * n_slots // 2

    def age_sum(node: int) -> int:
        # t over [warmup, horizon) is one ramp; each delivery raises the
        # sensing start by its rise for the slots from its delivery on, as
        # in `aoi_from_event_log`, in exact int64
        dk, _, sk = deliveries(node)
        width = np.maximum(horizon - np.maximum(dk, warmup), 0)
        return ramp - int((np.diff(sk, prepend=0) * width).sum())

    per_node = {node: age_sum(node) / n_slots for node in range(1, k + 1)}
    return SimResult(
        per_node_aoi=per_node,
        network_aoi=sum(per_node.values()) / k,
        energy_trace=None if cfg.energy is None else energy_trace,
        _log=partial(_log_blocks, deliveries, k),
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
    needed. Each sample, and its sensing start one past the sample before
    it, is found by a scan of one word (see `_last_success`).
    """
    q = success_probability(cfg.model, node - 1, cfg.alloc.m[node - 1])
    words, before = _words(draws, cfg.seed, node, q, cfg.horizon)
    b, dk = arrivals.pickups(node, cfg.horizon)
    gk = _last_success(words, before, b)  # the last sample at or before each pickup
    new = np.concatenate((gk[:1] >= 0, gk[1:] != gk[:-1]))  # not taken by an earlier pickup
    gk, dk = gk[new], dk[new]
    return dk, gk, _last_success(words, before, gk, below=True) + 1  # one past the previous sample


def _last_success(words: np.ndarray, before: np.ndarray, t: np.ndarray, below: bool = False):
    """The last success at or before each slot of t (before it, when below),
    or -1 for none, from `_words`. Shifted right by 63 - (t & 63), word
    t >> 6 holds slot t - i as bit i, so its lowest set bit is the last
    success; a word with none falls back to `before`. Buffers are reused,
    so a call holds two 8-byte arrays the size of t."""
    x = words[t >> 6]
    buf = np.bitwise_and(t, 63)
    np.subtract(63, buf, out=buf)
    x >>= buf.view(np.uint64)
    if below:
        x &= ~np.uint64(1)  # slot t itself
    bits = buf.view(np.uint64)
    np.subtract(x, 1, out=bits)
    np.bitwise_xor(x, bits, out=bits)
    count = np.bitwise_count(bits)
    np.add(t, 1, out=buf)
    buf -= count
    empty = x == 0
    buf[empty] = before[t[empty] >> 6]
    return buf


def _log_blocks(deliveries, k: int) -> tuple[int, Iterator[np.ndarray]]:
    """Replay nodes 1..k's deliveries on the calling thread, so one node's
    transients are held at a time, and return the event count and the log's
    blocks (see `SimResult.log_blocks`): slot order, origins ascending within
    a slot.

    Each node's sensing starts, generation and delivery slots are held as
    int32 (`validate` keeps the horizon below 2**31), 12 bytes an event; no
    per-slot array is made. A block is 16 bytes an event, and merging it
    holds about twice that.
    """
    per_node = []
    for node in range(1, k + 1):
        dk, gk, sk = deliveries(node)
        per_node.append(np.array((sk, gk, dk), dtype=np.int32))
    n = sum(p.shape[1] for p in per_node)
    return n, _merge_blocks(per_node, n)


def _merge_blocks(per_node: list[np.ndarray], n: int) -> Iterator[np.ndarray]:
    """Each block spans the slots that _LOG_BLOCK events take at the
    remaining events' mean rate, halved until it holds at most _LOG_BLOCK
    events, so uneven delivery rates never grow a block past that."""
    end = max((int(p[2, -1]) + 1 for p in per_node if p.shape[1]), default=0)
    at, start = [0] * len(per_node), 0
    while n:
        span = max(1, (end - start) * _LOG_BLOCK // n)
        while True:
            stop = [int(np.searchsorted(p[2], start + span)) for p in per_node]
            count = sum(stop) - sum(at)
            if count <= _LOG_BLOCK or span == 1:  # one slot holds at most k events
                break
            span //= 2
        if count:
            yield _merged(per_node, at, stop)
        at, start, n = stop, start + span, n - count


def _merged(per_node: list[np.ndarray], at: list[int], stop: list[int]) -> np.ndarray:
    """Events at[v]..stop[v] of every node v as rows in log order. Nodes are
    gathered in ascending order, so a stable sort on the delivery slot keeps
    origins ascending within a slot. Columns are gathered one at a time."""
    spans = list(zip(per_node, at, stop))
    order = np.argsort(np.concatenate([p[2, a:b] for p, a, b in spans]), kind="stable")
    rows = np.empty((order.size, 4), dtype=np.int32)
    nodes = np.arange(1, len(per_node) + 1, dtype=np.int32)
    rows[:, 0] = np.repeat(nodes, np.subtract(stop, at))[order]
    for i in range(3):
        rows[:, i + 1] = np.concatenate([p[i, a:b] for p, a, b in spans])[order]
    return rows


# ---------------------------------------------------------------------------
# event-log reconstruction
# ---------------------------------------------------------------------------

def aoi_from_event_log(
    log: DeliveryLog, horizon: int, warmup: int = 0, origins=None
) -> dict[int, float]:
    """Rebuild per-node average ages from the delivery events alone.

    Every event refreshes the base copy, so a node's age at slot t is t - s(t),
    s(t) being the sensing start of its last event delivered by t (0 before
    the first). Over the window, t sums to one ramp, and each event raises s
    by its start's rise over the origin's previous event (the first's rise is
    its own start) for the max(H - max(delivered, warmup), 0) slots from its
    delivery on. Sums are exact int64 per origin, and must agree exactly with
    the slot sampled averages of the run that produced the log.

    origins fixes the node set (needed when some node never delivered); by
    default the nodes present in the log are used. Raises UnsortedLog if any
    origin's events are out of time order.
    """
    if not 0 <= warmup < horizon:
        raise ValueError(f"need 0 <= warmup < horizon, got {warmup}, {horizon}")
    if 2 * horizon**2 >= 2**63:  # int64 ramp sums, as in SimConfig.validate
        raise ValueError(f"horizon must be < 2**31, got {horizon}")
    order = np.argsort(log.origin, kind="stable")  # group by origin, log order within
    org, dlv, srt = log.origin[order], log.delivered[order], log.sensing_start[order]
    if origins is None:
        origins = np.unique(org).tolist()
    origins = list(origins)
    unsorted = set(org[1:][(org[1:] == org[:-1]) & (dlv[1:] <= dlv[:-1])].tolist())
    for node in origins:
        if node in unsorted:
            raise UnsortedLog(f"events for origin {node} are not time-ordered")

    first = np.flatnonzero(np.diff(org, prepend=org[:1] - 1))  # each origin's first event
    rise = np.diff(srt, prepend=0)
    rise[first] = srt[first]
    step_sum = rise * np.maximum(horizon - np.maximum(dlv, warmup), 0)
    steps = dict(zip(org[first].tolist(), np.add.reduceat(step_sum, first).tolist()))
    n_slots = horizon - warmup
    ramp = (warmup + horizon - 1) * n_slots // 2
    return {node: (ramp - steps.get(node, 0)) / n_slots for node in origins}
