"""Seeded workload generator: one INI experiment config per (workload, seed).

Each config is a random recursive tree (node i > 0 hangs below a node drawn
uniformly from 0..i-1) with random per-node workloads `alphas`. The workload
seed also draws the simulation seeds, so the same seed always gives the same
config text, and the program sees nothing but that text.

The seed changes the instance but not its cost class. The transport-delay
table and the battery stepper cost grow with two shape statistics of the tree:
its total depth, and the sum of squared root-subtree sizes (a courier's
excursion from the base is twice the size of the root subtree it is in). The
generator redraws the tree until both lie in fixed windows around their
typical values. Alphas are a stratified draw from U(2, 12): one value per
equal-width stratum, shuffled over the nodes. Without this, two seeds of the
same workload differ in run time by a third.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

TRACE_FILE = "trace.ndjson"
ALPHA_RANGE = (2.0, 12.0)
# accepted sum of squared root-subtree sizes, as a share of (nodes - 1)^2
ROOT_SPLIT_WINDOW = (0.28, 0.40)
# accepted total depth, as a share of its expectation sum_{i<n} H_i
DEPTH_WINDOW = (0.95, 1.05)


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    why: str
    nodes: int
    horizon: int
    warmup: int
    sim_seeds: int
    splits: int = 0  # sweep only: conveyor counts 1..splits
    n_c: int = 0  # simulate only
    trace: bool = False
    energy: tuple[float, float, float] | None = None  # (b_max, e_move, r_chg)

    @property
    def runs(self) -> int:
        """Simulated runs per invocation: one per seed, per split for a sweep."""
        return self.sim_seeds * max(self.splits, 1)

    @property
    def node_slots(self) -> int:
        """Non-base nodes times horizon, summed over every simulated run."""
        return (self.nodes - 1) * self.horizon * self.runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-tree60",
            subcommand="sweep",
            why=(
                "sweep of sensing/conveying splits: each split is a new phase set, so "
                "transport-delay table builds dominate and replay is a visible share"
            ),
            nodes=60,
            horizon=80_000,
            warmup=2_000,
            sim_seeds=6,
            splits=4,
        ),
        Workload(
            name="simulate-trace-tree30",
            subcommand="simulate",
            why=(
                "simulate with [output] trace: one small table, so generation masks, "
                "replay and the per-event trace writer carry the run"
            ),
            nodes=30,
            horizon=100_000,
            warmup=2_000,
            sim_seeds=8,
            n_c=6,
            trace=True,
        ),
        Workload(
            name="battery-tree60",
            subcommand="simulate",
            why=(
                "battery-limited simulate: the only path through the per-slot stepper, "
                "and no table is built"
            ),
            nodes=60,
            horizon=30_000,
            warmup=1_000,
            sim_seeds=2,
            n_c=12,
            energy=(40.0, 1.0, 2.0),
        ),
    )
}


def _tree_shape(parents: list[int]) -> tuple[int, int]:
    """(total depth, sum of squared root-subtree sizes) of a parent list."""
    n = len(parents)
    depth = [0] * n
    for i in range(1, n):
        depth[i] = depth[parents[i]] + 1
    size = [1] * n
    for i in range(n - 1, 0, -1):
        size[parents[i]] += size[i]
    root_split = sum(size[i] ** 2 for i in range(1, n) if parents[i] == 0)
    return sum(depth), root_split


def random_tree(rng: random.Random, nodes: int) -> list[tuple[int, int]]:
    """Edges of a random recursive tree whose shape lies in the fixed windows."""
    k = nodes - 1
    harmonic = [0.0] * nodes
    for i in range(1, nodes):
        harmonic[i] = harmonic[i - 1] + 1.0 / i
    mean_depth = sum(harmonic[1:])
    while True:
        parents = [0] + [rng.randrange(i) for i in range(1, nodes)]
        total_depth, root_split = _tree_shape(parents)
        if (
            DEPTH_WINDOW[0] <= total_depth / mean_depth <= DEPTH_WINDOW[1]
            and ROOT_SPLIT_WINDOW[0] <= root_split / k**2 <= ROOT_SPLIT_WINDOW[1]
        ):
            return [(parents[i], i) for i in range(1, nodes)]


def stratified_alphas(rng: random.Random, k: int) -> list[float]:
    lo, hi = ALPHA_RANGE
    width = (hi - lo) / k
    alphas = [round(lo + width * (j + rng.random()), 2) for j in range(k)]
    rng.shuffle(alphas)
    return alphas


def make_config(w: Workload, seed: int) -> str:
    """INI text for workload `w` under workload seed `seed`."""
    rng = random.Random(f"{w.name}/{seed}")
    k = w.nodes - 1
    edges = random_tree(rng, w.nodes)
    alphas = stratified_alphas(rng, k)
    sim_seeds = rng.sample(range(1_000_000), w.sim_seeds)

    lines = [
        "[graph]",
        f"nodes = {w.nodes}",
        "edges = " + ", ".join(f"{a}-{b}" for a, b in edges),
        "",
        "[sensing]",
        "alphas = " + ", ".join(repr(a) for a in alphas),
        "allocation = waterfill",
        f"n_s = {2 * k}",
        "",
        "[conveyors]",
        "phases = uniform",
        f"n_c = {w.n_c or 1}",
        "",
        "[simulation]",
        f"horizon = {w.horizon}",
        f"warmup = {w.warmup}",
        "seeds = " + ", ".join(str(s) for s in sim_seeds),
    ]
    if w.splits:
        lines += ["", "[sweep]", f"total = {k + w.splits}"]
    if w.energy is not None:
        b_max, e_move, r_chg = w.energy
        lines += ["", "[energy]", f"b_max = {b_max!r}", f"e_move = {e_move!r}", f"r_chg = {r_chg!r}"]
    if w.trace:
        lines += ["", "[output]", f"trace = {TRACE_FILE}"]
    return "\n".join(lines) + "\n"
