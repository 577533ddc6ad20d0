"""Spans around the public functions of each agecourier module, installed from
outside the package.

cli and analysis bind imported names at import time (`from .sim_engine import
run`), so a function is wrapped in every agecourier module namespace that holds
it, not only in the module that defines it. Spans are kept in memory as
(name, start, end, parent index, run id, tag) and written once at exit;
`aggregate` turns them into per-function calls, total and self times.
"""

from __future__ import annotations

import functools
import sys
import time

TIMED = {
    "config": ("load_config",),
    "graph_core": ("build_graph", "shortest_path_tree", "bfs_distances"),
    "conveyor_plan": ("euler_walk", "uniform_phases"),
    "sensing_alloc": ("water_fill",),
    "analysis": ("split_sweep", "lower_bound"),
    "sim_engine": ("run", "run_energy", "generation_mask"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TIMED.items() for fn in fns)
COUNTERS = (
    "sim_engine.node_slots",
    "sim_engine.delivery_events",
    "sim_engine.distinct_schedules",
    "sim_engine.generation_mask.bytes_computed",
    "sim_engine.run_energy.recharges",
)
# float64 draws plus the bool mask that generation_mask returns, per slot
MASK_BYTES_PER_SLOT = 9


def rebind(original, replacement) -> None:
    """Point every agecourier module attribute bound to `original` at `replacement`."""
    for name, module in list(sys.modules.items()):
        if name == "agecourier" or name.startswith("agecourier."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.schedules: set = set()

    def install(self) -> None:
        for mod, fns in TIMED.items():
            module = sys.modules[f"agecourier.{mod}"]
            for fn in fns:
                original = getattr(module, fn)
                rebind(original, self._wrap(f"{mod}.{fn}", original))

    def _wrap(self, name: str, fn):
        spans, stack, run_id = self.spans, self.stack, self.run_id
        after = {
            "sim_engine.run": self._after_run,
            "sim_engine.run_energy": self._after_run_energy,
            "sim_engine.generation_mask": self._after_mask,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            spans.append(span)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[1], span[2] = start, time.perf_counter()
                stack.pop()
            if after is not None:
                span[5] = after(args, result)
            return result

        return wrapper

    def _count_run(self, cfg, result) -> None:
        self.counters["sim_engine.node_slots"] += (cfg.graph.node_count - 1) * cfg.horizon
        self.counters["sim_engine.delivery_events"] += len(result.delivery_log)

    def _after_run(self, args, result):
        cfg = args[0]
        self._count_run(cfg, result)
        key = (cfg.walk.sequence, cfg.phase_set.phases, cfg.graph.node_count)
        if key in self.schedules:
            return "warm"
        self.schedules.add(key)
        self.counters["sim_engine.distinct_schedules"] += 1
        return "cold"

    def _after_run_energy(self, args, result):
        self._count_run(args[0], result)
        self.counters["sim_engine.run_energy.recharges"] += sum(
            s.recharges for s in result.energy_trace
        )
        return None

    def _after_mask(self, args, result):
        self.counters["sim_engine.generation_mask.bytes_computed"] += (
            MASK_BYTES_PER_SLOT * result.size
        )
        return None

    def report(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-function `.calls`, `.total_s`, `.self_s`, plus `sim_engine.run.cold_s`
    and `.warm_s`: the self time of first calls per distinct (walk, phases),
    which build the transport-delay table, and of the other calls."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _run_id, _tag in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    out["sim_engine.run.cold_s"] = 0.0
    out["sim_engine.run.warm_s"] = 0.0
    for i, (name, start, end, _parent, _run_id, tag) in enumerate(spans):
        self_s = end - start - child_time[i]
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += end - start
        out[f"{name}.self_s"] += self_s
        if tag is not None:
            out[f"sim_engine.run.{tag}_s"] += self_s
    return out
