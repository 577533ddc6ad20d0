"""Output checks that run inside a `check` child, next to the CLI it verifies.

Every simulation result is captured where cli and analysis look `run` and
`run_energy` up, and verified as it is produced, so no delivery log is kept
longer than the CLI keeps it:

* aoi_identity: the per-node ages rebuilt from the delivery log alone by
  `aoi_from_event_log` equal the slot-sampled ages exactly;
* hop_floor: every delivery took at least the origin's hop distance.

After the CLI returns:

* csv: each table cell equals the value recomputed from the captured runs
  and bounds, formatted as the CLI documents (6 significant digits);
* trace: the NDJSON trace holds exactly the first seed's delivery log;
* engines: on the first simulated config, cut to a short horizon and without
  battery limits, the per-slot stepper and the table engine give identical
  ages and delivery logs.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
import time

import numpy as np

from agecourier import sim_engine
from tracer import rebind

ENGINE_CHECK_HORIZON = 4_000


def _fmt(value) -> str:
    return "%.6g" % value if isinstance(value, float) else str(value)


def _mean_std(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    return mean, math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))


class Checker:
    def __init__(self, argv: list[str]):
        self.out_path = argv[argv.index("--out") + 1]
        self.outcomes: list[tuple[str, bool, str]] = []
        self.config = None
        self.sim_configs: list = []
        self.ages: list[tuple[dict, float]] = []
        self.bounds: list = []
        self.first_log = None
        self.aoi_s = 0.0
        self.node_slots = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.outcomes.append((name, bool(ok), "" if ok else detail))

    def install(self) -> None:
        self.run = sim_engine.run
        self.run_energy = sim_engine.run_energy
        self._capture(sys.modules["agecourier.config"].load_config, self._on_config)
        self._capture(sys.modules["agecourier.analysis"].lower_bound, self._on_bound)
        self._capture(self.run, self._on_run)
        self._capture(self.run_energy, self._on_run)

    @staticmethod
    def _capture(fn, after) -> None:
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        rebind(fn, wrapper)

    def _on_config(self, args, config) -> None:
        self.config = config

    def _on_bound(self, args, bound) -> None:
        self.bounds.append(bound)

    def _on_run(self, args, result) -> None:
        cfg = args[0]
        k = cfg.graph.node_count - 1
        log = result.delivery_log
        start = time.perf_counter()
        rebuilt = sim_engine.aoi_from_event_log(
            log, cfg.horizon, cfg.warmup, origins=range(1, k + 1)
        )
        self.aoi_s += time.perf_counter() - start
        self.check("aoi_identity", rebuilt == result.per_node_aoi, f"seed {cfg.seed}")
        depth = np.asarray(cfg.tree.depth, dtype=np.int64)
        self.check(
            "hop_floor",
            np.all(log.delivered - log.generated >= depth[log.origin]),
            f"seed {cfg.seed}",
        )
        self.node_slots += k * cfg.horizon
        self.sim_configs.append(cfg)
        self.ages.append((result.per_node_aoi, result.network_aoi))
        if self.first_log is None:
            self.first_log = log

    def report(self) -> dict:
        if self.config is None or not self.sim_configs:
            self.check("captured", False, "no config or no simulation was captured")
        else:
            self._check_csv()
            if self.config.out_trace is not None:
                self._check_trace(self.config.out_trace)
            self._check_engines()
        return {
            "checks": self.outcomes,
            "check_aoi_s": self.aoi_s,
            "node_slots": self.node_slots,
        }

    def _table(self) -> list[list[str]]:
        with open(self.out_path, encoding="utf-8", newline="") as fh:
            lines = [line for line in fh if not line.startswith("#")]
        return list(csv.reader(lines))[1:]

    def _expected_rows(self) -> list[tuple]:
        cfg = self.config
        if cfg.sweep_total is not None:
            per_split = len(cfg.seeds)
            rows = []
            best = None
            for j, bound in enumerate(self.bounds):
                sims = self.sim_configs[j * per_split : (j + 1) * per_split]
                nets = [net for _, net in self.ages[j * per_split : (j + 1) * per_split]]
                mean, std = _mean_std(nets)
                n_s = sum(sims[0].alloc.m)
                rows.append([n_s, cfg.sweep_total - n_s, mean, std, bound.network_bound, 0])
                if best is None or mean <= rows[best][2]:
                    best = j
            rows[best][5] = 1
            return rows
        (bound,) = self.bounds
        rows = []
        for node in sorted(bound.per_node_bound):
            mean, std = _mean_std([ages[node] for ages, _ in self.ages])
            b = bound.per_node_bound[node]
            rows.append([node, mean, std, b, mean - b])
        mean, std = _mean_std([net for _, net in self.ages])
        rows.append(["network", mean, std, bound.network_bound, mean - bound.network_bound])
        return rows

    def _check_csv(self) -> None:
        got = self._table()
        want = [[_fmt(v) for v in row] for row in self._expected_rows()]
        bad = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        detail = f"{len(got)} rows, expected {len(want)}; first mismatch at row {bad[:1]}"
        self.check("csv", len(got) == len(want) and not bad, detail)

    def _check_trace(self, path: str) -> None:
        log = self.first_log
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
            events = [json.loads(line) for line in fh]
        columns = ("origin", "sensing_start", "generated", "delivered", "became_freshest")
        ok = header.get("seed") == self.config.seeds[0] and len(events) == len(log)
        if ok:
            for name in columns:
                if not np.array_equal([e[name] for e in events], getattr(log, name)):
                    ok = False
                    break
        self.check("trace", ok, f"{len(events)} trace events, log has {len(log)}")

    def _check_engines(self) -> None:
        cfg = self.sim_configs[0]
        horizon = min(cfg.horizon, ENGINE_CHECK_HORIZON)
        short = dataclasses.replace(
            cfg, horizon=horizon, warmup=min(cfg.warmup, horizon // 2), energy=None
        )
        stepper = self.run(short, engine="stepper")
        table = self.run(short, engine="table")
        self.check(
            "engines",
            stepper.per_node_aoi == table.per_node_aoi
            and stepper.delivery_log == table.delivery_log,
            f"stepper and table disagree at horizon {horizon}",
        )
