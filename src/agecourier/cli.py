"""Command-line front-end: parse an experiment config, dispatch a subcommand,
emit CSV tables and optional delivery traces.

Subcommands: bound | waterfill | walk | phases | audit | simulate | sweep.
Each reads the one scenario (a SimConfig) that `_scenario` builds from the
config, so a config that cannot be built fails every subcommand. sweep varies
the scenario's allocation and phase set per split, phases varies only its
phase set; both run unconstrained conveyors and reject an [energy] section.
Global flags: --config FILE (required), --seed N (replaces the config's seed
list with the single seed N), --out FILE (write the CSV there instead of
stdout; [output] csv when absent), --echo-config (print the config and exit).

Output conventions: CSV tables always start with '#' comment lines recording
the package version and the seeds in effect, followed by a header row; floats
are printed with 6 significant digits; no timestamps, so identical inputs
produce byte-identical files. Exit codes: 0 success, 1 invalid input or
config, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from . import __version__
from .analysis import lower_bound, mean_std, phase_comparison, seed_runs, split_sweep
from .config import ConfigError, ExperimentConfig, load_config, render_config
from .conveyor_plan import clustered_phases, coverage_audit, random_phases, uniform_phases
from .graph_core import bfs_distances, build_graph
from .sensing_alloc import (
    SensingAllocation,
    allocation_objective,
    make_model,
    mu,
    success_probability,
    uniform_alloc,
    water_fill,
)
from .sim_engine import DeliveryLog, SimConfig


# ---------------------------------------------------------------------------
# The one scenario a config describes
# ---------------------------------------------------------------------------


def _scenario(cfg: ExperimentConfig) -> SimConfig:
    """Every subcommand reads this scenario; sweeps and phase comparisons vary it."""
    graph = build_graph(cfg.node_count, cfg.edges)
    budget = cfg.n_s if cfg.n_s is not None else sum(cfg.m)
    max_m = cfg.max_m
    if max_m is None:  # one above any budget a subcommand hands out, so it never binds
        max_m = max(budget, cfg.sweep_total or 0) + 1
    model = make_model(cfg.alphas, max_m)
    if cfg.allocation == "explicit":
        alloc = SensingAllocation(m=cfg.m)
    elif cfg.allocation == "uniform":
        alloc = uniform_alloc(model, budget)
    else:
        alloc = water_fill(model, budget)
    L = 2 * (cfg.node_count - 1)  # the closed walk crosses each tree edge twice
    if cfg.phase_strategy == "clustered":
        phases = clustered_phases(cfg.n_c, L)
    elif cfg.phase_strategy == "random":
        phases = random_phases(cfg.n_c, L, cfg.phase_seed)
    else:
        phases = uniform_phases(L, cfg.n_c)
    return SimConfig(
        graph=graph,
        phase_set=phases,
        model=model,
        alloc=alloc,
        horizon=cfg.horizon,
        warmup=cfg.warmup,
        seed=cfg.seeds[0],
        energy=cfg.energy,
    )


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.6g" % value
    return str(value)


def _render_csv(header, rows, comments) -> str:
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _comments(cfg: ExperimentConfig, with_seeds: bool = True) -> list[str]:
    lines = [f"agecourier {__version__}"]
    if with_seeds:
        lines.append("seeds: " + ",".join(str(s) for s in cfg.seeds))
    return lines


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_bound(cfg: ExperimentConfig, out_path: str | None) -> int:
    s = _scenario(cfg)
    report = lower_bound(s.model, s.alloc, bfs_distances(s.graph))
    rows = [(node, b) for node, b in sorted(report.per_node_bound.items())]
    rows.append(("network", report.network_bound))
    text = _render_csv(("node", "bound"), rows, _comments(cfg, with_seeds=False))
    _emit(text, out_path)
    return 0


def cmd_waterfill(cfg: ExperimentConfig, out_path: str | None) -> int:
    s = _scenario(cfg)
    model = s.model
    alloc = water_fill(model, s.alloc.total)
    rows = [
        (
            i + 1,
            cfg.alphas[i],
            alloc.m[i],
            mu(model, i, alloc.m[i]),
            success_probability(model, i, alloc.m[i]),
        )
        for i in range(model.node_count)
    ]
    comments = _comments(cfg, with_seeds=False)
    comments.append(f"objective: {_fmt(allocation_objective(model, alloc))}")
    text = _render_csv(("node", "alpha", "m", "mu", "q"), rows, comments)
    _emit(text, out_path)
    return 0


def cmd_walk(cfg: ExperimentConfig, out_path: str | None) -> int:
    walk = _scenario(cfg).walk
    comments = _comments(cfg, with_seeds=False)
    comments.append(f"walk length: {walk.length}")
    rows = list(enumerate(walk.sequence))
    text = _render_csv(("step", "node"), rows, comments)
    _emit(text, out_path)
    return 0


def cmd_audit(cfg: ExperimentConfig, out_path: str | None) -> int:
    s = _scenario(cfg)
    report = coverage_audit(s.walk, s.phase_set)
    lines = [f"full coverage: {'true' if report.full_coverage else 'false'}"]
    for node, slot in report.violations:
        lines.append(f"violation: node={node} slot={slot}")
    text = "\n".join(lines) + "\n"
    _emit(text, out_path)
    return 0


def cmd_simulate(cfg: ExperimentConfig, out_path: str | None) -> int:
    s = _scenario(cfg)
    bound = lower_bound(s.model, s.alloc, bfs_distances(s.graph))

    # per-seed ages; a run builds its delivery log only when it is read, and only
    # the first seed's log is read, to be traced
    ages: list[tuple[dict[int, float], float]] = []
    first_log = None
    for res in seed_runs(s, cfg.seeds):
        ages.append((res.per_node_aoi, res.network_aoi))
        if first_log is None and cfg.out_trace is not None:
            first_log = res.delivery_log

    rows = []
    for node in sorted(bound.per_node_bound):
        mean, std = mean_std([per_node[node] for per_node, _ in ages])
        rows.append((node, mean, std, bound.per_node_bound[node], mean - bound.per_node_bound[node]))
    net_mean, net_std = mean_std([net for _, net in ages])
    rows.append(
        ("network", net_mean, net_std, bound.network_bound, net_mean - bound.network_bound)
    )
    text = _render_csv(("node", "mean_aoi", "std_aoi", "bound", "delta"), rows, _comments(cfg))
    _emit(text, out_path)

    if cfg.out_trace is not None:
        _write_trace(cfg.out_trace, first_log, cfg.seeds[0])
    return 0


_TRACE_EVENT = tuple(  # one line template per became_freshest value
    b'{"origin": %%d, "sensing_start": %%d, "generated": %%d, "delivered": %%d, '
    b'"became_freshest": %s}\n' % flag
    for flag in (b"false", b"true")
)
_TRACE_BLOCK = 4096  # events formatted per write


def _write_trace(path: str, log: DeliveryLog, seed: int) -> None:
    """One JSON object per delivery event, in delivery order, for the first seed.

    Each line is exactly json.dumps of the event's dict (keys in column order,
    default separators), written as ASCII bytes. A block of events is
    formatted at once: the templates of its flags joined into one format
    string, filled from its four integer columns interleaved event by event.
    """
    with open(path, "wb") as fh:
        fh.write(json.dumps({"version": __version__, "seed": seed}).encode() + b"\n")
        for lo in range(0, len(log), _TRACE_BLOCK):
            block = slice(lo, lo + _TRACE_BLOCK)
            template = b"".join([_TRACE_EVENT[f] for f in log.became_freshest[block].tolist()])
            columns = (log.origin, log.sensing_start, log.generated, log.delivered)
            values = np.stack([c[block] for c in columns], axis=1).ravel().tolist()
            fh.write(template % tuple(values))


def cmd_sweep(cfg: ExperimentConfig, out_path: str | None) -> int:
    if cfg.energy is not None:
        raise ConfigError("[energy]: sweep runs unconstrained conveyors only")
    if cfg.sweep_total is None:
        raise ConfigError("[sweep] total: missing required field")
    cells, best = split_sweep(_scenario(cfg), cfg.sweep_total, cfg.seeds)
    rows = [
        (c.n_s, c.n_c, c.mean_aoi, c.std_aoi, c.bound, int(c is best)) for c in cells
    ]
    comments = _comments(cfg)
    comments.append(f"best: n_s={best.n_s}, n_c={best.n_c}")
    text = _render_csv(("n_s", "n_c", "mean_aoi", "std_aoi", "bound", "best"), rows, comments)
    _emit(text, out_path)
    return 0


def cmd_phases(cfg: ExperimentConfig, out_path: str | None) -> int:
    if cfg.energy is not None:
        raise ConfigError("[energy]: phases runs unconstrained conveyors only")
    n_c_values = cfg.phases_n_c_values
    if n_c_values is None:
        n_c_values = (cfg.n_c,)
    rows_src = phase_comparison(
        _scenario(cfg),
        n_c_values,
        cfg.seeds,
        random_draws=cfg.phases_random_draws,
        phase_seed=cfg.phase_seed,
    )
    rows = [(r.strategy, r.n_c, r.mean_aoi, r.std_aoi) for r in rows_src]
    text = _render_csv(("strategy", "n_c", "mean_aoi", "std_aoi"), rows, _comments(cfg))
    _emit(text, out_path)
    return 0


_COMMANDS = {
    "bound": cmd_bound,
    "waterfill": cmd_waterfill,
    "walk": cmd_walk,
    "phases": cmd_phases,
    "audit": cmd_audit,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", required=True, help="experiment config file")
    shared.add_argument(
        "--seed", type=int, default=None, help="replace the config's seed list with this seed"
    )
    shared.add_argument("--out", default=None, help="write the table here instead of stdout")
    shared.add_argument(
        "--echo-config",
        action="store_true",
        help="print the normalized config and exit without running",
    )
    parser = argparse.ArgumentParser(
        prog="agecourier",
        description="Simulate and optimize age-of-information for sensing and courier robots",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sub.add_parser(name, parents=[shared])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seeds=(args.seed,))
        if args.echo_config:
            _emit(render_config(cfg), args.out)
            return 0
        out_path = args.out if args.out is not None else cfg.out_csv
        return _COMMANDS[args.command](cfg, out_path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
