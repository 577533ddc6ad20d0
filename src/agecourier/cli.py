"""Command-line front-end: parse an experiment config, dispatch a subcommand,
emit CSV tables and optional delivery traces.

Subcommands: bound | waterfill | walk | phases | audit | simulate | sweep.
`main` builds the config's one scenario (a SimConfig, which checks itself when
made) with `_scenario` and hands it to the subcommand, so a config that
cannot be built or run fails every subcommand. Each subcommand returns its
table and `main` writes it. sweep varies the scenario's allocation and phase
set per split, phases varies only its phase set; both run unconstrained
conveyors and reject an [energy] section.
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
import itertools
import json
import sys
from collections.abc import Iterable
from contextlib import nullcontext

import numpy as np

from . import __version__
from .analysis import lower_bound, mean_std, phase_comparison, seed_runs, split_sweep
from .config import ConfigError, ExperimentConfig, field_error, load_config, render_config
from .conveyor_plan import clustered_phases, random_phases, uniform_phases
from .graph_core import GraphError, build_graph
from .sensing_alloc import (
    SensingAllocation,
    allocation_objective,
    make_model,
    mu,
    success_probability,
    uniform_alloc,
    water_fill,
)
from .sim_engine import BatteryTooSmall, SimConfig, coverage_audit, shared_draws, unserved_nodes


# ---------------------------------------------------------------------------
# The one scenario a config describes
# ---------------------------------------------------------------------------


def _scenario(cfg: ExperimentConfig) -> SimConfig:
    """The scenario `main` hands to every subcommand; sweeps and phase
    comparisons vary it. A graph that cannot be built is named as `[graph]
    edges`, a battery too small for the deepest return as `[energy] b_max`."""
    try:
        graph = build_graph(cfg.node_count, cfg.edges)
    except GraphError as exc:
        raise field_error("edges", str(exc)) from None
    budget = cfg.n_s if cfg.n_s is not None else sum(cfg.m)
    # one above the budget - (nodes - 2) robots water-filling can give one node
    default_max_m = max(budget, cfg.sweep_total or 0) - (cfg.node_count - 1) + 2
    model = make_model(cfg.alphas, default_max_m if cfg.max_m is None else cfg.max_m)
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
    try:
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
    except BatteryTooSmall as exc:
        raise field_error("b_max", str(exc)) from None


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


def cmd_bound(cfg: ExperimentConfig, s: SimConfig) -> str:
    report = lower_bound(s)
    rows = [(node, b) for node, b in sorted(report.per_node_bound.items())]
    rows.append(("network", report.network_bound))
    return _render_csv(("node", "bound"), rows, _comments(cfg, with_seeds=False))


def cmd_waterfill(cfg: ExperimentConfig, s: SimConfig) -> str:
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
    return _render_csv(("node", "alpha", "m", "mu", "q"), rows, comments)


def cmd_walk(cfg: ExperimentConfig, s: SimConfig) -> str:
    walk = s.walk
    comments = _comments(cfg, with_seeds=False)
    comments.append(f"walk length: {walk.length}")
    rows = list(enumerate(walk.sequence))
    return _render_csv(("step", "node"), rows, comments)


def cmd_audit(cfg: ExperimentConfig, s: SimConfig) -> str:
    """The verdict, the fleet's cycle, then each unserved node and each slot
    of the cycle whose sample misses its depth (see `coverage_audit`)."""
    report = coverage_audit(s)
    lines = [f"full coverage: {'true' if report.full_coverage else 'false'}"]
    if report.period:
        lines.append(f"cycle: t0={report.t0} period={report.period}")
    else:
        lines.append(f"cycle: none; the fleet's motion does not repeat within {s.horizon} slots")
    lines += [f"unserved: node={node}" for node in report.unserved]
    lines += [f"violation: node={node} slot={slot}" for node, slot in report.violations]
    return "\n".join(lines) + "\n"


def cmd_simulate(cfg: ExperimentConfig, s: SimConfig) -> str:
    """Per-node mean and spread of the age over the seeds, against the bound.

    A run replays its deliveries only when they are read, and only the first
    seed's are read, for the trace: they stream from `log_blocks()` to the
    file a block at a time, so the whole log is never held. That seed runs on
    stored draws, so its replay reads them instead of drawing the masks
    again. With [energy], each seed whose fleet leaves some node unserved
    (see `unserved_nodes`) gets a warning on stderr; the table is unchanged.
    """
    bound = lower_bound(s)
    runs = seed_runs(s, cfg.seeds)
    with shared_draws() if cfg.out_trace is not None else nullcontext():
        first = next(runs)
    ages = []
    for seed, res in zip(cfg.seeds, itertools.chain([first], runs)):
        ages.append((res.per_node_aoi, res.network_aoi))
        # read right after the seed's run, which has just cached its fleet motion
        nodes = () if s.energy is None else unserved_nodes(dataclasses.replace(s, seed=seed))
        if nodes:
            print(
                f"warning: [energy] b_max = {_fmt(s.energy.b_max)}, seed {seed}: no "
                f"conveyor picks up from nodes {', '.join(map(str, nodes))} once the "
                "fleet's motion repeats; their ages grow with the horizon",
                file=sys.stderr,
            )

    rows = []
    for node in sorted(bound.per_node_bound):
        mean, std = mean_std([per_node[node] for per_node, _ in ages])
        rows.append((node, mean, std, bound.per_node_bound[node], mean - bound.per_node_bound[node]))
    net_mean, net_std = mean_std([net for _, net in ages])
    rows.append(
        ("network", net_mean, net_std, bound.network_bound, net_mean - bound.network_bound)
    )
    # the trace is written before the table, so a trace that fails leaves no table
    if cfg.out_trace is not None:
        _write_trace(cfg.out_trace, first.log_blocks(), cfg.seeds[0])
    return _render_csv(("node", "mean_aoi", "std_aoi", "bound", "delta"), rows, _comments(cfg))


_TRACE_EVENT = (
    b'{"origin": %d, "sensing_start": %d, "generated": %d, "delivered": %d, '
    b'"became_freshest": true}\n'
)
_TRACE_BLOCK = 4096  # events formatted per write


def _write_trace(path: str, blocks: Iterable[np.ndarray], seed: int) -> None:
    """One JSON object per delivery event, in delivery order, for the first seed.

    blocks are the log's events in order, as `SimResult.log_blocks` yields
    them: rows of origin, sensing_start, generated and delivered. Each line
    is exactly json.dumps of the event's dict (keys in column order, default
    separators), written as ASCII bytes. Every event refreshed the base copy,
    so `became_freshest` is always true and each line fills one template:
    _TRACE_BLOCK rows at a time fill the template repeated _TRACE_BLOCK
    times, built once per call and cut short for a block's shorter tail.
    """
    template = _TRACE_EVENT * _TRACE_BLOCK
    with open(path, "wb") as fh:
        fh.write(json.dumps({"version": __version__, "seed": seed}).encode() + b"\n")
        for rows in blocks:
            for lo in range(0, len(rows), _TRACE_BLOCK):
                values = rows[lo : lo + _TRACE_BLOCK].ravel().tolist()
                fh.write(template[: len(values) // 4 * len(_TRACE_EVENT)] % tuple(values))
            del rows  # not held while the next block is merged


def cmd_sweep(cfg: ExperimentConfig, s: SimConfig) -> str:
    if cfg.energy is not None:
        raise ConfigError("[energy]: sweep runs unconstrained conveyors only")
    if cfg.sweep_total is None:
        raise field_error("sweep_total", "missing required field")
    cells, best = split_sweep(s, cfg.sweep_total, cfg.seeds)
    rows = [
        (c.n_s, c.n_c, c.mean_aoi, c.std_aoi, c.bound, int(c is best)) for c in cells
    ]
    comments = _comments(cfg)
    comments.append(f"best: n_s={best.n_s}, n_c={best.n_c}")
    return _render_csv(("n_s", "n_c", "mean_aoi", "std_aoi", "bound", "best"), rows, comments)


def cmd_phases(cfg: ExperimentConfig, s: SimConfig) -> str:
    if cfg.energy is not None:
        raise ConfigError("[energy]: phases runs unconstrained conveyors only")
    n_c_values = cfg.phases_n_c_values
    if n_c_values is None:
        n_c_values = (cfg.n_c,)
    rows_src = phase_comparison(
        s, n_c_values, cfg.seeds, random_draws=cfg.phases_random_draws, phase_seed=cfg.phase_seed
    )
    rows = [(r.strategy, r.n_c, r.mean_aoi, r.std_aoi) for r in rows_src]
    return _render_csv(("strategy", "n_c", "mean_aoi", "std_aoi"), rows, _comments(cfg))


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
    parser = argparse.ArgumentParser(
        prog="agecourier",
        description="Simulate and optimize age-of-information for sensing and courier robots",
    )
    parser.add_argument("command", choices=_COMMANDS, help="the subcommand to run")
    parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument(
        "--seed", type=int, default=None, help="replace the config's seed list with this seed"
    )
    parser.add_argument("--out", default=None, help="write the table here instead of stdout")
    parser.add_argument(
        "--echo-config",
        action="store_true",
        help="print the normalized config and exit without running",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
            cfg = dataclasses.replace(cfg, seeds=(args.seed,))
        if args.echo_config:
            text, out_path = render_config(cfg), args.out
        else:
            text = _COMMANDS[args.command](cfg, _scenario(cfg))
            out_path = args.out if args.out is not None else cfg.out_csv
        _emit(text, out_path)
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a fault, not a bad input: show where it came from
        import traceback  # only on this path, so the CLI's start-up imports no more
        traceback.print_exc()
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
