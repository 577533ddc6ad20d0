"""Experiment configuration: a flat INI file with named sections.

Parsing is strict: unknown sections or keys, missing required fields,
malformed values, and fields that disagree with each other all fail with a
message naming the offending field. A config rendered by `render_config`
parses back to an identical ExperimentConfig.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass

from .sim_engine import ConfigInvalid, EnergyParams

ALLOCATION_STRATEGIES = ("waterfill", "uniform", "explicit")
PHASE_STRATEGIES = ("uniform", "clustered", "random")

_KNOWN_KEYS = {
    "graph": {"nodes", "edges"},
    "sensing": {"alphas", "allocation", "n_s", "m", "max_m"},
    "conveyors": {"phases", "n_c", "phase_seed"},
    "simulation": {"horizon", "warmup", "seeds"},
    "energy": {"b_max", "e_move", "r_chg"},
    "sweep": {"total"},
    "phases": {"n_c_values", "random_draws"},
    "output": {"csv", "trace"},
}
_REQUIRED_SECTIONS = ("graph", "sensing", "conveyors", "simulation")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    node_count: int
    edges: tuple[tuple[int, int], ...]
    alphas: tuple[float, ...]
    allocation: str
    n_s: int | None
    m: tuple[int, ...] | None
    max_m: int | None
    phase_strategy: str
    n_c: int
    phase_seed: int
    horizon: int
    warmup: int
    seeds: tuple[int, ...]
    energy: EnergyParams | None = None
    sweep_total: int | None = None
    phases_n_c_values: tuple[int, ...] | None = None
    phases_random_draws: int = 5
    out_csv: str | None = None
    out_trace: str | None = None


def _fail(section: str, key: str, why: str):
    raise ConfigError(f"[{section}] {key}: {why}")


def _get(cp, section, key, conv, required=True, default=None):
    if not cp.has_option(section, key):
        if required:
            _fail(section, key, "missing required field")
        return default
    raw = cp.get(section, key).strip()
    try:
        return conv(raw)
    except Exception:
        _fail(section, key, f"cannot parse value {raw!r}")


def _int_list(raw: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in raw.split(",") if part.strip())


def _float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(part.strip()) for part in raw.split(",") if part.strip())


def _edge_list(raw: str) -> tuple[tuple[int, int], ...]:
    edges = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        a, b = part.split("-")
        edges.append((int(a), int(b)))
    return tuple(edges)


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; see the package README for the field reference."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    for section in cp.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp.options(section):
            if key not in _KNOWN_KEYS[section]:
                _fail(section, key, "unknown field")
    for section in _REQUIRED_SECTIONS:
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    node_count = _get(cp, "graph", "nodes", int)
    edges = _get(cp, "graph", "edges", _edge_list)

    alphas = _get(cp, "sensing", "alphas", _float_list)
    allocation = _get(cp, "sensing", "allocation", str)
    if allocation not in ALLOCATION_STRATEGIES:
        _fail("sensing", "allocation", f"must be one of {ALLOCATION_STRATEGIES}")
    n_s = _get(cp, "sensing", "n_s", int, required=allocation != "explicit")
    m = _get(cp, "sensing", "m", _int_list, required=allocation == "explicit")
    max_m = _get(cp, "sensing", "max_m", int, required=False)
    k = node_count - 1
    if len(alphas) != k:
        _fail("sensing", "alphas", f"got {len(alphas)} values for {k} non-base nodes")
    if allocation == "explicit":
        if len(m) != k:
            _fail("sensing", "m", f"got {len(m)} entries for {k} non-base nodes")
        if n_s is not None and sum(m) != n_s:
            _fail("sensing", "n_s", f"{n_s} but m sums to {sum(m)}")
    if max_m is not None and max_m < 1:
        _fail("sensing", "max_m", f"must be >= 1, got {max_m}")
    if max_m is not None and n_s is not None and n_s > k * max_m:
        _fail("sensing", "n_s", f"{n_s} robots exceed {k} non-base nodes at max_m={max_m}")

    phase_strategy = _get(cp, "conveyors", "phases", str)
    if phase_strategy not in PHASE_STRATEGIES:
        _fail("conveyors", "phases", f"must be one of {PHASE_STRATEGIES}")
    n_c = _get(cp, "conveyors", "n_c", int)
    walk_length = 2 * k  # the closed walk crosses each tree edge twice
    if not 1 <= n_c <= walk_length:
        _fail("conveyors", "n_c", f"{n_c} outside 1..{walk_length}, the walk length")
    phase_seed = _get(
        cp, "conveyors", "phase_seed", int, required=phase_strategy == "random", default=0
    )

    horizon = _get(cp, "simulation", "horizon", int)
    warmup = _get(cp, "simulation", "warmup", int)
    seeds = _get(cp, "simulation", "seeds", _int_list)
    if not seeds:
        _fail("simulation", "seeds", "needs at least one seed")

    energy = None
    if cp.has_section("energy"):
        try:
            energy = EnergyParams(
                b_max=_get(cp, "energy", "b_max", float),
                e_move=_get(cp, "energy", "e_move", float),
                r_chg=_get(cp, "energy", "r_chg", float),
            )
        except ConfigInvalid as exc:  # its message reads "<field> must be ..."
            key, _, why = str(exc).partition(" ")
            _fail("energy", key, why)

    sweep_total = None
    if cp.has_section("sweep"):
        sweep_total = _get(cp, "sweep", "total", int)
        # every split keeps one conveyor, so it senses with up to total - 1 robots
        if max_m is not None and sweep_total - 1 > k * max_m:
            _fail(
                "sweep", "total",
                f"{sweep_total} leaves up to {sweep_total - 1} sensing robots, more than "
                f"{k} non-base nodes hold at max_m={max_m}",
            )

    n_c_values = None
    random_draws = 5
    if cp.has_section("phases"):
        n_c_values = _get(cp, "phases", "n_c_values", _int_list)
        random_draws = _get(cp, "phases", "random_draws", int, required=False, default=5)
        for v in n_c_values:
            if not 1 <= v <= walk_length:
                _fail("phases", "n_c_values", f"{v} outside 1..{walk_length}, the walk length")
        if random_draws < 0:
            _fail("phases", "random_draws", f"must be >= 0, got {random_draws}")

    out_csv = out_trace = None
    if cp.has_section("output"):
        out_csv = _get(cp, "output", "csv", str, required=False)
        out_trace = _get(cp, "output", "trace", str, required=False)

    return ExperimentConfig(
        node_count=node_count,
        edges=edges,
        alphas=alphas,
        allocation=allocation,
        n_s=n_s,
        m=m,
        max_m=max_m,
        phase_strategy=phase_strategy,
        n_c=n_c,
        phase_seed=phase_seed,
        horizon=horizon,
        warmup=warmup,
        seeds=seeds,
        energy=energy,
        sweep_total=sweep_total,
        phases_n_c_values=n_c_values,
        phases_random_draws=random_draws,
        out_csv=out_csv,
        out_trace=out_trace,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(cfg: ExperimentConfig) -> str:
    """Emit config text that parses back to an identical ExperimentConfig."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp["graph"] = {
        "nodes": str(cfg.node_count),
        "edges": ", ".join(f"{a}-{b}" for a, b in cfg.edges),
    }
    sensing = {
        "alphas": ", ".join(repr(a) for a in cfg.alphas),
        "allocation": cfg.allocation,
    }
    if cfg.n_s is not None:
        sensing["n_s"] = str(cfg.n_s)
    if cfg.m is not None:
        sensing["m"] = ", ".join(str(v) for v in cfg.m)
    if cfg.max_m is not None:
        sensing["max_m"] = str(cfg.max_m)
    cp["sensing"] = sensing
    cp["conveyors"] = {
        "phases": cfg.phase_strategy,
        "n_c": str(cfg.n_c),
        "phase_seed": str(cfg.phase_seed),
    }
    cp["simulation"] = {
        "horizon": str(cfg.horizon),
        "warmup": str(cfg.warmup),
        "seeds": ", ".join(str(s) for s in cfg.seeds),
    }
    if cfg.energy is not None:
        cp["energy"] = {
            "b_max": repr(cfg.energy.b_max),
            "e_move": repr(cfg.energy.e_move),
            "r_chg": repr(cfg.energy.r_chg),
        }
    if cfg.sweep_total is not None:
        cp["sweep"] = {"total": str(cfg.sweep_total)}
    if cfg.phases_n_c_values is not None:
        cp["phases"] = {
            "n_c_values": ", ".join(str(v) for v in cfg.phases_n_c_values),
            "random_draws": str(cfg.phases_random_draws),
        }
    output = {}
    if cfg.out_csv is not None:
        output["csv"] = cfg.out_csv
    if cfg.out_trace is not None:
        output["trace"] = cfg.out_trace
    if output:
        cp["output"] = output
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
