"""Experiment configuration: a flat INI file with named sections.

`_FIELDS` is the one description of the format: each row ties a
`[section] key` to the ExperimentConfig field it fills (an EnergyParams field
for `[energy]`) and to the functions that parse and render its value. The
known keys, every read in `parse_config` and all of `render_config` come
from it.

Parsing is strict: unknown sections or keys, missing required fields,
malformed values, and fields that disagree with each other all fail with a
message naming the offending field. A config rendered by `render_config`
parses back to an identical ExperimentConfig.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import asdict, dataclass, fields

from .sim_engine import ConfigInvalid, EnergyParams

ALLOCATION_STRATEGIES = ("waterfill", "uniform", "explicit")
PHASE_STRATEGIES = ("uniform", "clustered", "random")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    node_count: int
    edges: tuple[tuple[int, int], ...]
    alphas: tuple[float, ...]
    allocation: str
    n_s: int | None = None
    m: tuple[int, ...] | None = None
    max_m: int | None = None
    phase_strategy: str
    n_c: int
    phase_seed: int = 0
    horizon: int
    warmup: int
    seeds: tuple[int, ...]
    energy: EnergyParams | None = None
    sweep_total: int | None = None
    phases_n_c_values: tuple[int, ...] | None = None
    phases_random_draws: int = 5
    out_csv: str | None = None
    out_trace: str | None = None


def _edge(part: str) -> tuple[int, int]:
    a, b = part.split("-")
    return int(a), int(b)


def _list(item, fmt):
    """(parse, render) for a comma-separated list of items."""
    return (
        lambda raw: tuple(item(part.strip()) for part in raw.split(",") if part.strip()),
        lambda values: ", ".join(map(fmt, values)),
    )


_INT, _FLOAT, _STR = (int, str), (float, repr), (str, str)

# (section, key, field, parse, render), in the order render_config writes them
_FIELDS = (
    ("graph", "nodes", "node_count", *_INT),
    ("graph", "edges", "edges", *_list(_edge, "{0[0]}-{0[1]}".format)),
    ("sensing", "alphas", "alphas", *_list(float, repr)),
    ("sensing", "allocation", "allocation", *_STR),
    ("sensing", "n_s", "n_s", *_INT),
    ("sensing", "m", "m", *_list(int, str)),
    ("sensing", "max_m", "max_m", *_INT),
    ("conveyors", "phases", "phase_strategy", *_STR),
    ("conveyors", "n_c", "n_c", *_INT),
    ("conveyors", "phase_seed", "phase_seed", *_INT),
    ("simulation", "horizon", "horizon", *_INT),
    ("simulation", "warmup", "warmup", *_INT),
    ("simulation", "seeds", "seeds", *_list(int, str)),
    ("energy", "b_max", "b_max", *_FLOAT),
    ("energy", "e_move", "e_move", *_FLOAT),
    ("energy", "r_chg", "r_chg", *_FLOAT),
    ("sweep", "total", "sweep_total", *_INT),
    ("phases", "n_c_values", "phases_n_c_values", *_list(int, str)),
    ("phases", "random_draws", "phases_random_draws", *_INT),
    ("output", "csv", "out_csv", *_STR),
    ("output", "trace", "out_trace", *_STR),
)
_KNOWN_KEYS = {s: {key for s2, key, *_ in _FIELDS if s2 == s} for s, *_ in _FIELDS}
_WHERE = {field: (section, key) for section, key, field, *_ in _FIELDS}
_ENERGY_FIELDS = tuple(f.name for f in fields(EnergyParams))
_REQUIRED_SECTIONS = ("graph", "sensing", "conveyors", "simulation")


def field_error(field: str, why: str) -> ConfigError:
    """The error for one field, named as the config writes it: `[section] key: why`."""
    section, key = _WHERE[field]
    return ConfigError(f"[{section}] {key}: {why}")


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
                raise ConfigError(f"[{section}] {key}: unknown field")
    for section in _REQUIRED_SECTIONS:
        if not cp.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    v = {}  # field -> value, for every key present
    for section, key, field, parse, _ in _FIELDS:
        if cp.has_option(section, key):
            raw = cp.get(section, key).strip()
            try:
                v[field] = parse(raw)
            except ValueError:
                raise field_error(field, f"cannot parse value {raw!r}") from None

    def need(field: str, required: bool = True):
        if required and field not in v:
            raise field_error(field, "missing required field")

    for field in ("node_count", "edges", "alphas", "allocation", "phase_strategy", "n_c",
                  "horizon", "warmup", "seeds"):
        need(field)
    if v["node_count"] < 2:
        raise field_error("node_count", f"must be at least 2, got {v['node_count']}")
    k = v["node_count"] - 1
    walk_length = 2 * k  # the closed walk crosses each tree edge twice
    allocation, n_s, m, max_m = v["allocation"], v.get("n_s"), v.get("m"), v.get("max_m")
    if allocation not in ALLOCATION_STRATEGIES:
        raise field_error("allocation", f"must be one of {ALLOCATION_STRATEGIES}")
    need("n_s", allocation != "explicit")
    need("m", allocation == "explicit")
    if m is not None and allocation != "explicit":
        raise field_error("m", f"is read only with allocation = explicit, not {allocation}")
    if len(v["alphas"]) != k:
        raise field_error("alphas", f"got {len(v['alphas'])} values for {k} non-base nodes")
    for a in v["alphas"]:
        if not 0 < a < math.inf:
            raise field_error("alphas", f"must be finite and > 0, got {a}")
    if allocation == "explicit":
        if any(mi < 1 for mi in m):
            raise field_error("m", f"every entry must be >= 1, got {min(m)}")
        if len(m) != k:
            raise field_error("m", f"got {len(m)} entries for {k} non-base nodes")
        if n_s is not None and sum(m) != n_s:
            raise field_error("n_s", f"{n_s} but m sums to {sum(m)}")
    if n_s is not None and n_s < k:
        raise field_error("n_s", f"{n_s} robots are fewer than the {k} non-base nodes")
    if max_m is not None and max_m < 1:
        raise field_error("max_m", f"must be >= 1, got {max_m}")
    if max_m is not None and allocation == "explicit" and max(m) > max_m:
        raise field_error("m", f"entry {max(m)} exceeds max_m={max_m}")
    if max_m is not None and n_s is not None and n_s > k * max_m:
        raise field_error("n_s", f"{n_s} robots exceed {k} non-base nodes at max_m={max_m}")
    if v["phase_strategy"] not in PHASE_STRATEGIES:
        raise field_error("phase_strategy", f"must be one of {PHASE_STRATEGIES}")
    if not 1 <= v["n_c"] <= walk_length:
        raise field_error("n_c", f"{v['n_c']} outside 1..{walk_length}, the walk length")
    need("phase_seed", v["phase_strategy"] == "random")
    if v.get("phase_seed", 0) < 0:
        raise field_error("phase_seed", f"must be >= 0, got {v['phase_seed']}")
    if v["warmup"] < 0:
        raise field_error("warmup", f"must be >= 0, got {v['warmup']}")
    if v["warmup"] >= v["horizon"]:
        raise field_error("warmup", f"must be below horizon {v['horizon']}, got {v['warmup']}")
    if v["horizon"] >= 2**31:  # as SimConfig checks, for int64 age sums
        raise field_error("horizon", f"must be < 2**31, got {v['horizon']}")
    if not v["seeds"]:
        raise field_error("seeds", "needs at least one seed")
    if min(v["seeds"]) < 0:
        raise field_error("seeds", f"must be >= 0, got {min(v['seeds'])}")

    energy = None
    if cp.has_section("energy"):
        for field in _ENERGY_FIELDS:
            need(field)
        try:
            energy = EnergyParams(**{f: v.pop(f) for f in _ENERGY_FIELDS})
        except ConfigInvalid as exc:  # its message reads "<field> must be ..."
            field, _, why = str(exc).partition(" ")
            raise field_error(field, why) from None
    if cp.has_section("sweep"):
        need("sweep_total")
        total = v["sweep_total"]
        if total < k + 1:
            raise field_error("sweep_total", f"{total} cannot cover {k} sensors plus one conveyor")
        # every split keeps one conveyor, so it senses with up to total - 1 robots
        if max_m is not None and total - 1 > k * max_m:
            raise field_error(
                "sweep_total",
                f"{total} leaves up to {total - 1} sensing robots, more than "
                f"{k} non-base nodes hold at max_m={max_m}",
            )
    if cp.has_section("phases"):
        need("phases_n_c_values")
        if not v["phases_n_c_values"]:
            raise field_error("phases_n_c_values", "needs at least one conveyor count")
        for n in v["phases_n_c_values"]:
            if not 1 <= n <= walk_length:
                why = f"{n} outside 1..{walk_length}, the walk length"
                raise field_error("phases_n_c_values", why)
        draws = v.get("phases_random_draws", 0)
        if draws < 0:
            raise field_error("phases_random_draws", f"must be >= 0, got {draws}")

    return ExperimentConfig(**v, energy=energy)


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(cfg: ExperimentConfig) -> str:
    """Emit config text that parses back to an identical ExperimentConfig.

    Every field that is not None is written, energy flattened into [energy].
    random_draws is written only with n_c_values: a [phases] section needs them.
    """
    v = asdict(cfg)
    v.update(v.pop("energy") or {})
    if v["phases_n_c_values"] is None:
        v["phases_random_draws"] = None
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    for section, key, field, _, render in _FIELDS:
        if v.get(field) is not None:
            if not cp.has_section(section):
                cp.add_section(section)
            cp.set(section, key, render(v[field]))
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()
