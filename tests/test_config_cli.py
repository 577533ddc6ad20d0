"""Config parsing, rendering round-trips, and the command-line front-end."""

import dataclasses
import json
import os
import re
import runpy
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agecourier as ac
from agecourier import analysis, cli, sim_engine
from agecourier.cli import _TRACE_BLOCK, _scenario, _write_trace, main
from agecourier.config import _FIELDS, ALLOCATION_STRATEGIES, PHASE_STRATEGIES

from _support import REF_WATERFILL_10, checked_run, ref_config, traced_peak, trend_config

BASE_CONFIG = """\
[graph]
nodes = 8
edges = 0-1, 1-3, 0-2, 2-4, 0-5, 5-6, 6-7

[sensing]
alphas = 4, 6, 3, 9, 6, 8, 7
allocation = waterfill
n_s = 10

[conveyors]
phases = uniform
n_c = 14

[simulation]
horizon = 1500
warmup = 100
seeds = 1, 2
"""

EXTENDED_CONFIG = BASE_CONFIG + (
    "\n[energy]\nb_max = 12.5\ne_move = 1\nr_chg = 2\n"
    "\n[sweep]\ntotal = 12\n"
    "\n[phases]\nn_c_values = 3, 7\nrandom_draws = 2\n"
    "\n[output]\ncsv = out.csv\n"
)


def write_config(tmp_path, text=BASE_CONFIG, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------

def test_parse_minimal_config():
    cfg = ac.parse_config(BASE_CONFIG)
    assert cfg.node_count == 8
    assert cfg.edges == ((0, 1), (1, 3), (0, 2), (2, 4), (0, 5), (5, 6), (6, 7))
    assert cfg.alphas == (4.0, 6.0, 3.0, 9.0, 6.0, 8.0, 7.0)
    assert cfg.allocation == "waterfill"
    assert cfg.n_s == 10
    assert cfg.m is None
    assert cfg.phase_strategy == "uniform"
    assert cfg.n_c == 14
    assert cfg.seeds == (1, 2)
    assert cfg.energy is None
    assert cfg.sweep_total is None


def test_render_parse_round_trip():
    cfg = ac.parse_config(BASE_CONFIG)
    assert ac.parse_config(ac.render_config(cfg)) == cfg
    cfg2 = ac.parse_config(EXTENDED_CONFIG)
    assert cfg2.energy == ac.EnergyParams(b_max=12.5, e_move=1.0, r_chg=2.0)
    assert cfg2.sweep_total == 12
    assert cfg2.phases_n_c_values == (3, 7)
    assert cfg2.phases_random_draws == 2
    assert cfg2.out_csv == "out.csv"
    assert ac.parse_config(ac.render_config(cfg2)) == cfg2


def test_rendered_text_is_pinned():
    # sections and keys in table order, floats as repr, edges as a-b pairs
    assert ac.render_config(ac.parse_config(EXTENDED_CONFIG)) == (
        "[graph]\nnodes = 8\nedges = 0-1, 1-3, 0-2, 2-4, 0-5, 5-6, 6-7\n\n"
        "[sensing]\nalphas = 4.0, 6.0, 3.0, 9.0, 6.0, 8.0, 7.0\nallocation = waterfill\n"
        "n_s = 10\n\n"
        "[conveyors]\nphases = uniform\nn_c = 14\nphase_seed = 0\n\n"
        "[simulation]\nhorizon = 1500\nwarmup = 100\nseeds = 1, 2\n\n"
        "[energy]\nb_max = 12.5\ne_move = 1.0\nr_chg = 2.0\n\n"
        "[sweep]\ntotal = 12\n\n"
        "[phases]\nn_c_values = 3, 7\nrandom_draws = 2\n\n"
        "[output]\ncsv = out.csv\n\n"
    )


def test_every_config_field_has_one_table_row():
    assert len({(section, key) for section, key, *_ in _FIELDS}) == len(_FIELDS)
    names = [f.name for f in dataclasses.fields(ac.ExperimentConfig) if f.name != "energy"]
    names += [f.name for f in dataclasses.fields(ac.EnergyParams)]
    assert Counter(field for _, _, field, *_ in _FIELDS) == Counter(names)


_paths = st.from_regex(r"[A-Za-z0-9_./-]{1,16}", fullmatch=True)
_pos_floats = st.floats(0.25, 50.0)


@st.composite
def _experiment_configs(draw):
    n = draw(st.integers(2, 9))
    k = n - 1
    allocation = draw(st.sampled_from(ALLOCATION_STRATEGIES))
    m = n_s = None
    if allocation == "explicit":
        m = tuple(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
        n_s = draw(st.sampled_from([None, sum(m)]))
    else:
        n_s = draw(st.integers(k, 4 * k))
    sweep_total = draw(st.none() | st.integers(n, 4 * n))
    # the cap must hold n_s robots, every sweep split's total - 1, and each m entry
    fewest = max(-(-max(n_s or 0, (sweep_total or 1) - 1) // k), max(m or (1,)))
    phase_strategy = draw(st.sampled_from(PHASE_STRATEGIES))
    horizon = draw(st.integers(2, 10**6))
    energy = None
    if draw(st.booleans()):
        energy = ac.EnergyParams(
            b_max=draw(_pos_floats), e_move=draw(st.floats(0.0, 5.0)), r_chg=draw(_pos_floats)
        )
    n_c_values = draw(st.none() | st.lists(st.integers(1, 2 * k), min_size=1, max_size=4))
    return ac.ExperimentConfig(
        node_count=n,
        edges=tuple((draw(st.integers(0, i - 1)), i) for i in range(1, n)),
        alphas=tuple(draw(st.lists(_pos_floats, min_size=k, max_size=k))),
        allocation=allocation,
        n_s=n_s,
        m=m,
        max_m=draw(st.none() | st.integers(fewest, 20)),
        phase_strategy=phase_strategy,
        n_c=draw(st.integers(1, 2 * k)),
        phase_seed=draw(st.integers(0, 2**20)),
        horizon=horizon,
        warmup=draw(st.integers(0, horizon - 1)),
        seeds=tuple(draw(st.lists(st.integers(0, 2**20), min_size=1, max_size=4))),
        energy=energy,
        sweep_total=sweep_total,
        phases_n_c_values=None if n_c_values is None else tuple(n_c_values),
        phases_random_draws=5 if n_c_values is None else draw(st.integers(0, 6)),
        out_csv=draw(st.none() | _paths),
        out_trace=draw(st.none() | _paths),
    )


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_experiment_configs())
def test_render_parse_round_trip_property(cfg):
    assert ac.parse_config(ac.render_config(cfg)) == cfg


def test_unknown_fields_are_named():
    with pytest.raises(ac.ConfigError, match=r"unknown section \[transport\]"):
        ac.parse_config(BASE_CONFIG + "\n[transport]\nspeed = 2\n")
    with pytest.raises(ac.ConfigError, match=r"\[sensing\] turbo: unknown field"):
        ac.parse_config(BASE_CONFIG.replace("n_s = 10", "n_s = 10\nturbo = yes"))


def test_missing_pieces_are_named():
    with pytest.raises(ac.ConfigError, match=r"missing required section \[conveyors\]"):
        ac.parse_config(BASE_CONFIG.replace("[conveyors]\nphases = uniform\nn_c = 14\n\n", ""))
    with pytest.raises(ac.ConfigError, match=r"\[simulation\] horizon: missing required field"):
        ac.parse_config(BASE_CONFIG.replace("horizon = 1500\n", ""))
    with pytest.raises(ac.ConfigError, match=r"\[sensing\] n_s"):
        ac.parse_config(BASE_CONFIG.replace("n_s = 10\n", ""))


def test_explicit_allocation_needs_m():
    text = BASE_CONFIG.replace("allocation = waterfill\nn_s = 10", "allocation = explicit")
    with pytest.raises(ac.ConfigError, match=r"\[sensing\] m"):
        ac.parse_config(text)
    ok = ac.parse_config(
        BASE_CONFIG.replace(
            "allocation = waterfill\nn_s = 10",
            "allocation = explicit\nm = 1, 1, 1, 2, 1, 2, 2",
        )
    )
    assert ok.m == (1, 1, 1, 2, 1, 2, 2)
    assert ok.n_s is None


def test_bad_values_are_rejected():
    with pytest.raises(ac.ConfigError, match=r"\[sensing\] allocation"):
        ac.parse_config(BASE_CONFIG.replace("allocation = waterfill", "allocation = greedy"))
    with pytest.raises(ac.ConfigError, match=r"\[conveyors\] phases"):
        ac.parse_config(BASE_CONFIG.replace("phases = uniform", "phases = zigzag"))
    with pytest.raises(ac.ConfigError, match=r"\[simulation\] seeds"):
        ac.parse_config(BASE_CONFIG.replace("seeds = 1, 2", "seeds ="))
    with pytest.raises(ac.ConfigError, match=r"\[graph\] nodes"):
        ac.parse_config(BASE_CONFIG.replace("nodes = 8", "nodes = eight"))
    with pytest.raises(ac.ConfigError, match=r"\[graph\] edges"):
        ac.parse_config(BASE_CONFIG.replace("edges = 0-1,", "edges = 0:1,"))
    with pytest.raises(ac.ConfigError):
        ac.parse_config("not an ini file at all [")


_GRAPH_AND_ALPHAS = BASE_CONFIG[: BASE_CONFIG.index("allocation")]  # [graph] through alphas


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("alphas = 4, 6, 3, 9, 6, 8, 7", "alphas = 4, 6, 3",
         r"\[sensing\] alphas: got 3 values for 7 non-base nodes"),
        ("allocation = waterfill\nn_s = 10", "allocation = explicit\nm = 1, 1, 2",
         r"\[sensing\] m: got 3 entries for 7 non-base nodes"),
        ("allocation = waterfill\nn_s = 10",
         "allocation = explicit\nn_s = 9\nm = 1, 1, 1, 2, 1, 2, 2",
         r"\[sensing\] n_s: 9 but m sums to 10"),
        ("n_c = 14", "n_c = 99", r"\[conveyors\] n_c: 99 outside 1..14"),
        ("n_c = 14", "n_c = 0", r"\[conveyors\] n_c: 0 outside 1..14"),
        ("seeds = 1, 2", "seeds = 1, 2\n\n[phases]\nn_c_values = 3, 15",
         r"\[phases\] n_c_values: 15 outside 1..14"),
        ("seeds = 1, 2", "seeds = 1, 2\n\n[phases]\nn_c_values = 3\nrandom_draws = -3",
         r"\[phases\] random_draws: must be >= 0, got -3"),
        ("n_s = 10", "n_s = 10\nmax_m = 0", r"\[sensing\] max_m: must be >= 1, got 0"),
        ("n_s = 10", "n_s = 8\nmax_m = 1",
         r"\[sensing\] n_s: 8 robots exceed 7 non-base nodes at max_m=1"),
        ("n_s = 10", "n_s = 7\nmax_m = 1\n\n[sweep]\ntotal = 10",
         r"\[sweep\] total: 10 leaves up to 9 sensing robots, more than 7 non-base nodes "
         r"hold at max_m=1"),
        ("seeds = 1, 2", "seeds = 1, 2\n\n[phases]\nn_c_values =",
         r"\[phases\] n_c_values: needs at least one conveyor count"),
        ("seeds = 1, 2", "seeds = 1, -3", r"\[simulation\] seeds: must be >= 0, got -3"),
        ("n_c = 14", "n_c = 14\nphase_seed = -1",
         r"\[conveyors\] phase_seed: must be >= 0, got -1"),
        ("n_s = 10", "n_s = 3", r"\[sensing\] n_s: 3 robots are fewer than the 7 non-base nodes"),
        ("seeds = 1, 2", "seeds = 1, 2\n\n[sweep]\ntotal = 5",
         r"\[sweep\] total: 5 cannot cover 7 sensors plus one conveyor"),
        ("allocation = waterfill\nn_s = 10", "allocation = explicit\nm = 1, 1, 0, 2, 1, 2, 2",
         r"\[sensing\] m: every entry must be >= 1, got 0"),
        ("allocation = waterfill\nn_s = 10",
         "allocation = explicit\nm = 1, 1, 5, 1, 1, 1, 1\nmax_m = 2",
         r"\[sensing\] m: entry 5 exceeds max_m=2"),
        ("alphas = 4, 6, 3,", "alphas = 4, 6, inf,",
         r"\[sensing\] alphas: must be finite and > 0, got inf"),
        ("alphas = 4, 6, 3,", "alphas = 4, 6, 0,",
         r"\[sensing\] alphas: must be finite and > 0, got 0.0"),
        ("n_s = 10", "n_s = 10\nm = 5, 5, 5",
         r"\[sensing\] m: is read only with allocation = explicit, not waterfill"),
        (_GRAPH_AND_ALPHAS, _GRAPH_AND_ALPHAS.replace("nodes = 8", "nodes = 0")
         .replace("alphas = 4, 6, 3, 9, 6, 8, 7", "alphas = 4"),
         r"\[graph\] nodes: must be at least 2, got 0"),
        (_GRAPH_AND_ALPHAS, _GRAPH_AND_ALPHAS.replace("nodes = 8", "nodes = 1")
         .replace("alphas = 4, 6, 3, 9, 6, 8, 7", "alphas ="),
         r"\[graph\] nodes: must be at least 2, got 1"),
    ],
    ids=["alphas", "m", "n_s", "n_c", "n_c_zero", "n_c_values", "random_draws",
         "max_m", "n_s_over_max_m", "sweep_total_over_max_m", "n_c_values_empty",
         "seeds_negative", "phase_seed_negative", "n_s_below_nodes", "sweep_total_below_nodes",
         "m_below_one", "m_over_max_m", "alphas_infinite", "alphas_zero", "m_unused", "nodes_zero",
         "nodes_one"],
)
def test_fields_that_disagree_are_named(old, new, message):
    with pytest.raises(ac.ConfigError, match=message):
        ac.parse_config(BASE_CONFIG.replace(old, new))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("b_max", "0", r"\[energy\] b_max: must be > 0, got 0.0"),
        ("e_move", "-1", r"\[energy\] e_move: must be >= 0, got -1.0"),
        ("e_move", "inf", r"\[energy\] e_move: must be finite, got inf"),
        ("r_chg", "nan", r"\[energy\] r_chg: must be > 0, got nan"),
    ],
)
def test_energy_errors_name_their_field(field, value, message):
    values = {"b_max": "12", "e_move": "1", "r_chg": "2", field: value}
    text = BASE_CONFIG + "\n[energy]\n" + "".join(f"{k} = {v}\n" for k, v in values.items())
    with pytest.raises(ac.ConfigError, match=message):
        ac.parse_config(text)


@pytest.mark.parametrize(
    "edges",
    ["0-1, 1-7", "0-1, 1-1, 0-2", "0-1, 1-0, 0-2", "0-1"],
    ids=["out_of_range", "self_loop", "duplicate", "unreachable"],
)
def test_graph_faults_name_the_edges_field(tmp_path, capsys, edges):
    text = (
        f"[graph]\nnodes = 3\nedges = {edges}\n\n"
        "[sensing]\nalphas = 2, 3\nallocation = waterfill\nn_s = 2\n\n"
        "[conveyors]\nphases = uniform\nn_c = 2\n\n"
        "[simulation]\nhorizon = 100\nwarmup = 0\nseeds = 0\n"
    )
    code = main(["bound", "--config", write_config(tmp_path, text)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: [graph] edges: ")


def test_random_phases_require_seed():
    text = BASE_CONFIG.replace("phases = uniform", "phases = random")
    with pytest.raises(ac.ConfigError, match=r"\[conveyors\] phase_seed"):
        ac.parse_config(text)
    ok = ac.parse_config(text.replace("n_c = 14", "n_c = 14\nphase_seed = 3"))
    assert ok.phase_seed == 3


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_bound(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, err = run_cli(capsys, "bound", "--config", path)
    assert code == 0 and err == ""
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "node,bound"
    rows = dict(l.split(",") for l in lines[1:])
    assert rows["1"] == "7" and rows["3"] == "6" and rows["4"] == "9"
    assert rows["network"] == str(float(60) / 7)[:7] or rows["network"].startswith("8.571")


def test_cli_waterfill(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, _ = run_cli(capsys, "waterfill", "--config", path)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "node,alpha,m,mu,q"
    ms = [int(l.split(",")[2]) for l in lines[1:]]
    assert tuple(ms) == REF_WATERFILL_10
    assert any(l.startswith("# objective:") for l in out.splitlines())


def test_cli_waterfill_explicit_budget_is_sum_of_m(tmp_path, capsys):
    # with no max_m the cap is sum(m) - (nodes - 1) + 2 = 5, one above the 4
    # robots water-filling the budget sum(m) can give one node, not max(m) + 1
    text = """\
[graph]
nodes = 4
edges = 0-1, 0-2, 0-3

[sensing]
alphas = 100, 1, 1
allocation = explicit
m = 2, 2, 2

[conveyors]
phases = uniform
n_c = 6

[simulation]
horizon = 100
warmup = 0
seeds = 0
"""
    code, out, _ = run_cli(capsys, "waterfill", "--config", write_config(tmp_path, text))
    assert code == 0
    lines = out.splitlines()
    ms = [int(l.split(",")[2]) for l in lines if l[:1].isdigit()]
    assert ms == [4, 1, 1]
    assert "# objective: 27" in lines


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(_experiment_configs())
def test_default_max_m_never_binds(cfg):
    # every budget a subcommand water-fills: the scenario's (n_s, or sum(m)
    # for explicit), and each sweep split's n_s; batteries play no part
    s = _scenario(dataclasses.replace(cfg, max_m=None, energy=None))
    k = cfg.node_count - 1
    budget = s.alloc.total
    assert s.model.max_m == max(budget, cfg.sweep_total or 0) - k + 2
    for n_s in {budget, *range(k, cfg.sweep_total or 0)}:
        uncapped = ac.make_model(cfg.alphas, n_s + 1)
        assert ac.water_fill(s.model, n_s) == ac.water_fill(uncapped, n_s)


@pytest.mark.parametrize(
    "simulation, message",
    [
        ("horizon = 100\nwarmup = 100", "[simulation] warmup: must be below horizon 100, got 100"),
        ("horizon = 100\nwarmup = -1", "[simulation] warmup: must be >= 0, got -1"),
        ("horizon = 3000000000\nwarmup = 100",
         "[simulation] horizon: must be < 2**31, got 3000000000"),
    ],
    ids=["warmup_at_horizon", "warmup_negative", "horizon_too_long"],
)
def test_cli_names_warmup_and_horizon_faults(tmp_path, capsys, simulation, message):
    text = BASE_CONFIG.replace("horizon = 1500\nwarmup = 100", simulation)
    code, out, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, text))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_cli_walk_and_audit(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, _ = run_cli(capsys, "walk", "--config", path)
    assert code == 0
    assert "# walk length: 14" in out
    body = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert body[0] == "step,node"
    assert len(body) == 1 + 15

    code, out, _ = run_cli(capsys, "audit", "--config", path)
    assert code == 0
    assert "full coverage: true" in out
    assert "cycle: t0=0 period=14" in out

    partial = write_config(
        tmp_path, BASE_CONFIG.replace("n_c = 14", "n_c = 13"), name="partial.ini"
    )
    code, out, _ = run_cli(capsys, "audit", "--config", partial)
    assert code == 0
    assert "full coverage: false" in out
    assert "violation: node=" in out

    # a horizon of one walk length holds no cycle of the fleet to audit
    short = BASE_CONFIG.replace("horizon = 1500", "horizon = 14").replace("warmup = 100", "warmup = 0")
    code, out, _ = run_cli(capsys, "audit", "--config", write_config(tmp_path, short, name="short.ini"))
    assert (code, out) == (
        0, "full coverage: false\ncycle: none; the fleet's motion does not repeat within 14 slots\n"
    )

    # every offset of the trend tree staffed, yet the battery fleet strands
    # two branches: the audit names the nodes that `unserved_nodes` names
    # (TREND_CONFIG moves the fleet of `trend_config`; only its alphas differ)
    fleet = dataclasses.replace(trend_config(b_max=8.0, seed=0), phase_set=ac.uniform_phases(18, 18))
    text = TREND_CONFIG.replace("n_c = 14", "n_c = 18")
    assert _scenario(ac.parse_config(text)).phase_set == fleet.phase_set
    battery = write_config(tmp_path, text, name="battery.ini")
    code, out, _ = run_cli(capsys, "audit", "--config", battery)
    assert code == 0
    assert out.splitlines()[0] == "full coverage: false"
    assert sim_engine.unserved_nodes(fleet) == (1, 2, 3, 6, 7)
    assert [l for l in out.splitlines() if l.startswith("unserved:")] == [
        f"unserved: node={v}" for v in (1, 2, 3, 6, 7)
    ]


def test_cli_simulate_and_trace(tmp_path, capsys):
    trace = tmp_path / "trace.ndjson"
    text = BASE_CONFIG + f"\n[output]\ntrace = {trace}\n"
    path = write_config(tmp_path, text)
    out_csv = tmp_path / "sim.csv"
    code, out, _ = run_cli(capsys, "simulate", "--config", path, "--out", str(out_csv))
    assert code == 0
    assert out == ""
    table = out_csv.read_text()
    assert "# seeds: 1,2\n" in table
    lines = [l for l in table.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "node,mean_aoi,std_aoi,bound,delta"
    assert lines[-1].startswith("network,")
    assert len(lines) == 1 + 7 + 1

    records = [json.loads(l) for l in trace.read_text().splitlines()]
    assert records[0]["seed"] == 1
    assert "version" in records[0]
    for rec in records[1:]:
        assert set(rec) == {"origin", "sensing_start", "generated", "delivered", "became_freshest"}
        assert rec["delivered"] >= rec["generated"] >= rec["sensing_start"]
        assert rec["became_freshest"] is True


def test_a_trace_that_cannot_be_written_leaves_no_table(tmp_path, capsys):
    text = BASE_CONFIG + f"\n[output]\ntrace = {tmp_path / 'missing' / 'trace.ndjson'}\n"
    path = write_config(tmp_path, text)
    code, out, err = run_cli(capsys, "simulate", "--config", path)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    out_csv = tmp_path / "sim.csv"
    code, out, _ = run_cli(capsys, "simulate", "--config", path, "--out", str(out_csv))
    assert (code, out) == (2, "")
    assert not out_csv.exists()


def test_an_unexpected_error_prints_its_traceback(tmp_path, capsys, monkeypatch):
    # not a bad input but a fault in the program: where it came from is shown
    def boom(cfg, scenario):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "bound", boom)
    code, out, err = run_cli(capsys, "bound", "--config", write_config(tmp_path))
    assert (code, out) == (2, "")
    assert "Traceback" in err and "in boom" in err
    assert err.endswith("runtime error: boom\n")


def test_each_table_takes_one_bound_per_row_group(tmp_path, capsys, monkeypatch):
    # simulate reads one floor for its whole table, sweep one per split in split order
    seen = []
    real = analysis.lower_bound

    def counting(cfg):
        seen.append(cfg)
        return real(cfg)

    monkeypatch.setattr(analysis, "lower_bound", counting)
    monkeypatch.setattr(cli, "lower_bound", counting)
    text = BASE_CONFIG.replace("horizon = 1500", "horizon = 600") + "\n[sweep]\ntotal = 10\n"
    path = write_config(tmp_path, text)
    code, out, _ = run_cli(capsys, "simulate", "--config", path)
    assert code == 0 and len(seen) == 1
    assert out.splitlines()[-1].split(",")[3] == "%.6g" % real(seen[0]).network_bound

    seen.clear()
    code, out, _ = run_cli(capsys, "sweep", "--config", path)
    assert code == 0
    assert [cfg.alloc.total for cfg in seen] == [7, 8, 9]
    bounds = [l.split(",")[4] for l in out.splitlines() if l[:1].isdigit()]
    assert bounds == ["%.6g" % real(cfg).network_bound for cfg in seen]


def test_delivery_log_is_built_only_when_read(tmp_path, capsys, monkeypatch):
    built = []

    class CountingLog(ac.DeliveryLog):
        def __init__(self, *columns):
            built.append(self)
            super().__init__(*columns)

    monkeypatch.setattr(sim_engine, "DeliveryLog", CountingLog)
    ac.split_sweep(ref_config(horizon=600, warmup=60), 9, seeds=[0, 1])
    assert built == []
    assert run_cli(capsys, "simulate", "--config", write_config(tmp_path))[0] == 0
    assert built == []
    text = BASE_CONFIG + f"\n[output]\ntrace = {tmp_path / 'trace.ndjson'}\n"
    assert run_cli(capsys, "simulate", "--config", write_config(tmp_path, text))[0] == 0
    assert built == []  # the first seed's events stream to the trace in blocks

    res = ac.run(ref_config(horizon=300, warmup=10))
    assert res.delivery_log is res.delivery_log
    assert len(built) == 1


def test_a_traced_simulate_draws_each_mask_once(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "trace.ndjson"
    text = BASE_CONFIG + f"\n[output]\ntrace = {trace}\n"
    draws = []
    draw = sim_engine.generation_mask
    monkeypatch.setattr(sim_engine, "generation_mask", lambda *key: draws.append(key) or draw(*key))
    assert run_cli(capsys, "simulate", "--config", write_config(tmp_path, text))[0] == 0
    assert len(draws) == len(set(draws)) == 7 * 2  # k nodes x 2 seeds
    # the trace replays the first seed's stored draws: the same events as a fresh run
    expected = tmp_path / "expected.ndjson"
    _write_trace(str(expected), ac.run(_scenario(ac.parse_config(text))).log_blocks(), 1)
    assert trace.read_bytes() == expected.read_bytes()


def test_trace_lines_are_json_dumps_of_each_event(tmp_path):
    res = checked_run(ref_config(horizon=300, warmup=10, seed=8))
    log = res.delivery_log
    trace = tmp_path / "trace.ndjson"
    _write_trace(str(trace), res.log_blocks(), 8)
    lines = trace.read_text(encoding="utf-8").split("\n")
    assert lines[0] == json.dumps({"version": ac.__version__, "seed": 8})
    assert lines[-1] == ""
    names = ("origin", "sensing_start", "generated", "delivered", "became_freshest")
    events = [
        dict(zip(names, (int(o), int(s), int(g), int(d), bool(f))))
        for o, s, g, d, f in zip(*(getattr(log, name) for name in names))
    ]
    assert len(events) > 2 and all(ev["became_freshest"] is True for ev in events)
    assert lines[1:-1] == [json.dumps(ev) for ev in events]


def test_trace_writer_across_block_boundaries(tmp_path):
    n = 2 * _TRACE_BLOCK + 3
    rng = np.random.default_rng(5)
    gen = np.arange(n) * 3
    origin = rng.integers(1, 40, n)
    sensing_start = gen - rng.integers(0, 3, n)
    delivered = gen + rng.integers(1, 9, n)
    log = ac.DeliveryLog(origin, sensing_start, gen, delivered)
    rows = np.stack([origin, sensing_start, gen, delivered], axis=1)
    trace = tmp_path / "trace.ndjson"
    # blocks of uneven sizes, so block ends fall inside and on write chunks
    _write_trace(str(trace), np.split(rows, [5, 5 + _TRACE_BLOCK]), 3)
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + n
    names = ("origin", "sensing_start", "generated", "delivered", "became_freshest")
    for i, line in enumerate(lines[1:]):
        event = {name: getattr(log, name)[i].item() for name in names}
        assert line == json.dumps(event)


def test_a_streamed_trace_peaks_below_a_log_read(tmp_path):
    # The trace of an unread result holds the per-node deliveries (12 bytes
    # an event) and one block at a time; a read also holds the whole log (32
    # bytes an event).
    res = ac.run(ref_config(n_c=2, horizon=400_000, warmup=0))
    trace = tmp_path / "trace.ndjson"
    _, written = traced_peak(lambda: _write_trace(str(trace), res.log_blocks(), 1))
    log, read = traced_peak(lambda: res.delivery_log)
    assert len(log) == 290_106
    assert written < 0.6 * read
    expected = tmp_path / "expected.ndjson"
    _write_trace(str(expected), res.log_blocks(), 1)  # after the read, replayed again
    assert trace.read_bytes() == expected.read_bytes()


TREND_CONFIG = """\
[graph]
nodes = 10
edges = 0-1, 1-2, 2-3, 0-4, 4-5, 5-6, 0-7, 0-8, 0-9

[sensing]
alphas = 3, 3, 3, 3, 3, 3, 3, 3, 3
allocation = waterfill
n_s = 9

[conveyors]
phases = uniform
n_c = 14

[simulation]
horizon = 15000
warmup = 1000
seeds = 0

[energy]
b_max = 8
e_move = 2
r_chg = 2
"""


def test_simulate_reports_nodes_a_battery_fleet_leaves_unserved(tmp_path, capsys):
    # the trend tree: b_max = 8 passes validate (depth 3 at e_move 2), but the
    # fleet locks into a cycle that never picks up from two branches
    path = write_config(tmp_path, TREND_CONFIG)
    code, out, err = run_cli(capsys, "simulate", "--config", path)
    assert code == 0
    assert err.splitlines() == [
        "warning: [energy] b_max = 8, seed 0: no conveyor picks up from nodes 1, 2, 3, 6, 7 "
        "once the fleet's motion repeats; their ages grow with the horizon"
    ]
    cfg = _scenario(ac.parse_config(TREND_CONFIG))
    assert sim_engine.unserved_nodes(cfg) == (1, 2, 3, 6, 7)
    ages = ac.run_energy(cfg).per_node_aoi
    rows = [l.split(",") for l in out.splitlines() if l[:1].isdigit()]
    assert [r[1] for r in rows] == ["%.6g" % ages[v] for v in range(1, 10)]
    assert min(ages[v] for v in (1, 2, 3, 6, 7)) > 7000 > max(ages[v] for v in (4, 5, 8, 9))

    # two seeds, one line each; at b_max = 12 every node is served
    text = TREND_CONFIG.replace("seeds = 0", "seeds = 0, 1")
    err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, text))[2]
    assert [line.split(": no")[0] for line in err.splitlines()] == [
        "warning: [energy] b_max = 8, seed 0",
        "warning: [energy] b_max = 8, seed 1",
    ]
    text = TREND_CONFIG.replace("b_max = 8", "b_max = 12")
    code, out, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, text))
    assert code == 0 and err == ""
    assert sim_engine.unserved_nodes(_scenario(ac.parse_config(text))) == ()


def test_cli_seed_override_and_byte_identical_reruns(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out1, _ = run_cli(capsys, "simulate", "--config", path, "--seed", "7")
    code2, out2, _ = run_cli(capsys, "simulate", "--config", path, "--seed", "7")
    assert code == code2 == 0
    assert out1 == out2
    assert "seeds: 7" in out1


def test_cli_echo_config_round_trip(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, _ = run_cli(capsys, "simulate", "--config", path, "--echo-config")
    assert code == 0
    assert ac.parse_config(out) == ac.load_config(path)
    echoed = write_config(tmp_path, out, name="echoed.ini")
    code, out2, _ = run_cli(capsys, "simulate", "--config", echoed, "--echo-config")
    assert out2 == out


def test_cli_sweep(tmp_path, capsys):
    text = BASE_CONFIG.replace("horizon = 1500", "horizon = 600") + "\n[sweep]\ntotal = 10\n"
    path = write_config(tmp_path, text)
    code, out, _ = run_cli(capsys, "sweep", "--config", path)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "n_s,n_c,mean_aoi,std_aoi,bound,best"
    assert len(lines) == 1 + 3  # n_s in 7..9
    assert sum(int(l.split(",")[-1]) for l in lines[1:]) == 1
    assert any(l.startswith("# best: n_s=") for l in out.splitlines())


def test_cli_sweep_needs_total(tmp_path, capsys):
    path = write_config(tmp_path)
    code, _, err = run_cli(capsys, "sweep", "--config", path)
    assert code == 1
    assert "[sweep] total" in err


@pytest.mark.parametrize("command", ["sweep", "phases"])
def test_cli_sweep_and_phases_reject_energy(tmp_path, capsys, command):
    text = BASE_CONFIG + (
        "\n[energy]\nb_max = 12\ne_move = 1\nr_chg = 2\n"
        "\n[sweep]\ntotal = 10\n\n[phases]\nn_c_values = 3\n"
    )
    path = write_config(tmp_path, text)
    code, out, err = run_cli(capsys, command, "--config", path)
    assert code == 1 and out == ""
    assert "[energy]" in err


def test_cli_walk_rejects_alphas_of_the_wrong_length(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG.replace("alphas = 4, 6, 3,", "alphas ="))
    code, out, err = run_cli(capsys, "walk", "--config", path)
    assert code == 1 and out == ""
    assert "[sensing] alphas" in err


@pytest.mark.parametrize("command", ["bound", "walk", "waterfill", "audit"])
@pytest.mark.parametrize(
    "old, new",
    [
        ("warmup = 100", "warmup = 5000"),
        ("horizon = 1500", "horizon = 0"),
        ("warmup = 100", "warmup = -1"),
        ("horizon = 1500", "horizon = 3000000000"),
        ("seeds = 1, 2", "seeds = -3"),
        # the deepest node is three hops out
        ("seeds = 1, 2", "seeds = 1, 2\n\n[energy]\nb_max = 1\ne_move = 1\nr_chg = 1"),
    ],
    ids=["warmup_past_horizon", "horizon_zero", "warmup_negative", "horizon_huge", "seed_negative",
         "battery_too_small"],
)
def test_every_subcommand_rejects_a_scenario_that_run_rejects(tmp_path, capsys, command, old, new):
    path = write_config(tmp_path, BASE_CONFIG.replace(old, new))
    assert run_cli(capsys, "simulate", "--config", path)[0] == 1
    code, out, err = run_cli(capsys, command, "--config", path)
    assert code == 1 and out == ""
    assert err.startswith("error: ")


SHALLOW_BATTERY_CONFIG = """\
[graph]
nodes = 3
edges = 0-1, 1-2

[sensing]
alphas = 2, 3
allocation = waterfill
n_s = 2

[conveyors]
phases = uniform
n_c = 2

[simulation]
horizon = 100
warmup = 10
seeds = 0

[energy]
b_max = 1
e_move = 2
r_chg = 1
"""


@pytest.mark.parametrize(
    "command", ["bound", "waterfill", "walk", "phases", "audit", "simulate", "sweep"]
)
def test_every_subcommand_names_a_battery_too_small_as_b_max(tmp_path, capsys, command):
    # node 2 is two hops out: a return costs 2 * e_move = 4 > b_max
    path = write_config(tmp_path, SHALLOW_BATTERY_CONFIG)
    code, out, err = run_cli(capsys, command, "--config", path)
    assert (code, out) == (1, "")
    assert err == "error: [energy] b_max: b_max=1.0 cannot cover a depth-2 return at e_move=2.0\n"


@pytest.mark.parametrize("command", ["bound", "walk", "waterfill", "audit", "simulate"])
def test_every_subcommand_rejects_a_negative_seed(tmp_path, capsys, command):
    # a negative seed after the first one, and a negative --seed on a valid config
    path = write_config(tmp_path, BASE_CONFIG.replace("seeds = 1, 2", "seeds = 1, -3"))
    code, out, err = run_cli(capsys, command, "--config", path)
    assert (code, out) == (1, "")
    assert err == "error: [simulation] seeds: must be >= 0, got -3\n"
    code, out, err = run_cli(capsys, command, "--config", write_config(tmp_path), "--seed", "-3")
    assert (code, out) == (1, "")
    assert err == "error: --seed: must be >= 0, got -3\n"


def test_cli_phases_uses_the_configured_allocation(tmp_path, capsys):
    text = (
        BASE_CONFIG.replace("allocation = waterfill", "allocation = uniform")
        .replace("horizon = 1500", "horizon = 300")
        + "\n[phases]\nn_c_values = 14\nrandom_draws = 0\n"
    )
    path = write_config(tmp_path, text)
    code, bound_out, _ = run_cli(capsys, "bound", "--config", path)
    assert code == 0
    network = bound_out.splitlines()[-1]
    assert network == "network,10.1429"
    code, out, _ = run_cli(capsys, "phases", "--config", path)
    assert code == 0
    assert out.splitlines()[-1] == "bound,," + network.split(",")[1] + ",0"


def test_cli_sweep_honours_max_m(tmp_path, capsys):
    text = (
        BASE_CONFIG.replace("n_s = 10", "n_s = 7\nmax_m = 1")
        .replace("horizon = 1500", "horizon = 300")
        + "\n[sweep]\ntotal = 10\n"
    )
    path = write_config(tmp_path, text)
    code, out, err = run_cli(capsys, "sweep", "--config", path)
    assert code == 1 and out == ""
    assert "max_m" in err


def test_cli_phases(tmp_path, capsys):
    text = (
        BASE_CONFIG.replace("horizon = 1500", "horizon = 400")
        + "\n[phases]\nn_c_values = 3, 14\nrandom_draws = 1\n"
    )
    path = write_config(tmp_path, text)
    code, out, _ = run_cli(capsys, "phases", "--config", path)
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "strategy,n_c,mean_aoi,std_aoi"
    assert len(lines) == 1 + 2 * 3 + 1
    assert lines[-1].startswith("bound,,")


def test_cli_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(capsys, "bound", "--config", str(tmp_path / "missing.ini"))
    assert code == 2 and "error" in err

    bad = write_config(tmp_path, BASE_CONFIG + "\n[rocket]\nfuel = 3\n", name="bad.ini")
    code, _, err = run_cli(capsys, "bound", "--config", bad)
    assert code == 1 and "unknown section" in err

    zero = write_config(
        tmp_path, BASE_CONFIG.replace("alphas = 4,", "alphas = 0,"), name="zero.ini"
    )
    code, _, err = run_cli(capsys, "simulate", "--config", zero)
    assert code == 1 and "alpha" in err


def test_flags_parse_before_or_after_the_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    after = run_cli(capsys, "bound", "--config", path, "--seed", "3")
    before = run_cli(capsys, "--config", path, "--seed", "3", "bound")
    around = run_cli(capsys, "--seed", "3", "bound", "--config", path)
    assert after[0] == 0 and after[1].startswith("# agecourier")
    assert before == after == around


def test_the_usage_names_every_subcommand(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["launch", "--config", write_config(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "invalid choice: 'launch'" in err
    choices = err[err.index("choose from") :]
    assert all(name in choices for name in cli._COMMANDS) and len(cli._COMMANDS) == 7
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert "{bound,waterfill,walk,phases,audit,simulate,sweep}" in out


def test_cli_out_file_matches_stdout(tmp_path, capsys):
    path = write_config(tmp_path)
    code, out, _ = run_cli(capsys, "bound", "--config", path)
    target = tmp_path / "bound.csv"
    code2, _, _ = run_cli(capsys, "bound", "--config", path, "--out", str(target))
    assert code == code2 == 0
    assert target.read_text() == out


def test_cli_output_csv_is_the_default_out_path(tmp_path, capsys):
    default = tmp_path / "default.csv"
    path = write_config(tmp_path, BASE_CONFIG + f"\n[output]\ncsv = {default}\n")
    code, out, _ = run_cli(capsys, "bound", "--config", path)
    assert code == 0 and out == ""
    override = tmp_path / "override.csv"
    code, _, _ = run_cli(capsys, "bound", "--config", path, "--out", str(override))
    assert code == 0
    assert override.read_text() == default.read_text()
    assert default.read_text().splitlines()[-1].startswith("network,")


def test_python_dash_m_runs_the_cli(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path)
    code, expected, _ = run_cli(capsys, "bound", "--config", path)
    monkeypatch.setattr(sys, "argv", ["agecourier", "bound", "--config", path])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("agecourier", run_name="__main__")
    assert exc.value.code == code == 0
    assert capsys.readouterr().out == expected


def test_python_dash_m_runs_the_cli_module(tmp_path):
    # `python -m agecourier.cli` runs main too, not only `python -m agecourier`
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    example = readme[readme.index("### Example config") : readme.index("### Config reference")]
    path = tmp_path / "example.ini"
    path.write_text(re.search(r"```ini\n(.*?)```", example, re.DOTALL).group(1))
    src = str(root / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "agecourier.cli", "bound", "--config", str(path)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert "node,bound" in proc.stdout.splitlines()
