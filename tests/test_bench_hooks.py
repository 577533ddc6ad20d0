"""The benchmark harness in perfbench/ wraps agecourier functions by name, so
every function it times must stay a callable attribute of its module, and
every function its output checks (perfbench/checks.py) call or capture must
keep the behaviour those checks read."""

import importlib
import json
from pathlib import Path

import numpy as np

from agecourier import analysis, cli, config, sim_engine

from _support import ref_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_timed_function_is_a_callable_of_its_module(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    for mod, fns in tracer.TIMED.items():
        module = importlib.import_module(f"agecourier.{mod}")
        for fn in fns:
            assert callable(getattr(module, fn, None)), f"agecourier.{mod}.{fn}"


def test_the_engines_check_runs_both_engines_by_name():
    cfg = ref_config(n_c=3, horizon=1000, warmup=100, seed=2)
    stepper = sim_engine.run(cfg, engine="stepper")
    table = sim_engine.run(cfg, engine="table")
    assert len(table.delivery_log) > 0
    assert stepper.per_node_aoi == table.per_node_aoi
    assert stepper.delivery_log == table.delivery_log


def test_the_run_checks_read_the_log_and_rebuild_ages():
    cfg = ref_config(n_c=7, horizon=1000, warmup=100, seed=3)
    res = sim_engine.run(cfg)
    log = res.delivery_log
    k = cfg.graph.node_count - 1
    rebuilt = sim_engine.aoi_from_event_log(log, cfg.horizon, cfg.warmup, origins=range(1, k + 1))
    assert rebuilt == res.per_node_aoi
    depth = np.asarray(cfg.tree.depth, dtype=np.int64)
    assert np.all(log.delivered - log.generated >= depth[log.origin])
    # the trace check compares these five columns, event by event
    for name in ("origin", "sensing_start", "generated", "delivered"):
        assert getattr(log, name).shape == (len(log),)
    assert log.became_freshest.shape == (len(log),) and log.became_freshest.all()


def test_a_trace_written_after_the_log_was_read_equals_the_log(tmp_path, monkeypatch):
    # In check mode every run's delivery_log is read as the run returns, and
    # the CLI then writes the first seed's trace from the same result, which
    # replays it again. A small block size cuts several blocks.
    monkeypatch.setattr(sim_engine, "_LOG_BLOCK", 500)
    cfg = ref_config(n_c=3, horizon=20_000, warmup=100, seed=2)
    res = sim_engine.run(cfg)
    log = res.delivery_log
    assert len(list(res.log_blocks())) > 4
    trace = tmp_path / "trace.ndjson"
    cli._write_trace(str(trace), res.log_blocks(), cfg.seed)
    with open(trace, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        events = [json.loads(line) for line in fh]
    assert header["seed"] == cfg.seed and len(events) == len(log)
    for name in ("origin", "sensing_start", "generated", "delivered", "became_freshest"):
        assert np.array_equal([e[name] for e in events], getattr(log, name))


def test_the_csv_check_reads_bounds_and_the_config(tmp_path):
    cfg = ref_config()
    bound = analysis.lower_bound(cfg)
    assert sorted(bound.per_node_bound) == list(range(1, cfg.graph.node_count))
    assert isinstance(bound.network_bound, float)

    path = tmp_path / "exp.ini"
    path.write_text(
        "[graph]\nnodes = 3\nedges = 0-1, 1-2\n\n"
        "[sensing]\nalphas = 2, 3\nallocation = waterfill\nn_s = 2\n\n"
        "[conveyors]\nphases = uniform\nn_c = 2\n\n"
        "[simulation]\nhorizon = 100\nwarmup = 0\nseeds = 4, 5\n\n"
        "[sweep]\ntotal = 4\n\n[output]\ntrace = t.ndjson\n"
    )
    loaded = config.load_config(str(path))
    assert loaded.seeds == (4, 5)
    assert loaded.sweep_total == 4
    assert loaded.out_trace == "t.ndjson"
