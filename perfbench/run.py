"""Benchmark for the agecourier CLI: seeded workloads, each invocation in a
fresh interpreter, end-to-end metrics with tracing off and per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

--trace 0 repeats the plain CLI invocation for about S seconds and reports
wall_s, setup_s, node_slots_per_s and peak_rss_mb (medians over the
repetitions). --trace 1 first runs one `check` invocation that verifies every
simulated run, then alternates plain and traced invocations for about S
seconds and reports per-function calls, total and self times, counters, the
cost of the checks, and the tracing overhead. Human-readable lines come first;
the last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

One child runs at a time, with BLAS threads pinned to one. Scratch files live
in .perfbench_work/ under the repository root and are removed on exit. The
program is imported from src/ through PYTHONPATH; if it cannot be imported,
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from workloads import TRACE_FILE, WORKLOADS, Workload, make_config

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
DIGESTS = BENCH / "digests.json"
WORK = ROOT / ".perfbench_work"
OUT_CSV = "out.csv"

DEFAULT_SEED = 0
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
SETUP_SPAWNS = 5

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "node_slots_per_s": "1/s", "peak_rss_mb": "MB"}
EXPECTED_HEADER = {
    "sweep": ["n_s", "n_c", "mean_aoi", "std_aoi", "bound", "best"],
    "simulate": ["node", "mean_aoi", "std_aoi", "bound", "delta"],
}


class SetupFailed(RuntimeError):
    """The program could not be imported or started."""


@dataclass
class Invocation:
    mode: str
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    exit_code: int
    stamp: dict
    stderr: str
    csv_text: str = ""
    csv_digest: str = ""
    trace_digest: str = ""
    trace_bytes: int = 0
    trace_events: int = 0


@dataclass
class Checks:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # set-up time is measured with bytecode cached, as for an installed package
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(mode: str, workdir: Path, w: Workload, run_id: int) -> Invocation:
    """Start one child, wait for it, and collect its timings and outputs."""
    stamp_path = workdir / "stamp.json"
    stamp_path.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), mode, str(stamp_path), str(run_id)]
    if mode != "import":
        argv += [w.subcommand, "--config", "config.ini", "--out", OUT_CSV]
    err_path = workdir / "stderr.txt"
    with open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            argv,
            cwd=workdir,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,  # simulate --out still prints `seeds:`
            stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stamp = json.loads(stamp_path.read_text()) if stamp_path.exists() else {}
    inv = Invocation(
        mode=mode,
        wall_s=end - start,
        setup_s=stamp.get("imported", end) - start,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        stamp=stamp,
        stderr=err_path.read_text(errors="replace").strip(),
    )
    csv_path = workdir / OUT_CSV
    if csv_path.exists():
        data = csv_path.read_bytes()
        inv.csv_text = data.decode(errors="replace")
        inv.csv_digest = hashlib.sha256(data).hexdigest()
        csv_path.unlink()
    trace_path = workdir / TRACE_FILE
    if trace_path.exists():
        data = trace_path.read_bytes()
        inv.trace_digest = hashlib.sha256(data).hexdigest()
        inv.trace_bytes = len(data)
        inv.trace_events = data.count(b"\n") - 1  # first line is the header
        trace_path.unlink()
    return inv


def check_invocation(checks: Checks, w: Workload, inv: Invocation, first: Invocation) -> None:
    """Exit status, table shape, and byte-identical output across repetitions."""
    checks.add(f"{inv.mode} exit code", inv.exit_code == 0, f"{inv.exit_code}: {inv.stderr[-300:]}")
    if inv.exit_code != 0:
        return
    lines = [line for line in inv.csv_text.splitlines() if not line.startswith("#")]
    rows = w.splits if w.subcommand == "sweep" else w.nodes
    checks.add(
        "csv shape",
        len(lines) == rows + 1 and lines[0].split(",") == EXPECTED_HEADER[w.subcommand],
        f"{len(lines)} lines",
    )
    if inv is not first:
        checks.add(
            "deterministic output",
            (inv.csv_digest, inv.trace_digest) == (first.csv_digest, first.trace_digest),
            "CSV or trace differs between repetitions of one config",
        )


def check_digests(checks: Checks, w: Workload, seed: int, first: Invocation) -> None:
    recorded = json.loads(DIGESTS.read_text()).get(w.name) if DIGESTS.exists() else None
    if recorded is None or recorded["seed"] != seed:
        return
    checks.add("recorded CSV digest", first.csv_digest == recorded["csv"], "CSV bytes changed")
    if recorded["trace"] is not None:
        checks.add("recorded trace digest", first.trace_digest == recorded["trace"], "trace changed")


def record_digests(w: Workload, seed: int, first: Invocation) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[w.name] = {"seed": seed, "csv": first.csv_digest, "trace": first.trace_digest or None}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")


def repeat(workdir: Path, w: Workload, seconds: float, modes: tuple[str, ...], min_rounds: int):
    """Run rounds of `modes` until the next round would end after `seconds`."""
    reps: list[Invocation] = []
    round_s: list[float] = []
    start = time.monotonic()
    while len(round_s) < min_rounds or (
        time.monotonic() - start + statistics.median(round_s) <= seconds
    ):
        t0 = time.monotonic()
        for mode in modes:
            reps.append(spawn(mode, workdir, w, run_id=len(reps)))
        round_s.append(time.monotonic() - t0)
    return reps


def high_percentile(values: list[float]) -> str:
    """The highest percentile above the median with ten samples beyond it."""
    n = len(values)
    p = math.floor(100 * (n - 10) / n)
    if p <= 50:
        return f"n={n}: no percentile above the median has 10 samples beyond it"
    return f"n={n}, p{p} {sorted(values)[math.ceil(p / 100 * n) - 1]:.6g}"


def summary_line(name: str, unit: str, values: list[float]) -> str:
    med = statistics.median(values)
    return (
        f"  {name:<18} median {med:.6g} {unit}  min {min(values):.6g}  max {max(values):.6g}"
        f"  ({high_percentile(values)})"
    )


def end_to_end(w: Workload, setups: list[Invocation], reps: list[Invocation]) -> dict[str, list]:
    walls = [r.wall_s for r in reps]
    return {
        "wall_s": walls,
        "setup_s": [r.setup_s for r in setups + reps],
        "node_slots_per_s": [w.node_slots / t for t in walls],
        "peak_rss_mb": [r.peak_rss_mb for r in reps],
    }


def per_layer(check: Invocation, plain: list[Invocation], traced: list[Invocation]) -> dict:
    samples: dict[str, list[float]] = {}
    for inv in traced:
        layer = tracer.aggregate(inv.stamp.get("spans", []))
        layer.update(inv.stamp.get("counters", dict.fromkeys(tracer.COUNTERS, 0)))
        layer["cli.trace_bytes"] = inv.trace_bytes
        layer["cli.trace_events"] = inv.trace_events
        for name, value in layer.items():
            samples.setdefault(name, []).append(value)
    metrics = {
        name: statistics.median(values) if name.endswith("_s") else statistics.median_low(values)
        for name, values in samples.items()
    }
    metrics["check.aoi_from_event_log_s"] = check.stamp.get("check_aoi_s", 0.0)
    metrics["trace.overhead_s"] = statistics.median(
        r.wall_s for r in traced
    ) - statistics.median(r.wall_s for r in plain)
    return metrics


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes") or name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def measure_end_to_end(workdir: Path, w: Workload, seconds: float, checks: Checks):
    setups = [spawn("import", workdir, w, run_id=i) for i in range(SETUP_SPAWNS)]
    reps = repeat(workdir, w, seconds, ("plain",), MIN_REPS)
    for inv in reps:
        check_invocation(checks, w, inv, reps[0])
    samples = end_to_end(w, setups, reps)
    metrics = {
        name: (statistics.median(values), END_TO_END_UNITS[name])
        for name, values in samples.items()
    }
    lines = [summary_line(n, END_TO_END_UNITS[n], v) for n, v in samples.items()]
    return reps, metrics, lines


def measure_layers(workdir: Path, w: Workload, seconds: float, checks: Checks):
    check = spawn("check", workdir, w, run_id=0)
    check_invocation(checks, w, check, check)
    for name, ok, detail in check.stamp.get("checks", []):
        checks.add(name, ok, detail)
    checks.add(
        "node slots",
        check.stamp.get("node_slots") == w.node_slots,
        f"{check.stamp.get('node_slots')} simulated, expected {w.node_slots}",
    )
    reps = repeat(workdir, w, seconds, ("plain", "trace"), MIN_TRACED_PAIRS)
    for inv in reps:  # tracing must not change a byte of the verified output
        check_invocation(checks, w, inv, check)
    plain = [r for r in reps if r.mode == "plain"]
    traced = [r for r in reps if r.mode == "trace"]
    layer = per_layer(check, plain, traced)
    metrics = {name: (value, layer_unit(name)) for name, value in layer.items()}
    return reps, metrics, _layer_lines(layer, plain, traced)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, record: bool):
    """Returns (checks, metrics as name -> (value, unit), human-readable lines)."""
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{w.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        (workdir / "config.ini").write_text(make_config(w, seed))
        warm = spawn("import", workdir, w, run_id=0)  # also writes bytecode caches
        src = ROOT / "src"
        if warm.exit_code != 0 or not Path(warm.stamp["cli_file"]).is_relative_to(src):
            raise SetupFailed(f"cannot import agecourier.cli from {src}: {warm.stderr}")
        lines = [
            f"workload {w.name} (seed {seed}): {w.subcommand}, {w.nodes} nodes, "
            f"{w.runs} simulated runs x horizon {w.horizon}, {w.node_slots} node slots",
            f"machine: nproc {os.cpu_count()}, RAM {_ram_gib():.1f} GiB, "
            f"python {warm.stamp['python']}, numpy {warm.stamp['numpy']}",
        ]
        checks = Checks()
        measure = measure_layers if trace else measure_end_to_end
        reps, metrics, measured = measure(workdir, w, seconds, checks)
        lines += measured
        if record:
            record_digests(w, seed, reps[0])
        check_digests(checks, w, seed, reps[0])
        rate = len(checks.failures) / checks.attempted
        lines.append(
            f"  {'error_rate':<18} {rate:.6g} ratio  "
            f"({len(checks.failures)} of {checks.attempted} output checks failed)"
        )
        lines += [f"  FAILED {f}" for f in checks.failures]
        return checks, metrics, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()


def _layer_lines(layer: dict, plain: list[Invocation], traced: list[Invocation]) -> list[str]:
    selfs = {
        name[: -len(".self_s")]: value
        for name, value in layer.items()
        if name.endswith(".self_s") and name != "sim_engine.run.self_s"
    }
    selfs["sim_engine.run.cold"] = layer["sim_engine.run.cold_s"]
    selfs["sim_engine.run.warm"] = layer["sim_engine.run.warm_s"]
    top = max(selfs, key=selfs.get)
    lines = [
        f"  untraced wall_s median {statistics.median(r.wall_s for r in plain):.6g} s "
        f"(n={len(plain)}), traced {statistics.median(r.wall_s for r in traced):.6g} s "
        f"(n={len(traced)}), tracing overhead {layer['trace.overhead_s']:.6g} s",
        f"  largest self time: {top} {selfs[top]:.6g} s",
    ]
    for name in sorted(layer):
        lines.append(f"  {name:<45} {layer[name]:.6g} {layer_unit(name)}")
    return lines


def _ram_gib() -> float:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this seed's CSV and trace digests in digests.json "
        "(after an intended output change)",
    )
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = 0
    failed = 0
    metrics = {}
    for name in names:
        try:
            checks, values, lines = run_workload(
                WORKLOADS[name], args.seed, args.seconds, bool(args.trace), args.record
            )
        except SetupFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)
        attempted += checks.attempted
        failed += len(checks.failures)
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, (value, unit) in values.items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
