"""The README's library tour runs as written against the current API, its
example config runs through the CLI, its config reference lists exactly the
keys the parser accepts, and the package exports exactly the public names
pinned here."""

import math
import re
import types
from pathlib import Path

import pytest

import agecourier as ac
from agecourier.cli import main
from agecourier.config import _KNOWN_KEYS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs():
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    block = re.search(r"```python\n(.*?)```", tour, re.DOTALL)
    assert block is not None, "README library tour has no python block"
    namespace: dict = {}
    exec(compile(block.group(1), str(README), "exec"), namespace)
    assert math.isfinite(namespace["res"].network_aoi)


@pytest.mark.parametrize(
    "command, header",
    [
        ("bound", "node,bound"),
        ("waterfill", "node,alpha,m,mu,q"),
        ("walk", "step,node"),
        ("audit", "full coverage: true"),
        ("simulate", "node,mean_aoi,std_aoi,bound,delta"),
    ],
)
def test_readme_example_config_runs(tmp_path, capsys, command, header):
    assert _example_output(tmp_path, capsys, command)[0] == header


def test_readme_example_phases_compare_schedules_at_the_configured_n_c(tmp_path, capsys):
    # the example has no [phases] section, so `phases` reads [conveyors] n_c
    rows = [line.split(",")[:2] for line in _example_output(tmp_path, capsys, "phases")]
    names = ("uniform", "clustered", *(f"random{j}" for j in range(5)))
    schedules = [[name, "14"] for name in names]
    assert rows == [["strategy", "n_c"], *schedules, ["bound", ""]]


def _example_output(tmp_path, capsys, command) -> list[str]:
    """The lines that `command` prints on the README example config, comments dropped."""
    text = README.read_text(encoding="utf-8")
    example = text[text.index("### Example config") : text.index("### Config reference")]
    block = re.search(r"```ini\n(.*?)```", example, re.DOTALL)
    assert block is not None, "README example config has no ini block"
    path = tmp_path / "example.ini"
    path.write_text(block.group(1))
    assert main([command, "--config", str(path)]) == 0
    return [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]


def test_readme_config_reference_lists_every_known_key():
    text = README.read_text(encoding="utf-8")
    table = text[text.index("### Config reference") : text.index("### Output formats")]
    listed = set()
    for row in re.findall(r"^\| (\w+) \| (.+?) \|", table, re.MULTILINE):
        section, keys = row
        listed.update((section, key) for key in re.findall(r"`(\w+)`", keys))
    known = {(section, key) for section, keys in _KNOWN_KEYS.items() for key in keys}
    assert listed == known


# every public non-module name `agecourier` exports, so a name is added to or
# dropped from the public API only on purpose
PUBLIC_NAMES = {
    "BoundReport", "ConfigError", "ConveyorEnergyStats", "CoverageReport", "DeliveryLog",
    "EnergyParams", "EulerWalk", "ExperimentConfig", "Graph", "PhaseRow", "PhaseSet",
    "SensingAllocation", "SensingModel", "ShortestPathTree", "SimConfig", "SimResult",
    "SweepCell", "allocation_objective", "aoi_from_event_log", "bfs_distances",
    "build_graph", "clustered_phases", "coverage_audit", "euler_walk",
    "generation_mask", "load_config", "lower_bound", "make_model", "mean_std",
    "mu", "parse_config", "phase_comparison", "random_phases",
    "render_config", "run", "run_energy", "seed_runs",
    "shortest_path_tree", "split_sweep", "success_probability", "uniform_alloc",
    "uniform_phases", "water_fill",
}


def test_public_surface_is_pinned():
    exported = {
        name for name, value in vars(ac).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES
