"""Age-of-information-aware allocation and simulation of sensing and courier
robots on connected graphs.

The package covers the full pipeline: validate a graph with a fixed base node,
extract hop distances and a shortest-path tree, lay a closed walk over the tree
for courier conveyors, stagger the conveyors with phase offsets, allocate
sensing robots across nodes by water-filling, simulate the joint system slot by
slot with exact age accounting, and sweep the sensing/conveying split.
"""

__version__ = "0.1.0"

from .graph_core import (
    Graph,
    ShortestPathTree,
    build_graph,
    bfs_distances,
    shortest_path_tree,
)
from .conveyor_plan import (
    EulerWalk,
    PhaseSet,
    euler_walk,
    uniform_phases,
    clustered_phases,
    random_phases,
)
from .sensing_alloc import (
    SensingModel,
    SensingAllocation,
    make_model,
    mu,
    success_probability,
    allocation_objective,
    water_fill,
    uniform_alloc,
)
from .sim_engine import (
    EnergyParams,
    DeliveryLog,
    SimConfig,
    SimResult,
    ConveyorEnergyStats,
    CoverageReport,
    generation_mask,
    run,
    run_energy,
    aoi_from_event_log,
    coverage_audit,
)
from .analysis import (
    BoundReport,
    SweepCell,
    PhaseRow,
    lower_bound,
    split_sweep,
    phase_comparison,
    seed_runs,
    mean_std,
)
from .config import (
    ExperimentConfig,
    ConfigError,
    parse_config,
    load_config,
    render_config,
)
