"""Energy routing over vehicular networks.

EVs carry small energy packets between junctions equipped with wireless
transfer and storage; energy paths chain vehicular-route segments from a
source to a destination. This package enumerates energy paths, assigns
transmission rates by linear programming (over the full path set or a
sampled subset), and offers a greedy min-cycle heuristic, plus scenario
generators and experiment drivers.
"""

from .energy import (
    EnergyParams,
    EnergyPath,
    PlanEntry,
    TransmissionPlan,
    build_energy_path,
    make_plan,
    path_loss,
    plan_totals,
    transferable_energy,
)
from .errors import (
    ConsistencyError,
    DomainError,
    EnumerationCapError,
    ScenarioFormatError,
    SolverError,
    StructuralError,
    VenError,
)
from .experiments import Instance, ResultRow, ResultTable, prepare, run_compare, run_growth
from .heuristic import HeuristicResult, heuristic_min_loss
from .network import (
    AccessibilityGraph,
    Arc,
    VehicularNetwork,
    VehicularRoute,
    build_accessibility_graph,
    normalize_routes,
    prune_unreachable,
)
from .pathenum import (
    PathSet,
    enumerate_bounded,
    enumerate_paths,
    enumerate_sequences,
    expand_to_paths,
    f_bound,
    f_closed_bound,
)
from .rateopt import (
    LossMinProblem,
    LpSolution,
    build_lp,
    max_deliverable,
    solve_min_loss,
)
from .scenario_io import dumps_scenario, load_scenario, loads_scenario, save_scenario
from .scenarios import (
    Scenario,
    generate_corridor,
    generate_grid,
    generate_random,
)

__version__ = "0.1.0"
