"""Minimum-cost repair planning and network-code verification for
multi-hop distributed storage systems."""

from .netmodel import (
    CostMatrix,
    NetworkSpec,
    TopologyError,
    baseline_cost,
    build_topology,
    spec_from_json,
    spec_to_json,
)
from .flowgraph import (
    ConstraintSet,
    FlowGraph,
    build_flow_graph,
    check_feasible,
    enumerate_cut_constraints,
    repair_cuts,
)
from .lpcore import LPSolution, solve_min_cost, verify_dual
from .coder import (
    CodeState,
    RepairPlan,
    compute_n_nc,
    field_size_bound,
    init_code,
    make_plan,
    regenerate,
    run_repair,
    simulate_stages,
    verify_rcp,
)
from .exacttandem import VandermondeCode, exact_repair, init_vandermonde
from .bounds import (
    GainReport,
    compare_lp_to_bounds,
    gain_star_noncentral,
    gain_tandem_endnode,
    msr_beta,
    star_lower_bound,
    tandem_lower_bound,
)

__version__ = "0.1.0"
