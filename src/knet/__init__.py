"""Solver and verifier for degenerate elliptic Hamilton-Jacobi equations
on finite metric networks with vertex couplings."""

__version__ = "0.1.0"

from .analysis import (
    DiagnosticsReport,
    JunctionSlopes,
    ProbeFunction,
    boundary_loss_report,
    check_degenerate_edge_inequalities,
    diagnostics_report,
    estimate_junction_slopes,
    lipschitz_on_interior,
    probe_viscosity,
)
from .catalog import CatalogEntry, all_entries, eikonal_problem, entry_by_name, random_problem
from .discretization import Grid, GridFunction, ResidualSystem, assemble
from .errors import KnetError
from .network import (
    Edge,
    Network,
    NetworkPoint,
    Vertex,
    build_network,
    network_from_json,
    star_junction,
)
from .oracle import (
    ReferenceSolution,
    direct_linear_solve,
    fine_grid_reference,
    flux_limited_reference,
    observed_orders,
    reference_for,
    richardson_order,
    self_convergence_order,
    sup_error,
)
from .problem import (
    Diffusion,
    Hamiltonian,
    KirchhoffCondition,
    NetworkProblem,
    advection,
    constant_diffusion,
    eikonal,
    linear_vanish,
    make_kirchhoff,
    polynomial_diffusion,
    problem_from_json,
    validate_problem,
)
from .solver import (
    Barriers,
    SolveConfig,
    SolveResult,
    build_barriers,
    multistart_solve,
    newton_solve,
    solve_problem,
    solve_system,
    sweep_solve,
    vanishing_viscosity,
)
