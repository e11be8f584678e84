"""Nonlinear solvers for the assembled residual systems.

Three methods share the same interface: two-colour Gauss-Seidel sweeps
(each node solved to its unique local root: bracketed root finding at a
vertex node, one exact Newton step at an edge node, whose row is affine in
its own value with slope own_coeff, for every other node along each edge at
once), a damped semismooth Newton iteration with a sparse Jacobian, and a
hybrid.  The Jacobian is read off the stencil, with no residual() call: an
edge row's coefficients are exact but for one central quotient of H in the
central slope, from two table calls per Jacobian, and only the vertex rows
take central differences, over their own inputs.  The entries go straight
into Grid.border's network form, a tridiagonal edge block bordered by the
vertex rows and columns: one LAPACK call and a V x V solve.

The hybrid is one predictor-corrector: Newton corrects the start given
(a previous viscosity step, a coarser rung of a ladder), else the same
system solved on the grid with half as many cells per edge and prolonged,
nested down to a coarsest level that starts from zero (Brandt, Math. Comp.
31, 1977).  From such a start Newton's count does not grow with the mesh
(Allgower, Bohmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23, 1986).
The discrete solution is unique, so the start changes the cost, not the
answer.  A coarse level only predicts: whatever Newton reaches there
starts the next level.  Only where Newton fails on the target grid does the
sweep-warmed hybrid run, once, from the target grid's start.

Barriers are network-wide super- and subsolutions of the discrete scheme,
found by doubling the two constants of a tent-shaped profile until the
residual signs certify them directly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

from .discretization import JUNCTION_MODES, Grid, GridFunction, ResidualSystem, assemble
from .errors import BarrierConstructionFailed, LocalRootBracketFailed, SingularLinearization
from .problem import NetworkProblem


MAX_NEWTON = 60  # Newton iterations per newton_solve
WARMUP_SWEEPS = 5  # Gauss-Seidel sweeps before the fallback's Newton
MIN_LEVEL_NODES = 21  # fewest nodes per edge on a coarse level of the hybrid
NEWTON_FD_STEP = 1e-7  # largest finite-difference step of the Jacobian
BRACKET_WIDTH = 1.0  # solve_node's first bracket half-width
MAX_DOUBLINGS = 80  # bracket doublings per side in solve_node
TENT_ROUNDING = 0.25  # rounding radius of the barrier's tent profile
BARRIER_INITIAL = 1.0  # first barrier constant A and slope B
BARRIER_GROWTH = 4.0  # factor between barrier trial constants
BARRIER_ROUNDS = 12  # trial slopes B; each tries BARRIER_ROUNDS + 4 constants A
BARRIER_SLACK = 1e-9  # residual sign tolerance per unit of max(1, A, B)
MULTISTART_OFFSETS = (-10.0, -1.0, 0.0, 1.0, 10.0)  # acceptance criterion 3
METHODS = ("sweep", "newton", "hybrid")  # solve_system's methods


@dataclass
class SolveConfig:
    """solve_system's options: method in METHODS, tol finite and > 0,
    max_sweeps an integer >= 1, else ValueError.  A CLI config's `solver`
    section sets them and `epsilon` (finite, >= 0) and `junction_mode`,
    `grid` sets `nodes_per_edge`, `analysis` `window`; the CLI exits 3 on a
    fractional integer or an unknown key, top-level keys being `catalog`,
    `network`, `problem` and the sections."""

    method: str = "hybrid"
    tol: float = 1e-10
    max_sweeps: int = 2000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")
        if not (isinstance(self.max_sweeps, numbers.Integral) and self.max_sweeps >= 1):
            raise ValueError(f"max_sweeps must be an integer >= 1, got {self.max_sweeps}")


def _threshold(tol: float, u: np.ndarray) -> float:
    """Convergence threshold tol * max(1, max|u|), relative to the solution
    scale only.  It has no h-dependent round-off floor: the floor of the
    second difference, about eps_mach * a * |u| / h^2, can exceed it on fine
    grids."""
    return tol * max(1.0, float(np.max(np.abs(u))))


@dataclass
class SolveResult:
    u: GridFunction
    converged: bool
    residual_norm: float
    iterations: int
    method: str
    message: str = ""


# ---------------------------------------------------------------------------
# Barriers


@dataclass
class Barriers:
    lower: GridFunction
    upper: GridFunction
    offset: float  # the A constant
    slope: float  # the B constant


def _tent_values(grid: Grid, slope: float) -> np.ndarray:
    """Smooth tent profile per edge, zero at vertices, inward endpoint
    slope close to -slope, curvature bounded through TENT_ROUNDING."""
    r = TENT_ROUNDING

    def prof(eid, x):
        length = grid.network.edge(eid).length
        s = 2.0 * np.asarray(x, dtype=float) / length - 1.0
        g = (np.sqrt(1.0 + r * r) - np.sqrt(s * s + r * r)) / 2.0
        return -slope * length * g

    return GridFunction.from_profile(grid, prof).values


def build_barriers(system: ResidualSystem) -> Barriers:
    """Super/subsolution pair certified by the residual signs themselves.

    The upper barrier is A + Theta with Theta a tent profile of endpoint
    slope -B on every edge, so every vertex sees strongly negative inward
    slopes; the lower barrier is its negative.  A and B grow from
    BARRIER_INITIAL by BARRIER_GROWTH until residual(upper) >= 0 and
    residual(lower) <= 0 at every node, to within BARRIER_SLACK.
    """
    grid = system.grid
    for i in range(BARRIER_ROUNDS):
        b = BARRIER_INITIAL * BARRIER_GROWTH ** i
        theta = _tent_values(grid, b)
        for j in range(BARRIER_ROUNDS + 4):
            a = BARRIER_INITIAL * BARRIER_GROWTH ** j
            upper = a + theta
            lower = -upper
            tol = BARRIER_SLACK * max(1.0, a, b)
            if (np.all(system.residual(upper) >= -tol)
                    and np.all(system.residual(lower) <= tol)):
                return Barriers(GridFunction(grid, lower),
                                GridFunction(grid, upper), a, b)
    raise BarrierConstructionFailed(
        f"no certified barrier after {BARRIER_ROUNDS} doubling rounds"
    )


# ---------------------------------------------------------------------------
# Gauss-Seidel sweeps


def solve_node(system: ResidualSystem, gid: int, u: np.ndarray) -> float:
    """Root of the node residual in its own value; the residual is strictly
    increasing there, so sign-change bracketing by doubling (from
    BRACKET_WIDTH, at most MAX_DOUBLINGS times per side) always works.

    sweep_solve needs it only at vertex nodes, whose couplings, ghost
    corrections, minmax clauses and state constraints are not affine; an
    edge row is, and takes the closed-form step with own_coeff instead."""
    from scipy.optimize import brentq  # lazy: importing it slows every knet start
    def f(v):
        u[gid] = v
        return system.residual_node(gid, u)

    center = float(u[gid])
    lo, hi = center - BRACKET_WIDTH, center + BRACKET_WIDTH
    for _ in range(MAX_DOUBLINGS):
        if f(lo) <= 0.0:
            break
        lo = center - 2.0 * (center - lo)
    else:
        raise LocalRootBracketFailed(f"node {gid}: no sign change below")
    for _ in range(MAX_DOUBLINGS):
        if f(hi) >= 0.0:
            break
        hi = center + 2.0 * (hi - center)
    else:
        raise LocalRootBracketFailed(f"node {gid}: no sign change above")
    root = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
    u[gid] = root
    return float(root)


def _relax_vertices(system: ResidualSystem, gids, u: np.ndarray,
                    skip_below: float) -> None:
    for j in gids:
        if abs(system.residual_node(j, u)) > skip_below:
            solve_node(system, j, u)


def sweep_solve(system: ResidualSystem, config: SolveConfig,
                u0: Optional[GridFunction] = None) -> SolveResult:
    """Odd sweeps solve the vertex nodes in gid order, then edge class 0,
    then class 1; even sweeps the reverse.  The discrete solution is unique
    (comparison principle), so the order changes the iterates, not the limit."""
    u = (GridFunction.zeros(system.grid) if u0 is None else u0.copy()).values
    skip_below = 0.05 * config.tol
    vertices = range(len(system.grid.network.vertices))
    norm = system.residual_norm(u)
    it = 0
    for it in range(1, config.max_sweeps + 1):
        if it % 2:
            _relax_vertices(system, vertices, u, skip_below)
            system.relax_edge_class(0, u, skip_below)
            system.relax_edge_class(1, u, skip_below)
        else:
            system.relax_edge_class(1, u, skip_below)
            system.relax_edge_class(0, u, skip_below)
            _relax_vertices(system, reversed(vertices), u, skip_below)
        norm = system.residual_norm(u)
        if norm <= _threshold(config.tol, u):
            break
    threshold = _threshold(config.tol, u)
    converged = norm <= threshold
    message = "" if converged else (
        f"reached max_sweeps={config.max_sweeps} at residual {norm:.3g} "
        f"> threshold {threshold:.3g}")
    return SolveResult(GridFunction(system.grid, u), converged, norm, it,
                       "sweep", message)


# ---------------------------------------------------------------------------
# Semismooth Newton


def _fd_jacobian(system: ResidualSystem, u: np.ndarray, step: float) -> dict:
    """Jacobian of the residual at u, read off the stencil by
    system.jacobian_entries (exact edge coefficients but for H's central
    quotient, central differences at vertex rows; no residual() call) and
    written straight into spsolve's network form, Grid.border's blocks.

    Central differencing matters: at kinks of the numerical Hamiltonian a
    one-sided difference is not an element of the generalized Jacobian (it
    turns |p| into a sum of both neighbors), while the central quotient
    picks the midpoint slope and keeps the linearization monotone.
    """
    vals = system.jacobian_entries(u, step)
    jac = {}
    for name, (shape, at, flat) in system.grid.border.items():
        jac[name] = np.zeros(shape)
        jac[name].flat[flat] = vals[at]
    return jac


def spsolve(jac: dict, b: np.ndarray) -> np.ndarray:
    """Solve J x = b for J in _fd_jacobian's network form: one LAPACK dgtsv
    call solves T [y0 | X] = [b_int | B] over every edge chain, the Schur
    complement (D - C X) x_v = b_v - C y0 the vertex unknowns, and
    x_int = y0 - X x_v (Arioli & Benzi, IMA J. Numer. Anal. 38, 2018).  T is
    nonsingular, every edge row strictly diagonally dominant: own_coeff
    lam + 2(a+eps)/h^2 + theta/h > |left| + |right| = 2(a+eps)/h^2 + theta/h
    when H's central quotient |q| <= theta, its Lipschitz bound.  A zero
    pivot of T or a singular Schur complement raises SingularLinearization.
    Named spsolve because perfbench's tracer times knet.solver.spsolve and
    _fd_jacobian as its solver.linear_solve and solver.jacobian layers."""
    nv = len(jac["D"])
    *_, y, info = dgtsv(jac["dl"], jac["d"], jac["du"],
                        np.column_stack([b[nv:], jac["B"]]), overwrite_b=True)
    if info:
        raise SingularLinearization(f"dgtsv: zero pivot {info} in the edge block")
    try:
        xv = np.linalg.solve(jac["D"] - jac["C"] @ y[:, 1:], b[:nv] - jac["C"] @ y[:, 0])
    except np.linalg.LinAlgError as exc:
        raise SingularLinearization(f"vertex Schur complement: {exc}") from exc
    return np.concatenate([xv, y[:, 0] - y[:, 1:] @ xv])


def newton_solve(system: ResidualSystem, config: SolveConfig,
                 u0: Optional[GridFunction] = None) -> SolveResult:
    u = (GridFunction.zeros(system.grid) if u0 is None else u0.copy()).values
    r = system.residual(u)
    norm = float(np.max(np.abs(r)))
    it = 0
    message = ""
    h = min(system.grid.spacing.values())
    for it in range(1, MAX_NEWTON + 1):
        if norm <= _threshold(config.tol, u):
            it -= 1
            break
        # near kinks the linearization error is O(step/h), so polish with a
        # step small against the residual times the mesh size
        step = float(np.clip(0.1 * h * norm, 1e-13, NEWTON_FD_STEP))
        with np.errstate(all="ignore"):
            du = spsolve(_fd_jacobian(system, u, step), -r)
        if not np.all(np.isfinite(du)):
            raise SingularLinearization("non-finite Newton direction")
        t = 1.0
        accepted = False
        for _ in range(40):
            trial = u + t * du
            r_try = system.residual(trial)
            n_try = float(np.max(np.abs(r_try)))
            if (n_try <= _threshold(config.tol, trial)
                    or n_try < norm * (1.0 - 1e-4 * t)):
                u, r, norm = trial, r_try, n_try
                accepted = True
                break
            t *= 0.5
        if not accepted:
            message = f"line search stalled at iteration {it} at residual {norm:.3g}"
            break
    converged = norm <= _threshold(config.tol, u)
    if not converged and not message:
        message = f"reached MAX_NEWTON={MAX_NEWTON} iterations at residual {norm:.3g}"
    return SolveResult(GridFunction(system.grid, u), converged, norm, it,
                       "newton", message)


# ---------------------------------------------------------------------------
# Hybrid driver


def _newton(system: ResidualSystem, config: SolveConfig, u0) -> SolveResult:
    """newton_solve, with a singular linearization returned as unconverged."""
    try:
        return newton_solve(system, config, u0)
    except SingularLinearization as exc:
        u = GridFunction.zeros(system.grid) if u0 is None else u0
        return SolveResult(u, False, np.inf, 0, "newton",
                           f"hit a singular linearization ({exc})")


def _sweep_warmed(system: ResidualSystem, config: SolveConfig, u0) -> SolveResult:
    """WARMUP_SWEEPS sweeps, Newton, then sweeps up to max_sweeps; the
    message names Newton's stopping cause when the last sweeps ran.  Their
    iterate is returned unless Newton's has the lower residual."""
    warm = sweep_solve(system, replace(config, max_sweeps=WARMUP_SWEEPS), u0)
    if warm.converged:
        return warm
    res = _newton(system, config, warm.u)
    if not res.converged:
        last = sweep_solve(system, config, res.u)
        kept = last.residual_norm > res.residual_norm  # sweeps can raise the residual
        res = replace(res if kept else last, iterations=res.iterations + last.iterations,
                      message=f"newton {res.message}; fell back to sweeps"
                      + (f", which {last.message}" if last.message else "")
                      + (f"; kept newton's iterate, at residual {res.residual_norm:.3g}"
                         if kept else ""))
    return replace(res, iterations=warm.iterations + res.iterations)


def _level_name(grid: Grid) -> str:
    return "n=" + "/".join(map(str, sorted(set(grid.nodes_per_edge.values()))))


def _nested(system: ResidualSystem, config: SolveConfig, u0):
    """Newton from u0, else from this system solved the same way on the
    grid with half as many cells per edge and prolonged, else (where an
    edge would keep fewer than MIN_LEVEL_NODES) from zero.  Returns Newton's
    result, counting every level's iterations, its start, and each level's
    Newton count, coarsest first.  A coarse level only predicts, so it is
    not probed and falls back nowhere: its Newton result is the start."""
    counts, spent = [], 0
    coarse = {eid: (n - 1) // 2 + 1 for eid, n in system.grid.nodes_per_edge.items()}
    if u0 is None and min(coarse.values()) >= MIN_LEVEL_NODES:
        cres, _, counts = _nested(assemble(
            system.problem, Grid(system.problem.network, coarse), eps=system.eps,
            junction_mode=system.junction_mode, probe_samples=0), config, None)
        u0, spent = cres.u.on_grid(system.grid), cres.iterations
    res = _newton(system, config, u0)
    counts.append(f"{res.iterations} at {_level_name(system.grid)}")
    return replace(res, iterations=spent + res.iterations), u0, counts


def solve_system(system: ResidualSystem, config: Optional[SolveConfig] = None,
                 u0: Optional[GridFunction] = None) -> SolveResult:
    """Solve by config.method from u0.  The hybrid's message names its start
    (given, coarser grid or zero), each level's Newton count and, where
    Newton fails on this grid, the sweep-warmed hybrid run there from the
    same start."""
    config = config or SolveConfig()
    if config.method == "sweep":
        return sweep_solve(system, config, u0)
    if config.method == "newton":
        return newton_solve(system, config, u0)
    res, start, counts = _nested(system, config, u0)
    note = ""
    if not res.converged:
        fallback = _sweep_warmed(system, config, start)
        note = (f"; at {_level_name(system.grid)} newton {res.message}; ran the "
                "sweep-warmed hybrid"
                + (f": {fallback.message}" if fallback.message else ""))
        res = replace(fallback, iterations=res.iterations + fallback.iterations)
    kind = "given" if u0 is not None else "coarser grid" if len(counts) > 1 else "zero"
    return replace(res, method="hybrid", message=f"start: {kind}; newton iterations "
                   f"per level: {', '.join(counts)}" + note)


def solve_problem(problem: NetworkProblem, nodes_per_edge, eps: float = 0.0,
                  junction_mode: str = JUNCTION_MODES[0],
                  config: Optional[SolveConfig] = None,
                  u0: Optional[GridFunction] = None) -> SolveResult:
    """Assemble on a fresh grid, certify monotonicity, and solve."""
    grid = Grid(problem.network, nodes_per_edge)
    system = assemble(problem, grid, eps=eps, junction_mode=junction_mode)
    return solve_system(system, config, u0)


def multistart_solve(system: ResidualSystem, config: Optional[SolveConfig] = None):
    """Solve from each constant of MULTISTART_OFFSETS; used to probe
    uniqueness (acceptance criterion 3).  Each constant is a start on the target grid,
    corrected there, not a coarse-grid start nested upward: nesting would
    separate the starts on the coarsest grid only, and the criterion asks
    whether the target system's solution depends on the start."""
    return [solve_system(system, config, GridFunction.full(system.grid, c))
            for c in MULTISTART_OFFSETS]


# ---------------------------------------------------------------------------
# Vanishing viscosity continuation


@dataclass
class ViscosityStep:
    eps: float
    result: SolveResult
    sup_diff_full: float
    sup_diff_interior: dict  # delta -> sup over nodes at distance >= delta


@dataclass
class ViscositySweep:
    base: SolveResult  # the eps = 0 solution on the same grid
    steps: list
    deltas: tuple


def vanishing_viscosity(problem: NetworkProblem, nodes_per_edge, schedule,
                        junction_mode: str = JUNCTION_MODES[0],
                        config: Optional[SolveConfig] = None,
                        deltas=None) -> ViscositySweep:
    """Solve along a decreasing viscosity schedule, each step from the
    solution of the one before, and report sup-differences to the
    zero-viscosity solution, both globally and away from the boundary.
    The eps = 0 base is solved with no start given."""
    config = config or SolveConfig()
    grid = Grid(problem.network, nodes_per_edge)
    if deltas is None:
        m = problem.network.min_edge_length
        deltas = tuple(f * m for f in (0.05, 0.1, 0.2))
    dist = grid.boundary_distances()

    base_sys = assemble(problem, grid, eps=0.0, junction_mode=junction_mode)
    base = solve_system(base_sys, config)

    steps = []
    warm = base.u
    for eps in sorted(set(float(e) for e in schedule), reverse=True):
        system = assemble(problem, grid, eps=eps, junction_mode=junction_mode)
        res = solve_system(system, config, warm)
        warm = res.u
        diff = np.abs(res.u.values - base.u.values)
        interior = {float(d): float(np.max(diff[dist >= d - 1e-12], initial=0.0))
                    for d in deltas}
        steps.append(ViscosityStep(eps, res, float(np.max(diff)), interior))
    return ViscositySweep(base, steps, tuple(float(d) for d in deltas))
