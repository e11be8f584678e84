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
31, 1977).  An affine system (ResidualSystem.affine) needs no predictor:
Newton's first step solves it from any start, so it starts from zero on
its own grid.  From such a start Newton's count does not grow with the mesh
(Allgower, Bohmer, Potra & Rheinboldt, SIAM J. Numer. Anal. 23, 1986).
The discrete solution is unique, so the start changes the cost, not the
answer.  A coarse level only predicts: whatever Newton reaches there
starts the next level.  Where Newton fails on the target grid, the hybrid
alternates WARMUP_SWEEPS sweeps and Newton, each run from the iterate the
last one returned, never from the level's start again (Kelley, Solving
Nonlinear Equations with Newton's Method, SIAM 2003, ch. 1-2).

Barriers are network-wide super- and subsolutions of the discrete scheme,
found by doubling the two constants of a tent-shaped profile until the
residual signs certify them directly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .discretization import Grid, GridFunction, ResidualSystem, assemble
from .errors import BarrierConstructionFailed, LocalRootBracketFailed, SingularLinearization
from .problem import NetworkProblem


MAX_NEWTON = 60  # Newton iterations per newton_solve
WARMUP_SWEEPS = 5  # Gauss-Seidel sweeps before Newton in each of the hybrid's rounds
MIN_LEVEL_NODES = 21  # fewest nodes per edge on a coarse level of the hybrid
ROUNDOFF_FACTOR = 4.0  # _threshold's round-off floor, in eps_mach * max(own_coeff)
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
    max_sweeps an integer >= 1, else ValueError."""

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


def _floor(system: ResidualSystem) -> float:
    """The round-off floor ROUNDOFF_FACTOR * eps_mach * max(own_coeff) that
    _threshold adds to tol."""
    return ROUNDOFF_FACTOR * np.finfo(float).eps * float(system.own_coeff.max())


def _threshold(tol: float, floor: float, u: np.ndarray) -> float:
    """Convergence threshold (tol + floor) * max(1, max|u|), floor the
    system's round-off floor (_floor).

    A row sums terms whose coefficients are at most own_coeff in size and,
    the row being monotone, at most 2 * own_coeff in sum (|left| + |right|
    <= own_coeff - lam on an edge row).  Evaluated in floating point, each
    term and the sum carry a rounding error of eps_mach relative to
    coefficient * |u|, so the computed residual of the exact discrete
    solution is of order eps_mach * own_coeff * |u| (Higham, Accuracy and
    Stability of Numerical Algorithms, SIAM 2002, ch. 3), and no iterate
    can be told from it below that.  On an edge row with diffusion,
    own_coeff ~ 2(a+eps)/h^2, so this floor passes tol * max(1, |u|) on
    fine grids (at n = 1281 on star3_linear); 4 eps_mach * max(own_coeff)
    covers the few roundings of one row.  Where the floor is below tol, as
    on every coarse grid and every edge with a + eps = 0, tol alone
    decides."""
    return (tol + floor) * max(1.0, float(np.abs(u).max()))


def _short_of(norm: float, tol: float, floor: float, u: np.ndarray) -> str:
    """Where a run stopped unconverged: its residual, the threshold and
    the threshold's parts."""
    return (f"at residual {norm:.3g} > threshold {_threshold(tol, floor, u):.3g} = "
            f"(tol {tol:.3g} + round-off floor {floor:.3g}) * "
            f"{max(1.0, float(np.abs(u).max())):.3g}")


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
    BRACKET_WIDTH, at most MAX_DOUBLINGS times per side) finds it, else
    LocalRootBracketFailed, with u[gid] as it was.

    sweep_solve needs it only at vertex nodes, whose couplings, ghost
    corrections and relaxed clauses are not affine; an edge row is, and
    takes the closed-form step with own_coeff instead."""
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
        u[gid] = center
        raise LocalRootBracketFailed(f"node {gid}: no sign change below")
    for _ in range(MAX_DOUBLINGS):
        if f(hi) >= 0.0:
            break
        hi = center + 2.0 * (hi - center)
    else:
        u[gid] = center
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
    (comparison principle), so the order changes the iterates, not the limit.
    A vertex root solve_node cannot bracket ends the run unconverged."""
    u = (GridFunction.zeros(system.grid) if u0 is None else u0.copy()).values
    skip_below = 0.05 * config.tol
    floor = _floor(system)
    vertices = range(len(system.grid.network.vertices))
    norm = system.residual_norm(u)
    it, message = 0, ""
    for it in range(1, config.max_sweeps + 1):
        try:
            if it % 2:
                _relax_vertices(system, vertices, u, skip_below)
                system.relax_edge_class(0, u, skip_below)
                system.relax_edge_class(1, u, skip_below)
            else:
                system.relax_edge_class(1, u, skip_below)
                system.relax_edge_class(0, u, skip_below)
                _relax_vertices(system, reversed(vertices), u, skip_below)
        except LocalRootBracketFailed as exc:
            message = f"could not bracket a vertex root in sweep {it} ({exc})"
        norm = system.residual_norm(u)
        if message or norm <= _threshold(config.tol, floor, u):
            break
    if not (message or norm <= _threshold(config.tol, floor, u)):
        message = (f"reached max_sweeps={config.max_sweeps} "
                   + _short_of(norm, config.tol, floor, u))
    return SolveResult(GridFunction(system.grid, u), not message, norm, it,
                       "sweep", message)


# ---------------------------------------------------------------------------
# Semismooth Newton


def _fd_jacobian(system: ResidualSystem, u: np.ndarray, step: float) -> dict:
    """Jacobian of the residual at u, read off the stencil by
    system.jacobian_entries (exact edge coefficients but for H's central
    quotient, central differences at vertex rows; no residual() call) and
    written straight into spsolve's network form: one scatter of every
    entry into a buffer of zeros, at Grid.border's positions, whose views
    are the six blocks.

    Central differencing matters: at kinks of the numerical Hamiltonian a
    one-sided difference is not an element of the generalized Jacobian (it
    turns |p| into a sum of both neighbors), while the central quotient
    picks the midpoint slope and keeps the linearization monotone.
    """
    size, dest, blocks = system.grid.border
    buf = np.zeros(size)
    buf[dest] = system.jacobian_entries(u, step)
    return {name: buf[at].reshape(shape) for name, (at, shape) in blocks.items()}


def spsolve(jac: dict, b: np.ndarray) -> np.ndarray:
    """Solve J x = b for J in _fd_jacobian's network form: one LAPACK dgtsv
    call solves T [y0 | X] = [b_int | B] over every edge chain, the Schur
    complement (D - C X) x_v = b_v - C y0 the vertex unknowns, and
    x_int = y0 - X x_v (Arioli & Benzi, IMA J. Numer. Anal. 38, 2018).  T is
    nonsingular, every edge row strictly diagonally dominant: own_coeff
    lam + 2(a+eps)/h^2 + theta/h > |left| + |right| = 2(a+eps)/h^2 + theta/h
    when both cross entries are <= 0, the sign pattern assembly certifies
    (the stencil argument for built-in records, else probe_monotone on this
    Jacobian); for H's central quotient q that is |q| <= theta + 2(a+eps)/h.
    A zero pivot of T or a singular Schur complement raises
    SingularLinearization.
    The right-hand side [b_int | B] is written straight into a buffer in
    LAPACK's column order (Fortran order), which dgtsv overwrites with
    [y0 | X] in place, with no copy on the way in.  Named spsolve because
    perfbench's tracer times knet.solver.spsolve and _fd_jacobian as its
    solver.linear_solve and solver.jacobian layers."""
    from scipy.linalg.lapack import dgtsv  # lazy: knet verify never solves
    nv = len(jac["D"])
    rhs = np.empty((len(jac["d"]), nv + 1), order="F")
    rhs[:, 0], rhs[:, 1:] = b[nv:], jac["B"]
    *_, y, info = dgtsv(jac["dl"], jac["d"], jac["du"], rhs, overwrite_b=True)
    if info:
        raise SingularLinearization(f"dgtsv: zero pivot {info} in the edge block")
    try:
        xv = np.linalg.solve(jac["D"] - jac["C"] @ y[:, 1:], b[:nv] - jac["C"] @ y[:, 0])
    except np.linalg.LinAlgError as exc:
        raise SingularLinearization(f"vertex Schur complement: {exc}") from exc
    return np.concatenate([xv, y[:, 0] - y[:, 1:] @ xv])


def newton_solve(system: ResidualSystem, config: SolveConfig,
                 u0: Optional[GridFunction] = None) -> SolveResult:
    """Damped Newton from u0 (else zero).  It stops unconverged at a stalled
    line search, MAX_NEWTON iterations or a singular linearization (a step
    not counted), returning its last accepted iterate and its residual."""
    u = (GridFunction.zeros(system.grid) if u0 is None else u0.copy()).values
    r = system.residual(u)
    norm = float(np.abs(r).max())
    it = 0
    message = ""
    h = min(system.grid.spacing.values())
    floor = _floor(system)
    for it in range(1, MAX_NEWTON + 1):
        if norm <= _threshold(config.tol, floor, u):
            it -= 1
            break
        # near kinks the linearization error is O(step/h), so polish with a
        # step small against the residual times the mesh size
        step = min(max(0.1 * h * norm, 1e-13), NEWTON_FD_STEP)
        try:
            with np.errstate(all="ignore"):
                du = spsolve(_fd_jacobian(system, u, step), -r)
            if not np.isfinite(du).all():
                raise SingularLinearization("non-finite Newton direction")
        except SingularLinearization as exc:
            it -= 1
            message = f"hit a singular linearization ({exc})"
            break
        t = 1.0
        for _ in range(40):
            trial = u + t * du
            r_try = system.residual(trial)
            n_try = float(np.abs(r_try).max())
            if (n_try <= _threshold(config.tol, floor, trial)
                    or n_try < norm * (1.0 - 1e-4 * t)):
                u, r, norm = trial, r_try, n_try
                break
            t *= 0.5
        else:
            message = (f"line search stalled at iteration {it} "
                       + _short_of(norm, config.tol, floor, u))
            break
    if not (message or norm <= _threshold(config.tol, floor, u)):
        message = (f"reached MAX_NEWTON={MAX_NEWTON} iterations "
                   + _short_of(norm, config.tol, floor, u))
    return SolveResult(GridFunction(system.grid, u), not message, norm, it,
                       "newton", message)


# ---------------------------------------------------------------------------
# Hybrid driver


def _nested(system: ResidualSystem, config: SolveConfig, u0):
    """Newton from u0, else from this system solved the same way on the
    grid with half as many cells per edge and prolonged, else (where an
    edge would keep fewer than MIN_LEVEL_NODES, or the system is affine,
    so that Newton's first step is exact from any start) from zero.
    Returns Newton's result, counting every level's iterations, and each
    level's Newton count, coarsest first.  A coarse level only predicts, so
    it is not probed and runs no rounds: its Newton result is the start."""
    counts, spent = [], 0
    coarse = {eid: (n - 1) // 2 + 1 for eid, n in system.grid.nodes_per_edge.items()}
    if u0 is None and not system.affine and min(coarse.values()) >= MIN_LEVEL_NODES:
        cres, counts = _nested(assemble(
            system.problem, Grid(system.problem.network, coarse), eps=system.eps,
            certify=False), config, None)
        u0, spent = cres.u.on_grid(system.grid), cres.iterations
    res = newton_solve(system, config, u0)
    counts.append(f"{res.iterations} at {system.grid.level_name}")
    return replace(res, iterations=spent + res.iterations), counts


def solve_system(system: ResidualSystem, config: Optional[SolveConfig] = None,
                 u0: Optional[GridFunction] = None) -> SolveResult:
    """Solve by config.method from u0.  No solver exception escapes: a run
    that fails is an unconverged result whose message says why it stopped.
    The hybrid's message names its start (given, coarser grid or zero) and
    each level's Newton count.  Where Newton fails on this grid, rounds of
    WARMUP_SWEEPS sweeps, then Newton, follow, each run from the iterate the
    run before returned, while unconverged and fewer than max_sweeps
    iterations are spent: at most max_sweeps + WARMUP_SWEEPS + MAX_NEWTON.
    A round that leaves its start unchanged would repeat itself and ends
    them.  The run with the lowest residual is returned, a converged one
    first; the message adds Newton's cause, the number of rounds and, if
    still unconverged, why the last round's runs stopped."""
    config = config or SolveConfig()
    if config.method == "sweep":
        return sweep_solve(system, config, u0)
    if config.method == "newton":
        return newton_solve(system, config, u0)
    res, counts = _nested(system, config, u0)
    first, best, spent, rounds, note = res, res, 0, 0, ""
    while not res.converged and spent < config.max_sweeps:
        start = res.u.values
        res = warm = sweep_solve(system, replace(config, max_sweeps=WARMUP_SWEEPS), res.u)
        spent, rounds = spent + warm.iterations, rounds + 1
        if not warm.converged:
            res = newton_solve(system, config, warm.u)
            spent += res.iterations
        best = min(best, warm, res, key=lambda r: (not r.converged, r.residual_norm))
        if np.array_equal(res.u.values, start):
            break
    if rounds:
        note = (f"; at {system.grid.level_name} newton {first.message}; ran {rounds} "
                f"round{'s' * (rounds > 1)} of sweeps and newton" + ("" if best.converged
                else f"; in the last, sweep {warm.message}, then newton {res.message}"))
    kind = "given" if u0 is not None else "coarser grid" if len(counts) > 1 else "zero"
    return replace(best, iterations=first.iterations + spent, method="hybrid",
                   message=f"start: {kind}; newton iterations per level: "
                   f"{', '.join(counts)}" + note)


def solve_problem(problem: NetworkProblem, nodes_per_edge, eps: float = 0.0,
                  config: Optional[SolveConfig] = None,
                  u0: Optional[GridFunction] = None) -> SolveResult:
    """Assemble on a fresh grid, certify monotonicity, and solve."""
    grid = Grid(problem.network, nodes_per_edge)
    return solve_system(assemble(problem, grid, eps=eps), config, u0)


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
    # the nodes at distance >= delta from the boundary, one mask per delta
    away = {float(d): dist >= d - 1e-12 for d in deltas}

    base = solve_system(assemble(problem, grid, eps=0.0), config)

    steps = []
    warm = base.u
    for eps in sorted(set(float(e) for e in schedule), reverse=True):
        res = solve_system(assemble(problem, grid, eps=eps), config, warm)
        warm = res.u
        diff = np.abs(res.u.values - base.u.values)
        interior = {d: float(np.max(diff[mask], initial=0.0)) for d, mask in away.items()}
        steps.append(ViscosityStep(eps, res, float(np.max(diff)), interior))
    return ViscositySweep(base, steps, tuple(float(d) for d in deltas))
