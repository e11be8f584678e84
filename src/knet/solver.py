"""Nonlinear solvers for the assembled residual systems.

Three methods share the same interface: nodewise Gauss-Seidel sweeps (each
node solved to its unique local root: one exact Newton step on an edge
node, whose row is affine in its own value with slope own_coeff, and
bracketed root finding on a vertex node), a damped
semismooth Newton iteration with a finite-difference sparse Jacobian, and a
hybrid that warms up with sweeps before switching to Newton and falls back
to sweeps when Newton stalls.  The Jacobian is built from the system's
distance-2 colouring: two vectorized residual() calls per colour give every
column at once.

Barriers are network-wide super- and subsolutions of the discrete scheme,
found by doubling the two constants of a tent-shaped profile until the
residual signs certify them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.optimize import brentq
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import spsolve

from .discretization import Grid, GridFunction, ResidualSystem, assemble
from .errors import BarrierConstructionFailed, LocalRootBracketFailed, SingularLinearization
from .problem import NetworkProblem


MAX_NEWTON = 60  # Newton iterations per newton_solve
WARMUP_SWEEPS = 5  # Gauss-Seidel sweeps before the hybrid switches to Newton
NEWTON_FD_STEP = 1e-7  # largest finite-difference step of the Jacobian


@dataclass
class SolveConfig:
    method: str = "hybrid"
    tol: float = 1e-10
    max_sweeps: int = 2000


def _threshold(tol: float, u: np.ndarray) -> float:
    """Convergence threshold tol * max(1, max|u|), relative to the solution
    scale only.  It has no h-dependent round-off floor: the floor of the
    second difference, about eps_mach * a * |u| / h^2, can exceed it on fine
    grids (ROADMAP item 2)."""
    return tol * max(1.0, float(np.max(np.abs(u))))


@dataclass
class SolveResult:
    u: GridFunction
    converged: bool
    residual_norm: float
    iterations: int
    method: str
    eps: float
    message: str = ""


# ---------------------------------------------------------------------------
# Barriers


@dataclass
class Barriers:
    lower: GridFunction
    upper: GridFunction
    offset: float  # the A constant
    slope: float  # the B constant


def _tent_values(grid: Grid, slope: float, r: float = 0.25) -> np.ndarray:
    """Smooth tent profile per edge, zero at vertices, inward endpoint
    slope close to -slope, bounded curvature."""
    def prof(eid, x):
        length = grid.network.edge(eid).length
        s = 2.0 * np.asarray(x, dtype=float) / length - 1.0
        g = (np.sqrt(1.0 + r * r) - np.sqrt(s * s + r * r)) / 2.0
        return -slope * length * g

    return GridFunction.from_profile(grid, prof).values


def build_barriers(system: ResidualSystem, initial: float = 1.0,
                   growth: float = 4.0, max_rounds: int = 12,
                   slack: float = 1e-9) -> Barriers:
    """Super/subsolution pair certified by the residual signs themselves.

    The upper barrier is A + Theta with Theta a tent profile of endpoint
    slope -B on every edge, so every vertex sees strongly negative inward
    slopes; the lower barrier is its negative.  A and B are doubled until
    residual(upper) >= 0 and residual(lower) <= 0 at every node.
    """
    grid = system.grid
    for i in range(max_rounds):
        b = initial * growth ** i
        theta = _tent_values(grid, b)
        for j in range(max_rounds + 4):
            a = initial * growth ** j
            upper = a + theta
            lower = -upper
            tol = slack * max(1.0, a, b)
            if (np.all(system.residual(upper) >= -tol)
                    and np.all(system.residual(lower) <= tol)):
                return Barriers(GridFunction(grid, lower),
                                GridFunction(grid, upper), a, b)
    raise BarrierConstructionFailed(
        f"no certified barrier after {max_rounds} doubling rounds"
    )


# ---------------------------------------------------------------------------
# Gauss-Seidel sweeps


def solve_node(system: ResidualSystem, gid: int, u: np.ndarray,
               width: float = 1.0, max_doublings: int = 80) -> float:
    """Root of the node residual in its own value; the residual is strictly
    increasing there, so sign-change bracketing by doubling always works.

    sweep_solve needs it only at vertex nodes, whose couplings, ghost
    corrections, minmax clauses and state constraints are not affine; an
    edge row is, and takes the closed-form step with own_coeff instead."""
    def f(v):
        u[gid] = v
        return system.residual_node(gid, u)

    center = float(u[gid])
    lo, hi = center - width, center + width
    for _ in range(max_doublings):
        if f(lo) <= 0.0:
            break
        lo = center - 2.0 * (center - lo)
    else:
        raise LocalRootBracketFailed(f"node {gid}: no sign change below")
    for _ in range(max_doublings):
        if f(hi) >= 0.0:
            break
        hi = center + 2.0 * (hi - center)
    else:
        raise LocalRootBracketFailed(f"node {gid}: no sign change above")
    root = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
    u[gid] = root
    return float(root)


def sweep_solve(system: ResidualSystem, config: SolveConfig,
                u0: Optional[GridFunction] = None) -> SolveResult:
    u = (GridFunction.zeros(system.grid) if u0 is None else u0.copy()).values
    skip_below = 0.05 * config.tol
    norm = system.residual_norm(u)
    it = 0
    order = list(range(system.grid.total_nodes))
    own = system.own_coeff.tolist()
    for it in range(1, config.max_sweeps + 1):
        # alternate the sweep direction to move information both ways
        for j in (order if it % 2 else reversed(order)):
            r = system.residual_node(j, u)
            if abs(r) > skip_below:
                if own[j]:
                    u[j] -= r / own[j]  # exact root of an affine edge row
                else:
                    solve_node(system, j, u)
        norm = system.residual_norm(u)
        if norm <= _threshold(config.tol, u):
            break
    gf = GridFunction(system.grid, u)
    return SolveResult(gf, norm <= _threshold(config.tol, u), norm, it,
                       "sweep", system.eps)


# ---------------------------------------------------------------------------
# Semismooth Newton


def _fd_jacobian(system: ResidualSystem, u: np.ndarray, step: float):
    """Central-difference sparse Jacobian, one pair of residual() calls per
    colour of the system's distance-2 colouring.

    All nodes of one colour are moved by +-step together, on copies of u.
    No row depends on two nodes of one colour, so each row sees exactly one
    perturbed input and its quotient is the entry of that input's column.
    Each quotient divides by the difference of the perturbed values as
    represented in floating point, which near the smallest steps differs
    from 2*step by about 1e-3 relative.

    Central differencing matters: at kinks of the numerical Hamiltonian a
    one-sided difference is not an element of the generalized Jacobian (it
    turns |p| into a sum of both neighbors), while the central quotient
    picks the midpoint slope and keeps the linearization monotone.
    """
    rows, cols = system.pattern_rows, system.pattern_cols
    hi, lo = u + step, u - step
    taken = hi - lo
    vals = np.empty(len(rows))
    for nodes, entries in system.colour_groups:
        plus, minus = u.copy(), u.copy()
        plus[nodes] = hi[nodes]
        minus[nodes] = lo[nodes]
        diff = system.residual(plus) - system.residual(minus)
        vals[entries] = diff[rows[entries]] / taken[cols[entries]]
    keep = vals != 0.0
    n = system.grid.total_nodes
    return coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsc()


def newton_solve(system: ResidualSystem, config: SolveConfig,
                 u0: Optional[GridFunction] = None) -> SolveResult:
    u = (GridFunction.zeros(system.grid) if u0 is None else u0.copy()).values
    r = system.residual(u)
    norm = float(np.max(np.abs(r)))
    it = 0
    message = ""
    for it in range(1, MAX_NEWTON + 1):
        if norm <= _threshold(config.tol, u):
            it -= 1
            break
        # near kinks the linearization error is O(step/h), so polish with a
        # step small against the residual times the mesh size
        h = min(system.grid.spacing.values())
        step = float(np.clip(0.1 * h * norm, 1e-13, NEWTON_FD_STEP))
        jac = _fd_jacobian(system, u, step)
        with np.errstate(all="ignore"):
            try:
                du = spsolve(jac, -r)
            except RuntimeError as exc:
                raise SingularLinearization(str(exc)) from exc
        if not np.all(np.isfinite(du)):
            raise SingularLinearization("non-finite Newton direction")
        t = 1.0
        accepted = False
        for _ in range(40):
            r_try = system.residual(u + t * du)
            n_try = float(np.max(np.abs(r_try)))
            if (n_try <= _threshold(config.tol, u + t * du)
                    or n_try < norm * (1.0 - 1e-4 * t)):
                u = u + t * du
                r, norm = r_try, n_try
                accepted = True
                break
            t *= 0.5
        if not accepted:
            message = f"line search stalled at iteration {it}"
            break
    gf = GridFunction(system.grid, u)
    return SolveResult(gf, norm <= _threshold(config.tol, u), norm, it,
                       "newton", system.eps, message)


# ---------------------------------------------------------------------------
# Hybrid driver


def solve_system(system: ResidualSystem, config: Optional[SolveConfig] = None,
                 u0: Optional[GridFunction] = None) -> SolveResult:
    config = config or SolveConfig()
    if config.method == "sweep":
        return sweep_solve(system, config, u0)
    if config.method == "newton":
        return newton_solve(system, config, u0)
    if config.method != "hybrid":
        raise ValueError(f"unknown method {config.method!r}")

    from dataclasses import replace
    warm = replace(config, max_sweeps=WARMUP_SWEEPS)
    res = sweep_solve(system, warm, u0)
    if res.converged:
        return SolveResult(res.u, True, res.residual_norm, res.iterations,
                           "hybrid", system.eps)
    try:
        nres = newton_solve(system, config, res.u)
    except SingularLinearization:
        nres = None
    if nres is not None and nres.converged:
        return SolveResult(nres.u, True, nres.residual_norm,
                           res.iterations + nres.iterations, "hybrid",
                           system.eps)
    fallback = sweep_solve(system, config, nres.u if nres else res.u)
    total = res.iterations + (nres.iterations if nres else 0) + fallback.iterations
    return SolveResult(fallback.u, fallback.converged,
                       fallback.residual_norm, total, "hybrid", system.eps,
                       fallback.message or "newton fell back to sweeps")


def solve_problem(problem: NetworkProblem, nodes_per_edge, eps: float = 0.0,
                  junction_mode: str = "kirchhoff", boundary_mode="auto",
                  theta="auto", config: Optional[SolveConfig] = None,
                  u0: Optional[GridFunction] = None,
                  probe_samples: int = 3) -> SolveResult:
    """Assemble on a fresh grid, certify monotonicity, and solve."""
    grid = Grid(problem.network, nodes_per_edge)
    system = assemble(problem, grid, eps=eps, junction_mode=junction_mode,
                      boundary_mode=boundary_mode, theta=theta,
                      probe_samples=probe_samples)
    return solve_system(system, config, u0)


def multistart_solve(system: ResidualSystem, config: Optional[SolveConfig] = None,
                     offsets=(-10.0, -1.0, 0.0, 1.0, 10.0)):
    """Solve from several constant initial guesses; used to probe uniqueness."""
    out = []
    for c in offsets:
        out.append(solve_system(system, config, GridFunction.full(system.grid, c)))
    return out


# ---------------------------------------------------------------------------
# Vanishing viscosity continuation


@dataclass
class ViscosityStep:
    eps: float
    result: SolveResult
    sup_diff_full: float
    sup_diff_interior: dict  # delta -> sup over nodes at distance >= delta
    cauchy_interior: dict = None  # delta -> sup vs the previous step


@dataclass
class ViscositySweep:
    base: SolveResult  # the eps = 0 solution on the same grid
    steps: list
    deltas: tuple

    def table(self):
        rows = []
        for s in self.steps:
            row = {"eps": s.eps, "sup_full": s.sup_diff_full,
                   "converged": s.result.converged}
            for d, v in s.sup_diff_interior.items():
                row[f"sup_delta_{d:.6g}"] = v
            rows.append(row)
        return rows


def vanishing_viscosity(problem: NetworkProblem, nodes_per_edge, schedule,
                        junction_mode: str = "kirchhoff", boundary_mode="auto",
                        theta="auto", config: Optional[SolveConfig] = None,
                        deltas=None) -> ViscositySweep:
    """Solve along a decreasing viscosity schedule with warm starts and
    report sup-differences to the zero-viscosity solution, both globally
    and away from the boundary."""
    grid = Grid(problem.network, nodes_per_edge)
    if deltas is None:
        m = problem.network.min_edge_length
        deltas = tuple(f * m for f in (0.05, 0.1, 0.2))
    dist = grid.boundary_distances()

    base_sys = assemble(problem, grid, eps=0.0, junction_mode=junction_mode,
                        boundary_mode=boundary_mode, theta=theta)
    base = solve_system(base_sys, config)

    steps = []
    warm = base.u
    prev = None
    for eps in sorted(set(float(e) for e in schedule), reverse=True):
        system = assemble(problem, grid, eps=eps, junction_mode=junction_mode,
                          boundary_mode=boundary_mode, theta=theta)
        res = solve_system(system, config, warm)
        warm = res.u
        diff = np.abs(res.u.values - base.u.values)
        interior, cauchy = {}, {}
        for d in deltas:
            mask = dist >= d - 1e-12
            interior[float(d)] = float(np.max(diff[mask])) if mask.any() else 0.0
            if prev is not None and mask.any():
                cauchy[float(d)] = float(np.max(
                    np.abs(res.u.values - prev.values)[mask]))
        steps.append(ViscosityStep(eps, res, float(np.max(diff)), interior,
                                   cauchy))
        prev = res.u
    return ViscositySweep(base, steps, tuple(float(d) for d in deltas))
