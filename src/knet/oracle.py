"""Independent reference solutions for verification.

The direct linear solver assembles the linear problems (affine edge
Hamiltonians, classical or affine vertex couplings, strong Dirichlet data)
with plain central differences and one-sided three-point vertex slopes.  It
shares no code path with the monotone residual systems, so agreement
between the two is meaningful evidence.

The flux-limited reference is a third, in closed form: on a network whose
every edge is first order (a = 0) with H = c_e|p| - f_e and whose every
junction is classical, the relaxed viscosity solution, unique by the
comparison principle, is the value of a discounted exit-time control
problem: speed at most c_e and running cost f_e on edge e, discount lam,
exit cost g at a boundary vertex, and at a junction the cost of staying
there given by its effective flux limiter (Imbert & Monneau, Ann. Sci. ENS
50, 2017; Achdou, Camilli, Cutri & Tchou, NoDEA 20, 2013).  It reads no
grid solution of the scheme.

Other nonlinear problems are verified against fine-grid references of the
main scheme and against observed convergence orders.  convergence_table is
the one solve, reference, error and order loop behind `knet
convergence-table` and scripts/convergence_study.py.  It solves its
resolutions and their fine-grid references as one coarse-to-fine chain:
each grid starts from the solution on the grid below it, prolonged by
GridFunction.on_grid and passed to solver.solve_system as its start.  Every
grid is still assembled, and so certified monotone, by assemble.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discretization import Grid, GridFunction, assemble, check_nodes
from .errors import (GridTooCoarse, NonPositiveError, ProblemNotEikonal, ProblemNotLinear,
                     SingularSystem)
from .network import INTERIOR
from .problem import NetworkProblem
from .solver import SolveConfig, solve_system

REFINE = 4  # a fine-grid reference has REFINE cells per cell of its grid


@dataclass
class ReferenceSolution:
    u: GridFunction
    method: str
    meta: dict

    @property
    def grid(self) -> Grid:
        return self.u.grid


def direct_linear_solve(problem: NetworkProblem, nodes_per_edge,
                        eps: float = 0.0) -> ReferenceSolution:
    """Sparse direct solve of a linear network problem.

    Interior nodes use central second and first differences; vertex slopes
    use the second-order one-sided three-point formula, which needs at
    least four nodes per edge: GridTooCoarse on fewer.
    """
    net = problem.network
    reason = problem.why_not_linear()
    if reason:
        raise ProblemNotLinear(reason)
    grid = Grid(net, nodes_per_edge)
    for eid, n in grid.nodes_per_edge.items():
        if n < 4:
            raise GridTooCoarse(f"edge {eid}: one-sided slopes need >= 4 nodes")

    lam = problem.lam
    n_tot = grid.total_nodes
    rows, cols, vals = [], [], []
    rhs = np.zeros(n_tot)

    def add(i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    for e in net.edges:
        b, f_fn = problem.hamiltonians[e.id].affine
        ids = grid.node_ids[e.id]
        x = grid.coords[e.id]
        h = grid.spacing[e.id]
        a = np.asarray(problem.diffusions[e.id].a(x[1:-1]), dtype=float) + eps
        for k in range(1, len(ids) - 1):
            i = int(ids[k])
            c = a[k - 1] / h ** 2
            add(i, i, lam + 2.0 * c)
            add(i, int(ids[k - 1]), -c - b / (2.0 * h))
            add(i, int(ids[k + 1]), -c + b / (2.0 * h))
            rhs[i] = -float(np.asarray(f_fn(x[k])))

    for v in net.boundary_vertices:
        i = grid.vertex_gid(v.id)
        add(i, i, 1.0)
        rhs[i] = problem.dirichlet[v.id]

    for v in net.interior_vertices:
        cond = problem.kirchhoff[v.id]
        i = grid.vertex_gid(v.id)
        alpha0 = cond.params.get("alpha0", 0.0)
        alphas = cond.params.get("alphas", [1.0] * cond.arity)
        add(i, i, alpha0)
        for comp, inc in enumerate(net.incidence[v.id]):
            ids = grid.node_ids[inc.edge.id]
            h = grid.spacing[inc.edge.id]
            n1, n2 = (ids[1], ids[2]) if inc.at_tail else (ids[-2], ids[-3])
            al = float(alphas[comp])
            # -alpha * inward slope, slope = (-3u_v + 4u_1 - u_2)/(2h)
            add(i, i, al * 3.0 / (2.0 * h))
            add(i, int(n1), -al * 4.0 / (2.0 * h))
            add(i, int(n2), al * 1.0 / (2.0 * h))
        rhs[i] = cond.params.get("B", 0.0)

    from scipy.sparse import coo_matrix  # lazy: importing scipy slows every knet start
    from scipy.sparse.linalg import spsolve
    mat = coo_matrix((vals, (rows, cols)), shape=(n_tot, n_tot)).tocsc()
    with np.errstate(all="ignore"):
        try:
            u = spsolve(mat, rhs)
        except RuntimeError as exc:
            raise SingularSystem(str(exc)) from exc
    if not np.all(np.isfinite(u)):
        raise SingularSystem("direct solve returned non-finite values")
    return ReferenceSolution(GridFunction(grid, u), "direct-linear",
                             {"eps": eps})


def _eikonal_data(problem: NetworkProblem, nodes_per_edge, eps: float):
    """The grid and (c_e, f_e) per edge, in edge order, where
    flux_limited_reference applies; else ProblemNotEikonal, naming the
    first obstruction.  The grid is built only for the last check."""
    if eps != 0.0:
        raise ProblemNotEikonal(f"eps = {eps} > 0: the closed form is first order")
    for v in problem.network.interior_vertices:
        cond = problem.kirchhoff[v.id]
        if not cond.builtin or cond.family != "classical":
            raise ProblemNotEikonal(f"vertex {v.id}: coupling family {cond.family!r} "
                                    "is not classical")
    for e in problem.network.edges:
        ham = problem.hamiltonians[e.id]
        if not ham.builtin or ham.family != "eikonal":
            raise ProblemNotEikonal(f"edge {e.id}: Hamiltonian {ham.name} is not eikonal")
    grid = Grid(problem.network, nodes_per_edge)
    for e in problem.network.edges:
        if np.any(problem.diffusions[e.id].a(grid.coords[e.id]) != 0.0):
            raise ProblemNotEikonal(f"edge {e.id}: diffusion does not vanish")
    speed, rhs = np.array([(problem.hamiltonians[e.id].params["speed"],
                            problem.hamiltonians[e.id].params["rhs"])
                           for e in problem.network.edges], dtype=float).T
    return grid, speed, rhs


def flux_limited_reference(problem: NetworkProblem, nodes_per_edge,
                           eps: float = 0.0) -> ReferenceSolution:
    """The relaxed viscosity solution in closed form, where eps = 0, every
    edge's diffusion vanishes at every grid node, every H is a built-in
    eikonal record c_e|p| - f_e and every junction is classical; else
    ProblemNotEikonal.  It is the value of the control problem of the module
    docstring, with K_e = exp(-lam L_e / c_e):

    - stay values S_v: at a junction, min(min_e f_e, (B_v + sum_e f_e/c_e)
      / sum_e 1/c_e) / lam, which is -A_v / lam for A_v its effective flux
      limiter; at a boundary vertex, min(g_v, min_e f_e / lam);
    - vertex values U(v) = min(S_v, min over edges e = (v, w) of
      f_e/lam (1 - K_e) + K_e U(w)), iterated from U = S until no value
      changes: an optimal path visits each vertex once, so at most V rounds;
    - at distance s_w from end w of edge e, the min over both ends of
      f_e/lam (1 - k) + k U(w), k = exp(-lam s_w / c_e).  Staying on the
      edge, at cost f_e/lam, never does better: U(w) <= S_w <= f_e/lam at
      either end."""
    net, lam = problem.network, problem.lam
    grid, speed, rhs = _eikonal_data(problem, nodes_per_edge, eps)
    stay_edge = rhs / lam  # the cost of staying on each edge forever
    stay = np.empty(len(net.vertices))
    position = {e.id: i for i, e in enumerate(net.edges)}
    for v in net.vertices:
        ids = [position[inc.edge.id] for inc in net.incidence[v.id]]
        if v.kind == INTERIOR:
            limiter = ((problem.kirchhoff[v.id].params["B"] + np.sum(rhs[ids] / speed[ids]))
                       / np.sum(1.0 / speed[ids]))
            stay[grid.vertex_gid(v.id)] = min(np.min(rhs[ids]), limiter) / lam
        else:
            stay[grid.vertex_gid(v.id)] = min(problem.dirichlet[v.id], np.min(stay_edge[ids]))
    # each edge in both directions: from vertex `at` across the edge to `to`
    tails = np.array([grid.vertex_gid(e.tail) for e in net.edges])
    heads = np.array([grid.vertex_gid(e.head) for e in net.edges])
    at, to = np.concatenate([tails, heads]), np.concatenate([heads, tails])
    lengths = np.array([e.length for e in net.edges])
    k = np.tile(np.exp(-lam * lengths / speed), 2)
    run = np.tile(stay_edge, 2) * (1.0 - k)
    u_v = stay
    for _ in net.vertices:
        new = stay.copy()
        np.minimum.at(new, at, run + k * u_v[to])
        if np.array_equal(new, u_v):
            break
        u_v = new
    values = np.empty(grid.total_nodes)
    values[:len(u_v)] = u_v
    for i, e in enumerate(net.edges):
        t, ids = grid.coords[e.id][1:-1], grid.node_ids[e.id][1:-1]
        k_tail, k_head = (np.exp(-lam * s / speed[i]) for s in (t, e.length - t))
        values[ids] = np.minimum(stay_edge[i] * (1.0 - k_tail) + k_tail * u_v[tails[i]],
                                 stay_edge[i] * (1.0 - k_head) + k_head * u_v[heads[i]])
    return ReferenceSolution(GridFunction(grid, values), "flux-limited", {"eps": eps})


def fine_grid_reference(problem: NetworkProblem, nodes_per_edge,
                        solved=None, eps: float = 0.0) -> ReferenceSolution:
    """Reference from the main monotone scheme on a REFINE-times finer grid.

    solved maps node counts to default-config solutions of this scheme (at
    viscosity eps) already at hand.  The fine grid's own, if there,
    is the reference.  Else the fine grid is solved from the finest one
    below it, prolonged (with no start given if there is none), and the
    result joins solved, so that the next reference starts from it.  The
    discrete solution is unique, so the start changes the cost, not the
    answer beyond the solver's tolerance."""
    if isinstance(nodes_per_edge, dict):
        fine = {k: (n - 1) * REFINE + 1 for k, n in nodes_per_edge.items()}
    else:
        fine = (int(nodes_per_edge) - 1) * REFINE + 1
    chain = solved is not None and isinstance(fine, int)
    res = solved.get(fine) if chain else None
    if res is None:
        grid = Grid(problem.network, fine)
        coarser = [n for n in solved if n < fine] if chain else []
        start = solved[max(coarser)].u.on_grid(grid) if coarser else None
        res = solve_system(assemble(problem, grid, eps=eps), SolveConfig(), start)
        if chain:
            solved[fine] = res
    return ReferenceSolution(res.u, "fine-grid",
                             {"refine": REFINE, "converged": res.converged,
                              "residual_norm": res.residual_norm, "message": res.message})


def reference_for(problem: NetworkProblem, nodes_per_edge, exact=None,
                  eps: float = 0.0, solved=None) -> ReferenceSolution:
    """The best available reference for the scheme with viscosity eps, the
    first that applies of: the exact profile exact(edge id, t) when eps = 0,
    flux_limited_reference, the direct linear solve where eps > 0 or
    NetworkProblem.relaxed relaxes no junction edge, and a REFINE-times
    refined run of the scheme itself.

    A catalog entry's exact profile and the flux-limited reference are the
    relaxed viscosity solution, the limit of the scheme.  The direct solve
    imposes the Kirchhoff condition F = 0 alone, which is the scheme's
    junction row wherever the junction takes no clause: at every junction
    once eps > 0, and at eps = 0 at one with no relaxed edge.  Every
    reference holds the boundary data as the scheme's boundary rows impose
    them: relaxed at eps = 0 where a = 0 and H is coercive (an exact
    profile that detaches there), strong elsewhere, which is every boundary
    vertex of a linear problem, since an affine H is not coercive.  solved
    passes on to fine_grid_reference: default-config solves of this scheme
    by node count."""
    if exact is not None and eps == 0.0:
        grid = Grid(problem.network, nodes_per_edge)
        return ReferenceSolution(GridFunction.from_profile(grid, exact), "exact", {})
    try:
        return flux_limited_reference(problem, nodes_per_edge, eps=eps)
    except ProblemNotEikonal:
        pass
    if eps > 0.0 or not any(problem.relaxed[v.id] for v in problem.network.interior_vertices):
        try:
            return direct_linear_solve(problem, nodes_per_edge, eps=eps)
        except (ProblemNotLinear, GridTooCoarse):
            pass
    return fine_grid_reference(problem, nodes_per_edge, solved=solved, eps=eps)


def check_resolutions(resolutions) -> list:
    """resolutions, node counts, as a list.  ValueError unless there are at
    least 3, each one check_nodes takes, none repeated (no order lies
    between equal h)."""
    for nodes in resolutions:
        check_nodes(nodes)
    if len(resolutions) < 3:
        raise ValueError(f"need at least 3 resolutions, got {list(resolutions)}")
    if len(set(resolutions)) < len(resolutions):
        raise ValueError(f"repeated resolution in {list(resolutions)}")
    return list(resolutions)


def convergence_table(problem: NetworkProblem, resolutions, exact=None,
                      config: Optional[SolveConfig] = None, eps: float = 0.0) -> list:
    """Solve the scheme at each resolution and measure it against
    reference_for at that resolution.  One dict per resolution, in the
    order given: nodes, h, the sup error, observed_orders' order,
    iterations, the wall time of the solve, whether it converged and its
    message, the reference's method, and whether the reference converged
    and its solver's message ("" for an exact or direct reference).
    A fine-grid reference is itself a solve: one that stopped short of the
    tolerance makes its row's error meaningless, as an unconverged run does.

    The resolutions are solved coarse to fine (nested iteration, Brandt,
    Math. Comp. 31, 1977): the coarsest with no start given, each finer one
    from the previous solution prolonged, so iterations and wall time
    measure Newton's correction of that start.  Under the default config
    the fine-grid references continue the chain (fine_grid_reference);
    under any other config each is solved with no start given.  Resolutions
    check_resolutions rejects raise ValueError."""
    check_resolutions(resolutions)
    config = config or SolveConfig()
    ascending = sorted(resolutions)
    runs, warm = {}, None
    for nodes in ascending:
        system = assemble(problem, Grid(problem.network, nodes), eps=eps)
        t0 = time.perf_counter()
        res = solve_system(system, config,
                           None if warm is None else warm.on_grid(system.grid))
        runs[nodes] = (res, time.perf_counter() - t0)
        warm = res.u
    solved = ({nodes: res for nodes, (res, _) in runs.items()}
              if config == SolveConfig() else None)
    refs = {nodes: reference_for(problem, nodes, exact, eps=eps, solved=solved)
            for nodes in ascending}
    rows = []
    for nodes in resolutions:
        (res, wall), ref = runs[nodes], refs[nodes]
        rows.append({"nodes": nodes, "h": res.u.grid.h, "error": sup_error(res.u, ref.u),
                     "order": math.nan, "iterations": res.iterations,
                     "wall_time": wall, "converged": res.converged,
                     "message": res.message,
                     "reference": ref.method,
                     "reference_converged": ref.meta.get("converged", True),
                     "reference_message": ref.meta.get("message", "")})
    orders = observed_orders([r["h"] for r in rows], [r["error"] for r in rows],
                             [runs[r["nodes"]][0].u.values for r in rows], config.tol)
    for row, order in zip(rows, orders):
        row["order"] = order
    return rows


def sup_error(candidate: GridFunction, reference: GridFunction) -> float:
    """Max nodal difference, interpolating the reference along each edge."""
    return float(np.max(np.abs(candidate.values
                               - reference.on_grid(candidate.grid).values)))


def richardson_order(errors, ratio: float = 2.0) -> float:
    """Observed order from errors on successively refined grids."""
    errors = [float(e) for e in errors]
    if len(errors) < 2:
        raise ValueError("need at least two errors")
    if any(e <= 0 for e in errors):
        raise NonPositiveError("errors must be positive for order estimation")
    rates = [math.log(errors[i] / errors[i + 1]) / math.log(ratio)
             for i in range(len(errors) - 1)]
    return float(np.mean(rates))


def observed_orders(hs, errors, solutions, tol: float) -> list:
    """Order log(e_prev / e) / log(h_prev / h) of each grid against the
    previous one; nan for the first grid.  The order is also nan where
    either error is at most 100 * tol * max(1, |u|), u being the node values
    of that grid's solution: an error that small is the solver's stopping
    tolerance, not discretization error."""
    floors = [100.0 * tol * max(1.0, float(np.max(np.abs(u)))) for u in solutions]
    out = [float("nan")]
    for i in range(1, len(errors)):
        if errors[i - 1] <= floors[i - 1] or errors[i] <= floors[i]:
            out.append(float("nan"))
        else:
            out.append(math.log(errors[i - 1] / errors[i]) / math.log(hs[i - 1] / hs[i]))
    return out


def self_convergence_order(coarse: GridFunction, mid: GridFunction,
                           fine: GridFunction, ratio: float = 2.0) -> float:
    """Order estimate without an exact solution, from three nested grids."""
    e1 = sup_error(coarse, mid)
    e2 = sup_error(mid, fine)
    return richardson_order([e1, e2], ratio)
