"""Nonlinear solvers: nodewise sweeps, semismooth Newton, barriers, and
the vanishing-viscosity continuation."""

import numpy as np
import pytest
from scipy.sparse import coo_matrix

from knet import solver
from knet.catalog import all_entries, entry_by_name
from knet.discretization import Grid, GridFunction, assemble
from knet.solver import (
    SolveConfig,
    _fd_jacobian,
    build_barriers,
    multistart_solve,
    newton_solve,
    solve_node,
    solve_system,
    sweep_solve,
    vanishing_viscosity,
)


def _certified_sub(system, u, slack):
    return bool(np.all(system.residual(u) <= slack))


def _certified_super(system, u, slack):
    return bool(np.all(system.residual(u) >= -slack))


def test_barriers_certified_and_bracketing(system_cached, solve_cached):
    system = system_cached("star3_eikonal", 21)
    bars = build_barriers(system)
    slack = 1e-8 * max(1.0, bars.offset)
    assert _certified_super(system, bars.upper.values, slack)
    assert _certified_sub(system, bars.lower.values, slack)
    u = solve_cached("star3_eikonal", 21).u.values
    assert np.all(bars.lower.values - 1e-9 <= u)
    assert np.all(u <= bars.upper.values + 1e-9)


def test_discrete_comparison_on_shifted_pairs(system_cached, solve_cached):
    """Constant shifts of a solution stay certified sub/supersolutions by
    properness, and every certified pair is ordered."""
    for name in ("star3_eikonal", "star3_mixed", "graph5_constant"):
        system = system_cached(name, 21)
        res = solve_cached(name, 21)
        assert res.converged
        u = res.u.values
        scale = max(1.0, float(np.max(np.abs(u))))
        subs, supers = [], []
        for c in (0.25, 1.0, 4.0):
            subs.append(u - c)
            supers.append(u + c)
        bars = build_barriers(system)
        subs.append(bars.lower.values)
        supers.append(bars.upper.values)
        slack = 1e-8 * max(scale, bars.offset)
        for s in subs:
            assert _certified_sub(system, s, slack), name
        for s in supers:
            assert _certified_super(system, s, slack), name
        for s in subs:
            for t in supers:
                assert np.all(s <= t + 1e-12), name


def test_solve_node_finds_local_root(system_cached):
    system = system_cached("star3_eikonal", 11)
    rng = np.random.default_rng(1)
    u = rng.uniform(-0.5, 0.5, system.grid.total_nodes)
    for gid in (0, 5, system.grid.total_nodes - 1):
        solve_node(system, gid, u)
        assert abs(system.residual_node(gid, u)) <= 1e-12


def test_closed_form_update_finds_local_root(system_cached):
    """One step u[j] -= r / own_coeff[j] solves an edge row exactly: the row
    is affine in its own value."""
    system = system_cached("star3_eikonal", 11)
    grid = system.grid
    rng = np.random.default_rng(1)
    u = rng.uniform(-0.5, 0.5, grid.total_nodes)
    for gid in range(len(grid.network.vertices), grid.total_nodes):
        u[gid] -= system.residual_node(gid, u) / system.own_coeff[gid]
        scale = max(1.0, float(np.max(np.abs(u))))
        assert abs(system.residual_node(gid, u)) <= 1e-12 * scale, gid


def _reference_sweeps(system, sweeps, tol):
    """The Gauss-Seidel sweeps of sweep_solve from zero, with the bracketed
    root finder solve_node at every node instead of the closed-form edge
    update."""
    u = np.zeros(system.grid.total_nodes)
    order = list(range(system.grid.total_nodes))
    for it in range(1, sweeps + 1):
        for j in (order if it % 2 else order[::-1]):
            if abs(system.residual_node(j, u)) > 0.05 * tol:
                solve_node(system, j, u)
        if system.residual_norm(u) <= tol * max(1.0, float(np.max(np.abs(u)))):
            break
    return u


def test_sweep_matches_solve_node_sweeps(catalog):
    config = SolveConfig(method="sweep", max_sweeps=5)
    for name, entry in catalog.items():
        system = assemble(entry.problem, Grid(entry.problem.network, 21))
        res = sweep_solve(system, config)
        ref = _reference_sweeps(system, config.max_sweeps, config.tol)
        assert np.max(np.abs(res.u.values - ref)) <= 1e-10, name


def test_sweep_solves_edge_nodes_without_root_finding(monkeypatch):
    """One sweep evaluates each node's residual once; only vertex nodes go
    through the root finder solve_node."""
    entry = entry_by_name("star3_eikonal")
    system = assemble(entry.problem, Grid(entry.problem.network, 41))
    loop_calls, solved, inside = [0], [], []
    residual_node = system.residual_node
    solve_node_ = solver.solve_node

    def counting_residual_node(gid, u):
        if not inside:
            loop_calls[0] += 1
        return residual_node(gid, u)

    def recording_solve_node(system, gid, u, **kwargs):
        solved.append(gid)
        inside.append(gid)
        try:
            return solve_node_(system, gid, u, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(system, "residual_node", counting_residual_node)
    monkeypatch.setattr(solver, "solve_node", recording_solve_node)
    start = GridFunction.full(system.grid, 0.5)  # no vertex row holds here
    sweep_solve(system, SolveConfig(method="sweep", max_sweeps=1), start)
    assert loop_calls[0] == system.grid.total_nodes
    assert solved and all(system.grid.node_kind(j) == "vertex" for j in solved)


def test_sweep_stays_inside_barriers(system_cached):
    """Monotone nodewise updates started inside a certified bracket never
    leave it."""
    system = system_cached("star3_eikonal", 11)
    bars = build_barriers(system)
    mid = GridFunction(system.grid,
                       0.5 * (bars.lower.values + bars.upper.values))
    cfg = SolveConfig(method="sweep", max_sweeps=4)
    res = sweep_solve(system, cfg, mid)
    assert np.all(res.u.values >= bars.lower.values - 1e-9)
    assert np.all(res.u.values <= bars.upper.values + 1e-9)


def _reference_jacobian(system, u, step):
    """Column-by-column central differences through the scalar
    residual_node: one column per node, perturbed on a copy of u."""
    u = u.copy()
    rows, cols, vals = [], [], []
    for j in range(system.grid.total_nodes):
        deps = system.dependents(j)
        u[j] += step
        plus = [system.residual_node(i, u) for i in deps]
        u[j] -= 2.0 * step
        minus = [system.residual_node(i, u) for i in deps]
        u[j] += step
        for i, rp, rm in zip(deps, plus, minus):
            d = (rp - rm) / (2.0 * step)
            if d != 0.0:
                rows.append(i)
                cols.append(j)
                vals.append(d)
    n = system.grid.total_nodes
    return coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsc()


@pytest.mark.parametrize("nodes", [3, 4, 11, 41])
def test_coloured_jacobian_matches_columnwise(nodes):
    """The coloured Jacobian equals the column-by-column one to FD
    accuracy; n = 3 has one interior node touching two vertices."""
    rng = np.random.default_rng(5)
    for entry in all_entries():
        system = assemble(entry.problem, Grid(entry.problem.network, nodes))
        u = rng.uniform(-1.0, 1.0, system.grid.total_nodes)
        jac = _fd_jacobian(system, u, 1e-7)
        ref = _reference_jacobian(system, u, 1e-7)
        scale = abs(ref).max()
        assert abs(jac - ref).max() <= 1e-7 * scale, (entry.name, nodes)


def test_jacobian_leaves_iterate_untouched(system_cached):
    system = system_cached("star3_mixed", 21)
    u = np.random.default_rng(2).uniform(-1.0, 1.0, system.grid.total_nodes)
    before = u.copy()
    _fd_jacobian(system, u, 1e-7)
    assert np.array_equal(u, before)


def test_jacobian_divides_by_step_taken(system_cached):
    """At the 1e-13 step floor the representable u +- step differ from the
    nominal 2*step by about 1e-3 relative; on a linear system the quotient
    over the step actually taken is still exact."""
    system = system_cached("star2_linear", 11)
    u = np.full(system.grid.total_nodes, 1.3)
    exact = _fd_jacobian(system, u, 1e-3).toarray()
    tiny = _fd_jacobian(system, u, 1e-13).toarray()
    assert np.max(np.abs(tiny - exact)) <= 1e-6 * np.max(np.abs(exact))


def test_newton_fast_on_linear_problem(system_cached):
    system = system_cached("star3_linear", 41)
    res = newton_solve(system, SolveConfig(method="newton"))
    assert res.converged
    assert res.iterations <= 5


def test_methods_agree(system_cached):
    # n = 11 keeps plain Gauss-Seidel fast enough on the elliptic edges
    system = system_cached("star3_mixed", 11)
    results = {}
    for method in ("sweep", "newton", "hybrid"):
        r = solve_system(system, SolveConfig(method=method))
        assert r.converged, method
        assert r.method == method
        results[method] = r.u.values
    for method in ("newton", "hybrid"):
        assert np.max(np.abs(results[method] - results["sweep"])) <= 1e-8


def test_junction_modes_agree_at_solution(catalog):
    """The minmax junction form and the coupling-equation form coincide on
    the catalog (the envelope clauses are inactive at F = 0)."""
    entry = entry_by_name("star3_eikonal")
    grid = Grid(entry.problem.network, 41)
    u_k = solve_system(assemble(entry.problem, grid)).u.values
    u_m = solve_system(assemble(entry.problem, grid, junction_mode="minmax")).u.values
    assert np.max(np.abs(u_k - u_m)) <= 1e-8


def test_multistart_unique_root(system_cached):
    system = system_cached("star3_mixed", 21)
    runs = multistart_solve(system)
    assert all(r.converged for r in runs)
    stack = np.stack([r.u.values for r in runs])
    assert float(np.max(stack.max(axis=0) - stack.min(axis=0))) <= 1e-9


def test_unknown_method_rejected(system_cached):
    with pytest.raises(ValueError):
        solve_system(system_cached("star3_constant", 5),
                     SolveConfig(method="bogus"))


def test_vanishing_viscosity_structure():
    entry = entry_by_name("star3_eikonal")
    schedule = [0.5 ** k for k in range(4)]
    sweep = vanishing_viscosity(entry.problem, 11, schedule)
    assert sweep.base.converged and sweep.base.eps == 0.0
    eps_seen = [s.eps for s in sweep.steps]
    assert eps_seen == sorted(eps_seen, reverse=True)
    assert len(sweep.deltas) == 3
    for s in sweep.steps:
        assert s.result.converged
        assert set(s.sup_diff_interior) == set(sweep.deltas)
        assert s.sup_diff_full >= max(s.sup_diff_interior.values()) - 1e-15
    # Cauchy differences recorded from the second step on
    assert not sweep.steps[0].cauchy_interior
    for s in sweep.steps[1:]:
        assert set(s.cauchy_interior) == set(sweep.deltas)
    rows = sweep.table()
    assert len(rows) == len(schedule)
    assert all("eps" in row and "sup_full" in row for row in rows)


def test_warm_start_reuses_profile(system_cached, solve_cached):
    """Restarting from the converged profile finishes immediately."""
    system = system_cached("star3_eikonal", 21)
    res = solve_cached("star3_eikonal", 21)
    again = solve_system(system, SolveConfig(), res.u)
    assert again.converged
    assert again.iterations <= 2
