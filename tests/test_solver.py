"""Nonlinear solvers: nodewise sweeps, semismooth Newton, barriers, and
the vanishing-viscosity continuation."""

import collections
import functools
import re
from dataclasses import replace

import numpy as np
import pytest

from knet import solver
from knet.catalog import all_entries, entry_by_name, random_problem
from knet.discretization import Grid, GridFunction, assemble
from knet.errors import LocalRootBracketFailed, SingularLinearization
from knet.problem import constant_diffusion, validate_problem
from knet.solver import (
    SolveConfig,
    _fd_jacobian,
    build_barriers,
    multistart_solve,
    newton_solve,
    solve_node,
    solve_problem,
    solve_system,
    spsolve,
    sweep_solve,
    vanishing_viscosity,
)


@pytest.mark.parametrize("make", [
    lambda net: SolveConfig(tol=-1),
    lambda net: SolveConfig(tol=float("nan")),
    lambda net: SolveConfig(tol=float("inf")),
    lambda net: SolveConfig(max_sweeps=0),
    lambda net: SolveConfig(max_sweeps=2.5),
    lambda net: assemble(entry_by_name("star3_eikonal").problem, Grid(net, 5), eps=float("nan")),
    lambda net: assemble(entry_by_name("star3_eikonal").problem, Grid(net, 5), eps=float("inf")),
    lambda net: Grid(net, 41.9),
    lambda net: Grid(net, {0: 41, 1: 41.9, 2: 41}),
], ids=["tol-negative", "tol-nan", "tol-inf", "max-sweeps-0", "max-sweeps-2.5",
        "eps-nan", "eps-inf", "nodes-41.9", "edge-nodes-41.9"])
def test_out_of_range_options_raise(make):
    """Each option's range is checked by the object that reads it: a tol
    that is not finite and > 0, a max_sweeps that is not an integer >= 1, an
    eps that is not finite and a node count that is not an integer."""
    with pytest.raises(ValueError):
        make(entry_by_name("star3_eikonal").problem.network)


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


def _coloured_order(grid):
    """Node order of an odd sweep of sweep_solve: the vertex nodes in gid
    order, then each edge's first, third, ... interior node, then its second,
    fourth, ... one.  Even sweeps visit the reverse order."""
    classes = ([], [])
    for ids in grid.node_ids.values():
        for k in range(1, len(ids) - 1):
            classes[(k - 1) % 2].append(int(ids[k]))
    return list(range(len(grid.network.vertices))) + classes[0] + classes[1]


def _solve_edge_node_closed_form(system, gid, u):
    if gid < len(system.grid.network.vertices):
        solve_node(system, gid, u)
    else:
        u[gid] -= system.residual_node(gid, u) / system.own_coeff[gid]


def _reference_sweeps(system, sweeps, tol, local_solve=solve_node):
    """The Gauss-Seidel sweeps of sweep_solve from zero, one node at a time
    in the coloured order, with local_solve(system, gid, u) at every node
    whose residual exceeds the skip threshold."""
    u = np.zeros(system.grid.total_nodes)
    order = _coloured_order(system.grid)
    for it in range(1, sweeps + 1):
        for j in (order if it % 2 else order[::-1]):
            if abs(system.residual_node(j, u)) > 0.05 * tol:
                local_solve(system, j, u)
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


@pytest.mark.parametrize("nodes", [3, 4, 21])
def test_coloured_sweep_equals_nodewise_closed_form_sweeps(catalog, nodes):
    """Updating a whole sweep class at once gives the same bits as the
    closed-form step taken node by node in the same order: no edge row
    reads another node of its own class."""
    config = SolveConfig(method="sweep", max_sweeps=5)
    for name, entry in catalog.items():
        system = assemble(entry.problem, Grid(entry.problem.network, nodes))
        res = sweep_solve(system, config)
        ref = _reference_sweeps(system, config.max_sweeps, config.tol,
                                _solve_edge_node_closed_form)
        assert res.u.values.tobytes() == ref.tobytes(), (name, nodes)


def test_sweep_solves_edge_nodes_without_root_finding(monkeypatch):
    """Outside the root finder solve_node, one sweep evaluates residual_node
    only at the vertex nodes, once each; only vertex nodes go through
    solve_node, and the edge nodes still move."""
    entry = entry_by_name("star3_eikonal")
    system = assemble(entry.problem, Grid(entry.problem.network, 41))
    loop_calls, solved, inside = [], [], []
    residual_node = system.residual_node
    solve_node_ = solver.solve_node

    def counting_residual_node(gid, u):
        if not inside:
            loop_calls.append(gid)
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
    vertices = list(range(len(system.grid.network.vertices)))
    for sweeps in (1, 2):
        loop_calls.clear()
        res = sweep_solve(system, SolveConfig(method="sweep", max_sweeps=sweeps), start)
        assert sorted(loop_calls) == sorted(vertices * sweeps)
    assert solved and all(j < len(vertices) for j in solved)
    assert np.all(res.u.values[len(vertices):] != 0.5)


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
        deps = system.grid.rows[system.grid.cols == j].tolist()
        u[j] += step
        plus = [system.residual_node(i, u) for i in deps]
        u[j] -= 2.0 * step
        minus = [system.residual_node(i, u) for i in deps]
        u[j] += step
        for i, rp, rm in zip(deps, plus, minus):
            d = (rp - rm) / (2.0 * step)
            rows.append(i)
            cols.append(j)
            vals.append(d)
    return _dense(system.grid, rows, cols, vals)


def _dense(grid, rows, cols, vals):
    out = np.zeros((grid.total_nodes,) * 2)
    out[rows, cols] = vals
    return out


def _dense_jacobian(system, u, step):
    """The matrix of jacobian_entries at the grid's (rows, cols)."""
    grid = system.grid
    return _dense(grid, grid.rows, grid.cols, system.jacobian_entries(u, step))


@pytest.mark.parametrize("nodes", [3, 4, 11, 41])
def test_coloured_jacobian_matches_columnwise(nodes):
    """The coloured Jacobian equals the column-by-column one to FD
    accuracy; n = 3 has one interior node touching two vertices."""
    rng = np.random.default_rng(5)
    for entry in all_entries():
        system = assemble(entry.problem, Grid(entry.problem.network, nodes))
        u = rng.uniform(-1.0, 1.0, system.grid.total_nodes)
        jac = _dense_jacobian(system, u, 1e-7)
        ref = _reference_jacobian(system, u, 1e-7)
        scale = abs(ref).max()
        assert abs(jac - ref).max() <= 1e-7 * scale, (entry.name, nodes)


def test_jacobian_leaves_iterate_untouched(system_cached):
    system = system_cached("star3_mixed", 21)
    u = np.random.default_rng(2).uniform(-1.0, 1.0, system.grid.total_nodes)
    before = u.copy()
    _fd_jacobian(system, u, 1e-7)
    assert np.array_equal(u, before)


@pytest.mark.parametrize("mode", ["kirchhoff", "minmax"])
@pytest.mark.parametrize("nodes", [3, 4, 11])
def test_network_solve_matches_dense_solve(nodes, mode):
    """spsolve on _fd_jacobian's network form (a tridiagonal edge block
    bordered by the vertex rows and columns) equals np.linalg.solve on the
    dense matrix of jacobian_entries at the grid's (rows, cols); n = 3 has
    one interior node between two vertices."""
    rng = np.random.default_rng(8)
    problems = ([e.problem for e in all_entries()]
                + [random_problem(np.random.default_rng(s)) for s in range(6)])
    for k, problem in enumerate(problems):
        grid = Grid(problem.network, nodes)
        system = assemble(problem, grid, junction_mode=mode, probe_samples=0)
        u = rng.uniform(-2.0, 2.0, grid.total_nodes)
        b = rng.uniform(-1.0, 1.0, grid.total_nodes)
        x = spsolve(_fd_jacobian(system, u, 1e-7), b)
        ref = np.linalg.solve(_dense_jacobian(system, u, 1e-7), b)
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref)), k


def _column_stack_spsolve(jac, b):
    """spsolve with its right-hand side built by np.column_stack, in C
    order, which f2py copies into Fortran order for dgtsv: the reference
    for the right-hand side written in LAPACK's column order."""
    from scipy.linalg.lapack import dgtsv
    nv = len(jac["D"])
    *_, y, info = dgtsv(jac["dl"], jac["d"], jac["du"],
                        np.column_stack([b[nv:], jac["B"]]), overwrite_b=True)
    assert info == 0
    xv = np.linalg.solve(jac["D"] - jac["C"] @ y[:, 1:], b[:nv] - jac["C"] @ y[:, 0])
    return np.concatenate([xv, y[:, 0] - y[:, 1:] @ xv])


@pytest.mark.parametrize("mode", ["kirchhoff", "minmax"])
def test_fortran_order_rhs_matches_column_stack(mode):
    """spsolve's right-hand side, written straight into a Fortran-order
    buffer, gives the column_stack form's solution bit for bit: every
    catalog entry and random_problem draws 0..11, at n = 3 (one interior
    node per edge; star2_linear's two give dgtsv one off-diagonal entry),
    n = 21 and mixed per-edge node counts.  The Jacobian is left as it was."""
    rng = np.random.default_rng(29)
    problems = ([e.problem for e in all_entries()]
                + [random_problem(np.random.default_rng(s)) for s in range(12)])
    for k, problem in enumerate(problems):
        mixed = {e.id: int(rng.integers(3, 14)) for e in problem.network.edges}
        for nodes in (3, 21, mixed):
            grid = Grid(problem.network, nodes)
            system = assemble(problem, grid, junction_mode=mode, probe_samples=0)
            u = rng.uniform(-2.0, 2.0, grid.total_nodes)
            b = rng.uniform(-1.0, 1.0, grid.total_nodes)
            jac = _fd_jacobian(system, u, 1e-7)
            kept = {name: block.copy() for name, block in jac.items()}
            x = spsolve(jac, b)
            assert x.tobytes() == _column_stack_spsolve(jac, b).tobytes(), (k, nodes)
            assert all(np.array_equal(jac[name], kept[name]) for name in jac)


@pytest.mark.parametrize("block", ["edge", "vertex"])
def test_singular_network_jacobian_raises(system_cached, block):
    """A zero pivot in the tridiagonal edge block (dgtsv's info != 0) or a
    singular vertex Schur complement raises SingularLinearization."""
    system = system_cached("star3_mixed", 11)
    u = np.zeros(system.grid.total_nodes)
    jac = _fd_jacobian(system, u, 1e-7)
    if block == "edge":
        jac["d"][0] = jac["du"][0] = 0.0
    else:
        jac["D"][:] = jac["C"][:] = 0.0
    with pytest.raises(SingularLinearization):
        spsolve(jac, np.ones(system.grid.total_nodes))


def test_jacobian_divides_by_step_taken(system_cached):
    """At the 1e-13 step floor the representable u +- step differ from the
    nominal 2*step by about 1e-3 relative; on a linear system the quotient
    over the step actually taken is still exact."""
    system = system_cached("star2_linear", 11)
    u = np.full(system.grid.total_nodes, 1.3)
    exact = _dense_jacobian(system, u, 1e-3)
    tiny = _dense_jacobian(system, u, 1e-13)
    assert np.max(np.abs(tiny - exact)) <= 1e-6 * np.max(np.abs(exact))


def test_jacobian_calls_no_residual(monkeypatch):
    """The Jacobian is read off the stencil: edge rows from two table calls
    of H, vertex rows from their own residuals, never a whole residual()."""
    entry = entry_by_name("star3_mixed")
    system = assemble(entry.problem, Grid(entry.problem.network, 21))
    calls = []
    real = system.residual
    monkeypatch.setattr(system, "residual", lambda u: calls.append(1) or real(u))
    u = np.random.default_rng(4).uniform(-1.0, 1.0, system.grid.total_nodes)
    _fd_jacobian(system, u, 1e-7)
    assert calls == []


@pytest.mark.parametrize("name", ["star2_linear", "star3_linear"])
@pytest.mark.parametrize("nodes", [41, 161])
def test_jacobian_exact_on_linear_problems(system_cached, name, nodes):
    """On a linear system the Jacobian is the matrix whose column j is
    residual(e_j) - residual(0), to round-off in the vertex rows."""
    system = system_cached(name, nodes)
    n = system.grid.total_nodes
    r0 = system.residual(np.zeros(n))
    exact = np.stack([system.residual(e) - r0 for e in np.eye(n)], axis=1)
    u = np.random.default_rng(6).uniform(-1.0, 1.0, n)
    jac = _dense_jacobian(system, u, solver.NEWTON_FD_STEP)
    assert np.max(np.abs(jac - exact)) <= 1e-10 * np.max(np.abs(exact))


def test_newton_one_step_on_linear_problem(system_cached):
    """With the exact Jacobian of a linear system, one full Newton step
    from zero lands within tolerance."""
    res = newton_solve(system_cached("star3_linear", 161), SolveConfig(method="newton"))
    assert res.converged
    assert res.iterations == 1


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


def test_hybrid_fallback_names_singular_linearization(monkeypatch, system_cached):
    def singular(*args, **kwargs):
        raise SingularLinearization("non-finite Newton direction")

    monkeypatch.setattr(solver, "spsolve", singular)
    res = solve_system(system_cached("star3_eikonal", 11))
    assert res.converged
    assert res.message == ("start: zero; newton iterations per level: 0 at n=11; "
                           "at n=11 newton hit a singular linearization (non-finite "
                           "Newton direction); ran 4 rounds of sweeps and newton")


@pytest.mark.parametrize("method, causes", [
    ("sweep", ["could not bracket a vertex root in sweep 1 (patched)"]),
    ("newton", ["hit a singular linearization (patched)"]),
    ("hybrid", ["hit a singular linearization (patched)",
                "could not bracket a vertex root in sweep 1 (patched)"]),
])
def test_no_solver_exception_escapes_solve_system(monkeypatch, system_cached, method,
                                                  causes):
    """A singular linear step or an unbracketed vertex root ends the run
    unconverged, its message naming the cause, under every method."""
    def raising(error):
        def primitive(*args, **kwargs):
            raise error("patched")
        return primitive

    monkeypatch.setattr(solver, "spsolve", raising(SingularLinearization))
    monkeypatch.setattr(solver, "solve_node", raising(LocalRootBracketFailed))
    system = system_cached("star3_mixed", 11)
    res = solve_system(system, SolveConfig(method=method))
    assert not res.converged and res.method == method
    assert all(cause in res.message for cause in causes), res.message
    assert res.residual_norm == system.residual_norm(res.u.values)


def test_rounds_end_where_a_round_moves_nothing(monkeypatch, system_cached):
    """Where neither the sweeps nor Newton can move the iterate (an
    unbracketed vertex root, a singular linear step), a second round would
    repeat the first: the hybrid stops after one, naming both causes."""
    def raising(error):
        def primitive(*args, **kwargs):
            raise error("patched")
        return primitive

    monkeypatch.setattr(solver, "spsolve", raising(SingularLinearization))
    monkeypatch.setattr(solver, "solve_node", raising(LocalRootBracketFailed))
    res = solve_system(system_cached("star3_mixed", 11))
    assert not res.converged and res.iterations == 1
    assert res.message.endswith(
        "; ran 1 round of sweeps and newton; in the last, sweep could not bracket a "
        "vertex root in sweep 1 (patched), then newton hit a singular linearization "
        "(patched)")


def test_singular_newton_step_keeps_the_last_iterate(monkeypatch, system_cached):
    """Newton stopped by a singular second step returns its first step's
    iterate with that iterate's residual, and counts one iteration."""
    real, calls = solver.spsolve, []

    def singular_second(jac, b):
        calls.append(1)
        if len(calls) == 2:
            raise SingularLinearization("second step")
        return real(jac, b)

    monkeypatch.setattr(solver, "spsolve", singular_second)
    system = system_cached("star3_mixed", 41)
    res = newton_solve(system, SolveConfig())
    assert not res.converged and res.iterations == 1
    assert res.message == "hit a singular linearization (second step)"
    assert res.residual_norm == system.residual_norm(res.u.values)
    assert res.residual_norm < system.residual_norm(np.zeros(system.grid.total_nodes))


def test_sweep_stops_where_a_vertex_root_is_not_bracketed(monkeypatch, system_cached):
    """With two doublings the bracket around a vertex value 1e3 above its
    neighbours reaches no sign change: the sweep stops unconverged, and
    solve_node leaves the value as it found it."""
    monkeypatch.setattr(solver, "MAX_DOUBLINGS", 2)
    system = system_cached("star3_mixed", 11)
    u0 = GridFunction.zeros(system.grid)
    u0.values[0] = 1e3
    u = u0.values.copy()
    with pytest.raises(LocalRootBracketFailed):
        solve_node(system, 0, u)
    np.testing.assert_array_equal(u, u0.values)
    res = sweep_solve(system, SolveConfig(), u0)
    assert not res.converged and res.iterations == 1
    assert res.message == ("could not bracket a vertex root in sweep 1 "
                           "(node 0: no sign change below)")
    assert res.residual_norm == system.residual_norm(res.u.values)
    np.testing.assert_array_equal(res.u.values, u0.values)


def test_star3_linear_1281_converges_within_the_round_off_floor():
    """At n = 1281 the round-off floor of the second difference lies above
    tol * max(1, |u|), and the threshold adds it: the default solve
    converges, at a residual that tol alone would refuse, where it used to
    stall and end unconverged after 2000 fallback sweeps.  The system is
    affine, so one Newton step from zero on the target grid solves it."""
    problem = entry_by_name("star3_linear").problem
    system = assemble(problem, Grid(problem.network, 1281))
    res = solve_system(system)
    assert res.converged
    assert res.message == "start: zero; newton iterations per level: 1 at n=1281"
    tol, floor = SolveConfig().tol, solver._floor(system)
    assert floor > tol
    assert solver._threshold(tol, 0.0, res.u.values) < res.residual_norm
    assert res.residual_norm <= solver._threshold(tol, floor, res.u.values)


def _recording(monkeypatch, runs):
    """Record each sweep_solve and newton_solve run as (name, grid, start
    values, result)."""
    for name in ("sweep_solve", "newton_solve"):
        def wrapper(system, config, u0=None, real=getattr(solver, name), name=name):
            res = real(system, config, u0)
            runs.append((name, system.grid, None if u0 is None else u0.values.copy(), res))
            return res
        monkeypatch.setattr(solver, name, wrapper)


def test_rounds_start_where_the_last_run_stopped(monkeypatch, system_cached):
    """With MAX_NEWTON = 1, Newton fails on star3_mixed's target grid at
    n = 161 and the rounds finish the solve.  Each round's sweeps start
    from the iterate the Newton run before returned, never from the level's
    start again, and each round's Newton from its sweeps' iterate."""
    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    runs = []
    _recording(monkeypatch, runs)
    system = system_cached("star3_mixed", 161)
    res = solve_system(system)
    assert res.converged
    rounds = int(re.search(r"; ran (\d+) rounds of sweeps and newton$", res.message).group(1))
    target = [r for r in runs if r[1] is system.grid]
    # the last round's sweeps converge, so no Newton follows them
    assert [r[0] for r in target] == ["newton_solve", "sweep_solve"] * rounds
    assert rounds >= 2
    for before, after in zip(target, target[1:]):
        np.testing.assert_array_equal(after[2], before[3].u.values)
    assert not np.array_equal(target[1][2], target[0][2])


def test_hybrid_returns_the_lowest_residual_run(monkeypatch, system_cached):
    """star3_mixed at n = 641 from zero with MAX_NEWTON = 1 and max_sweeps =
    20: the rounds end unconverged, above the residual of Newton's run on
    the target grid, whose iterate the hybrid returns.  The rounds spend at
    most max_sweeps + WARMUP_SWEEPS + MAX_NEWTON iterations, and the
    message names the last round's causes."""
    monkeypatch.setattr(solver, "MAX_NEWTON", 1)
    runs = []
    _recording(monkeypatch, runs)
    system = system_cached("star3_mixed", 641)
    res = solve_system(system, SolveConfig(max_sweeps=20), GridFunction.zeros(system.grid))
    assert not res.converged
    lowest = min((r[3] for r in runs), key=lambda r: r.residual_norm)
    assert lowest is runs[0][3] and runs[-1][3].residual_norm > lowest.residual_norm
    assert res.residual_norm == lowest.residual_norm
    np.testing.assert_array_equal(res.u.values, lowest.u.values)
    assert res.iterations == sum(r[3].iterations for r in runs)
    assert res.iterations - runs[0][3].iterations <= 20 + solver.WARMUP_SWEEPS + 1
    assert re.search(r"; in the last, sweep reached max_sweeps=5 at residual \S+ > "
                     r"threshold .*, then newton reached MAX_NEWTON=1 iterations at "
                     r"residual \S+ > threshold .*\) \* \S+$", res.message), res.message


@pytest.mark.parametrize("mode", ["kirchhoff", "minmax"])
def test_loss_elliptic_converges_from_minus_one_at_641(system_cached, mode):
    """star3_loss_elliptic at n = 641 from u = -1, a multistart start that
    ended unconverged under both junction modes with the SuperLU Newton
    step: the rounds of sweeps and Newton now converge from Newton's iterate."""
    system = system_cached("star3_loss_elliptic", 641, junction_mode=mode)
    res = solve_system(system, SolveConfig(max_sweeps=20),
                       GridFunction.full(system.grid, -1.0))
    assert res.converged, res.message


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


# ---------------------------------------------------------------------------
# Nested iteration: with no start given, the hybrid starts from the
# next-coarser grid's solution, prolonged


@pytest.mark.parametrize("seed", [7, 8, 43])
def test_valid_draws_converge_at_161(seed):
    """Valid draws on which a hybrid started by sweeps on the target grid
    stopped unconverged."""
    problem = random_problem(np.random.default_rng(seed))
    assert validate_problem(problem).ok
    res = solve_problem(problem, 161)
    assert res.converged, res.message
    assert res.message.startswith("start: coarser grid; ")


def test_graph5_constant_minmax_converges_at_1281():
    res = solve_problem(entry_by_name("graph5_constant").problem, 1281,
                        junction_mode="minmax")
    assert res.converged, res.message
    np.testing.assert_allclose(res.u.values, 1.0, atol=1e-9)


def test_multistart_converges_from_every_offset_at_161(system_cached):
    """Each constant start, +10 included, is corrected by Newton on the
    target grid, with rounds of sweeps and Newton only where it fails."""
    runs = multistart_solve(system_cached("star3_mixed", 161))
    assert all(r.converged for r in runs), [r.message for r in runs]
    assert all(r.message.startswith("start: given; ") for r in runs)
    stack = np.stack([r.u.values for r in runs])
    assert float(np.max(stack.max(axis=0) - stack.min(axis=0))) <= 1e-9


def test_minmax_multistart_converges_from_every_offset_at_161(system_cached):
    """The same starts as above under junction_mode="minmax", which the
    relaxed Kirchhoff condition of the paper asks for.  From +10 Newton
    reaches MAX_NEWTON and one round of sweeps and Newton finishes."""
    runs = multistart_solve(system_cached("star3_mixed", 161, junction_mode="minmax"))
    assert all(r.converged for r in runs), [r.message for r in runs]


@pytest.mark.xfail(strict=True, reason=(
    "Newton's line search stalls at residual 2.41e-10 > threshold 1e-10"))
def test_graph5_newton_from_minus_one_converges_at_641(system_cached):
    """Newton alone, from u = -1, on graph5_constant at n = 641 under
    "minmax"; it converged in 17 iterations before the network-form linear
    solve.  Every edge has a = 0, so the diffusion's round-off floor does
    not explain the stall.  The cause is open, likely the edge rows'
    Jacobian (the roadmap item on Newton's edge rows): H's central quotient
    is no element of the generalized Jacobian near the kink of |p|."""
    system = system_cached("graph5_constant", 641, junction_mode="minmax")
    res = newton_solve(system, SolveConfig(), GridFunction.full(system.grid, -1.0))
    assert res.converged, res.message


@pytest.mark.parametrize("mode", ["kirchhoff", "minmax"])
def test_star3_mixed_converges_from_plus_ten_at_641(system_cached, mode):
    """star3_mixed at n = 641 from u = +10: Newton reaches MAX_NEWTON, and
    the rounds, each from the last iterate, converge to the cold solve."""
    system = system_cached("star3_mixed", 641, junction_mode=mode)
    res = solve_system(system, SolveConfig(), GridFunction.full(system.grid, 10.0))
    cold = solve_system(system)
    assert res.converged, res.message
    assert cold.converged and "round" not in cold.message
    scale = max(1.0, float(np.max(np.abs(cold.u.values))))
    assert np.max(np.abs(res.u.values - cold.u.values)) <= 1e-10 * scale


def test_graph5_hybrid_from_minus_one_converges_at_641(system_cached):
    """graph5_constant under "minmax" at n = 641 from u = -1: Newton alone
    stalls (the strict xfail above), and the hybrid's rounds converge to
    the cold solve, the constant 1."""
    system = system_cached("graph5_constant", 641, junction_mode="minmax")
    res = solve_system(system, SolveConfig(), GridFunction.full(system.grid, -1.0))
    cold = solve_system(system)
    assert res.converged, res.message
    assert "; ran " in res.message and "round" not in cold.message
    assert np.max(np.abs(res.u.values - cold.u.values)) <= 1e-10


def test_fallback_rescues_converge(system_cached):
    """Solves that Newton alone failed on the target grid: from +10 under
    minmax, graph5_constant and star3_eikonal at n = 161, and
    star3_loss_elliptic cold at n = 641.  Only convergence is checked, not
    which run converged, so a solver that needs no rounds passes too."""
    cases = [("graph5_constant", 161, "minmax", 10.0),
             ("star3_eikonal", 161, "minmax", 10.0),
             ("star3_loss_elliptic", 641, "kirchhoff", None)]
    for name, nodes, mode, start in cases:
        system = system_cached(name, nodes, junction_mode=mode)
        u0 = None if start is None else GridFunction.full(system.grid, start)
        res = solve_system(system, SolveConfig(), u0)
        assert res.converged, (name, nodes, mode, start, res.message)


def test_cold_solve_neither_sweeps_nor_probes(monkeypatch, system_cached):
    """star3_mixed at n=641 is solved from n=21 up by Newton alone, and the
    coarse levels, which only predict, are assembled without the probe."""
    system = system_cached("star3_mixed", 641)
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "sweep_solve", counting("sweep", solver.sweep_solve))
    monkeypatch.setattr(type(system), "certify_monotone",
                        counting("certify", type(system).certify_monotone))
    res = solve_system(system)
    assert res.converged and calls == []
    assert res.message.startswith("start: coarser grid; ")


def test_coarse_levels_only_predict(monkeypatch):
    """With MAX_NEWTON=2 Newton fails on both levels of star3_mixed at
    n=41; the n=21 result still only starts n=41, and the sweeps run on
    the n=41 grid alone."""
    monkeypatch.setattr(solver, "MAX_NEWTON", 2)
    swept = []

    def recording(system, config, u0=None):
        swept.append(system.grid.nodes_per_edge[0])
        return sweep_solve(system, config, u0)

    monkeypatch.setattr(solver, "sweep_solve", recording)
    res = solve_problem(entry_by_name("star3_mixed").problem, 41)
    assert res.converged
    assert res.message.startswith("start: coarser grid; newton iterations per "
                                  "level: 2 at n=21, 2 at n=41; at n=41 newton ")
    assert swept and set(swept) == {41}


def test_star3_linear_solves_on_its_own_grid_alone(monkeypatch):
    """star3_linear is affine, so Newton's first step is exact from any
    start: at n = 161 the hybrid runs Newton from zero on that grid, with
    no coarser level and no coarse assembly."""
    problem = entry_by_name("star3_linear").problem
    system = assemble(problem, Grid(problem.network, 161))
    assert system.affine
    monkeypatch.setattr(solver, "assemble", None)
    res = solve_system(system)
    assert res.converged and res.iterations == 1
    assert res.message == "start: zero; newton iterations per level: 1 at n=161"


def test_affine_systems_converge_on_one_level_in_two_steps():
    """Every affine system among the catalog and draws 0..59, under both
    junction modes (star2_linear, star3_linear and draw 21), converges on
    its own grid in at most two Newton steps from zero."""
    problems = [e.problem for e in all_entries()] + [
        random_problem(np.random.default_rng(s)) for s in range(60)]
    systems = []
    for mode in ("kirchhoff", "minmax"):
        for problem in problems:
            system = assemble(problem, Grid(problem.network, 41), junction_mode=mode)
            if system.affine:
                systems.append(system)
    assert len(systems) == 6
    for system in systems:
        res = solve_system(system)
        assert res.converged, res.message
        assert re.fullmatch(r"start: zero; newton iterations per level: [12] at n=41",
                            res.message), res.message


def test_affine_is_the_direct_solves_linearity_and_no_relaxed_clause():
    """ResidualSystem.affine takes the direct linear solve's test,
    NetworkProblem.why_not_linear, and adds that no vertex row takes a
    relaxed clause: under minmax a junction edge with a = 0 is relaxed."""
    linear = entry_by_name("star3_linear").problem
    flat = replace(linear, diffusions={**linear.diffusions, 0: constant_diffusion(0.0)})
    for problem, modes in [(linear, {"kirchhoff": True, "minmax": True}),
                           (flat, {"kirchhoff": True, "minmax": False})]:
        assert problem.why_not_linear() == ""
        for mode, affine in modes.items():
            assert assemble(problem, Grid(problem.network, 11), junction_mode=mode).affine is affine
    for name, reason in [("star3_eikonal", "edge 0: Hamiltonian is not affine in p"),
                         ("star3_mixed", "vertex 0: coupling family 'pm-split' is not linear")]:
        problem = entry_by_name(name).problem
        assert problem.why_not_linear() == reason
        assert not assemble(problem, Grid(problem.network, 11)).affine


@pytest.mark.parametrize("nodes, levels", [
    (161, "n=21, n=41, n=81, n=161"), (41, "n=21, n=41"), (40, "n=40"),
    ({0: 81, 1: 42, 2: 161}, "n=21/41/81, n=42/81/161"),
    ({0: 81, 1: 40, 2: 161}, "n=40/81/161")])
def test_levels_halve_each_edge_down_to_21(nodes, levels):
    """Each coarser level has (n - 1) // 2 + 1 nodes per edge, per edge for
    dict counts, while every edge keeps MIN_LEVEL_NODES."""
    network = entry_by_name("star3_mixed").problem.network
    res = solve_system(assemble(entry_by_name("star3_mixed").problem, Grid(network, nodes)))
    assert res.converged
    counts = res.message.split("; ")[1].removeprefix("newton iterations per level: ")
    assert re.sub(r"\d+ at ", "", counts) == levels


def test_unknown_method_rejected(system_cached):
    with pytest.raises(ValueError):
        solve_system(system_cached("star3_constant", 5),
                     SolveConfig(method="bogus"))


def test_vanishing_viscosity_structure():
    entry = entry_by_name("star3_eikonal")
    schedule = [0.5 ** k for k in range(4)]
    sweep = vanishing_viscosity(entry.problem, 11, schedule)
    assert sweep.base.converged
    eps_seen = [s.eps for s in sweep.steps]
    assert eps_seen == sorted(schedule, reverse=True)
    assert len(sweep.deltas) == 3
    for s in sweep.steps:
        assert s.result.converged
        assert set(s.sup_diff_interior) == set(sweep.deltas)
        assert s.sup_diff_full >= max(s.sup_diff_interior.values()) - 1e-15


def test_continuation_step_is_a_newton_corrector(monkeypatch, system_cached,
                                                 solve_cached):
    """A continuation step, solve_system from the previous step's solution,
    is Newton from that start alone: no sweep, no coarser grid."""
    monkeypatch.setattr(solver, "sweep_solve", None)
    monkeypatch.setattr(solver, "assemble", None)
    system = system_cached("star3_eikonal", 21, eps=0.25)
    res = solve_system(system, SolveConfig(), solve_cached("star3_eikonal", 21).u)
    assert res.converged and res.method == "hybrid"
    assert res.message == ("start: given; newton iterations per level: "
                           f"{res.iterations} at n=21")


@pytest.mark.parametrize("failure", ["singular", "max_newton"])
def test_continuation_step_falls_back_to_hybrid(monkeypatch, system_cached,
                                                solve_cached, failure):
    """A corrector that fails hands the step to rounds of sweeps and Newton
    from the prediction.  Newton moves nothing, so the sweeps converge, in
    the last round; the message names Newton's cause and the rounds."""
    system = system_cached("star3_eikonal", 21, eps=0.25)
    warm = solve_cached("star3_eikonal", 21).u
    cold = solve_cached("star3_eikonal", 21, eps=0.25).u
    if failure == "singular":
        def singular(*args, **kwargs):
            raise SingularLinearization("non-finite Newton direction")

        monkeypatch.setattr(solver, "spsolve", singular)
        cause = "hit a singular linearization (non-finite Newton direction)"
    else:
        monkeypatch.setattr(solver, "MAX_NEWTON", 0)
        cause = "reached MAX_NEWTON=0 iterations at residual "
    res = solve_system(system, SolveConfig(), warm)
    assert res.converged and res.method == "hybrid"
    found = re.fullmatch(r"start: given; newton iterations per level: 0 at n=21; at "
                         r"n=21 newton " + re.escape(cause)
                         + r".*; ran (\d+) rounds of sweeps and newton", res.message)
    rounds = int(found.group(1))
    assert 5 * (rounds - 1) < res.iterations <= 5 * rounds
    assert np.max(np.abs(res.u.values - cold.values)) <= 1e-8


GRID_TABLES = ("border", "edge_slices", "edge_table", "sweep_classes", "incidence_geometry",
               "vertex_moves")


def test_viscosity_schedule_builds_its_border_index_once(monkeypatch):
    """The base and every step are assembled on one grid, which builds its
    border index, the layout of the network form, once, for every Jacobian
    of every step.  So it builds each of its geometry tables once, for
    every system assembled on it, the sweep classes included."""
    import knet.discretization as disc

    calls = {name: 0 for name in GRID_TABLES}

    def count(name):
        real = getattr(disc.Grid, name).func

        def built(grid):
            calls[name] += 1
            return real(grid)
        counted = functools.cached_property(built)
        counted.__set_name__(disc.Grid, name)
        monkeypatch.setattr(disc.Grid, name, counted)

    for name in GRID_TABLES:
        count(name)
    jacobians = []
    real_jacobian = solver._fd_jacobian
    monkeypatch.setattr(solver, "_fd_jacobian",
                        lambda *a: jacobians.append(1) or real_jacobian(*a))
    problem = entry_by_name("star3_mixed").problem
    sweep = vanishing_viscosity(problem, 11, [0.5 ** k for k in range(4)])
    assert all(s.result.converged for s in sweep.steps)
    for eps in (0.0, 0.5):
        sweep_solve(assemble(problem, sweep.base.u.grid, eps=eps), SolveConfig(max_sweeps=2))
    assert len(jacobians) > len(sweep.steps)
    assert calls == {name: 1 for name in GRID_TABLES}


def test_viscosity_steps_build_the_scheme_tables_once_per_grid(monkeypatch):
    """A 9-step vanishing_viscosity assembles its base and nine steps on one
    grid, and the base's nested levels on their own grids.  Each grid builds
    the problem's scheme tables once, so each edge's diffusion is evaluated
    on the edge table once per grid, and at each incidence once in all."""
    import knet.discretization as disc

    problem = entry_by_name("star3_mixed").problem
    grids = []
    real_init = disc.Grid.__init__
    monkeypatch.setattr(disc.Grid, "__init__",
                        lambda self, *args: grids.append(self) or real_init(self, *args))
    calls = collections.Counter()
    for eid, diffusion in problem.diffusions.items():
        def counted(x, _eid=eid, _real=diffusion.a):
            calls[_eid, "table" if np.ndim(x) else "incidence"] += 1
            return _real(x)
        object.__setattr__(diffusion, "a", counted)  # a Diffusion is frozen
    sweep = vanishing_viscosity(problem, 41, [0.5 ** k for k in range(9)])
    assert len(sweep.steps) == 9 and all(s.result.converged for s in sweep.steps)
    assert len(grids) == 2  # n = 41 and the base's coarse level n = 21
    assert calls == {**{(e, "table"): len(grids) for e in problem.diffusions},
                     **{(e, "incidence"): 2 for e in problem.diffusions}}


def test_warm_start_reuses_profile(system_cached, solve_cached):
    """Restarting from the converged profile finishes immediately."""
    system = system_cached("star3_eikonal", 21)
    res = solve_cached("star3_eikonal", 21)
    again = solve_system(system, SolveConfig(), res.u)
    assert again.converged
    assert again.iterations <= 2
