"""End-to-end verification criteria.

Each test covers one criterion and prints a single PASS/FAIL line (visible
with pytest -s or in the captured output on failure) before asserting.
"""

import numpy as np
import pytest

from knet.analysis import (
    check_degenerate_edge_inequalities,
    estimate_junction_slopes,
    lipschitz_on_interior,
)
from knet.catalog import all_entries, entry_by_name, random_problem
from knet.discretization import Grid, GridFunction, assemble
from knet.oracle import (
    direct_linear_solve,
    fine_grid_reference,
    richardson_order,
    sup_error,
)
from knet.solver import SolveConfig, build_barriers, multistart_solve, solve_system

TOL = 1e-10


def _report(k, ok, detail):
    print(f"criterion {k:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _exact_gridfunction(entry, grid):
    return GridFunction.from_profile(grid, lambda eid, t: entry.exact(eid, t))


def test_criterion_1_constants_exact_at_every_resolution(solve_cached):
    """Problems whose exact solution is a compatible constant are solved to
    solver tolerance at every resolution."""
    worst = 0.0
    for name in ("star3_constant", "graph5_constant"):
        entry = entry_by_name(name)
        for n in (11, 41, 161):
            res = solve_cached(name, n)
            assert res.converged, (name, n)
            err = sup_error(res.u, _exact_gridfunction(entry, res.u.grid))
            worst = max(worst, err)
    ok = worst <= 1e-10
    assert _report(1, ok, f"constant-solution sup error {worst:.3e} <= 1e-10")


def test_criterion_2_comparison_and_barriers_on_random_systems():
    """100 randomized monotone systems: assembly certifies monotonicity,
    barrier pairs bracket the computed solution, and certified shifted
    sub/supersolution pairs are ordered."""
    rng = np.random.default_rng(0)
    ok = True
    detail = "100 random systems bracketed and ordered"
    for k in range(100):
        problem = random_problem(rng)
        system = assemble(problem, Grid(problem.network, 9))
        bars = build_barriers(system)
        res = solve_system(system)
        u = res.u.values
        scale = max(1.0, float(np.max(np.abs(u))), bars.offset)
        slack = 1e-8 * scale
        if not res.converged:
            ok, detail = False, f"system {k}: no convergence"
            break
        if not (np.all(u >= bars.lower.values - slack)
                and np.all(u <= bars.upper.values + slack)):
            ok, detail = False, f"system {k}: barriers do not bracket"
            break
        # certified shifted pairs: properness makes u -/+ c sub/super
        subs = [u - 0.5, u - 2.0, bars.lower.values]
        supers = [u + 0.5, u + 2.0, bars.upper.values]
        if not all(np.all(system.residual(s) <= slack) for s in subs):
            ok, detail = False, f"system {k}: subsolution not certified"
            break
        if not all(np.all(system.residual(s) >= -slack) for s in supers):
            ok, detail = False, f"system {k}: supersolution not certified"
            break
        if not all(np.all(s <= t + 1e-12) for s in subs for t in supers):
            ok, detail = False, f"system {k}: comparison violated"
            break
    assert _report(2, ok, detail)


def test_criterion_3_multistart_agreement(system_cached):
    """Solves from widely separated initial guesses agree within 10x the
    solver tolerance on every catalog entry."""
    worst = 0.0
    for entry in all_entries():
        system = system_cached(entry.name, 21)
        runs = multistart_solve(system)
        assert all(r.converged for r in runs), entry.name
        stack = np.stack([r.u.values for r in runs])
        worst = max(worst, float(np.max(stack.max(axis=0) - stack.min(axis=0))))
    ok = worst <= 10.0 * TOL
    assert _report(3, ok, f"multistart spread {worst:.3e} <= {10 * TOL:.0e}")


def test_criterion_4_linear_oracle_agreement_and_order(solve_cached):
    """Linear elliptic entries match the independent direct solve to 1e-8
    at h = 1/400 and converge with observed order >= 1.9 against a
    fine-grid direct oracle."""
    worst_match, worst_order = 0.0, np.inf
    for name in ("star2_linear", "star3_linear"):
        entry = entry_by_name(name)
        res = solve_cached(name, 401)
        ref = direct_linear_solve(entry.problem, 401)
        worst_match = max(worst_match, sup_error(res.u, ref.u))
        oracle = direct_linear_solve(entry.problem, 1601)
        errs = [sup_error(solve_cached(name, n).u, oracle.u)
                for n in (51, 101, 201)]
        worst_order = min(worst_order, richardson_order(errs))
    ok = worst_match <= 1e-8 and worst_order >= 1.9
    assert _report(4, ok, f"oracle match {worst_match:.3e} <= 1e-8, "
                          f"order {worst_order:.3f} >= 1.9")


def test_criterion_5_eikonal_first_order(solve_cached):
    """The degenerate eikonal star converges with observed order >= 0.9
    against 4x-refined references of the same scheme."""
    entry = entry_by_name("star3_eikonal")
    errs = []
    for n in (41, 81, 161):
        ref = fine_grid_reference(entry.problem, n)
        assert ref.meta["converged"]
        errs.append(sup_error(solve_cached("star3_eikonal", n).u, ref.u))
    order = richardson_order(errs)
    ok = order >= 0.9
    assert _report(5, ok, f"eikonal order {order:.3f} >= 0.9, errors "
                          + ", ".join(f"{e:.2e}" for e in errs))


def test_criterion_6_boundary_loss_and_attainment(solve_cached):
    """Unattainably large data: the solution stays within 5h above the
    state-constraint profile instead of chasing the datum; with positive
    diffusion the same data are attained exactly."""
    ok = True
    details = []
    for n in (21, 41, 81):
        res = solve_cached("star3_eikonal_loss", n)
        grid = res.u.grid
        h = grid.h
        worst = max(float(res.u.values[grid.vertex_gid(v)]) for v in (1, 2, 3))
        details.append(f"loss u_v {worst:.4f} <= {1 + 5 * h:.4f} (n={n})")
        ok = ok and res.converged and worst <= 1.0 + 5.0 * h
    res = solve_cached("star3_loss_elliptic", 81)
    grid = res.u.grid
    gap = max(abs(float(res.u.values[grid.vertex_gid(v)]) - 5.0)
              for v in (1, 2, 3))
    details.append(f"elliptic attainment gap {gap:.2e} <= 1e-8")
    ok = ok and res.converged and gap <= 1e-8
    assert _report(6, ok, "; ".join(details))


def test_criterion_7_vanishing_viscosity():
    """A decreasing viscosity schedule converges monotonically to the
    zero-viscosity solution away from the boundary, while the boundary gap
    of the loss case stays bounded away from zero for every eps."""
    from knet.solver import vanishing_viscosity

    schedule = [2.0 ** (-k) for k in range(9)]
    entry = entry_by_name("star3_eikonal")
    delta = 0.1 * entry.problem.network.min_edge_length
    sweep = vanishing_viscosity(entry.problem, 41, schedule, deltas=(delta,))
    sups = [s.sup_diff_interior[delta] for s in sweep.steps]
    h = sweep.base.u.grid.h
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    ok = (sweep.base.converged and all(s.result.converged for s in sweep.steps)
          and decreasing and sups[-1] <= 5.0 * h)

    loss = entry_by_name("star3_eikonal_loss")
    sweep_loss = vanishing_viscosity(loss.problem, 41, schedule, deltas=(delta,))
    grid = sweep_loss.base.u.grid
    gids = [grid.vertex_gid(v) for v in (1, 2, 3)]
    base_vals = sweep_loss.base.u.values[gids]
    min_gap = min(
        float(np.min(np.abs(s.result.u.values[gids] - base_vals)))
        for s in sweep_loss.steps
    )
    ok = ok and min_gap >= 0.5
    assert _report(7, ok, f"interior sup {sups[0]:.2e} -> {sups[-1]:.2e} "
                          f"decreasing, final <= {5 * h:.3f}; "
                          f"loss boundary gap {min_gap:.2f} >= 0.5")


def test_criterion_8_junction_inequalities(system_cached, solve_cached):
    """On every entry with a relaxed junction edge (a degenerate one, by
    NetworkProblem.relaxed) the windowed slope estimates satisfy the
    subsolution inequality within 5h on each degenerate edge, and the
    coupling equation holds to solver tolerance at every junction."""
    ok = True
    worst_margin, worst_f = -np.inf, 0.0
    for entry in all_entries():
        if not any(entry.problem.relaxed[v.id] for v in entry.problem.network.interior_vertices):
            continue
        res = solve_cached(entry.name, 41)
        system = system_cached(entry.name, 41)
        u = res.u
        tol = 5.0 * u.grid.h
        for v in entry.problem.network.interior_vertices:
            f_res = abs(system.residual_node(u.grid.vertex_gid(v.id), u.values))
            worst_f = max(worst_f, f_res)
            ok = ok and f_res <= 1e-8
            slopes = estimate_junction_slopes(u, v.id, window=3)
            for verdict in check_degenerate_edge_inequalities(
                    entry.problem, u, v.id, slopes, tol):
                worst_margin = max(worst_margin, verdict.sub_margin - tol)
                ok = ok and verdict.passed
    assert _report(8, ok, f"sub margin over tolerance {worst_margin:.3e} <= 0, "
                          f"|F| {worst_f:.2e} <= 1e-8")


def test_criterion_9_lipschitz_stability(solve_cached):
    """The interior Lipschitz constant on the set at distance > delta from
    the boundary varies by at most 5% across h, h/2, h/4."""
    ok = True
    details = []
    for entry in all_entries():
        delta = 0.1 * entry.problem.network.min_edge_length
        # the elliptic loss entry has a boundary layer and needs finer grids
        # before the constant settles
        base = 81 if entry.name == "star3_loss_elliptic" else 41
        cs = [lipschitz_on_interior(solve_cached(entry.name, n).u, delta)
              for n in (base, 2 * base - 1, 4 * base - 3)]
        top = max(cs)
        if top <= 1e-6:
            details.append(f"{entry.name}: flat")
            continue
        var = (top - min(cs)) / top
        details.append(f"{entry.name}: {var * 100:.1f}%")
        ok = ok and var <= 0.05
    assert _report(9, ok, "variation <= 5% (" + ", ".join(details) + ")")


def test_criterion_10_monotonicity_certification(system_cached):
    """Every catalog system passes the monotone-scheme perturbation probe
    on 100 random grid functions."""
    ok = True
    witness = None
    for entry in all_entries():
        system = system_cached(entry.name, 13)
        w = system.probe_monotone(n_samples=100,
                                  rng=np.random.default_rng(42))
        if w is not None:
            ok, witness = False, (entry.name, w)
            break
    assert _report(10, ok, "100/100 random grid functions certified"
                   if ok else f"witness {witness}")
