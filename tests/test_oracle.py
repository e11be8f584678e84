"""Independent reference solutions and order estimation."""

import dataclasses
import math
import re

import numpy as np
import pytest

from knet import oracle, solver
from knet.catalog import eikonal_problem, entry_by_name
from knet.discretization import Grid, GridFunction
from knet.errors import GridTooCoarse, NonPositiveError, ProblemNotEikonal, ProblemNotLinear
from knet.network import build_network, star_junction
from knet.oracle import (
    convergence_table,
    direct_linear_solve,
    fine_grid_reference,
    flux_limited_reference,
    observed_orders,
    reference_for,
    richardson_order,
    self_convergence_order,
    sup_error,
)
from knet.problem import (
    NetworkProblem,
    advection,
    constant_diffusion,
    eikonal,
    linear_vanish,
    make_kirchhoff,
)


def _constant_one_problem(net):
    """lam*u - u'' - 1 = 0 with data 1 has the exact solution u = 1."""
    return NetworkProblem(
        net, 1.0,
        {e.id: advection(0.0, -1.0) for e in net.edges},
        {e.id: constant_diffusion(1.0) for e in net.edges},
        {v.id: make_kirchhoff("classical", net.degree(v.id))
         for v in net.interior_vertices},
        {v.id: 1.0 for v in net.boundary_vertices},
    )


def test_direct_solve_exact_constant_single_edge():
    net = build_network(range(2), [(0, 0, 1, 1.0)])
    ref = direct_linear_solve(_constant_one_problem(net), 21)
    assert ref.method == "direct-linear"
    np.testing.assert_allclose(ref.u.values, 1.0, atol=1e-12)


def test_direct_solve_exact_constant_star():
    ref = direct_linear_solve(_constant_one_problem(star_junction(3)), 21)
    np.testing.assert_allclose(ref.u.values, 1.0, atol=1e-12)


def test_direct_solve_closed_form(catalog):
    """Two unit edges with pure diffusion and data 0, 1: the solution is
    sinh(s)/sinh(2) in the arc length from the zero end."""
    entry = catalog["star2_linear"]
    ref = direct_linear_solve(entry.problem, 401)
    exact = GridFunction.from_profile(ref.grid, entry.exact)
    assert sup_error(ref.u, exact) <= 1e-4
    center = ref.u.values[ref.grid.vertex_gid(0)]
    assert center == pytest.approx(math.sinh(1.0) / math.sinh(2.0), abs=1e-4)


def test_direct_solve_second_order(catalog):
    entry = catalog["star2_linear"]
    errs = []
    for n in (51, 101, 201):
        ref = direct_linear_solve(entry.problem, n)
        exact = GridFunction.from_profile(ref.grid, entry.exact)
        errs.append(sup_error(ref.u, exact))
    assert richardson_order(errs) >= 1.9


def test_direct_solve_rejects_nonlinear(catalog):
    with pytest.raises(ProblemNotLinear):
        direct_linear_solve(catalog["star3_eikonal"].problem, 21)
    with pytest.raises(ProblemNotLinear):  # pm-split coupling is piecewise
        direct_linear_solve(catalog["star3_mixed"].problem, 21)
    with pytest.raises(GridTooCoarse):  # one-sided slopes need 4 nodes
        direct_linear_solve(catalog["star2_linear"].problem, 3)


def test_direct_solve_survives_dataclass_replace(catalog):
    """A Hamiltonian's affine data is derived from its (family, params)
    record, which dataclasses.replace of c_h keeps, so the direct oracle
    still applies."""
    problem = catalog["star3_linear"].problem
    doubled = dataclasses.replace(problem, hamiltonians={
        eid: dataclasses.replace(ham, c_h=2.0 * ham.c_h)
        for eid, ham in problem.hamiltonians.items()})
    assert reference_for(doubled, 11).method == "direct-linear"


def _replaced_fn(problem, part):
    """problem with every Hamiltonian's fn replaced by 3p + f(x), f its
    advection source, or with every coupling's fn replaced by
    2*sum(-p) + 1."""
    if part == "hamiltonian":
        return dataclasses.replace(problem, hamiltonians={
            eid: dataclasses.replace(
                ham, fn=lambda x, p, f=ham.affine[1]: 3.0 * np.asarray(p, dtype=float) + f(x))
            for eid, ham in problem.hamiltonians.items()})
    return dataclasses.replace(problem, kirchhoff={
        vid: dataclasses.replace(cond, fn=lambda r, p: 2.0 * np.sum(-p, axis=-1) + 1.0)
        for vid, cond in problem.kirchhoff.items()})


@pytest.mark.parametrize("part", ["hamiltonian", "coupling"])
def test_replaced_fn_takes_the_fine_grid_reference(catalog, part):
    """A built-in handed a new fn is custom, so no affine data or linear
    family of its old record survives: the direct solve refuses the
    problem, and the reference is the fine-grid run of the new problem,
    not the old problem's direct solution."""
    old = catalog["star3_linear"].problem
    new = _replaced_fn(old, part)
    records = new.hamiltonians if part == "hamiltonian" else new.kirchhoff
    assert all(r.family == "custom" and r.params == {} for r in records.values())
    with pytest.raises(ProblemNotLinear):
        direct_linear_solve(new, 21)
    ref = reference_for(new, 21)
    assert ref.method == "fine-grid" and ref.meta["converged"]
    assert sup_error(ref.u, direct_linear_solve(old, 21).u) > 0.05


def test_fine_grid_reference(catalog):
    ref = fine_grid_reference(catalog["star3_constant"].problem, 11)
    assert ref.method == "fine-grid"
    assert ref.meta["refine"] == 4
    assert ref.meta["converged"]
    assert ref.grid.nodes_per_edge[0] == (11 - 1) * 4 + 1
    np.testing.assert_allclose(ref.u.values, 1.0, atol=1e-9)
    assert ref.meta["message"]


def test_unconverged_fine_grid_reference_keeps_its_reason(catalog, monkeypatch):
    """A reference solve that stops short keeps the solver's message."""
    monkeypatch.setattr(oracle, "SolveConfig",
                        lambda: solver.SolveConfig(method="sweep", max_sweeps=1))
    ref = fine_grid_reference(catalog["star3_eikonal"].problem, 5)
    assert ref.meta["converged"] is False
    assert ref.meta["message"].startswith("reached max_sweeps=1 at residual ")
    assert ref.grid.level_name == "n=17"


@pytest.mark.parametrize("name", ["star3_eikonal", "star3_constant", "graph5_constant",
                                  "star3_eikonal_loss"])
def test_flux_limited_reference_reproduces_exact_profiles(catalog, name):
    """The closed form reproduces every all-degenerate eikonal entry's exact
    profile: 1 - e^(-d) on star3_eikonal, the constant 1 on the others."""
    entry = catalog[name]
    for nodes in (5, 41, {e.id: 5 + 4 * e.id for e in entry.problem.network.edges}):
        ref = flux_limited_reference(entry.problem, nodes)
        assert ref.method == "flux-limited"
        exact = GridFunction.from_profile(ref.grid, entry.exact)
        assert np.max(np.abs(ref.u.values - exact.values)) <= 1e-14


def test_flux_limited_reference_loses_unattainable_data_on_one_edge():
    """One eikonal edge with data 5 at both ends: staying costs f/lam = 1 <
    5, so both data are lost and u = 1.  No junction joins the ends, so
    only the boundary vertices' own stay values min(g, f/lam) give it; the
    recursion through the edge alone would not reach 1 in V rounds."""
    net = build_network(range(2), [(0, 0, 1, 1.0)])
    problem = NetworkProblem(net, 1.0, {0: eikonal(1.0, 1.0)}, {0: constant_diffusion(0.0)},
                             {}, {0: 5.0, 1: 5.0})
    ref = flux_limited_reference(problem, 21)
    assert np.max(np.abs(ref.u.values - 1.0)) <= 1e-14


def _eikonal_star_with(**changes):
    """star3_eikonal with one part replaced."""
    problem = entry_by_name("star3_eikonal").problem
    return dataclasses.replace(problem, **changes)


@pytest.mark.parametrize("problem, eps, match", [
    (entry_by_name("star3_mixed").problem, 0.0, "vertex 0: coupling family 'pm-split'"),
    (entry_by_name("star3_eikonal").problem, 0.5, "eps = 0.5 > 0"),
    (_eikonal_star_with(kirchhoff={0: make_kirchhoff("pm-split", 3)}), 0.0,
     "vertex 0: coupling family 'pm-split'"),
    (_eikonal_star_with(kirchhoff={0: make_kirchhoff("affine", 3)}), 0.0,
     "vertex 0: coupling family 'affine'"),
    (_eikonal_star_with(hamiltonians={eid: dataclasses.replace(ham, fn=lambda x, p: abs(p) - 1.0)
                                      for eid, ham in entry_by_name("star3_eikonal")
                                      .problem.hamiltonians.items()}), 0.0,
     "edge 0: Hamiltonian custom"),
    (_eikonal_star_with(diffusions={0: constant_diffusion(0.0), 1: constant_diffusion(0.0),
                                    2: linear_vanish(1.0, 1.0)}), 0.0,
     "edge 2: diffusion does not vanish"),
])
def test_flux_limited_reference_refuses_what_it_does_not_solve(problem, eps, match):
    """Off eps = 0, a = 0 at every node, built-in eikonal H and classical
    junctions the closed form raises its KnetError, as the direct solve
    does off linear problems, and reference_for goes on down its list."""
    with pytest.raises(ProblemNotEikonal, match=re.escape(match)):
        flux_limited_reference(problem, 11, eps=eps)
    assert reference_for(problem, 11, eps=eps).method == "fine-grid"


EIKONAL_DRAWS = [(seed, B) for B in (0.0, -0.5, None) for seed in (0, 1)]


@pytest.mark.parametrize("limiter", ["kirchhoff", "minmax"])
def test_eikonal_family_converges_at_first_order_to_the_flux_limited_reference(
        flux_limiter, limiter):
    """Six eikonal_problem draws, two each with B = 0, B = -0.5 and B ~
    U(-1, 1), each in the case named by what sets its flux limiter (two
    where a coupling does, four where A_0 does at every junction): the
    scheme converges to the closed form, with observed order >= 0.9 from
    n = 161 to 641."""
    problems = [(seed, B, eikonal_problem(np.random.default_rng(seed), B))
                for seed, B in EIKONAL_DRAWS]
    problems = [d for d in problems if flux_limiter(d[2]) == limiter]
    assert len(problems) >= 2
    for seed, B, problem in problems:
        rows = convergence_table(problem, [161, 321, 641])
        assert [r["reference"] for r in rows] == ["flux-limited"] * 3
        assert all(r["converged"] for r in rows), (seed, B, [r["message"] for r in rows])
        assert min(r["order"] for r in rows[1:]) >= 0.9, (seed, B, rows)


def test_sup_error_interpolates_across_grids():
    net = star_junction(2)
    coarse = GridFunction.from_profile(Grid(net, 11),
                                       lambda eid, t: 2.0 * np.asarray(t))
    fine = GridFunction.from_profile(Grid(net, 41),
                                     lambda eid, t: 2.0 * np.asarray(t))
    assert sup_error(coarse, fine) <= 1e-14
    shifted = GridFunction(coarse.grid, coarse.values + 0.25)
    assert sup_error(shifted, fine) == pytest.approx(0.25)


def test_richardson_order_values():
    assert richardson_order([0.4, 0.2, 0.1]) == pytest.approx(1.0)
    assert richardson_order([0.4, 0.1, 0.025]) == pytest.approx(2.0)
    assert richardson_order([0.9, 0.1], ratio=3.0) == pytest.approx(2.0)
    with pytest.raises(NonPositiveError):
        richardson_order([0.4, 0.0])
    with pytest.raises(ValueError):
        richardson_order([0.4])


def test_self_convergence_order(catalog):
    entry = catalog["star2_linear"]
    grids = {n: direct_linear_solve(entry.problem, n).u for n in (41, 81, 161)}
    order = self_convergence_order(grids[41], grids[81], grids[161])
    assert order >= 1.8


def test_reference_for_matches_scheme_modes(catalog):
    """The references in reference_for's order: a catalog entry's exact
    profile at eps = 0, then the flux-limited closed form, then the direct
    solve, which imposes F = 0 alone and so serves only where no junction
    edge is relaxed, then the fine grid."""
    linear = catalog["star2_linear"]
    assert reference_for(linear.problem, 11, linear.exact).method == "exact"
    assert reference_for(linear.problem, 11, linear.exact, eps=0.5).method == "direct-linear"
    assert reference_for(linear.problem, 11).method == "direct-linear"
    mixed = catalog["star3_mixed"]
    assert reference_for(mixed.problem, 11).method == "fine-grid"
    # star3_linear with a = 0 on one edge is linear, but its junction takes
    # that edge's relaxed clause at eps = 0, which the direct solve omits
    star3 = catalog["star3_linear"].problem
    flat = dataclasses.replace(star3, diffusions={**star3.diffusions, 0: constant_diffusion(0.0)})
    assert reference_for(flat, 11).method == "fine-grid"
    assert reference_for(flat, 11, eps=0.5).method == "direct-linear"
    # the exact profile of star3_eikonal is its flux-limited solution:
    # either serves, the exact one first
    eikonal = catalog["star3_eikonal"]
    exact = reference_for(eikonal.problem, 11, eikonal.exact)
    flux = reference_for(eikonal.problem, 11)
    assert (exact.method, flux.method) == ("exact", "flux-limited")
    assert np.max(np.abs(exact.u.values - flux.u.values)) <= 1e-15
    # the boundary rows are relaxed on the degenerate coercive ends of
    # star3_eikonal_loss, as its exact profile is
    loss = catalog["star3_eikonal_loss"]
    assert reference_for(loss.problem, 11, loss.exact).method == "exact"


def test_observed_orders_floor():
    hs = [0.1, 0.05, 0.025]
    ones = [np.array([0.5, -1.0])] * 3
    assert observed_orders(hs, [4e-4, 1e-4, 2.5e-5], ones, 1e-10)[1:] == \
        pytest.approx([2.0, 2.0])
    # 1e-8 = 100 * tol * max(1, |u|) is the floor; with |u| = 3 it is 3e-8
    assert math.isnan(observed_orders(hs, [4e-4, 1e-4, 1e-8], ones, 1e-10)[2])
    orders = observed_orders(hs, [4e-4, 2e-8, 1e-6], [np.array([-3.0])] * 3, 1e-10)
    assert math.isnan(orders[0]) and math.isnan(orders[1]) and math.isnan(orders[2])


def _within_tolerance(a, b, tol=1e-10):
    return float(np.max(np.abs(a - b))) <= tol * max(1.0, float(np.max(np.abs(b))))


def test_convergence_table_reuses_row_solve_as_reference(monkeypatch):
    """On 6, 11, 21 the 4x-refined reference of n = 6 is the n = 21 row's
    own solve (same grid, eps, junction mode and default config): five
    grids assembled and solved, not six, and that row's solution is the
    reference bit for bit.  The error agrees with a cold reference solve to
    the solver's tolerance."""
    problem = entry_by_name("star3_mixed").problem
    assembled, refs, row_solutions = [], {}, {}
    real_assemble, real_reference = oracle.assemble, oracle.fine_grid_reference
    real_solve = oracle.solve_system

    def counting_assemble(problem, grid, *args, **kwargs):
        assembled.append(grid.nodes_per_edge[0])
        return real_assemble(problem, grid, *args, **kwargs)

    def recording_reference(problem, nodes, *args, **kwargs):
        refs[nodes] = real_reference(problem, nodes, *args, **kwargs)
        return refs[nodes]

    def recording(real):
        def solve(system, *args, **kwargs):
            res = real(system, *args, **kwargs)
            row_solutions.setdefault(system.grid.nodes_per_edge[0], res.u)
            return res
        return solve

    monkeypatch.setattr(oracle, "assemble", counting_assemble)
    monkeypatch.setattr(solver, "assemble", counting_assemble)
    monkeypatch.setattr(oracle, "fine_grid_reference", recording_reference)
    monkeypatch.setattr(oracle, "solve_system", recording(real_solve))
    rows = convergence_table(problem, [6, 11, 21])
    monkeypatch.undo()
    assert sorted(assembled) == [6, 11, 21, 41, 81]
    assert refs[6].u is row_solutions[21]
    coarse = solver.solve_problem(problem, 6).u
    assert rows[0]["error"] == sup_error(coarse, row_solutions[21])
    cold = sup_error(coarse, fine_grid_reference(problem, 6).u)
    assert abs(rows[0]["error"] - cold) <= 1e-10 * max(1.0, float(np.max(np.abs(coarse.values))))
    assert [r["reference"] for r in rows] == ["fine-grid"] * 3


@pytest.mark.parametrize("name, resolutions, cold_iterations", [
    ("star3_eikonal", [21, 41, 81], 6), ("star3_mixed", [6, 11, 21], 5)])
def test_convergence_table_rows_after_the_first_are_corrector_steps(
        monkeypatch, name, resolutions, cold_iterations):
    """Every row after the first starts from the coarser row's solution,
    prolonged, and Newton corrects it in a few steps, where a solve with no
    start given takes cold_iterations (every level below it included).  One
    solve_system with no start per table: the first row."""
    entry = entry_by_name(name)
    starts = []
    real = solver.solve_system

    def recording(system, config=None, u0=None):
        starts.append(u0)
        return real(system, config, u0)

    monkeypatch.setattr(solver, "solve_system", recording)
    monkeypatch.setattr(oracle, "solve_system", recording)
    rows = convergence_table(entry.problem, resolutions, entry.exact)
    monkeypatch.undo()
    assert [u0 is None for u0 in starts] == [True] + [False] * (len(starts) - 1)
    assert all(r["converged"] and r["reference_converged"] for r in rows)
    assert max(r["iterations"] for r in rows[1:]) <= 3
    assert solver.solve_problem(entry.problem, resolutions[-1]).iterations >= cold_iterations


@pytest.mark.parametrize("name, resolutions, rows", [
    ("star3_mixed", [6, 11, 21], "kirchhoff"),
    ("star3_mixed", [11, 21, 41], "minmax")])
def test_convergence_table_warm_references_match_cold(monkeypatch, name, resolutions, rows):
    """A reference continued from a coarser solution agrees with a cold
    fine_grid_reference to the solver's tolerance, with Kirchhoff junction
    rows (eps = 0.25, so that every edge has a + eps > 0) and with the
    relaxed one (eps = 0)."""
    eps = {"kirchhoff": 0.25, "minmax": 0.0}[rows]
    entry = entry_by_name(name)
    refs = {}
    real = oracle.fine_grid_reference

    def recording(problem, nodes, *args, **kwargs):
        refs[nodes] = real(problem, nodes, *args, **kwargs)
        return refs[nodes]

    monkeypatch.setattr(oracle, "fine_grid_reference", recording)
    convergence_table(entry.problem, resolutions, entry.exact, eps=eps)
    monkeypatch.undo()
    assert sorted(refs) == resolutions
    for nodes, ref in refs.items():
        cold = fine_grid_reference(entry.problem, nodes, eps=eps)
        assert ref.grid.total_nodes == cold.grid.total_nodes
        assert ref.meta["converged"] and cold.meta["converged"]
        assert _within_tolerance(ref.u.values, cold.u.values), nodes


def test_convergence_table_keeps_the_given_order():
    """Unsorted resolutions are solved coarse to fine all the same and
    reported in the order given."""
    problem = entry_by_name("star3_mixed").problem
    rows = {tuple(res): convergence_table(problem, res)
            for res in ([6, 11, 21], [11, 6, 21])}
    assert [r["nodes"] for r in rows[(11, 6, 21)]] == [11, 6, 21]
    by_nodes = {r["nodes"]: r for r in rows[(6, 11, 21)]}
    for row in rows[(11, 6, 21)]:
        ref = by_nodes[row["nodes"]]
        assert row["h"] == ref["h"]
        assert abs(row["error"] - ref["error"]) <= 1e-10
        assert row["converged"] and row["reference_converged"]


@pytest.mark.parametrize("resolutions", [[21, 21, 41], [21, 41, 41], [11, 6, 11]])
def test_convergence_table_rejects_repeated_resolution(resolutions):
    """Two rows with one h have no order between them."""
    with pytest.raises(ValueError, match="repeated resolution"):
        convergence_table(entry_by_name("star3_mixed").problem, resolutions)
