"""Diagnostics: junction slope windows, degenerate-edge inequalities,
quadratic probe checks, Lipschitz constants, and boundary loss reports."""

import json
import math

import numpy as np
import pytest

from knet import analysis
from knet.analysis import (
    ProbeFunction,
    boundary_loss_report,
    check_degenerate_edge_inequalities,
    default_probe_grid,
    diagnostics_report,
    estimate_junction_slopes,
    lipschitz_on_interior,
    probe_viscosity,
)
from knet.catalog import all_entries, entry_by_name, random_problem
from knet.discretization import JUNCTION_MODES, Grid, GridFunction
from knet.errors import (
    EmptyInteriorSet,
    NoActiveProbe,
    VertexNotInterior,
    WindowTooLarge,
)
from knet.network import INTERIOR, Network, build_network, star_junction
from knet.problem import (Hamiltonian, KirchhoffCondition, NetworkProblem, constant_diffusion,
                          eikonal)
from knet.solver import SolveConfig, solve_problem, sweep_solve


def _single_edge_problem():
    net = build_network(range(2), [(0, 0, 1, 1.0)])
    return NetworkProblem(
        net, 1.0, {0: eikonal(1.0, 1.0)}, {0: constant_diffusion(0.0)},
        {}, {0: 0.0, 1: 0.0},
    )


# ---------------------------------------------------------------------------
# Probe family


def test_probe_function_bounds():
    """The docstring's bounds, by differencing psi along each edge out from
    the center: on the ball the derivative magnitude lies in [L/2, L] and
    the second derivative is -2 L K."""
    net = star_junction(3)
    psi = ProbeFunction(net, net.vertex_point(0), L=8.0, K=4.0)
    assert psi.radius == pytest.approx(1.0 / 16.0)
    t = np.linspace(0.0, psi.radius, 33)
    h = t[1] - t[0]
    for e in net.edges:
        values = np.array([psi(net.point(e.id, tk)) for tk in t])
        slopes = np.abs(np.diff(values)) / h
        assert np.all(slopes >= psi.L / 2.0 - 1e-9) and np.all(slopes <= psi.L + 1e-9), e.id
        np.testing.assert_allclose(np.diff(values, 2) / h ** 2, -2.0 * psi.L * psi.K, rtol=1e-6)
    p = net.point(1, 0.05)
    assert psi(p) == pytest.approx(8.0 * (0.05 - 4.0 * 0.05 ** 2))


def test_default_probe_grid_shape():
    grid = default_probe_grid()
    assert len(grid) == 11 * 7
    Ls = {L for L, _ in grid}
    Ks = {K for _, K in grid}
    assert min(Ls) == 1.0 and max(Ls) == 2.0 ** 10
    assert min(Ks) == 1.0 and max(Ks) == 2.0 ** 6


# ---------------------------------------------------------------------------
# Junction slopes


def test_slopes_affine_profile():
    grid = Grid(star_junction(3), 41)
    u = GridFunction.from_profile(grid, lambda eid, t: 1.0 - np.asarray(t))
    sl = estimate_junction_slopes(u, 0, window=3)
    for eid in range(3):
        assert sl.upper[eid] == pytest.approx(-1.0)
        assert sl.lower[eid] == pytest.approx(-1.0)
        assert sl.residual[eid] == pytest.approx(0.0)


def test_slopes_constant_profile():
    grid = Grid(star_junction(3), 21)
    u = GridFunction.full(grid, 2.5)
    sl = estimate_junction_slopes(u, 0, window=2)
    assert all(abs(v) <= 1e-14 for v in sl.upper.values())
    assert all(abs(v) <= 1e-14 for v in sl.lower.values())


def test_slopes_oscillating_profile():
    """u = rho sin(log rho) has every slope in [-1, 1] as a limit at the
    junction; a wide window on a fine grid must see nearly both extremes."""
    grid = Grid(star_junction(3), 2049)
    t_floor = 1e-300

    def prof(eid, t):
        t = np.asarray(t, dtype=float)
        return np.where(t > 0, t * np.sin(np.log(np.maximum(t, t_floor))), 0.0)

    u = GridFunction.from_profile(grid, prof)
    sl = estimate_junction_slopes(u, 0, window=400)
    for eid in range(3):
        assert sl.upper[eid] >= 0.95
        assert sl.lower[eid] <= -0.95


def test_slopes_window_validation():
    grid = Grid(star_junction(3), 11)
    u = GridFunction.zeros(grid)
    with pytest.raises(WindowTooLarge):
        estimate_junction_slopes(u, 0, window=1)
    with pytest.raises(WindowTooLarge):  # 20% cap on an 11-node edge
        estimate_junction_slopes(u, 0, window=3)
    with pytest.raises(VertexNotInterior):
        estimate_junction_slopes(u, 1, window=2)


# ---------------------------------------------------------------------------
# Degenerate-edge inequalities


def test_edge_inequalities_constant_solution(catalog, solve_cached):
    u = solve_cached("star3_constant", 41).u
    sl = estimate_junction_slopes(u, 0, window=3)
    verdicts = check_degenerate_edge_inequalities(
        catalog["star3_constant"].problem, u, 0, sl, tol=5 * u.grid.h)
    assert len(verdicts) == 3
    for v in verdicts:
        assert v.passed
        assert v.sub_margin <= v.tolerance


def test_edge_inequalities_skip_elliptic_edges(catalog, solve_cached):
    u = solve_cached("star3_mixed", 41).u
    sl = estimate_junction_slopes(u, 0, window=3)
    verdicts = check_degenerate_edge_inequalities(
        catalog["star3_mixed"].problem, u, 0, sl, tol=5 * u.grid.h)
    assert [v.edge for v in verdicts] == [0]  # only the degenerate edge


def test_edge_inequalities_flag_corrupted_bump(catalog, solve_cached):
    """Raising the junction value of a converged solution makes the
    subsolution inequality fail with a witness."""
    u = solve_cached("star3_eikonal", 41).u.copy()
    u.values[u.grid.vertex_gid(0)] += 0.5
    sl = estimate_junction_slopes(u, 0, window=3)
    verdicts = check_degenerate_edge_inequalities(
        catalog["star3_eikonal"].problem, u, 0, sl, tol=5 * u.grid.h)
    assert all(not v.passed for v in verdicts)
    assert all(v.witness is not None and v.witness["side"] == "sub"
               for v in verdicts)


def test_edge_inequalities_flag_solution_shifted_down(catalog, solve_cached):
    """A converged solution lowered by 0.5 keeps its junction slopes, whose
    narrow window on star3_mixed's degenerate edge binds the supersolution
    side: lam * u_v + H < -tol there, a witness on the super side."""
    u = solve_cached("star3_mixed", 41).u.copy()
    u.values -= 0.5
    sl = estimate_junction_slopes(u, 0, window=3)
    tol = 5 * u.grid.h
    [verdict] = check_degenerate_edge_inequalities(
        catalog["star3_mixed"].problem, u, 0, sl, tol)
    assert 1e-12 < sl.upper[0] - sl.lower[0] <= tol
    assert verdict.sub_margin <= tol and not verdict.passed
    assert verdict.witness["side"] == "super"
    assert sl.lower[0] < verdict.witness["p"] < sl.upper[0]


# ---------------------------------------------------------------------------
# Viscosity probes


def test_probe_constant_solution_passes(catalog):
    problem = catalog["star3_constant"].problem
    grid = Grid(problem.network, 21)
    u = GridFunction.full(grid, 1.0)
    for side in ("sub", "super"):
        verdict = probe_viscosity(problem, u, problem.network.vertex_point(0),
                                  side=side)
        assert verdict.passed, (side, verdict.worst_margin)
        assert verdict.n_active > 0
        assert "necessary-condition" in verdict.note


def test_probe_reads_vertex_constants_once(monkeypatch, catalog):
    """A vertex probe reads the vertex's constants once per call: the number
    of a_at_incidence calls does not depend on the number of active probes."""
    problem = catalog["star3_constant"].problem
    grid = Grid(problem.network, 21)
    u = GridFunction.full(grid, 1.0)
    calls = []
    original = NetworkProblem.a_at_incidence

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)
    monkeypatch.setattr(NetworkProblem, "a_at_incidence", counted)
    seen = {}
    for label, probes in (("one", default_probe_grid()[:1]), ("all", default_probe_grid())):
        calls.clear()
        active = [probe_viscosity(problem, u, problem.network.vertex_point(0),
                                  probes=probes, side=side).n_active
                  for side in ("sub", "super")]
        seen[label] = (active, len(calls))
    assert seen["one"][0] == [1, 1] and min(seen["all"][0]) > 1
    assert seen["one"][1] == seen["all"][1] > 0


def _per_slope_vertex_clause(problem, vid, uv, slopes, side):
    """_vertex_clause as a loop over the slopes: per slope, one H call per
    degenerate incident edge, one coupling call on one row of slopes, and
    Python's min or max over the terms."""
    net = problem.network
    incs = net.incidence[vid]
    interior = net.vertex(vid).kind == INTERIOR
    edges = [(problem.hamiltonians[inc.edge.id], inc.vertex_param, inc.sign)
             for inc in incs if not interior or problem.a_at_incidence(inc) == 0.0]
    out = []
    for slope in slopes:
        vals = [problem.lam * uv + float(ham(x, sign * slope)) for ham, x, sign in edges]
        vals.append(problem.kirchhoff[vid](uv, np.full(len(incs), slope)) if interior
                    else uv - problem.dirichlet[vid])
        out.append(min(vals) if side == "sub" else max(vals))
    return np.array(out)


def _vertex_verdicts(problem, u):
    """repr of probe_viscosity's verdict (or "none" for NoActiveProbe) at
    every vertex, both sides: repr tells -0.0 from 0.0."""
    out = []
    for v in problem.network.vertices:
        for side in ("sub", "super"):
            try:
                out.append(repr(probe_viscosity(problem, u, problem.network.vertex_point(v.id),
                                                side=side)))
            except NoActiveProbe:
                out.append("none")
    return out


def test_vertex_clause_batch_matches_per_slope_loop(monkeypatch):
    """One clause call on the distinct active slopes gives the per-slope
    loop's verdicts bit for bit, at every vertex and on both sides, for the
    solutions of every catalog entry and of random_problem draws 0..11 at
    n = 3, 41 and 161 under both junction modes."""
    problems = [e.problem for e in all_entries()] + [
        random_problem(np.random.default_rng(s)) for s in range(12)]
    inputs = [(k, problem, solve_problem(problem, n, junction_mode=mode).u)
              for k, problem in enumerate(problems)
              for n in (3, 41, 161) for mode in JUNCTION_MODES]
    batch = [_vertex_verdicts(problem, u) for _, problem, u in inputs]
    monkeypatch.setattr(analysis, "_vertex_clause", _per_slope_vertex_clause)
    for (k, problem, u), got in zip(inputs, batch):
        assert got == _vertex_verdicts(problem, u), (k, u.grid.level_name)
    assert sum(v != "none" for verdicts in batch for v in verdicts) > 700


def test_vertex_probe_calls_the_clause_once(monkeypatch, catalog):
    """A vertex probe evaluates the clause once, on every distinct active
    slope together: one coupling call and one call per degenerate incident
    edge's H, however many distinct slopes are active."""
    problem = catalog["star3_constant"].problem
    u = GridFunction.full(Grid(problem.network, 21), 1.0)
    calls = {"H": 0, "F": 0}
    for cls, key in ((Hamiltonian, "H"), (KirchhoffCondition, "F")):
        def counted(self, *args, _key=key, _orig=cls.__call__):
            calls[_key] += 1
            return _orig(self, *args)
        monkeypatch.setattr(cls, "__call__", counted)
    for side in ("sub", "super"):
        calls.update(H=0, F=0)
        pv = probe_viscosity(problem, u, problem.network.vertex_point(0), side=side)
        assert pv.n_active > 7  # more than one L's 7 probes: two slopes or more
        assert calls == {"H": len(problem.degenerate_set(0)), "F": 1}, side


def test_report_computes_distances_once_per_junction(monkeypatch, catalog):
    """diagnostics_report asks Grid.distances_to once per junction, for
    both probe sides, and once per boundary vertex, for the Lipschitz
    constant's boundary distances."""
    problem = catalog["graph5_constant"].problem
    u = GridFunction.full(Grid(problem.network, 41), 1.0)
    points = []
    original = Grid.distances_to

    def counted(self, point):
        points.append((point.edge_id, point.t))
        return original(self, point)
    monkeypatch.setattr(Grid, "distances_to", counted)
    diagnostics_report(problem, u)
    net = problem.network
    assert sorted(points) == sorted((p.edge_id, p.t) for p in map(
        net.vertex_point, (v.id for v in net.vertices)))


def _reference_vertex_probe(problem, u, vid, side):
    """probe_viscosity at a vertex written as a loop over the default probes:
    ProbeFunction gives each ball and test function, and the relaxed clause
    is evaluated per active probe.  None when no probe touches."""
    net, grid = problem.network, u.grid
    center = net.vertex_point(vid)
    nodes = [net.point(*grid.node_location(g)) for g in range(grid.total_nodes)]
    rho = [ProbeFunction(net, center, 1.0, 1.0).rho(p) for p in nodes]
    u0 = float(u.values[grid.vertex_gid(vid)])
    sgn = 1.0 if side == "sub" else -1.0
    incs = net.incidence[vid]
    interior = net.vertex(vid).kind == INTERIOR
    active, worst, worst_probe = 0, -math.inf, {}
    for L, K in default_probe_grid():
        probe = ProbeFunction(net, center, L, K)
        ball = [g for g in range(grid.total_nodes) if 0.0 < rho[g] <= probe.radius]
        if not ball:
            continue
        du = [float(u.values[g]) - u0 for g in ball]
        phi = [sgn * probe(nodes[g]) for g in ball]
        if side == "sub" and any(d > f + 1e-12 for d, f in zip(du, phi)):
            continue
        if side == "super" and any(d < f - 1e-12 for d, f in zip(du, phi)):
            continue
        slope = sgn * L
        vals = [problem.lam * u0 + float(problem.hamiltonians[i.edge.id](
                    i.vertex_param, i.sign * slope))
                for i in incs
                if not interior or problem.a_at_incidence(i) == 0.0]
        vals.append(problem.kirchhoff[vid](u0, np.full(len(incs), slope))
                    if interior else u0 - problem.dirichlet[vid])
        margin = min(vals) if side == "sub" else -max(vals)
        active += 1
        if margin > worst:
            worst, worst_probe = margin, {"L": L, "K": K, "slope": slope}
    return (active, worst, worst_probe) if active else None


@pytest.mark.parametrize("name", ["star3_mixed", "graph5_constant",
                                  "star3_loss_elliptic"])
def test_probe_matches_per_probe_reference(name, system_cached, solve_cached):
    """The one-pass probe agrees exactly with the per-probe reference at
    every vertex, both sides, on a converged solution and a 3-sweep iterate."""
    problem = entry_by_name(name).problem
    inputs = [solve_cached(name, 21).u,
              sweep_solve(system_cached(name, 21), SolveConfig(max_sweeps=3)).u]
    for u in inputs:
        tol = 5.0 * u.grid.h
        for v in problem.network.vertices:
            for side in ("sub", "super"):
                ref = _reference_vertex_probe(problem, u, v.id, side)
                point = problem.network.vertex_point(v.id)
                if ref is None:
                    with pytest.raises(NoActiveProbe):
                        probe_viscosity(problem, u, point, side=side)
                    continue
                pv = probe_viscosity(problem, u, point, side=side)
                assert (pv.n_active, pv.worst_margin, pv.worst_probe) == ref
                assert pv.passed == (ref[1] <= tol)


def test_probe_interior_kink():
    """A tent profile with sub-characteristic slope is a viscosity
    subsolution of the eikonal equation; the probes at its kink must agree."""
    problem = _single_edge_problem()
    grid = Grid(problem.network, 41)
    u = GridFunction.from_profile(
        grid, lambda eid, t: 0.9 * np.minimum(np.asarray(t), 1.0 - np.asarray(t)))
    t_mid = float(grid.coords[0][20])
    point = problem.network.point(0, t_mid)
    verdict = probe_viscosity(problem, u, point, side="sub")
    assert verdict.n_active > 0
    assert verdict.passed
    # at the kink, lam*u + |p| - 1 <= 0 holds with margin <= -0.1
    assert verdict.worst_margin <= 0.0


def test_probe_at_edge_point_on_every_edge_of_a_star():
    """Edge points on the star's edges 1 and 2, whose junction vertex sits
    canonically on edge 0: a tent with its kink at every edge midpoint gets
    the same verdict there as on edge 0."""
    problem = entry_by_name("star3_eikonal").problem
    grid = Grid(problem.network, 41)
    u = GridFunction.from_profile(
        grid, lambda eid, t: 0.9 * np.minimum(np.asarray(t), 1.0 - np.asarray(t)))
    verdicts = [probe_viscosity(problem, u, problem.network.point(e.id, 0.5))
                for e in problem.network.edges]
    assert all(v.n_active > 0 and v.passed for v in verdicts)
    assert {(v.n_active, v.worst_margin) for v in verdicts} == {
        (verdicts[0].n_active, verdicts[0].worst_margin)}


def test_probe_next_to_a_junction_agrees_on_mirror_image_edges():
    """The star's edges are mirror images and u = t/2 on each, so the sub
    probe at the first interior node gets one verdict on all three: the
    junction lies on each edge, at its signed offset, even though it sits
    canonically on edge 0 only."""
    problem = entry_by_name("star3_eikonal").problem
    grid = Grid(problem.network, 41)
    u = GridFunction.from_profile(grid, lambda eid, t: 0.5 * np.asarray(t))
    for e in problem.network.edges:
        point = problem.network.point(e.id, grid.coords[e.id][1])
        with pytest.raises(NoActiveProbe):
            probe_viscosity(problem, u, point)


def test_probe_rejects_bad_side(catalog):
    problem = catalog["star3_constant"].problem
    u = GridFunction.full(Grid(problem.network, 11), 1.0)
    with pytest.raises(ValueError):
        probe_viscosity(problem, u, problem.network.vertex_point(0), side="up")


def test_probe_no_active_on_steep_spike():
    """A jump steeper than the steepest probe slope blocks every probe from
    touching at the vertex."""
    problem = _single_edge_problem()
    grid = Grid(problem.network, 1001)
    u = GridFunction.zeros(grid)
    u.values[grid.node_ids[0][1]] = 10.0
    with pytest.raises(NoActiveProbe):
        probe_viscosity(problem, u, problem.network.vertex_point(0), side="sub")


def test_diagnostics_records_no_active_probe(solve_cached):
    """A solution with a spike next to the junction steeper than every probe
    slope leaves no sub-side probe touching there: the report records
    NO-ACTIVE-PROBE with no margin, which is not a PASS."""
    problem = entry_by_name("star3_eikonal").problem
    u = solve_cached("star3_eikonal", 41).u.copy()
    u.values[u.grid.node_ids[0][1]] += 100.0
    report = diagnostics_report(problem, u)
    [record] = [c for c in report.checks if c["name"] == "viscosity_probe_sub"]
    assert record == {"name": "viscosity_probe_sub", "location": "vertex 0",
                      "margin": None, "tolerance": 5 * u.grid.h,
                      "verdict": "NO-ACTIVE-PROBE", "witness": None}
    assert not report.ok
    json.dumps(report.to_dict())


def test_probe_at_edge_point_off_the_grid_raises():
    problem = entry_by_name("star3_eikonal").problem
    u = GridFunction.zeros(Grid(problem.network, 11))
    with pytest.raises(ValueError, match="0.123"):
        probe_viscosity(problem, u, problem.network.point(0, 0.123))


def test_diagnostics_builds_no_geometry_per_node(monkeypatch):
    """Node distances come from Grid.distances_to: the diagnostics make no
    Network.geodesic_distance calls and a number of Network.point calls
    that does not grow with the grid."""
    entry = entry_by_name("graph5_constant")
    calls = {"geodesic_distance": 0, "point": 0}
    for name in calls:
        def counted(self, *args, _name=name, _orig=getattr(Network, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(Network, name, counted)
    counts = []
    for n in (11, 41):
        grid = Grid(entry.problem.network, n)
        diagnostics_report(entry.problem, GridFunction.from_profile(grid, entry.exact))
        counts.append(dict(calls))
        calls.update(geodesic_distance=0, point=0)
    assert counts[0] == counts[1]
    assert counts[1]["geodesic_distance"] == 0
    assert counts[1]["point"] > 0  # the counter sees the calls there are


# ---------------------------------------------------------------------------
# Lipschitz constant on the interior set


def test_lipschitz_affine_and_constant():
    problem = _single_edge_problem()
    grid = Grid(problem.network, 41)
    aff = GridFunction.from_profile(grid, lambda eid, t: 3.0 * np.asarray(t))
    assert lipschitz_on_interior(aff, 0.1) == pytest.approx(3.0)
    flat = GridFunction.full(grid, 1.0)
    assert lipschitz_on_interior(flat, 0.1) == pytest.approx(0.0)


def test_lipschitz_validation():
    problem = _single_edge_problem()
    grid = Grid(problem.network, 11)
    u = GridFunction.zeros(grid)
    with pytest.raises(ValueError):
        lipschitz_on_interior(u, 0.6)  # beyond half the shortest edge
    with pytest.raises(EmptyInteriorSet):
        lipschitz_on_interior(u, 0.49)


# ---------------------------------------------------------------------------
# Boundary loss


def test_boundary_attained(catalog, solve_cached):
    u = solve_cached("star3_eikonal", 41).u
    records = boundary_loss_report(catalog["star3_eikonal"].problem, u,
                                   tol=5 * u.grid.h)
    assert all(r.status == "attained" for r in records)


def test_boundary_lost(catalog, solve_cached):
    u = solve_cached("star3_eikonal_loss", 41).u
    records = boundary_loss_report(catalog["star3_eikonal_loss"].problem, u,
                                   tol=5 * u.grid.h)
    for r in records:
        assert r.status == "lost"
        assert r.gap == pytest.approx(4.0, abs=0.1)  # u stays near 1, h = 5


def test_boundary_overshoot_is_error_for_coercive(catalog):
    problem = catalog["star3_eikonal_loss"].problem
    grid = Grid(problem.network, 21)
    u = GridFunction.full(grid, 6.0)  # above the datum 5
    records = boundary_loss_report(problem, u, tol=0.1)
    assert all(r.status == "overshoot-error" for r in records)


# ---------------------------------------------------------------------------
# Aggregate report


def test_diagnostics_report_clean(catalog, system_cached, solve_cached):
    res = solve_cached("star3_eikonal", 41)
    system = system_cached("star3_eikonal", 41)
    report = diagnostics_report(catalog["star3_eikonal"].problem, res.u,
                                system=system)
    assert report.ok, [c for c in report.checks if c["verdict"] == "FAIL"]
    assert 0 in report.slopes
    assert report.lipschitz
    json.dumps(report.to_dict())  # must be serializable as emitted


@pytest.mark.parametrize("window", [1, 0])
def test_diagnostics_report_rejects_a_window_below_2(window):
    """A window too wide for a coarse grid falls back to 2; one below 2 is
    an error, not a run with window 2."""
    entry = entry_by_name("star3_eikonal")
    u = GridFunction.zeros(Grid(entry.problem.network, 41))
    with pytest.raises(ValueError, match=f"analysis window must be at least 2, got {window}"):
        diagnostics_report(entry.problem, u, window=window)


def test_diagnostics_report_flags_corruption(catalog, system_cached, solve_cached):
    u = solve_cached("star3_eikonal", 41).u.copy()
    u.values[u.grid.vertex_gid(0)] += 0.5
    report = diagnostics_report(catalog["star3_eikonal"].problem, u,
                                system=system_cached("star3_eikonal", 41))
    assert not report.ok
    failed = {c["name"] for c in report.checks if c["verdict"] == "FAIL"}
    assert "degenerate_edge_inequality" in failed
    assert "kirchhoff_node_equation" in failed
