"""Diagnostics: junction slope windows, degenerate-edge inequalities,
quadratic probe checks, Lipschitz constants, and boundary loss reports."""

import json

import numpy as np
import pytest

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
from knet.catalog import entry_by_name
from knet.discretization import Grid, GridFunction
from knet.errors import (
    EmptyInteriorSet,
    NoActiveProbe,
    VertexNotInterior,
    WindowTooLarge,
)
from knet.network import Network, build_network, star_junction
from knet.problem import NetworkProblem, constant_diffusion, eikonal


def _single_edge_problem():
    net = build_network(range(2), [(0, 0, 1, 1.0)])
    return NetworkProblem(
        net, 1.0, {0: eikonal(1.0, 1.0)}, {0: constant_diffusion(0.0)},
        {}, {0: 0.0, 1: 0.0},
    )


# ---------------------------------------------------------------------------
# Probe family


def test_probe_function_bounds():
    net = star_junction(3)
    psi = ProbeFunction(net, net.vertex_point(0), L=8.0, K=4.0)
    assert psi.radius == pytest.approx(1.0 / 16.0)
    assert psi.second_derivative == pytest.approx(-64.0)
    for r in np.linspace(0.0, psi.radius, 33):
        mag = psi.derivative_magnitude(r)
        assert psi.L / 2.0 - 1e-12 <= mag <= psi.L + 1e-12
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
        assert sl.spread(eid) == pytest.approx(0.0)


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
    of a_at_vertex calls does not depend on the number of active probes."""
    problem = catalog["star3_constant"].problem
    grid = Grid(problem.network, 21)
    u = GridFunction.full(grid, 1.0)
    calls = []
    original = NetworkProblem.a_at_vertex

    def counted(self, *args):
        calls.append(args)
        return original(self, *args)
    monkeypatch.setattr(NetworkProblem, "a_at_vertex", counted)
    seen = {}
    for label, probes in (("one", default_probe_grid()[:1]), ("all", default_probe_grid())):
        calls.clear()
        active = [probe_viscosity(problem, u, problem.network.vertex_point(0),
                                  probes=probes, side=side).n_active
                  for side in ("sub", "super")]
        seen[label] = (active, len(calls))
    assert seen["one"][0] == [1, 1] and min(seen["all"][0]) > 1
    assert seen["one"][1] == seen["all"][1] > 0


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


def test_diagnostics_report_flags_corruption(catalog, system_cached, solve_cached):
    u = solve_cached("star3_eikonal", 41).u.copy()
    u.values[u.grid.vertex_gid(0)] += 0.5
    report = diagnostics_report(catalog["star3_eikonal"].problem, u,
                                system=system_cached("star3_eikonal", 41))
    assert not report.ok
    failed = {c["name"] for c in report.checks if c["verdict"] == "FAIL"}
    assert "degenerate_edge_inequality" in failed
    assert "kirchhoff_node_equation" in failed
