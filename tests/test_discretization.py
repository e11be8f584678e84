"""Grids, grid functions, and the monotone residual systems."""

import dataclasses
from typing import Callable

import numpy as np
import pytest

from knet.catalog import all_entries, entry_by_name, random_problem
from knet.discretization import (
    PROBE_SAMPLES,
    Grid,
    GridFunction,
    ResidualSystem,
    assemble,
    lax_friedrichs,
)
from knet.errors import InvalidCoefficientSign, MonotonicityProbeFailed
from knet.network import star_junction
from knet.oracle import richardson_order
from knet.problem import (
    Diffusion,
    Hamiltonian,
    KirchhoffCondition,
    NetworkProblem,
    advection,
    constant_diffusion,
    eikonal,
    make_kirchhoff,
)
from knet.solver import SolveConfig, _fd_jacobian, solve_system


# ---------------------------------------------------------------------------
# Grid layout


def test_grid_layout_star():
    net = star_junction(3)
    grid = Grid(net, 5)
    assert grid.total_nodes == 4 + 3 * 3
    for eid in range(3):
        ids = grid.node_ids[eid]
        assert ids[0] == grid.vertex_gid(0)  # junction at the tail
        assert ids[-1] == grid.vertex_gid(eid + 1)
        assert grid.spacing[eid] == pytest.approx(0.25)
    assert grid.h == pytest.approx(0.25)
    # gids 0..3 are the vertex nodes; the edge nodes follow from gid 4
    assert len(net.vertices) == 4 and grid.node_ids[0][1] == 4


def test_grid_mixed_resolution():
    net = star_junction(2)
    grid = Grid(net, {0: 5, 1: 9})
    assert grid.spacing[0] == pytest.approx(0.25)
    assert grid.spacing[1] == pytest.approx(0.125)
    assert grid.h == pytest.approx(0.25)


def test_grid_tables_equal_the_per_edge_lattices():
    """On a grid with its own node count per edge, each edge's slice of the
    edge table holds its interior coords, spacing and spacing**2 bit for
    bit, node_location reads them, each vertex's scheme tables hold its
    edges' spacing, inward sign and end coordinate, and the two sweep
    classes split every edge's interior nodes into alternate ones."""
    problem = entry_by_name("graph5_constant").problem
    net = problem.network
    grid = Grid(net, {e.id: 3 + 2 * e.id + e.id % 2 for e in net.edges})
    nv = len(net.vertices)
    x, h, hsq = grid.edge_table
    for eid, s in grid.edge_slices.items():
        ids, t, step = grid.node_ids[eid], grid.coords[eid], grid.spacing[eid]
        assert np.array_equal(np.arange(s.start, s.stop) + nv, ids[1:-1])
        assert np.array_equal(x[s], t[1:-1])
        assert np.array_equal(h[s], np.full(len(ids) - 2, step))
        assert np.array_equal(hsq[s], np.full(len(ids) - 2, step ** 2))
        assert [grid.node_location(g) for g in ids[1:-1]] == [(eid, ti) for ti in t[1:-1]]
        classes = [np.intersect1d(c, np.arange(s.start, s.stop)) for c in grid.sweep_classes]
        assert np.array_equal(classes[0], np.arange(s.start, s.stop, 2))
        assert np.array_equal(classes[1], np.arange(s.start + 1, s.stop, 2))
    assert sum(s.stop - s.start for s in grid.edge_slices.values()) == len(x)
    for v, vt in zip(net.vertices, grid.scheme(problem).vertices):
        incs = net.incidence[v.id]
        _, signs, x_at_v, half_h, _, _ = zip(*vt.incidences)
        assert np.array_equal(vt.hs, [grid.spacing[i.edge.id] for i in incs])
        assert np.array_equal(half_h, 0.5 * vt.hs)
        assert np.array_equal(signs, [1.0 if i.at_tail else -1.0 for i in incs])
        assert np.array_equal(x_at_v, [grid.coords[i.edge.id][0 if i.at_tail else -1]
                                       for i in incs])


def test_grid_rejects_too_few_nodes():
    with pytest.raises(ValueError):
        Grid(star_junction(2), 2)


def test_boundary_distances():
    net = star_junction(3)
    grid = Grid(net, 5)
    dist = grid.boundary_distances()
    assert dist[grid.vertex_gid(0)] == pytest.approx(1.0)
    assert dist[grid.vertex_gid(1)] == pytest.approx(0.0)
    # node at t = 0.25 on edge 0: nearer the boundary via its own head
    gid = grid.node_ids[0][1]
    assert dist[gid] == pytest.approx(0.75)


def _distance_networks():
    """Every catalog network and twelve random_problem draws."""
    nets = [(e.name, e.problem.network) for e in all_entries()]
    nets += [(f"random-{s}", random_problem(np.random.default_rng(s)).network)
             for s in range(12)]
    return nets


@pytest.mark.parametrize("n", [3, 5, 17])
def test_distances_to_matches_geodesic_distance_bitwise(n):
    """distances_to is the per-node geodesic distance, bit for bit, to
    every vertex and to three points inside every edge."""
    for name, net in _distance_networks():
        grid = Grid(net, n)
        nodes = [net.point(*grid.node_location(j)) for j in range(grid.total_nodes)]
        targets = [net.vertex_point(v.id) for v in net.vertices]
        targets += [net.point(e.id, f * e.length)
                    for e in net.edges for f in (0.1, 0.5, 0.77)]
        for q in targets:
            expected = np.array([net.geodesic_distance(p, q) for p in nodes])
            assert grid.distances_to(q).tobytes() == expected.tobytes(), (name, q)


def _boundary_distances_per_vertex(grid):
    """The per-vertex formula boundary_distances replaced: nearest boundary
    vertex through either end of each edge."""
    net = grid.network
    index = {v.id: k for k, v in enumerate(net.vertices)}
    bnd = [index[v.id] for v in net.boundary_vertices]
    to_bnd = {v.id: min(net.vertex_distances[index[v.id], w] for w in bnd) for v in net.vertices}
    out = np.full(grid.total_nodes, np.inf)
    for v in net.vertices:
        out[grid.vertex_gid(v.id)] = to_bnd[v.id]
    for e in net.edges:
        t = grid.coords[e.id][1:-1]
        via_tail = t + to_bnd[e.tail]
        via_head = (e.length - t) + to_bnd[e.head]
        out[grid.node_ids[e.id][1:-1]] = np.minimum(via_tail, via_head)
    return out


@pytest.mark.parametrize("n", [3, 5, 17])
def test_boundary_distances_match_per_vertex_formula(n):
    for name, net in _distance_networks():
        grid = Grid(net, n)
        np.testing.assert_array_max_ulp(grid.boundary_distances(),
                                        _boundary_distances_per_vertex(grid),
                                        maxulp=2)


def test_gridfunction_from_profile_canonical_vertex():
    """Vertex values come from the lowest incident edge id when the
    profile disagrees across edges."""
    net = star_junction(3)
    grid = Grid(net, 5)
    u = GridFunction.from_profile(grid, lambda eid, t: eid + 0.0 * np.asarray(t))
    assert u.values[grid.vertex_gid(0)] == 0.0
    assert np.all(np.isfinite(u.values))


def test_gridfunction_shape_check_and_copy():
    grid = Grid(star_junction(2), 5)
    with pytest.raises(ValueError):
        GridFunction(grid, np.zeros(3))
    u = GridFunction.full(grid, 2.0)
    v = u.copy()
    v.values[0] = -1.0
    assert u.values[0] == 2.0
    np.testing.assert_allclose(u.on_edge(0), 2.0)


def test_interpolate():
    grid = Grid(star_junction(2), 11)
    u = GridFunction.from_profile(grid, lambda eid, t: 2.0 * np.asarray(t))
    assert grid.interpolate(u.values, 0, 0.35) == pytest.approx(0.7)


def test_on_grid_reproduces_linear_profiles():
    """Each edge's linear profile survives a transfer between any two grids,
    mixed counts included; the vertex values carry over exactly."""
    net = star_junction(3, lengths=[1.0, 0.7, 2.3])
    slopes = {0: 2.0, 1: -1.5, 2: 0.25}

    def profile(eid, t):
        return 0.5 + slopes[eid] * np.asarray(t)

    coarse = GridFunction.from_profile(Grid(net, 7), profile)
    for target in (Grid(net, 37), Grid(net, {0: 5, 1: 13, 2: 22}), Grid(net, 4)):
        moved = coarse.on_grid(target)
        assert moved.grid is target
        np.testing.assert_allclose(moved.values,
                                   GridFunction.from_profile(target, profile).values,
                                   rtol=0, atol=1e-14)
        nv = len(net.vertices)
        assert np.array_equal(moved.values[:nv], coarse.values[:nv])


@pytest.mark.parametrize("coarse_n, fine_n", [(6, 11), (11, 41), (21, 81)])
def test_on_grid_round_trip_on_nested_grids(catalog, coarse_n, fine_n):
    """Coarse -> fine -> coarse returns the coarse values bit for bit when
    every coarse node is a fine node."""
    net = catalog["graph5_constant"].problem.network
    coarse = Grid(net, coarse_n)
    u = GridFunction(coarse, np.random.default_rng(coarse_n).normal(size=coarse.total_nodes))
    back = u.on_grid(Grid(net, fine_n)).on_grid(coarse)
    assert np.array_equal(back.values, u.values)


# ---------------------------------------------------------------------------
# Numerical Hamiltonian


def test_lax_friedrichs_direct():
    H = eikonal(1.0, 0.0)
    # H((p- + p+)/2) - theta/2 (p+ - p-) at a kink straddle
    assert lax_friedrichs(H, 0.0, 1.0, -1.0, 1.0) == pytest.approx(1.0)
    assert lax_friedrichs(H, 0.0, 0.5, 0.5, 1.0) == pytest.approx(0.5)
    # theta = 0 reduces to the centered evaluation
    assert lax_friedrichs(H, 0.0, 1.0, -1.0, 0.0) == pytest.approx(0.0)


def test_constant_compatibility_residual_zero(catalog, system_cached):
    """When the constant solves the continuous problem it solves the
    discrete one exactly, at every resolution."""
    for name in ("star3_constant", "graph5_constant"):
        for n in (5, 21):
            system = system_cached(name, n)
            ones = GridFunction.full(system.grid, 1.0)
            assert system.residual_norm(ones) <= 1e-12, (name, n)


def test_interior_residual_linear_profile(system_cached):
    """On a degenerate edge a linear profile p*t has residual
    lam*u + |p| - 1 at every interior node (no dissipation error)."""
    system = system_cached("star3_constant", 11)
    grid = system.grid
    u = GridFunction.from_profile(grid, lambda eid, t: 0.7 * np.asarray(t))
    gid = grid.node_ids[0][5]
    expect = 1.0 * u.values[gid] + 0.7 - 1.0
    assert system.residual_node(gid, u.values) == pytest.approx(expect)


@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("nodes", [3, 4, 11, 41])
def test_residual_and_residual_node_agree_bitwise(catalog, nodes, eps):
    rng = np.random.default_rng(nodes)
    for name, entry in catalog.items():
        grid = Grid(entry.problem.network, nodes)
        system = assemble(entry.problem, grid, eps=eps, certify=False)
        u = rng.uniform(-2.0, 2.0, size=grid.total_nodes)
        nodewise = [system.residual_node(j, u) for j in range(grid.total_nodes)]
        assert np.array_equal(system.residual(u), nodewise), name


def _reference_inward_slopes(system, gid, u):
    """The inward divided differences at a vertex, ghost-corrected where
    a + eps > 0 dominates theta*h/2, one edge at a time in floats."""
    problem, grid = system.problem, system.grid
    v = problem.network.vertices[gid]
    uv, d = float(u[gid]), []
    for inc in problem.network.incidence[v.id]:
        eid = inc.edge.id
        ham, h = problem.hamiltonians[eid], grid.spacing[eid]
        ids = grid.node_ids[eid]
        d_i = (float(u[ids[1] if inc.at_tail else ids[-2]]) - uv) / h
        a = problem.a_at_incidence(inc) + system.eps
        if a > 0.0 and a >= 0.5 * ham.lipschitz_p * h:
            sign = 1.0 if inc.at_tail else -1.0
            d_i -= 0.5 * h * (problem.lam * uv + float(ham(inc.vertex_param, sign * d_i))) / a
        d.append(d_i)
    return np.array(d)


def _reference_vertex_row(system, gid, u):
    """A vertex row in four hand-split branches, as the scheme once wrote
    it: a strong boundary row u - g where a + eps > 0 or H is not coercive,
    else max(u - g, lam*u + state constraint); a junction's coupling F(u, d),
    maxed with lam*u + state constraint on every edge with a + eps = 0."""
    problem, eps = system.problem, system.eps
    v = problem.network.vertices[gid]
    incs = problem.network.incidence[v.id]
    lam, uv = problem.lam, float(u[gid])

    def clause(i, d_i):
        ham, x = problem.hamiltonians[incs[i].edge.id], incs[i].vertex_param
        sc = ham.min_below(x, d_i) if incs[i].at_tail else ham.min_above(x, -d_i)
        return lam * uv + float(sc)

    if v.kind == "interior":
        d = _reference_inward_slopes(system, gid, u)
        res = problem.kirchhoff[v.id](uv, d)
        for i, inc in enumerate(incs):
            if problem.a_at_incidence(inc) + eps == 0.0:
                res = max(res, clause(i, float(d[i])))
        return float(res)
    g = problem.dirichlet.get(v.id, 0.0)
    eid = incs[0].edge.id
    if problem.a_at_incidence(incs[0]) + eps > 0.0 or not problem.hamiltonians[eid].coercive:
        return uv - g
    d = _reference_inward_slopes(system, gid, u)
    return float(max(uv - g, clause(0, float(d[0]))))


@pytest.fixture(scope="module")
def catalog_and_draws():
    return ([e.problem for e in all_entries()]
            + [random_problem(np.random.default_rng(s)) for s in range(12)])


@pytest.mark.parametrize("rows", ["kirchhoff", "minmax"])
@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("nodes", [3, 4, 11, 41])
def test_vertex_rows_match_four_branch_reference(catalog_and_draws, junction_rows,
                                                 nodes, eps, rows):
    """The one vertex formula, with its relaxed edges fixed at assembly,
    gives the four-branch rows bit for bit on every catalog entry and
    random draw whose junction rows at eps = 0 are of the shape rows."""
    rng = np.random.default_rng(nodes)
    problems = [(k, p) for k, p in enumerate(catalog_and_draws) if junction_rows(p) == rows]
    assert len(problems) >= 3
    for k, problem in problems:
        grid = Grid(problem.network, nodes)
        system = assemble(problem, grid, eps=eps, certify=False)
        u = rng.uniform(-2.0, 2.0, size=grid.total_nodes)
        r = system.residual(u)
        for gid in range(len(problem.network.vertices)):
            assert r[gid] == _reference_vertex_row(system, gid, u), (k, gid)


@pytest.mark.parametrize("eps", [0.0, 0.3])
@pytest.mark.parametrize("nodes", [3, 11, 41])
def test_own_coeff_is_the_own_slope(catalog, nodes, eps):
    """own_coeff, derived from the one row formula, is the slope of every
    edge row in its own value, and 0 at every vertex node."""
    rng = np.random.default_rng(nodes)
    for name, entry in catalog.items():
        grid = Grid(entry.problem.network, nodes)
        system = assemble(entry.problem, grid, eps=eps, certify=False)
        u = rng.uniform(-1.0, 1.0, size=grid.total_nodes)
        for gid in range(grid.total_nodes):
            if gid < len(grid.network.vertices):
                assert system.own_coeff[gid] == 0.0, (name, gid)
                continue
            bumped = u.copy()
            bumped[gid] += 1e-6
            slope = (system.residual_node(gid, bumped) - system.residual_node(gid, u)) / 1e-6
            assert system.own_coeff[gid] == pytest.approx(slope, rel=1e-6), (name, gid)


def test_junction_residual_direct(system_cached):
    """The junction of star3_constant, u_v = 0, takes max(F, lam*u_v +
    min of |p| - 1 over p <= d_i) over its three degenerate edges: inward
    slopes d of 1 give F = -3 and clauses -1, slopes of -1 give F = 3 and
    clauses 0."""
    system = system_cached("star3_constant", 11)
    grid = system.grid
    for slope, row in ((1.0, -1.0), (-1.0, 3.0)):
        u = np.zeros(grid.total_nodes)
        for eid in range(3):
            u[grid.node_ids[eid][1]] = 0.1 * slope  # h = 0.1
        assert system.residual_node(grid.vertex_gid(0), u) == pytest.approx(row)


def test_epsilon_adds_uniform_diffusion(catalog):
    entry = entry_by_name("star3_constant")
    grid = Grid(entry.problem.network, 11)
    s0 = assemble(entry.problem, grid, eps=0.0)
    s5 = assemble(entry.problem, grid, eps=0.5)
    u = GridFunction.from_profile(grid, lambda eid, t: np.asarray(t) ** 2)
    gid = grid.node_ids[0][5]
    r0 = s0.residual_node(gid, u.values)
    r5 = s5.residual_node(gid, u.values)
    # second difference of t^2 is exactly 2
    assert r0 - r5 == pytest.approx(0.5 * 2.0, abs=1e-10)


def test_interior_consistency_order():
    """Interior residual against the continuum operator on a smooth
    profile: first order with dissipation, second order without."""
    net = star_junction(2)
    # non-polynomial profile so the second difference is not exact
    phi = lambda t: np.exp(0.5 * np.asarray(t))
    dphi = lambda t: 0.5 * np.exp(0.5 * t)  # positive on [0, 1]
    d2phi = lambda t: 0.25 * np.exp(0.5 * t)

    cases = [
        # (hamiltonian, a, H(x, p) as float fn, expected minimal order)
        (eikonal(1.0, 1.0), 0.0, lambda x, p: abs(p) - 1.0, 0.9),
        (advection(0.0, -1.0), 1.0, lambda x, p: -1.0, 1.9),
    ]
    for ham, a, h_exact, min_order in cases:
        problem = NetworkProblem(
            net, 1.0,
            {e.id: ham for e in net.edges},
            {e.id: constant_diffusion(a) for e in net.edges},
            {0: make_kirchhoff("classical", 2)},
            {1: phi(1.0), 2: phi(1.0)},
        )
        errs = []
        for n in (21, 41, 81):
            grid = Grid(net, n)
            system = assemble(problem, grid, certify=False)
            u = GridFunction.from_profile(grid, lambda eid, t: phi(np.asarray(t)))
            worst = 0.0
            for k in range(1, n - 1):
                gid = grid.node_ids[0][k]
                t = grid.coords[0][k]
                exact = phi(t) - a * d2phi(t) + h_exact(t, dphi(t))
                worst = max(worst, abs(system.residual_node(gid, u.values) - exact))
            errs.append(worst)
        assert richardson_order(errs) >= min_order, (ham.name, errs)


# ---------------------------------------------------------------------------
# Monotonicity certification


def test_probe_passes_with_matching_dissipation(system_cached):
    system = system_cached("star3_eikonal", 11)
    assert system.certify_monotone() is None
    assert system.probe_monotone(5) is None


def _dependents(grid, gid):
    """The rows that read u[gid], from Grid.rows and Grid.cols: gid, then
    the others in increasing order."""
    rows = sorted(grid.rows[grid.cols == gid].tolist())
    return (gid, *(r for r in rows if r != gid))


def _sequential_probe(system, n_samples, step=1e-6, tol=1e-9, scale=2.0):
    """Node-by-node reference scan through the scalar residual_node: the
    first violation in node order, then in the order of _dependents(node)."""
    rng = np.random.default_rng(0)
    n = system.grid.total_nodes
    for s in range(n_samples):
        u = rng.uniform(-scale, scale, size=n)
        for j in range(n):
            base = {i: system.residual_node(i, u) for i in _dependents(system.grid, j)}
            up = u.copy()
            up[j] += step
            for i, r0 in base.items():
                delta = system.residual_node(i, up) - r0
                if i == j and delta < -tol:
                    return {"sample": s, "node": j, "row": i,
                            "direction": "own", "delta": delta}
                if i != j and delta > tol:
                    return {"sample": s, "node": j, "row": i,
                            "direction": "cross", "delta": delta}
    return None


_WHERE = ("sample", "node", "row", "direction")  # a witness's location


def test_probe_counts_a_nan_change_as_a_violation():
    """A coupling that is NaN where the junction value exceeds 1, as it
    first does in sample 3, changes the junction row by NaN, which passes
    both sign tests: the probe must still name the junction."""
    problem = _with_coupling("star3_eikonal", lambda r, p: np.where(r > 1.0, np.nan, r)
                             - np.sum(p, axis=-1))
    grid = Grid(problem.network, 11)
    witness = assemble(problem, grid, certify=False).probe_monotone(10)
    assert {k: witness[k] for k in ("sample", "node", "row", "direction")} == {
        "sample": 3, "node": 0, "row": 0, "direction": "own"}
    assert np.isnan(witness["delta"])


def _lowered_dissipation(name):
    """A catalog entry whose Hamiltonians understate lipschitz_p, so theta
    is too small for a monotone scheme."""
    problem = entry_by_name(name).problem
    return dataclasses.replace(problem, hamiltonians={
        eid: dataclasses.replace(ham, lipschitz_p=0.5)
        for eid, ham in problem.hamiltonians.items()})


def _with_coupling(name, fn):
    """A catalog entry with the custom coupling fn at every junction."""
    problem = entry_by_name(name).problem
    return dataclasses.replace(problem, kirchhoff={
        vid: make_kirchhoff("custom", cond.arity, fn=fn)
        for vid, cond in problem.kirchhoff.items()})


@dataclasses.dataclass(frozen=True)
class _Enveloped(Hamiltonian):
    """A Hamiltonian record with env as both one-sided envelopes."""

    env: Callable = None

    def min_below(self, x, q):
        return self.env(x, q)

    min_above = min_below


def _with_envelopes(name, env):
    """A catalog entry whose Hamiltonians declare env as both one-sided
    envelopes, as used by the relaxed boundary rows."""
    problem = entry_by_name(name).problem
    return dataclasses.replace(problem, hamiltonians={
        eid: _Enveloped(ham.fn, ham.c_h, ham.coercive, ham.lipschitz_p, ham.family, ham.params, env)
        for eid, ham in problem.hamiltonians.items()})


def test_probe_fails_with_insufficient_dissipation():
    """theta below the p-Lipschitz constant of |p| breaks monotonicity and
    the assembly probe must catch it with a witness.  theta is each edge's
    lipschitz_p, so a Hamiltonian that understates it gets too little."""
    problem = _lowered_dissipation("star3_eikonal")
    grid = Grid(problem.network, 21)
    with pytest.raises(MonotonicityProbeFailed) as exc:
        assemble(problem, grid)
    assert exc.value.node == 0
    assert exc.value.direction == "cross"
    system = assemble(problem, grid, certify=False)
    witness = system.probe_monotone(10)
    assert {k: witness[k] for k in ("sample", "node", "row", "direction")} == {
        "sample": 0, "node": 0, "row": 23, "direction": "cross"}


@pytest.mark.parametrize("problem, nodes, expect", [
    # an edge row whose theta is too small
    (_lowered_dissipation("star3_eikonal"), 21,
     {"sample": 0, "node": 0, "row": 23, "direction": "cross"}),
    # a coupling increasing in the inward slopes: a vertex row's witness
    (_with_coupling("graph5_constant", lambda r, p: np.sum(p, axis=-1)), 11,
     {"sample": 0, "node": 1, "row": 1, "direction": "own"}),
    # a wrong envelope, not monotone in the slope: a relaxed boundary row's
    (_with_envelopes("star3_eikonal", lambda x, q: 3.0 * np.abs(q)), 11,
     {"sample": 0, "node": 1, "row": 1, "direction": "own"}),
    # falls steeply in the vertex value above 1, which the junction's
    # value first exceeds in sample 3, and stays above the relaxed clauses
    # there, so that the row's max takes it
    (_with_coupling("star3_eikonal", lambda r, p: np.where(r > 1.0, 200.0 - 100.0 * r, r)
                    - np.sum(p, axis=-1)), 11,
     {"sample": 3, "node": 0, "row": 0, "direction": "own"}),
], ids=["edge-row", "junction-row", "relaxed-row", "later-sample"])
def test_probe_witness_equals_sequential_probe(problem, nodes, expect):
    """The probe, which reads the signs of the Jacobian, returns the
    node-by-node reference scan's witness: the first violating sample, then
    node order, then the order of _dependents(node).  Its delta is the
    Jacobian entry times the step, central where the scan's is forward, so
    the two agree to rounding, not bit for bit."""
    system = assemble(problem, Grid(problem.network, nodes), certify=False)
    witness = system.probe_monotone(10)
    reference = _sequential_probe(system, n_samples=10)
    assert {k: witness[k] for k in _WHERE} == {k: reference[k] for k in _WHERE}
    assert witness["delta"] == pytest.approx(reference["delta"], rel=1e-8)
    assert {k: witness[k] for k in expect} == expect


def _custom_twin(problem, scale):
    """problem with every H a custom record of the same function, so that
    no stencil certificate holds, and theta scaled by scale."""
    return dataclasses.replace(problem, hamiltonians={
        eid: dataclasses.replace(ham, fn=ham, lipschitz_p=scale * ham.lipschitz_p)
        for eid, ham in problem.hamiltonians.items()})


def test_probe_agrees_with_sequential_probe_on_custom_twins():
    """On custom twins of every catalog entry and of draws 0, 6, ..., 54,
    with theta scaled to 0.2, 0.6 and 1 times the slope bound, at n = 5
    and 21, the probe fails exactly where the node-by-node reference scan
    does, at the same (sample, node, row, direction)."""
    problems = [e.problem for e in all_entries()]
    problems += [random_problem(np.random.default_rng(s)) for s in range(0, 60, 6)]
    failed = 0
    for i, problem in enumerate(problems):
        for scale in (0.2, 0.6, 1.0):
            twin = _custom_twin(problem, scale)
            for n in (5, 21):
                with np.errstate(all="ignore"):
                    system = assemble(twin, Grid(twin.network, n), certify=False)
                    witness = system.probe_monotone(PROBE_SAMPLES)
                    reference = _sequential_probe(system, PROBE_SAMPLES)
                case = (i, scale, n)
                assert (witness is None) == (reference is None), case
                if witness is not None:
                    failed += 1
                    assert ({k: witness[k] for k in _WHERE}
                            == {k: reference[k] for k in _WHERE}), case
    assert 0 < failed < 6 * len(problems)


@pytest.mark.parametrize("rows", ["kirchhoff", "minmax"])
def test_certificate_agrees_with_full_probe_on_catalog(junction_rows, rows):
    """Every catalog entry at eps in {0, 0.25, 1} and n in {5, 21, 81}, and
    random_problem draws s = 0..59 at eps in {0, 0.25} and n in {5, 21},
    those whose junction rows at eps = 0 are of the shape rows: the
    certificate holds, so certify_monotone finds no violation, and the full
    probe on ten samples finds none either."""
    cases = [(entry.name, entry.problem, eps, n) for entry in all_entries()
             for eps in (0.0, 0.25, 1.0) for n in (5, 21, 81)]
    cases += [(f"random-{s}", random_problem(np.random.default_rng(s)), eps, n)
              for s in range(60) for eps in (0.0, 0.25) for n in (5, 21)]
    cases = [case for case in cases if junction_rows(case[1]) == rows]
    assert len(cases) >= 39
    for name, problem, eps, n in cases:
        system = assemble(problem, Grid(problem.network, n), eps=eps, certify=False)
        case = (name, eps, n)
        assert system.stencil_certificate(), case
        assert system.certify_monotone() is None, case
        assert system.probe_monotone(10) is None, case


def _count_calls(monkeypatch, names):
    """Count calls of the ResidualSystem methods names, from now on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(ResidualSystem, name)

        def counted(self, *args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(ResidualSystem, name, counted)
    return calls


_PROBE_PARTS = ("probe_monotone", "jacobian_entries", "_edge_rows", "_table_ham")
# what certify_monotone calls when the probe runs: the probe reaches the
# stencil through PROBE_SAMPLES Jacobians, two table calls each, and never
# evaluates an edge row
_PROBED = {"probe_monotone": 1, "jacobian_entries": PROBE_SAMPLES, "_edge_rows": 0,
           "_table_ham": 2 * PROBE_SAMPLES}


def test_certificate_evaluates_no_edge_row_of_a_builtin_h(monkeypatch):
    """Every catalog entry is built from built-in records, so its system is
    certified at eps = 0 and 0.25 with no sample drawn, no row probed and
    no edge row or edge H evaluated."""
    calls = _count_calls(monkeypatch, _PROBE_PARTS)
    for entry in all_entries():
        for eps in (0.0, 0.25):
            system = assemble(entry.problem, Grid(entry.problem.network, 21),
                              eps=eps, certify=False)
            calls.update(dict.fromkeys(calls, 0))
            assert system.certify_monotone() is None, (entry.name, eps)
            assert calls == dict.fromkeys(_PROBE_PARTS, 0), (entry.name, eps)


def test_certificate_leaves_custom_data_to_the_probe(monkeypatch):
    """A custom Hamiltonian, a custom coupling or a Hamiltonian subclass
    that overrides the envelopes gets no certificate, so certify_monotone
    runs the full probe, once, through the Jacobian, and returns its
    witness."""
    calls = _count_calls(monkeypatch, _PROBE_PARTS)
    problem = entry_by_name("star3_mixed").problem
    custom = dataclasses.replace(problem, hamiltonians={
        eid: Hamiltonian(ham, c_h=ham.c_h, coercive=ham.coercive, lipschitz_p=ham.lipschitz_p)
        for eid, ham in problem.hamiltonians.items()})
    cases = [
        (custom, 21, None),
        (_with_coupling("graph5_constant", lambda r, p: np.sum(p, axis=-1)), 11,
         {"sample": 0, "node": 1, "row": 1, "direction": "own"}),
        (_with_envelopes("star3_eikonal", lambda x, q: 3.0 * np.abs(q)), 11,
         {"sample": 0, "node": 1, "row": 1, "direction": "own"}),
    ]
    for problem, nodes, expect in cases:
        system = assemble(problem, Grid(problem.network, nodes), certify=False)
        assert not system.stencil_certificate()
        calls.update(dict.fromkeys(calls, 0))
        witness = system.certify_monotone()
        assert calls == _PROBED
        assert witness == (expect and {**expect, "delta": witness["delta"]})


@dataclasses.dataclass(frozen=True)
class _Understated(Hamiltonian):
    """A Hamiltonian record whose slope_bound reads 0.5 whatever its params."""

    slope_bound = property(lambda self: 0.5)


@pytest.mark.parametrize("build, error", [
    (lambda: _with_hamiltonians("star3_eikonal", Hamiltonian(
        None, 1.0, True, 0.5, "eikonal", {"speed": -1.0, "rhs": 1.0})), InvalidCoefficientSign),
    (lambda: _with_hamiltonians("star3_eikonal", dataclasses.replace(
        eikonal(1.0), lipschitz_p=0.5, params={"speed": -1.0, "rhs": 1.0})), InvalidCoefficientSign),
    (lambda: dataclasses.replace(entry_by_name("star3_eikonal").problem, kirchhoff={
        0: KirchhoffCondition(3, None, "affine", {"B": 0.0, "alpha0": 0.0, "alphas": [-1, 1, 1]})}),
     InvalidCoefficientSign),
    (lambda: _with_hamiltonians("star3_eikonal", _Understated(
        None, 3.0, True, 0.5, "eikonal", {"speed": 3.0, "rhs": 1.0})), MonotonicityProbeFailed),
    (lambda: dataclasses.replace(entry_by_name("star3_eikonal").problem, kirchhoff={
        0: make_kirchhoff("classical", 3, B=-np.inf)}), MonotonicityProbeFailed),
], ids=["negative-speed", "negative-speed-replaced", "negative-alpha", "understated-bound",
        "infinite-junction-row"])
def test_builtin_records_cannot_bypass_the_certificate(build, error):
    """A record refuses params of the wrong sign however it is built, and a
    Hamiltonian subclass or a vertex row that is not finite at u = 0 gets
    no certificate, so the probe finds the violation: none of these
    problems assembles."""
    with pytest.raises(error), np.errstate(invalid="ignore"):
        problem = build()
        assemble(problem, Grid(problem.network, 21))


def _with_hamiltonians(name, ham):
    """A catalog entry with the Hamiltonian ham on every edge."""
    problem = entry_by_name(name).problem
    return dataclasses.replace(problem, hamiltonians={eid: ham for eid in problem.hamiltonians})


def test_replaced_fn_declares_no_slope_bound(monkeypatch):
    """A family's slope bound holds for the fn its factory built: an H whose
    fn was replaced declares none, so its system takes the full probe, which
    finds the too-steep fn; a replaced lipschitz_p keeps the bound."""
    ham = eikonal(1.0)
    assert ham.slope_bound == 1.0
    assert dataclasses.replace(ham, lipschitz_p=0.5).slope_bound == 1.0
    steep = dataclasses.replace(ham, fn=lambda x, p: 3.0 * np.abs(p) - 1.0)
    assert steep.slope_bound is None
    problem = _with_hamiltonians("star3_eikonal", steep)
    system = assemble(problem, Grid(problem.network, 21), certify=False)
    assert not system.stencil_certificate()
    calls = _count_calls(monkeypatch, _PROBE_PARTS)
    witness = system.certify_monotone()
    assert calls == _PROBED
    assert witness is not None and witness == system.probe_monotone()


class _SignedDiffusion(Diffusion):
    """a(x) = value on the whole edge, its sign unchecked."""

    def __init__(self, value):
        super().__init__(sigma=None, c_a=1.0, name=f"signed({value})")
        self.value = value

    def a(self, x):
        return np.full(np.shape(x), self.value)[()]


@pytest.mark.parametrize("problem", [
    _lowered_dissipation("star3_eikonal"),
    dataclasses.replace(entry_by_name("star3_linear").problem, diffusions={
        eid: _SignedDiffusion(-0.1) for eid in range(3)}),
    # H is infinite on part of every edge, at p = 0 as at every p
    _with_hamiltonians("star3_linear", advection(
        0.5, lambda x: np.where(np.asarray(x) > 0.5, np.inf, 0.0))),
], ids=["theta-below-bound", "negative-diffusion", "non-finite-h"])
def test_stencil_certificate_rejects(problem):
    """The stencil alone refuses a theta below the slope bound, a + eps < 0
    and an H that is not finite at p = 0, at every resolution; assembly
    then takes the full probe's witness."""
    for n in (5, 21, 81):
        grid = Grid(problem.network, n)
        with np.errstate(invalid="ignore"):
            assert not assemble(problem, grid, certify=False).stencil_certificate(), n
            with pytest.raises(MonotonicityProbeFailed):
                assemble(problem, grid)


def test_large_speed_is_certified_and_solves():
    """eikonal(1e6, 1) on every edge of star3_eikonal at n = 21 is monotone,
    with rows about 1e7 in size.  The stencil certifies it, the probe, which
    subtracts no two rows, finds nothing either, and the solve converges."""
    problem = _with_hamiltonians("star3_eikonal", eikonal(1e6, 1.0))
    system = assemble(problem, Grid(problem.network, 21))
    assert system.probe_monotone() is None
    result = solve_system(system, SolveConfig())
    assert result.converged, result.message


def test_large_speed_custom_h_passes_the_probe_and_solves():
    """The same H as a custom record (lipschitz_p 1e6, no slope bound) is
    left to the probe, which accepts it: a neighbour where the row is
    exactly flat changes it by a central quotient of H, not by the
    difference of two rows of size 1e7, whose one ulp exceeds PROBE_TOL."""
    problem = _custom_twin(_with_hamiltonians("star3_eikonal", eikonal(1e6, 1.0)), 1.0)
    assert problem.hamiltonians[0].slope_bound is None
    system = assemble(problem, Grid(problem.network, 21))
    assert not system.stencil_certificate()
    result = solve_system(system, SolveConfig())
    assert result.converged, result.message


def _mask_border_dest(grid):
    """border's dest as six boolean masks over (rows, cols) place it, one
    block at a time: the reference for the index arithmetic."""
    nv, r, c = len(grid.network.vertices), grid.rows, grid.cols
    m = grid.total_nodes - nv
    blocks = {"d": ((r >= nv) & (c == r), r - nv),
              "dl": ((c >= nv) & (r == c + 1), c - nv),
              "du": ((r >= nv) & (c == r + 1), r - nv),
              "B": ((r >= nv) & (c < nv), (r - nv) * nv + c),
              "C": ((r < nv) & (c >= nv), r * m + c - nv),
              "D": ((r < nv) & (c < nv), r * nv + c)}
    dest = np.empty(len(r), dtype=np.intp)
    for name, (at, flat) in blocks.items():
        dest[at] = grid.border[2][name][0].start + flat[at]
    return dest


def _assert_stencil_layout(grid):
    """rows and cols list each row's inputs once, in stencil order: three
    blocks over the interior edge nodes (own, left, right), then each vertex
    row's vertex_inputs, own entry first.  No (row, col) pair repeats, and
    border puts every entry in exactly one block of the network form, where
    the blocks rebuild the matrix of the entries; its dest, found by index
    arithmetic, equals the one six boolean masks give."""
    nv, n = len(grid.network.vertices), grid.total_nodes
    edge = np.arange(nv, n)
    rows, cols = grid.rows, grid.cols
    ne = n - nv
    for b in range(3):
        np.testing.assert_array_equal(rows[b * ne:(b + 1) * ne], edge)
    for ids in grid.node_ids.values():
        for i in range(1, len(ids) - 1):
            k = ids[i] - nv + ne * np.arange(3)
            assert cols[k].tolist() == [ids[i], ids[i - 1], ids[i + 1]]
    start = 3 * ne
    for v, inputs in enumerate(grid.vertex_inputs):
        assert inputs[0] == v
        block = slice(start, start + len(inputs))
        assert np.all(rows[block] == v)
        np.testing.assert_array_equal(cols[block], inputs)
        start += len(inputs)
    assert start == len(rows) == len(cols)
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    # entry k has the value k + 1, so a misplaced or lost entry shows
    vals = np.arange(1.0, len(rows) + 1.0)
    dense = np.zeros((n, n))
    dense[rows, cols] = vals
    size, dest, views = grid.border
    assert dest.dtype == np.intp
    np.testing.assert_array_equal(dest, _mask_border_dest(grid))
    buf = np.zeros(size)
    buf[dest] = vals
    blocks = {name: buf[at].reshape(shape) for name, (at, shape) in views.items()}
    # the six views tile the buffer, and no two entries share a position
    assert sum(np.prod(shape, dtype=int) for _, shape in views.values()) == size
    assert len(np.unique(dest)) == len(rows)
    tri = np.diag(blocks["d"]) + np.diag(blocks["dl"][:ne - 1], -1) + np.diag(
        blocks["du"][:ne - 1], 1)
    np.testing.assert_array_equal(np.block([[blocks["D"], blocks["C"]],
                                            [blocks["B"], tri]]), dense)


def test_row_entries_catalog_and_random_networks():
    """On every catalog grid (graph5_constant has a cycle) from n = 3 up,
    and on random networks with mixed resolutions."""
    for entry in all_entries():
        for n in (3, 4, 5, 6, 7, 8, 13):
            _assert_stencil_layout(Grid(entry.problem.network, n))
    rng = np.random.default_rng(11)
    for _ in range(12):
        network = random_problem(rng).network
        _assert_stencil_layout(Grid(network, {e.id: int(rng.integers(3, 12))
                                              for e in network.edges}))


def _reference_vertex_jacobian(system, gid, u, step):
    """Central differences of one vertex row, one input at a time through
    residual_node, in the order of the row's inputs."""
    out, w = [], u.copy()
    for j in system.grid.vertex_inputs[gid].tolist():
        hi, lo = u[j] + step, u[j] - step
        w[j] = hi
        r_hi = system.residual_node(gid, w)
        w[j] = lo
        r_lo = system.residual_node(gid, w)
        w[j] = u[j]
        out.append((r_hi - r_lo) / (hi - lo))
    return np.array(out)


@pytest.mark.parametrize("rows", ["kirchhoff", "minmax"])
def test_jacobian_vertex_entries_match_per_entry_loop(catalog_and_draws, junction_rows, rows):
    """Each vertex row's batched central differences equal, bit for bit,
    the per-entry loop through residual_node; a strong row's entries are 1
    and 0.  Every catalog entry and draw whose junction rows are of the
    shape rows."""
    rng = np.random.default_rng(17)
    problems = [(k, p) for k, p in enumerate(catalog_and_draws) if junction_rows(p) == rows]
    assert len(problems) >= 3
    for k, problem in problems:
        grid = Grid(problem.network, 11)
        system = assemble(problem, grid, certify=False)
        u = rng.uniform(-2.0, 2.0, size=grid.total_nodes)
        vals = system.jacobian_entries(u, 1e-7)
        for v in range(len(grid.vertex_inputs)):
            entries = np.flatnonzero(grid.rows == v)  # vertex v's block
            if system.node_classification(v) == "boundary-strong":
                assert vals[entries].tolist() == [1.0] + [0.0] * (len(entries) - 1)
                continue
            ref = _reference_vertex_jacobian(system, v, u, 1e-7)
            assert np.array_equal(vals[entries], ref), (k, v)


def test_properness_own_slope(system_cached):
    """The residual is strictly increasing in the node's own value, with
    slope at least lam at interior nodes."""
    system = system_cached("star3_mixed", 11)
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.0, 1.0, system.grid.total_nodes)
    lam = system.problem.lam
    for gid in range(system.grid.total_nodes):
        bumped = u.copy()
        bumped[gid] += 1e-6
        slope = (system.residual_node(gid, bumped) - system.residual_node(gid, u)) / 1e-6
        assert slope > 0.0, gid
        if system.node_classification(gid) == "interior":
            assert slope >= lam - 1e-6


def test_affine_junction_own_slope(system_cached):
    """The coupling residual gains at least sum(alpha_i)/h per unit of the
    vertex value through the inward divided differences."""
    system = system_cached("star3_linear", 21)
    grid = system.grid
    cond = system.problem.kirchhoff[0]
    gid = grid.vertex_gid(0)
    u = GridFunction.zeros(grid).values
    bumped = u.copy()
    bumped[gid] += 1e-6
    slope = (system.residual_node(gid, bumped) - system.residual_node(gid, u)) / 1e-6
    assert slope >= sum(cond.params["alphas"]) / grid.h - 1e-6


def test_node_classification_and_dependents(system_cached):
    system = system_cached("star3_eikonal", 11)
    grid = system.grid
    assert system.node_classification(grid.vertex_gid(0)) == "junction"
    assert system.node_classification(grid.vertex_gid(1)) == "boundary-relaxed"
    assert system.node_classification(grid.node_ids[0][3]) == "interior"
    # dependency structure is symmetric for this stencil family
    for gid in range(grid.total_nodes):
        for nbr in _dependents(grid, gid):
            assert gid in _dependents(grid, nbr)
    assert grid.vertex_gid(0) in _dependents(grid, grid.node_ids[0][1])


def test_resolve_relaxed_edges():
    """An assembled system relaxes a boundary row on its edge where
    a + eps = 0 and H is coercive, else keeps it strong; a junction takes
    the clause of every edge where a + eps = 0, whatever its H, and of no
    other: at eps = 0 each vertex row's clauses are those of
    NetworkProblem.relaxed, at eps > 0 none."""
    degen = entry_by_name("star3_eikonal").problem
    elliptic = entry_by_name("star2_linear").problem
    mixed = entry_by_name("star3_mixed").problem
    # an advection H is not coercive: the boundary row at vertex 1 turns
    # strong, the junction still takes the edge's clause
    flat = dataclasses.replace(mixed, hamiltonians={**mixed.hamiltonians, 0: advection(0.5, 0.2)})

    def resolved(problem, eps):
        system = assemble(problem, Grid(problem.network, 11), eps=eps, certify=False)
        out = {}
        for v in problem.network.vertices:
            out[v.id] = tuple(i for i, *_ in system._vertices[v.id].clauses)
            if v in problem.network.boundary_vertices:
                kind = system.node_classification(system.grid.vertex_gid(v.id))
                assert kind == ("boundary-relaxed" if out[v.id] else "boundary-strong")
        return out

    boundary = {1: (0,), 2: (0,), 3: (0,)}
    assert resolved(degen, 0.0) == {0: (0, 1, 2), **boundary}
    assert set(resolved(degen, 0.1).values()) == {()}
    assert set(resolved(elliptic, 0.0).values()) == {()}
    assert resolved(mixed, 0.0) == {0: (0,), 1: (0,), 2: (), 3: ()}
    assert set(resolved(mixed, 0.1).values()) == {()}
    assert resolved(flat, 0.0) == {0: (0,), 1: (), 2: (), 3: ()}
    for problem in (degen, elliptic, mixed, flat):
        assert resolved(problem, 0.0) == problem.relaxed


def test_resolve_theta():
    """theta on each edge is its Hamiltonian's lipschitz_p, read off the
    edge rows' own slope lam + 2(a + eps)/h^2 + theta/h."""
    problem = entry_by_name("star3_mixed").problem
    grid = Grid(problem.network, 11)
    system = assemble(problem, grid)
    # edge id -> (a, theta): the eikonal edge, then two drift-free linear ones
    for eid, (a, theta) in {0: (0.0, 1.0), 1: (1.0, 0.0), 2: (0.5, 0.0)}.items():
        h = grid.spacing[eid]
        np.testing.assert_allclose(system.own_coeff[grid.node_ids[eid][1:-1]],
                                   problem.lam + 2.0 * a / h ** 2 + theta / h,
                                   rtol=1e-12)


def test_assemble_rejects_bad_arguments():
    entry = entry_by_name("star3_constant")
    grid = Grid(entry.problem.network, 5)
    with pytest.raises(ValueError):
        assemble(entry.problem, grid, eps=-0.1)
    with pytest.raises(TypeError):  # one junction row: no mode to choose
        assemble(entry.problem, grid, junction_mode="minmax")


def test_strong_boundary_row_evaluates_no_hamiltonian(monkeypatch, system_cached):
    """A strong boundary row is u - g: it reads no slope, so no H call (the
    ghost-corrected slope on an elliptic edge would make one)."""
    system = system_cached("star3_linear", 11)
    calls = []
    real = Hamiltonian.__call__

    def counting(self, x, p):
        calls.append(1)
        return real(self, x, p)

    monkeypatch.setattr(Hamiltonian, "__call__", counting)
    u = np.random.default_rng(4).uniform(-1.0, 1.0, system.grid.total_nodes)
    strong = [v.id for v in system.problem.network.boundary_vertices]
    for vid in strong:
        gid = system.grid.vertex_gid(vid)
        assert system.node_classification(gid) == "boundary-strong"
        assert system.residual_node(gid, u) == u[gid] - system.problem.dirichlet[vid]
    assert calls == []



# ---------------------------------------------------------------------------
# Scheme tables shared by the systems on one grid


def _bits(a) -> np.ndarray:
    """a's float64 bit patterns, so -0.0 and 0.0 differ and NaNs compare."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize("rows", ["kirchhoff", "minmax"])
def test_systems_sharing_a_grid_match_a_fresh_grid_bit_for_bit(catalog_and_draws,
                                                                junction_rows, rows):
    """A system assembled on a grid that already holds the problem's scheme
    tables, built by an assembly at another eps, equals bit for bit the one
    assembled on a fresh grid: own_coeff, residual, Jacobian entries and
    network form, certificate and probe witness.  Every catalog entry and
    draw whose junction rows at eps = 0 are of the shape rows."""
    rng = np.random.default_rng(31)
    problems = [(k, p) for k, p in enumerate(catalog_and_draws) if junction_rows(p) == rows]
    assert len(problems) >= 3
    for k, problem in problems:
        shared = Grid(problem.network, {e.id: 9 + 2 * (e.id % 3) for e in problem.network.edges})
        first = assemble(problem, shared, eps=0.5, certify=False)
        for eps in (0.0, 2.0 ** -8, 0.25, 1.0):
            a = assemble(problem, shared, eps=eps, certify=False)
            b = assemble(problem, Grid(problem.network, shared.nodes_per_edge), eps=eps,
                         certify=False)
            assert a._tables is first._tables is not b._tables
            u = rng.uniform(-2.0, 2.0, (3, shared.total_nodes))
            np.testing.assert_array_equal(_bits(a.own_coeff), _bits(b.own_coeff))
            for x in u:
                np.testing.assert_array_equal(_bits(a.residual(x)), _bits(b.residual(x)))
                np.testing.assert_array_equal(_bits(a.jacobian_entries(x, 1e-7)),
                                              _bits(b.jacobian_entries(x, 1e-7)))
                ja, jb = _fd_jacobian(a, x, 1e-7), _fd_jacobian(b, x, 1e-7)
                assert ja.keys() == jb.keys()
                for name in ja:
                    np.testing.assert_array_equal(_bits(ja[name]), _bits(jb[name]))
            assert a.stencil_certificate() == b.stencil_certificate(), (k, eps)
            assert a.probe_monotone() == b.probe_monotone(), (k, eps)


def test_scheme_tables_are_shared_and_read_only():
    """Every system on a grid reads one SchemeTables per problem, and no
    shared array can be written: a, theta, c and d, each run's views of c
    and d, each vertex's h per incidence and the Jacobian's destinations.
    Each vertex's stencil is built once: its incidences (H, sign, x, h/2,
    a, theta*h/2) and its clauses at eps = 0, whose envelopes the system at
    eps = 0 reads and the one at eps = 0.25 drops."""
    problem = entry_by_name("star3_mixed").problem
    grid = Grid(problem.network, 11)
    systems = [assemble(problem, grid, eps=eps) for eps in (0.0, 0.25)]
    tables = grid.scheme(problem)
    assert all(s._tables is tables for s in systems)
    assert grid.scheme(entry_by_name("star3_mixed").problem) is not tables
    runs = [arr for _, fn in tables.runs for arr in (getattr(fn, "__defaults__", None) or ())
            if isinstance(arr, np.ndarray)]
    assert len(runs) == 4  # eikonal on edge 0, then one advection run over edges 1 and 2
    net, ham = problem.network, problem.hamiltonians[0]
    for v, vt, one, two in zip(net.vertices, tables.vertices, *(s._vertices for s in systems)):
        assert type(vt.incidences) is tuple and one.hs is two.hs is vt.hs
        assert [a for *_, a, _ in vt.incidences] == [
            problem.a_at_incidence(inc) for inc in net.incidence[v.id]]
        assert [i for i, *_ in vt.clauses] == list(problem.relaxed[v.id])
        assert one.clauses is vt.clauses and two.clauses == ()
    # edge 0 (a = 0, eikonal) is relaxed at the junction, its tail, and at its head
    assert [vt.clauses for vt in tables.vertices] == [
        ((0, ham.min_below, 1.0, 0.0),), ((0, ham.min_above, -1.0, 1.0),), (), ()]
    for arr in [tables.a, tables.theta, tables.c, tables.d, grid.border[1], *runs,
                *(vt.hs for vt in tables.vertices)]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
    assert systems[1]._a.flags.writeable


def test_grid_tables_are_shared_and_read_only():
    """Two systems on one grid, at eps = 0 and 0.25, read the same
    per-grid arrays (the Jacobian's destinations, each vertex row's unit
    moves and strong-row entries), and a write to any of them raises; the
    Jacobian entries a system returns are its own, so writing them leaves
    the grid's tables and the other system's Jacobian as they were."""
    problem = entry_by_name("star3_mixed").problem
    grid = Grid(problem.network, 11)
    one, two = (assemble(problem, grid, eps=eps) for eps in (0.0, 0.25))
    assert one.grid is two.grid is grid
    tables = [grid.border[1], *(arr for v in grid.vertex_moves for arr in v)]
    for arr in tables:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0
    for (moves, unit), inputs in zip(grid.vertex_moves, grid.vertex_inputs):
        m = len(inputs)
        np.testing.assert_array_equal(moves, np.vstack([np.eye(m), -np.eye(m)]))
        np.testing.assert_array_equal(unit, np.eye(1, m)[0])
    u = np.random.default_rng(3).uniform(-1.0, 1.0, grid.total_nodes)
    before = two.jacobian_entries(u, 1e-7)
    entries = one.jacobian_entries(u, 1e-7)
    entries[...] = 0.0
    np.testing.assert_array_equal(two.jacobian_entries(u, 1e-7), before)
    assert all(v[1][0] == 1.0 for v in grid.vertex_moves)


def _doubled_eikonal():
    """A Hamiltonian subclass whose call doubles its record's H."""
    class Doubled(Hamiltonian):
        def __call__(self, x, p):
            return 2.0 * super().__call__(x, p)
    return Doubled(None, 2.0, True, 2.0, "eikonal", {"speed": 1.0, "rhs": 0.5})


@pytest.mark.parametrize("hams, runs", [
    # families interleaved: every run is one edge
    (lambda: [eikonal(1.0, 1.0), advection(0.5, -0.2), eikonal(2.0, 0.0),
              advection(-1.0, 0.0), eikonal(0.7, -0.3)], 5),
    # runs of two: eikonal, advection, then a custom H on its own
    (lambda: [eikonal(1.0, 1.0), eikonal(2.0, 0.5), advection(-0.3, 0.1), advection(0.7, 2),
              Hamiltonian(lambda x, p: np.abs(p) ** 1.5 - np.sin(x), c_h=3.0)], 3),
    # a callable f and a subclass take an entry each; the subclass splits the eikonal run
    (lambda: [advection(0.3, lambda x: np.cos(x)), eikonal(1.0, 1.0), _doubled_eikonal(),
              eikonal(1.5, 0.0), advection(-2, 0)], 5),
], ids=["interleaved", "runs-of-two", "split-runs"])
def test_table_ham_matches_the_per_edge_loop(hams, runs):
    """_table_ham, one call per run of consecutive edges of one built-in
    family with constant data, equals bit for bit each edge's own H on its
    slice, on a graph with cycles and unequal node counts."""
    base = entry_by_name("graph5_constant").problem
    edges = base.network.edges
    problem = dataclasses.replace(base, hamiltonians=dict(zip((e.id for e in edges), hams())))
    grid = Grid(problem.network, {e.id: 5 + 3 * e.id for e in edges})
    system = assemble(problem, grid, certify=False)
    assert len(grid.scheme(problem).runs) == runs
    x = grid.edge_table[0]
    p = np.random.default_rng(7).uniform(-3.0, 3.0, (3, len(x)))
    p[:, ::4] = 0.0
    p[1, ::5] = -0.0
    ref = np.empty_like(p)
    for eid, s in grid.edge_slices.items():
        ref[..., s] = problem.hamiltonians[eid](x[s], p[..., s])
    np.testing.assert_array_equal(_bits(system._table_ham(x, p)), _bits(ref))
    np.testing.assert_array_equal(_bits(system._table_ham(x, p[0])), _bits(ref[0]))
