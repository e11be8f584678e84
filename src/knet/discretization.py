"""Per-edge grids and the monotone nodewise residual system.

Interior nodes carry the Lax-Friedrichs discretization of
lam*u - (a+eps)*u_xx + H(x, u_x); interior vertices carry the coupling
F(u_v, inward divided differences); boundary vertices carry either the
strong Dirichlet equation or the relaxed (state-constraint) form.

Every assembled system is certified monotone by finite-difference
perturbation probes: the residual at a node is nondecreasing in the node's
own value and nonincreasing in every other node's value.

Each residual row depends only on its node and the node's graph neighbours
on the grid.  Assembly therefore builds one distance-2 colouring of that
dependency pattern: no row depends on two nodes of the same colour.  So
perturbing every node of one colour at once still changes each row through
exactly one input, and a handful of vectorized residual() calls recover a
whole finite-difference Jacobian (Curtis, Powell & Reid 1974) or a whole
monotonicity probe.

The interior edge nodes, which the grid numbers V..N-1 edge after edge,
share one flat table: left and right neighbour gids, x, a + eps, h, h^2
and theta per node, and one (slice, Hamiltonian) pair per edge.  One row
formula, ResidualSystem._edge_rows, writes the Lax-Friedrichs rows from
it: residual() fills every edge row in one call, with one H call per edge,
and residual_node reads table entry gid - V for a single node, the path of
the nodewise local solves, so both give the same bits.  The flux evaluates
H at the central slope (u+ - u-)/(2h), which does not contain the node's
own value, so every edge row is affine in it with slope
lam + 2(a+eps)/h^2 + theta/h.  Assembly reads that slope, own_coeff, off
the same row formula in one call, and the Gauss-Seidel sweeps solve each
edge node with one exact Newton step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import MonotonicityProbeFailed, NodeNotInterior, VertexNotInterior
from .network import INTERIOR, Network, NetworkPoint
from .problem import NetworkProblem

VERTEX_NODE = "vertex"
EDGE_NODE = "edge"


class Grid:
    """Uniform per-edge lattices with shared vertex nodes.

    Global node layout: one node per vertex (in network vertex order), then
    the strictly interior nodes of each edge in edge order.  Every
    node-to-point geodesic distance comes from distances_to.
    """

    def __init__(self, network: Network, nodes_per_edge: Union[int, dict]):
        self.network = network
        self.nodes_per_edge = {}
        for e in network.edges:
            n = nodes_per_edge[e.id] if isinstance(nodes_per_edge, dict) else nodes_per_edge
            if n < 3:
                raise ValueError(f"edge {e.id}: need at least 3 nodes, got {n}")
            self.nodes_per_edge[e.id] = int(n)

        self.vertex_index = {v.id: i for i, v in enumerate(network.vertices)}
        self.node_ids = {}
        self.coords = {}
        self.spacing = {}
        next_id = len(network.vertices)
        for e in network.edges:
            n = self.nodes_per_edge[e.id]
            ids = np.empty(n, dtype=int)
            ids[0] = self.vertex_index[e.tail]
            ids[-1] = self.vertex_index[e.head]
            ids[1:-1] = np.arange(next_id, next_id + n - 2)
            next_id += n - 2
            self.node_ids[e.id] = ids
            self.coords[e.id] = np.linspace(0.0, e.length, n)
            self.spacing[e.id] = e.length / (n - 1)
        self.total_nodes = next_id
        self.h = max(self.spacing.values())

    def vertex_gid(self, vid: int) -> int:
        return self.vertex_index[vid]

    def node_kind(self, gid: int) -> str:
        return VERTEX_NODE if gid < len(self.network.vertices) else EDGE_NODE

    def node_location(self, gid: int):
        """(edge_id, t) of a global node; vertices use the canonical edge."""
        if self.node_kind(gid) == VERTEX_NODE:
            vid = self.network.vertices[gid].id
            p = self.network.vertex_point(vid)
            return p.edge_id, p.t
        eid, ids = next((eid, ids) for eid, ids in self.node_ids.items()
                        if ids[1] <= gid <= ids[-2])
        return eid, float(self.coords[eid][gid - ids[1] + 1])

    def distances_to(self, point: NetworkPoint) -> np.ndarray:
        """Geodesic distance from every node to one network point, equal bit
        for bit to network.geodesic_distance: the same sums ta + d(va, vb) +
        tb and |s - t| on the point's own edge, one edge at a time.  Edges go
        in decreasing id order, so a vertex keeps the value of its lowest-id
        edge, where node_location puts it."""
        net = self.network
        q = net.point(point.edge_id, point.t)
        eq = net.edge(q.edge_id)
        dv = net._vertex_distances()
        ends = ((self.vertex_index[eq.tail], q.t),
                (self.vertex_index[eq.head], eq.length - q.t))
        out = np.empty(self.total_nodes)
        for e in sorted(net.edges, key=lambda e: -e.id):
            t = self.coords[e.id]
            best = np.abs(t - q.t) if e.id == eq.id else np.full(len(t), np.inf)
            for va, ta in ((e.tail, t), (e.head, e.length - t)):
                for vb, tb in ends:
                    best = np.minimum(best, ta + dv[self.vertex_index[va], vb] + tb)
            out[self.node_ids[e.id]] = best
        return out

    def boundary_distances(self) -> np.ndarray:
        """Per-node geodesic distance to the nearest boundary vertex."""
        net = self.network
        return np.minimum.reduce([self.distances_to(net.vertex_point(v.id))
                                  for v in net.boundary_vertices])

    def interpolate(self, values: np.ndarray, eid: int, t) -> np.ndarray:
        """Linear interpolation of a node vector along one edge."""
        return np.interp(np.asarray(t, dtype=float), self.coords[eid],
                         values[self.node_ids[eid]])


class GridFunction:
    """Real values at every grid node; vertex values stored once."""

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.total_nodes,):
            raise ValueError("value vector does not match grid")
        self.grid = grid
        self.values = values

    @classmethod
    def zeros(cls, grid: Grid) -> "GridFunction":
        return cls(grid, np.zeros(grid.total_nodes))

    @classmethod
    def full(cls, grid: Grid, value: float) -> "GridFunction":
        return cls(grid, np.full(grid.total_nodes, float(value)))

    @classmethod
    def from_profile(cls, grid: Grid, fn) -> "GridFunction":
        """fn(edge_id, t_array) -> values; vertex values taken from the
        lowest incident edge id."""
        vals = np.full(grid.total_nodes, np.nan)
        for e in grid.network.edges:
            ids = grid.node_ids[e.id]
            ev = np.asarray(fn(e.id, grid.coords[e.id]), dtype=float)
            vals[ids[1:-1]] = ev[1:-1]
            for pos, gid in ((0, ids[0]), (-1, ids[-1])):
                if np.isnan(vals[gid]):
                    vals[gid] = ev[pos]
        return cls(grid, vals)

    def is_valid(self) -> bool:
        return bool(np.all(np.isfinite(self.values)))

    def on_edge(self, eid: int) -> np.ndarray:
        return self.values[self.grid.node_ids[eid]]

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())


def lax_friedrichs(ham, x, p_minus, p_plus, theta):
    """Monotone numerical Hamiltonian for any theta >= Lip_p(H)."""
    return ham(x, 0.5 * (p_minus + p_plus)) - 0.5 * theta * (p_plus - p_minus)


@dataclass
class _VertexStencil:
    gid: int
    kind: str
    # per incident edge, in coupling component order:
    nbr_gids: np.ndarray
    hs: np.ndarray
    signs: np.ndarray  # +1 when the vertex sits at t = 0
    x_at_v: np.ndarray
    a_plus_eps: np.ndarray
    hams: tuple
    correct_2nd: np.ndarray  # ghost-corrected inward slope per edge
    degenerate: np.ndarray
    coupling: object  # interior: KirchhoffCondition, else None
    h_dirichlet: float  # boundary: Dirichlet datum, else 0
    boundary_mode: str  # boundary: "strong" or "relaxed", else "strong"


class ResidualSystem:
    """Assembled monotone discrete operator; immutable after assembly."""

    def __init__(self, problem: NetworkProblem, grid: Grid, eps: float,
                 junction_mode: str, boundary_modes: dict, thetas: dict):
        self.problem = problem
        self.grid = grid
        self.eps = float(eps)
        self.junction_mode = junction_mode

        # one table over the interior edge nodes, entry k = gid - V in the
        # grid's edge order: neighbour gids, x, a + eps, h, h**2 and theta;
        # per edge, its slice of the table and its Hamiltonian.  h**2 is
        # stored so that one-node and whole-table rows divide by the same bits
        edges = problem.network.edges
        node_ids = [grid.node_ids[e.id] for e in edges]
        xs = [grid.coords[e.id][1:-1] for e in edges]
        counts = [len(x) for x in xs]
        spacings = [grid.spacing[e.id] for e in edges]
        self._left = np.concatenate([i[:-2] for i in node_ids])
        self._right = np.concatenate([i[2:] for i in node_ids])
        self._x = np.concatenate(xs)
        self._a = np.concatenate([np.asarray(problem.diffusions[e.id].a(x), dtype=float)
                                  for e, x in zip(edges, xs)]) + self.eps
        self._h = np.repeat(spacings, counts)
        self._hsq = np.repeat([h ** 2 for h in spacings], counts)
        self._theta = np.repeat([thetas[e.id] for e in edges], counts)
        ends = np.cumsum([0] + counts).tolist()
        self._hams = [(slice(lo, hi), problem.hamiltonians[e.id])
                      for e, lo, hi in zip(edges, ends, ends[1:])]
        self._node_hams = [ham for s, ham in self._hams for _ in range(s.stop - s.start)]

        self._vertices = []
        for v in problem.network.vertices:
            incs = problem.network.incidence[v.id]
            nbr, hs, signs, xv, av, hams, cors, degs = ([] for _ in range(8))
            for inc in incs:
                eid = inc.edge.id
                ids = grid.node_ids[eid]
                nbr.append(int(ids[1] if inc.at_tail else ids[-2]))
                h_e = grid.spacing[eid]
                hs.append(h_e)
                signs.append(1.0 if inc.at_tail else -1.0)
                xv.append(inc.vertex_param)
                a_v = problem.a_at_vertex(v.id, eid) + self.eps
                av.append(a_v)
                hams.append(problem.hamiltonians[eid])
                degs.append(a_v == 0.0)
                # second-order ghost correction only where it keeps the
                # stencil monotone: a + eps must dominate theta*h/2
                cors.append(a_v > 0.0 and a_v >= 0.5 * thetas[eid] * h_e)
            self._vertices.append(_VertexStencil(
                grid.vertex_gid(v.id), v.kind,
                np.array(nbr), np.array(hs), np.array(signs), np.array(xv),
                np.array(av), tuple(hams),
                np.array(cors, dtype=bool), np.array(degs, dtype=bool),
                problem.kirchhoff.get(v.id), problem.dirichlet.get(v.id, 0.0),
                boundary_modes.get(v.id, "strong"),
            ))

        # own_coeff[j]: slope of an edge row, affine in its own value u[j],
        # read off the row formula as row(u[j] = 1) - row(u[j] = 0); 0 at
        # vertex rows, which are not affine in general
        self.own_coeff = np.zeros(grid.total_nodes)
        self.own_coeff[len(self._vertices):] = (
            self._edge_rows(slice(None), 0.0, 1.0, 0.0, self._table_ham)
            - self._edge_rows(slice(None), 0.0, 0.0, 0.0, self._table_ham))

        # dependency pattern in column order: pattern_rows[k] depends on
        # u[pattern_cols[k]]; colour_groups[c] holds the nodes of colour c
        # and the pattern entries of their columns
        self._indptr, self.pattern_rows, self.pattern_cols = _dependency_pattern(grid)
        self.colours = _distance2_colouring(grid, self._indptr, self.pattern_rows)
        entry_colours = self.colours[self.pattern_cols]
        self.colour_groups = [
            (np.flatnonzero(self.colours == c), np.flatnonzero(entry_colours == c))
            for c in range(int(self.colours.max()) + 1)
        ]

    # -- residual evaluation ------------------------------------------------

    def inward_slopes(self, st: _VertexStencil, u: np.ndarray) -> np.ndarray:
        """Discrete inward derivatives at a vertex, ghost-corrected on
        uniformly elliptic edges."""
        lam = self.problem.lam
        uv = u[st.gid]
        d = (u[st.nbr_gids] - uv) / st.hs
        if st.correct_2nd.any():
            for i in np.nonzero(st.correct_2nd)[0]:
                hval = float(st.hams[i](st.x_at_v[i], st.signs[i] * d[i]))
                d[i] -= 0.5 * st.hs[i] * (lam * uv + hval) / st.a_plus_eps[i]
        return d

    def _state_constraint_value(self, st: _VertexStencil, i: int, d_i: float) -> float:
        """min over admissible one-sided slopes s <= d_i of H(x_v, oriented s)."""
        ham = st.hams[i]
        if st.signs[i] > 0:
            return float(ham.min_below(st.x_at_v[i], d_i))
        return float(ham.min_above(st.x_at_v[i], -d_i))

    def junction_residual(self, u: np.ndarray, vid: int) -> float:
        st = self._vertices[self.grid.vertex_gid(vid)]
        if st.kind != INTERIOR:
            raise VertexNotInterior(f"vertex {vid} is not interior")
        return self._vertex_residual(st, u)

    def _vertex_residual(self, st: _VertexStencil, u: np.ndarray) -> float:
        lam = self.problem.lam
        uv = float(u[st.gid])
        d = self.inward_slopes(st, u)
        if st.kind == INTERIOR:
            res = st.coupling(uv, d)
            if self.junction_mode == "minmax":
                for i in np.nonzero(st.degenerate)[0]:
                    res = max(res, lam * uv + self._state_constraint_value(st, int(i), float(d[i])))
            return float(res)
        if st.boundary_mode == "strong":
            return uv - st.h_dirichlet
        eq = lam * uv + self._state_constraint_value(st, 0, float(d[0]))
        return float(max(uv - st.h_dirichlet, eq))

    def _table_ham(self, x, p):
        """Each edge's Hamiltonian on its slice of the whole table."""
        out = np.empty(len(p))
        for s, ham in self._hams:
            out[s] = ham(x[s], p[s])
        return out

    def _edge_rows(self, k, um, uc, up, ham):
        """Lax-Friedrichs rows lam*u - (a+eps)*u_xx + H^LF(x, p-, p+) at table
        entry k, a flat index (one node) or a slice: um, uc, up are the left,
        centre and right values, ham the Hamiltonian of those entries."""
        h = self._h[k]
        hh = lax_friedrichs(ham, self._x[k], (uc - um) / h, (up - uc) / h, self._theta[k])
        return self.problem.lam * uc - self._a[k] * ((up - 2.0 * uc + um) / self._hsq[k]) + hh

    def interior_residual(self, u: np.ndarray, gid: int) -> float:
        k = gid - len(self._vertices)
        if k < 0:
            raise NodeNotInterior(f"node {gid} is a vertex node")
        return float(self._edge_rows(k, u[self._left[k]], u[gid], u[self._right[k]],
                                     self._node_hams[k]))

    def residual_node(self, gid: int, u: np.ndarray) -> float:
        if gid < len(self._vertices):
            return self._vertex_residual(self._vertices[gid], u)
        return self.interior_residual(u, gid)

    def residual(self, u) -> np.ndarray:
        """Full residual vector: every edge row in one table call."""
        if isinstance(u, GridFunction):
            u = u.values
        nv = len(self._vertices)
        out = np.empty(self.grid.total_nodes)
        out[nv:] = self._edge_rows(slice(None), u[self._left], u[nv:], u[self._right],
                                   self._table_ham)
        for st in self._vertices:
            out[st.gid] = self._vertex_residual(st, u)
        return out

    def residual_norm(self, u) -> float:
        return float(np.max(np.abs(self.residual(u))))

    # -- structure ----------------------------------------------------------

    def neighbors(self, gid: int):
        return tuple(self.pattern_rows[self._indptr[gid] + 1:self._indptr[gid + 1]].tolist())

    def dependents(self, gid: int):
        """Nodes whose residual depends on u[gid] (incl. gid itself)."""
        return tuple(self.pattern_rows[self._indptr[gid]:self._indptr[gid + 1]].tolist())

    def node_classification(self, gid: int) -> str:
        if gid >= len(self._vertices):
            return "interior"
        st = self._vertices[gid]
        if st.kind == INTERIOR:
            return "junction"
        return f"boundary-{st.boundary_mode}"

    def certify_monotone(self, n_samples: int = 3, step: float = 1e-6,
                         tol: float = 1e-9, rng=None, scale: float = 2.0):
        """Perturbation probe of the monotone-scheme property.

        Each sample raises u by step at every node of one colour at a time,
        so every row sees one perturbed input per residual() call.  Returns
        None when no witness is found, else a dict describing the violating
        (sample, node, row, direction): the first one in node order, then in
        the order of dependents(node).
        """
        rng = np.random.default_rng(0) if rng is None else rng
        rows, cols = self.pattern_rows, self.pattern_cols
        own = rows == cols
        delta = np.empty(len(rows))
        for s in range(n_samples):
            u = rng.uniform(-scale, scale, size=self.grid.total_nodes)
            r0 = self.residual(u)
            for nodes, entries in self.colour_groups:
                up = u.copy()
                up[nodes] += step
                delta[entries] = (self.residual(up) - r0)[rows[entries]]
            bad = np.where(own, delta < -tol, delta > tol)
            if bad.any():
                k = int(np.argmax(bad))
                return {"sample": s, "node": int(cols[k]), "row": int(rows[k]),
                        "direction": "own" if own[k] else "cross",
                        "delta": float(delta[k])}
        return None

    def own_slope(self, gid: int, u: np.ndarray, step: float = 1e-6) -> float:
        r0 = self.residual_node(gid, u)
        u2 = u.copy()
        u2[gid] += step
        return (self.residual_node(gid, u2) - r0) / step


def _dependency_pattern(grid: Grid):
    """(indptr, rows, cols) of the residual's dependency pattern.

    A row depends on its own node and on the nodes one grid cell away, a
    symmetric relation.  Entries are in column order and, within column j,
    list j first and then its neighbours in increasing order: the order of
    dependents(j).
    """
    n = grid.total_nodes
    tails = np.concatenate([ids[:-1] for ids in grid.node_ids.values()])
    heads = np.concatenate([ids[1:] for ids in grid.node_ids.values()])
    diag = np.arange(n)
    rows = np.concatenate([diag, tails, heads])
    cols = np.concatenate([diag, heads, tails])
    order = np.lexsort((rows, rows != cols, cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    return indptr, rows[order], cols[order]


def _distance2_colouring(grid: Grid, indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Node colours such that no row depends on two nodes of one colour.

    Edge nodes at least three cells from both ends take the colour k mod 3
    of their local index k, which already separates any two of them within
    two cells.  Only the vertices and the edge nodes within two cells of a
    vertex are coloured greedily, each with the smallest colour unused
    within two cells.
    """
    colours = np.full(grid.total_nodes, -1)
    greedy = [np.arange(len(grid.network.vertices))]
    for ids in grid.node_ids.values():
        m = len(ids)
        k = np.arange(3, m - 3)
        colours[ids[k]] = k % 3
        greedy += [ids[1:min(3, m - 1)], ids[max(3, m - 3):m - 1]]
    for j in np.concatenate(greedy):
        near = rows[indptr[j]:indptr[j + 1]]
        used = set(colours[np.concatenate(
            [rows[indptr[i]:indptr[i + 1]] for i in near])].tolist())
        c = 0
        while c in used:
            c += 1
        colours[j] = c
    return colours


def resolve_theta(problem: NetworkProblem, theta) -> dict:
    if theta == "auto" or theta is None:
        return {e.id: float(problem.hamiltonians[e.id].lipschitz_p)
                for e in problem.network.edges}
    if isinstance(theta, dict):
        return {int(k): float(v) for k, v in theta.items()}
    return {e.id: float(theta) for e in problem.network.edges}


def resolve_boundary_modes(problem: NetworkProblem, mode, eps: float) -> dict:
    """Mode per boundary vertex; "auto" is "relaxed" where a + eps = 0 and H
    is coercive.  "relaxed" where a + eps > 0 is rejected: the diffusion
    keeps the datum there, but the relaxed row, without it, would not."""
    out = {}
    for v in problem.network.boundary_vertices:
        m = mode.get(v.id, "auto") if isinstance(mode, dict) else mode
        eid = problem.network.incidence[v.id][0].edge.id
        a = problem.a_at_vertex(v.id, eid) + eps
        if m == "auto":
            m = "strong" if a > 0.0 or not problem.hamiltonians[eid].coercive else "relaxed"
        if m not in ("strong", "relaxed"):
            raise ValueError(f"unknown boundary mode {m!r}")
        if m == "relaxed" and a > 0.0:
            raise ValueError(f"relaxed boundary mode at vertex {v.id}: edge {eid} "
                             f"has a + eps = {a:g} > 0 there")
        out[v.id] = m
    return out


def resolve_scheme(problem: NetworkProblem, eps: float = 0.0,
                   junction_mode: str = "kirchhoff", boundary_mode="auto",
                   theta="auto"):
    """assemble()'s scheme options, checked against the problem, as (theta
    per edge, mode per boundary vertex); raises ValueError on a bad one."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if junction_mode not in ("kirchhoff", "minmax"):
        raise ValueError(f"unknown junction mode {junction_mode!r}")
    return resolve_theta(problem, theta), resolve_boundary_modes(problem, boundary_mode, eps)


def assemble(problem: NetworkProblem, grid: Grid, eps: float = 0.0,
             junction_mode: str = "kirchhoff", boundary_mode="auto",
             theta="auto", probe_samples: int = 3, rng=None) -> ResidualSystem:
    """Build the residual system and certify the monotone-scheme property.

    Raises MonotonicityProbeFailed with the witness node when certification
    fails; pass probe_samples=0 to skip (used by deliberate counterexample
    tests).
    """
    thetas, modes = resolve_scheme(problem, eps, junction_mode, boundary_mode, theta)
    system = ResidualSystem(problem, grid, eps, junction_mode, modes, thetas)
    if probe_samples > 0:
        witness = system.certify_monotone(n_samples=probe_samples, rng=rng)
        if witness is not None:
            raise MonotonicityProbeFailed(
                f"monotone-scheme probe failed: {witness}",
                node=witness["node"], direction=witness["direction"],
            )
    return system
