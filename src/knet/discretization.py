"""Per-edge grids and the monotone nodewise residual system.

Interior nodes carry the Lax-Friedrichs discretization of
lam*u - (a+eps)*u_xx + H(x, u_x).  Every vertex row is one formula,

    max(base, lam*u_v + SC_i(d_i) for i in relaxed),

with d the inward divided differences, base the coupling F(u_v, d) at an
interior vertex and u_v - g at a boundary vertex, and SC_i(d_i) the state
constraint of edge i, min of H over the one-sided slopes below d_i.  One
rule, NetworkProblem.relaxed, fixes the relaxed edges: at eps = 0, a
boundary vertex's edge where a = 0 and H is coercive (the Dirichlet datum
in the viscosity sense) and a junction's edges with a = 0 (the Kirchhoff
condition in the relaxed sense, F or the degenerate edge equation); none
elsewhere, and none at all once eps > 0.  A junction with no relaxed edge
imposes F = 0 alone.  A boundary row with no relaxed edge is the strong
equation u_v = g and reads no slope.  The problem fixes the
Lax-Friedrichs dissipation too: theta on each edge is its H's lipschitz_p.

Every assembled system is certified monotone: the residual at a node is
nondecreasing in the node's own value and nonincreasing in every other
node's value.  Built from built-in records, every row is so by
construction.  An edge row's own slope lam + 2(a+eps)/h^2 + theta/h is
> 0, and its cross slopes -(a+eps)/h^2 +- q/(2h) - theta/(2h), q the slope
of H at the central slope, are <= 0 for every u exactly when |q| <= theta
+ 2(a+eps)/h; a built-in H bounds |q| by its slope_bound.  At a vertex,
classical, affine and pm-split are nondecreasing in u_v and nonincreasing
in each inward slope, given alpha0 >= 0 and alpha_i, beta_i > 0, which the
record checks.  A ghost-corrected slope d_i - (h/2)(lam*u_v + H(x,
s*d_i))/(a+eps) is monotone when |dH/dp| <= 2(a+eps)/h, and a ghost
correction requires a + eps >= theta*h/2, so slope_bound <= theta
suffices.  The exact envelopes make every relaxed clause monotone, a max
of monotone rows is monotone, and a built-in row that is finite at one u
is finite at every u.  So ResidualSystem.stencil_certificate checks only
that every H and coupling is builtin, an exact record of a built-in
family (a subclass may override slope_bound or an envelope, an fn any
fact), that slope_bound <= theta and a + eps >= 0, and that own_coeff
and every vertex row are finite at u = 0.  Where it fails, as for custom
data, certify_monotone returns the witness of probe_monotone, which checks
the signs of Newton's Jacobian (jacobian_entries) at random u: own entries
>= 0, cross entries <= 0, the pattern spsolve's diagonal dominance rests
on.  An edge row's entries are exact coefficients plus a central quotient
of H, so the probe never subtracts two rows of size theta/h.

Each residual row reads only the inputs its stencil names, and the grid
lists them once, as Grid.rows and Grid.cols in stencil order: three blocks
over the interior edge nodes (the node, its left and its right neighbour),
then each vertex row's Grid.vertex_inputs, own entry first.  The Jacobian
(jacobian_entries), and through it the probe, writes its values in that
order, one contiguous block per row.  Grid.border, shared by every system
on the grid, places each entry in the solver's network form, a
tridiagonal block T over the M edges' interior nodes bordered by the
vertex rows and columns (B, M x V; C, V x M; D, V x V), as one position
in one buffer whose views are the blocks: one scatter.  The positions follow from the stencil order
by index arithmetic.  Edge row k (node V + k) puts its own entry on T's
diagonal at k, its left input below it at k - 1 and its right input above
it at k, or, where that input is vertex v, in B at (k, v).  Vertex row v
puts its own entry in D at (v, v) and the next node along each incident
edge, node V + k, in C at (v, k).

The grid owns the scheme's geometry, built on first use and shared by
every system on it: over the interior edge nodes, numbered V..N-1 edge
after edge, the edge table (x, h, h^2 per node), each edge's slice of it
and the two sweep classes; per vertex row, its unit moves for central
differences and its entries as a strong row, all read-only.  Per problem
it keeps what the problem fixes, Grid.scheme: a, theta and the H of each
family run over the edge table, and each vertex's stencil: per incidence
its h, H, inward sign, x at the vertex, h/2, a and theta*h/2, and per
relaxed edge at eps = 0 the envelope, sign and x its clause reads.  They
are built at the first assembly, read by every later one (each step of a
viscosity schedule) and dropped with the grid, which each operation makes
anew.  A problem is frozen, with read-only maps, so no later system reads
stale tables.  A system adds what eps decides: a + eps, the coefficients
below, the clauses only at eps = 0, and the ghost-corrected edges, each
with its a + eps.  One row formula,
ResidualSystem._edge_rows, writes every edge row in one call (one H call
per family run) in residual(), and entry gid - V alone in residual_node,
the one-node reference the tests compare against, with the same bits.  H
is taken at the central slope (u+ - u-)/(2h), which omits the node's own
value, so an edge row is affine in it with slope own_coeff = lam +
2(a+eps)/h^2 + theta/h, read off the row formula at assembly, as are its
neighbour coefficients with H switched off; the Jacobian adds H's
central quotient to them.  No row reads two nodes of one sweep class, so
relax_edge_class steps every other node along each edge exactly at once,
and the sweeps run Python only at vertices.
"""

from __future__ import annotations

import itertools
import math
import numbers
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .errors import MonotonicityProbeFailed
from .network import Network, NetworkPoint
from .problem import NetworkProblem, larger

PROBE_STEP = 1e-6  # probe_monotone's perturbation of one input
PROBE_TOL = 1e-9  # largest change of the wrong sign it forgives
PROBE_SCALE = 2.0  # its samples of u are uniform on [-PROBE_SCALE, PROBE_SCALE]
PROBE_SAMPLES = 3  # certify_monotone's draws of u


def check_nodes(n, edge=None) -> None:
    """Raise ValueError unless n, a Grid's nodes on edge, is an integer >= 3."""
    if not (isinstance(n, numbers.Integral) and n >= 3):
        raise ValueError(f"need at least 3 nodes per edge, got {n}" if edge is None
                         else f"edge {edge}: need at least 3 nodes, got {n}")


def _read_only(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only: a table that many systems share."""
    arr.flags.writeable = False
    return arr


class Grid:
    """Uniform per-edge lattices with shared vertex nodes.

    Global node layout: one node per vertex (in network vertex order), then
    the strictly interior nodes of each edge in edge order.  Every
    node-to-point geodesic distance comes from distances_to.  The cached
    properties are the scheme's geometry, built once per grid.
    """

    def __init__(self, network: Network, nodes_per_edge: Union[int, dict]):
        self.network = network
        self.nodes_per_edge = {}
        per_edge = isinstance(nodes_per_edge, dict)
        for e in network.edges:
            n = nodes_per_edge[e.id] if per_edge else nodes_per_edge
            check_nodes(n, e.id if per_edge else None)
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
        # the two neighbours of every interior edge node, in gid order
        self.left_gids = np.concatenate([ids[:-2] for ids in self.node_ids.values()])
        self.right_gids = np.concatenate([ids[2:] for ids in self.node_ids.values()])
        # each vertex row's inputs: the vertex, then the next node along each
        # incident edge, in incidence order
        self.vertex_inputs = [np.array([self.vertex_index[v.id]] + [
            self.node_ids[inc.edge.id][1 if inc.at_tail else -2]
            for inc in network.incidence[v.id]]) for v in network.vertices]
        # every (row, input) pair of the residual, in stencil order: row j's
        # own, left and right entries over the interior edge nodes, block
        # by block, then each vertex row's inputs
        edge = np.arange(len(network.vertices), next_id)
        self.rows = np.concatenate([edge, edge, edge] + [
            np.full(len(c), v) for v, c in enumerate(self.vertex_inputs)])
        self.cols = np.concatenate([edge, self.left_gids, self.right_gids,
                                    *self.vertex_inputs])
        self._schemes = {}  # id(problem) -> (problem, SchemeTables), see scheme

    @property
    def level_name(self) -> str:
        """The grid's node counts per edge, as "n=21" or "n=5/9"."""
        return "n=" + "/".join(map(str, sorted(set(self.nodes_per_edge.values()))))

    def vertex_gid(self, vid: int) -> int:
        return self.vertex_index[vid]

    def node_location(self, gid: int):
        """(edge_id, t) of a global node; vertices use the canonical edge."""
        k = gid - len(self.network.vertices)
        if k < 0:
            p = self.network.vertex_point(self.network.vertices[gid].id)
            return p.edge_id, p.t
        eid = next(eid for eid, s in self.edge_slices.items() if k < s.stop)
        return eid, float(self.edge_table[0][k])

    def distances_to(self, point: NetworkPoint) -> np.ndarray:
        """Geodesic distance from every node to one network point, equal bit
        for bit to network.geodesic_distance: the same sums ta + d(va, vb) +
        tb and |s - t| on the point's own edge, one edge at a time.  Edges go
        in decreasing id order, so a vertex keeps the value of its lowest-id
        edge, where node_location puts it."""
        net = self.network
        q = net.point(point.edge_id, point.t)
        eq = net.edge(q.edge_id)
        dv = net.vertex_distances
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

    @cached_property
    def vertex_moves(self) -> list:
        """Per vertex row, in vertex order, two read-only arrays over its
        m inputs: the unit moves of its central differences, row i raising
        input i by one and row m + i lowering it, and a strong row's
        Jacobian entries, 1 at its own input and 0 elsewhere."""
        out = []
        for inputs in self.vertex_inputs:
            eye = _read_only(np.eye(len(inputs)))
            out.append((_read_only(np.concatenate([eye, -eye])), eye[0]))
        return out

    @cached_property
    def edge_slices(self) -> dict:
        """Each edge's interior nodes as a slice of the edge table, whose entry
        k is node gid = V + k; edge order."""
        nv = len(self.network.vertices)
        return {eid: slice(int(ids[1]) - nv, int(ids[-2]) + 1 - nv)
                for eid, ids in self.node_ids.items()}

    @cached_property
    def edge_table(self) -> tuple:
        """x, h and h**2 at every interior edge node, entry k for node V + k;
        h**2 is stored so that every row divides by the same bits."""
        x, h, hsq = (np.empty(self.total_nodes - len(self.network.vertices)) for _ in range(3))
        for eid, s in self.edge_slices.items():
            x[s] = self.coords[eid][1:-1]
            h[s] = self.spacing[eid]
            hsq[s] = self.spacing[eid] ** 2
        return x, h, hsq

    @cached_property
    def sweep_classes(self) -> list:
        """The two sweep classes, as edge table entries: each edge's 1st, 3rd,
        ... interior node, then its 2nd, 4th, ...  With an odd number of
        nodes per edge, class 0 holds both nodes next to vertices."""
        pos = np.concatenate([np.arange(s.stop - s.start) for s in self.edge_slices.values()])
        return [np.flatnonzero(pos % 2 == p) for p in (0, 1)]

    @cached_property
    def border(self) -> tuple:
        """Where each stencil-order entry sits in the Jacobian's network form:
        T, tridiagonal over the M interior edge nodes ("d"; "dl" below, "du"
        above; zero between two edges' chains), the edge rows' vertex columns
        B (M x V), the vertex rows' interior and vertex columns C and D, as
        (size, dest, blocks): entry k goes to dest[k] of a buffer of size
        values, whose slice blocks[name][0] is the block, shaped
        blocks[name][1]; built once, shared by every system on this grid,
        dest read-only.

        dest follows from the stencil order alone.  Edge row k (node V + k)
        puts its own entry at d[k].  Its left input is node V + k - 1 on the
        same edge, at dl[k - 1], or a vertex v, at B[k, v]; its right input
        is V + k + 1, at du[k], or a vertex v, at B[k, v].  Vertex row v puts
        its own entry at D[v, v] and the next node along each incident edge,
        V + k, at C[v, k]."""
        nv = len(self.network.vertices)
        m = self.total_nodes - nv
        sub = max(m - 1, 1)  # LAPACK's dgtsv wrapper takes no empty diagonal
        views, at, size = {}, {}, 0
        for name, shape in (("d", (m,)), ("dl", (sub,)), ("du", (sub,)),
                            ("B", (m, nv)), ("C", (nv, m)), ("D", (nv, nv))):
            at[name] = size
            views[name] = (slice(size, size := size + math.prod(shape)), shape)
        k, left, right = np.arange(m), self.left_gids, self.right_gids
        vr, vc = self.rows[3 * m:], self.cols[3 * m:]
        dest = _read_only(np.concatenate([
            at["d"] + k,
            np.where(left >= nv, at["dl"] + k - 1, at["B"] + k * nv + left),
            np.where(right >= nv, at["du"] + k, at["B"] + k * nv + right),
            np.where(vc < nv, at["D"] + vr * nv + vc, at["C"] + vr * m + vc - nv),
        ]).astype(np.intp, copy=False))
        return size, dest, views

    def scheme(self, problem: NetworkProblem) -> "SchemeTables":
        """problem's SchemeTables on this grid, built on first use; the grid
        keeps the problem too, so that its id, the key, is not reused."""
        if id(problem) not in self._schemes:
            self._schemes[id(problem)] = (problem, SchemeTables(problem, self))
        return self._schemes[id(problem)][1]


class _VertexStencil(NamedTuple):
    """One vertex row's stencil, incidences in Grid.vertex_inputs' order.
    SchemeTables builds it once per grid with the clauses at eps = 0 and no
    ghost; each system fills in clauses, ghosts and strong at its eps."""
    hs: np.ndarray  # each incident edge's h, read-only
    incidences: tuple  # (H, inward sign, x at the vertex, h/2, a, theta*h/2) each
    coupling: object  # a junction's KirchhoffCondition, else None
    h_dirichlet: float  # a boundary vertex's datum, else 0
    clauses: tuple  # (i, envelope, inward sign, x at the vertex) per relaxed edge
    ghosts: tuple = ()  # (i, H, inward sign, x at the vertex, h/2, a + eps) per corrected edge
    strong: bool = False  # a boundary row u_v - g, which reads no slope


class SchemeTables:
    """What a problem fixes on a grid, shared read-only by every system on
    it (Grid.scheme).  Over the edge table: a, theta (lipschitz_p), c and d
    (Hamiltonian.table's, nan on an edge with none) and runs, the
    Hamiltonian as (slice, fn), one per run of consecutive edges with one
    table g, fn = c*g(p) + d, else one per edge, fn its H.  vertices: each
    vertex's _VertexStencil, in vertex order; theta*h/2 is the least a + eps
    whose ghost correction keeps the row monotone.  builtin: every H and
    coupling is an exact built-in record, with slope_bound <= theta."""

    def __init__(self, problem: NetworkProblem, grid: Grid):
        x = grid.edge_table[0]
        self.a, self.theta, self.c, self.d = (np.empty_like(x) for _ in range(4))
        edges = [(s, problem.hamiltonians[eid]) for eid, s in grid.edge_slices.items()]
        table = lambda ham: ham.table if ham.builtin else None
        for (s, ham), eid in zip(edges, grid.edge_slices):
            self.a[s], self.theta[s] = problem.diffusions[eid].a(x[s]), ham.lipschitz_p
            _, self.c[s], self.d[s] = table(ham) or (None, np.nan, np.nan)
        self.vertices = []
        for v in problem.network.vertices:
            incs = problem.network.incidence[v.id]
            hams = [problem.hamiltonians[inc.edge.id] for inc in incs]
            hs, signs, x_at_v = (_read_only(np.array(col)) for col in zip(*[
                (grid.spacing[inc.edge.id], inc.sign, inc.vertex_param) for inc in incs]))
            # each relaxed edge's state constraint: min of H below the inward
            # slope where the vertex sits at t = 0, else above
            clauses = tuple([(i, hams[i].min_below if signs[i] > 0 else hams[i].min_above,
                              signs[i], x_at_v[i]) for i in problem.relaxed[v.id]])
            self.vertices.append(_VertexStencil(hs, tuple(
                (ham, signs[i], x_at_v[i], 0.5 * hs[i], problem.a_at_incidence(inc),
                 float(0.5 * ham.lipschitz_p * hs[i]))
                for i, (inc, ham) in enumerate(zip(incs, hams))),
                problem.kirchhoff.get(v.id), problem.dirichlet.get(v.id, 0.0), clauses))
        for arr in (self.a, self.theta, self.c, self.d):
            _read_only(arr)
        self.runs = []  # keyed by g, or for an edge with no table by its own slice
        for g, run in itertools.groupby(edges, lambda e: (table(e[1]) or e)[0]):
            run = list(run)
            s = slice(run[0][0].start, run[-1][0].stop)
            c, d = self.c[s], self.d[s]  # views of read-only arrays are read-only
            self.runs.append((s, run[0][1] if table(run[0][1]) is None
                              else lambda x, p, g=g, c=c, d=d: c * g(p) + d))
        self.builtin = (all(ham.builtin and ham.slope_bound <= ham.lipschitz_p for _, ham in edges)
                        and all(vt.coupling is None or vt.coupling.builtin for vt in self.vertices))


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

    def on_edge(self, eid: int) -> np.ndarray:
        return self.values[self.grid.node_ids[eid]]

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())

    def on_grid(self, grid: Grid) -> "GridFunction":
        """These values on another grid of the same network, interpolated
        linearly along each edge.  Vertex values carry over exactly: every
        grid puts its vertex nodes at the edge ends 0 and length, where
        np.interp returns the end value itself."""
        values = np.empty(grid.total_nodes)
        for e in grid.network.edges:
            values[grid.node_ids[e.id]] = self.grid.interpolate(
                self.values, e.id, grid.coords[e.id])
        return GridFunction(grid, values)


def lax_friedrichs(ham, x, p_minus, p_plus, theta):
    """Monotone numerical Hamiltonian for any theta >= Lip_p(H)."""
    return ham(x, 0.5 * (p_minus + p_plus)) - 0.5 * theta * (p_plus - p_minus)


class ResidualSystem:
    """Assembled monotone discrete operator; immutable after assembly."""

    def __init__(self, problem: NetworkProblem, grid: Grid, eps: float):
        self.problem = problem
        self.grid = grid
        self.eps = float(eps)
        self._tables = tables = grid.scheme(problem)
        self._a, self._theta = tables.a + self.eps, tables.theta

        self._vertices = []
        for st in tables.vertices:
            clauses = st.clauses if self.eps == 0.0 else ()  # NetworkProblem.relaxed
            strong = st.coupling is None and not clauses
            # second-order ghost correction only where it keeps the stencil
            # monotone: a + eps must dominate theta*h/2; a strong row reads no slope
            ghosts = () if strong else tuple([
                (i, ham, sign, x, half_h, a + self.eps)
                for i, (ham, sign, x, half_h, a, least) in enumerate(st.incidences)
                if a + self.eps > 0.0 and a + self.eps >= least])
            self._vertices.append(st._replace(clauses=clauses, ghosts=ghosts, strong=strong))

        # own_coeff[j]: slope of an edge row, affine in its own value u[j],
        # read off the row formula as row(u[j] = 1) - row(u[j] = 0); 0 at
        # vertex rows, which are not affine in general.  The row is affine in
        # its neighbours too, but for H at the central slope: with H switched
        # off, the same formula gives their coefficients.  Each is one call
        # on the two input sets stacked
        one = np.array([[1.0], [0.0]])
        own = self._edge_rows(slice(None), 0.0, one, 0.0, self._table_ham)
        self.own_coeff = np.zeros(grid.total_nodes)
        self.own_coeff[len(self._vertices):] = own[0] - own[1]
        self._left_coeff, self._right_coeff = self._edge_rows(
            slice(None), one, 0.0, one[::-1], lambda x, p: 0.0 * p)

    @cached_property
    def affine(self) -> bool:
        """Whether every row is affine in u: the problem is linear
        (NetworkProblem.why_not_linear, the direct linear solve's test) and
        no vertex row takes a relaxed clause, whose max is not."""
        return not self.problem.why_not_linear() and not any(st.clauses for st in self._vertices)

    # -- residual evaluation ------------------------------------------------

    def _vertex_rows(self, v: int, uv, nbr):
        """Vertex v's row max(base, lam*u_v + SC_i(d_i) for i in relaxed) on
        a batch of input sets: uv, the vertex values (a float, or shape (K,)),
        and nbr, the next node along each incident edge (uv's shape +
        (degree,)).  d: inward divided differences, ghost-corrected on
        uniformly elliptic edges; base: the coupling F(u_v, d) at a junction,
        u_v - g at a boundary; SC_i(d_i): min of H(x_v, oriented s) over
        one-sided slopes s <= d_i.  Returns one residual per input set."""
        st = self._vertices[v]
        if st.strong:
            return uv - st.h_dirichlet
        lam = self.problem.lam
        d = (nbr - uv[..., None]) / st.hs
        slopes = d.T  # slopes[i]: the slope(s) along edge i, a view of d
        for i, ham, sign, x, half_h, a in st.ghosts:
            hval = ham(x, sign * slopes[i])
            slopes[i] -= half_h * (lam * uv + hval) / a
        res = uv - st.h_dirichlet if st.coupling is None else st.coupling(uv, d)
        for i, env, sign, x in st.clauses:
            res = larger(res, lam * uv + env(x, sign * slopes[i]))
        return res

    def _table_ham(self, x, p):
        """The Hamiltonian on the whole table, one call per run of
        SchemeTables.runs; p may stack several tables, (..., table length)."""
        out = np.empty(np.shape(p))
        for s, fn in self._tables.runs:
            out[..., s] = fn(x[s], p[..., s])
        return out

    def _edge_rows(self, k, um, uc, up, ham):
        """Lax-Friedrichs rows lam*u - (a+eps)*u_xx + H^LF(x, p-, p+) at table
        entry k, a flat index (one node) or a slice: um, uc, up are the left,
        centre and right values, ham the Hamiltonian of those entries."""
        x, h, hsq = (column[k] for column in self.grid.edge_table)
        hh = lax_friedrichs(ham, x, (uc - um) / h, (up - uc) / h, self._theta[k])
        return self.problem.lam * uc - self._a[k] * ((up - 2.0 * uc + um) / hsq) + hh

    def residual_node(self, gid: int, u: np.ndarray) -> float:
        grid = self.grid
        k = gid - len(self._vertices)
        if k < 0:
            x = u[grid.vertex_inputs[gid]]
            return float(self._vertex_rows(gid, x[0], x[1:]))
        ham = self.problem.hamiltonians[grid.node_location(gid)[0]]
        return float(self._edge_rows(k, u[grid.left_gids[k]], u[gid], u[grid.right_gids[k]], ham))

    def relax_edge_class(self, c: int, u: np.ndarray, skip_below: float) -> None:
        """Exact step u[j] -= r_j / own_coeff[j], in place, at every node j of
        sweep class c whose |r_j| exceeds skip_below.  No row of the class
        reads another of its nodes, so this equals, bit for bit, the nodewise
        Gauss-Seidel pass over the class in any order."""
        nv, grid = len(self._vertices), self.grid
        k = grid.sweep_classes[c]
        r = self._edge_rows(slice(None), u[grid.left_gids], u[nv:], u[grid.right_gids],
                            self._table_ham)[k]
        move = np.abs(r) > skip_below
        gids = k[move] + nv
        u[gids] -= r[move] / self.own_coeff[gids]

    def residual(self, u) -> np.ndarray:
        """Full residual vector: every edge row in one table call."""
        if isinstance(u, GridFunction):
            u = u.values
        nv, grid = len(self._vertices), self.grid
        out = np.empty(grid.total_nodes)
        out[nv:] = self._edge_rows(slice(None), u[grid.left_gids], u[nv:], u[grid.right_gids],
                                   self._table_ham)
        for v, inputs in enumerate(grid.vertex_inputs):
            x = u[inputs]
            out[v] = self._vertex_rows(v, x[0], x[1:])
        return out

    def residual_norm(self, u) -> float:
        return float(np.abs(self.residual(u)).max())

    def jacobian_entries(self, u: np.ndarray, step: float) -> np.ndarray:
        """Jacobian of residual() at u, one value per entry of Grid.rows and
        Grid.cols, in their stencil order.

        An edge row is affine in its three inputs but for H at the central
        slope pc: own_coeff and the two neighbour coefficients plus or minus
        q/(2h), where q is the central quotient of H between pc +- step/(2h),
        one table call each.  A vertex row takes central differences over
        its own inputs, each moved by +-step, in one call of the vertex
        formula; a strong boundary row has the exact entries 1, 0, ....
        Every quotient divides by the difference of its perturbed values as
        represented in floating point, which near the smallest steps differs
        from the nominal one by about 1e-3 relative.
        """
        nv, grid = len(self._vertices), self.grid
        xs, h, _ = grid.edge_table
        uc = u[nv:]
        pc = 0.5 * ((uc - u[grid.left_gids]) / h + (u[grid.right_gids] - uc) / h)
        dp = step / (2.0 * h)
        hi, lo = pc + dp, pc - dp
        q = (self._table_ham(xs, hi) - self._table_ham(xs, lo)) / (hi - lo)
        dq = q / (2.0 * h)
        blocks = [self.own_coeff[nv:], self._left_coeff - dq, self._right_coeff + dq]
        for v, (inputs, (moves, unit)) in enumerate(zip(grid.vertex_inputs, grid.vertex_moves)):
            if self._vertices[v].strong:
                blocks.append(unit)
                continue
            # input sets 0..m-1 move input i up by step, m..2m-1 down
            x, m = u[inputs], len(inputs)
            w = x + step * moves
            r = self._vertex_rows(v, w[:, 0], w[:, 1:])
            blocks.append((r[:m] - r[m:]) / ((x + step) - (x - step)))
        return np.concatenate(blocks)

    # -- structure ----------------------------------------------------------

    def node_classification(self, gid: int) -> str:
        if gid >= len(self._vertices):
            return "interior"
        st = self._vertices[gid]
        if st.coupling is not None:
            return "junction"
        return "boundary-strong" if st.strong else "boundary-relaxed"

    def stencil_certificate(self) -> bool:
        """Whether every row is monotone by construction (see the module
        docstring).  own_coeff, read off the row formula at central slope 0,
        is finite exactly when H is finite at p = 0 on every edge node and so
        is the own slope; no row but the vertex rows at u = 0 is evaluated."""
        return (self._tables.builtin
                and bool((self._a >= 0.0).all()) and bool(np.isfinite(self.own_coeff).all())
                and all(np.isfinite(self._vertex_rows(v, np.float64(0.0), np.zeros(len(i) - 1)))
                        for v, i in enumerate(self.grid.vertex_inputs)))

    def certify_monotone(self):
        """None when stencil_certificate holds, as it does for every problem
        built from built-in records, so nothing is drawn or probed; else
        probe_monotone's witness on PROBE_SAMPLES draws of u (None when the
        probe finds none)."""
        return None if self.stencil_certificate() else self.probe_monotone(PROBE_SAMPLES)

    def probe_monotone(self, n_samples: int = PROBE_SAMPLES, rng=None):
        """Probe of the monotone-scheme property on every row, through the
        signs of Newton's Jacobian.

        Draws n_samples grid functions up front, uniform on [-PROBE_SCALE,
        PROBE_SCALE] (rng's next draws, or with no rng default_rng(0)'s
        first), so the caller's rng advances by all of them even when sample
        0 fails.  At each, delta is jacobian_entries(u, PROBE_STEP) scaled by
        PROBE_STEP: a row's change per input moved by PROBE_STEP, central
        over that step, with no two rows subtracted.  A finite change of the
        wrong sign up to PROBE_TOL is forgiven.  Returns None when no witness
        is found, else a dict describing the violating (sample, node, row,
        direction): the first in node order, then the row's own entry, then
        by row.
        """
        rng = np.random.default_rng(0) if rng is None else rng
        draws = rng.uniform(-PROBE_SCALE, PROBE_SCALE, size=(n_samples, self.grid.total_nodes))
        delta = PROBE_STEP * np.array([self.jacobian_entries(u, PROBE_STEP) for u in draws])
        rows, cols = self.grid.rows, self.grid.cols
        own = rows == cols
        bad = np.where(own, delta < -PROBE_TOL, delta > PROBE_TOL) | ~np.isfinite(delta)
        if not bad.any():
            return None
        s = int(np.argmax(bad.any(axis=1)))
        k = np.flatnonzero(bad[s])
        k = int(k[np.lexsort((rows[k], ~own[k], cols[k]))[0]])
        return {"sample": s, "node": int(cols[k]), "row": int(rows[k]),
                "direction": "own" if own[k] else "cross",
                "delta": float(delta[s, k])}


def check_scheme(eps: float = 0.0) -> None:
    """Raise ValueError on a viscosity assemble() cannot take."""
    if not 0.0 <= eps < np.inf:
        raise ValueError(f"eps must be nonnegative and finite, got {eps}")


def assemble(problem: NetworkProblem, grid: Grid, eps: float = 0.0,
             certify: bool = True) -> ResidualSystem:
    """Build the residual system and certify the monotone-scheme property.
    The problem fixes theta and the boundary rows (see the module docstring).

    Raises MonotonicityProbeFailed with the witness node when certification
    fails; pass certify=False to skip it (coarse levels of a certified
    problem, verify's re-assembly, deliberate counterexample tests).
    """
    check_scheme(eps)
    system = ResidualSystem(problem, grid, eps)
    if certify:
        witness = system.certify_monotone()
        if witness is not None:
            raise MonotonicityProbeFailed(
                f"monotone-scheme probe failed: {witness}",
                node=witness["node"], direction=witness["direction"],
            )
    return system
