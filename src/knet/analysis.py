"""Structural diagnostics on computed grid functions.

Everything here is a verdict with a witness: quadratic-probe viscosity
checks, one-sided junction slope estimators, degenerate-edge inequality
checks, interior Lipschitz constants away from the boundary, and
boundary-condition loss reports.  Probe verdicts are necessary-condition
checks (the probe family samples quadratics plus affine offsets, not all
test functions) and are reported as such.

Geodesic distances from grid nodes, to a probe's touching point or to the
boundary, come from Grid.distances_to, one array per point; nothing here
builds a network point per node, and a report's sub and super probes at a
junction share one array.  Probes are whole-array passes: a vertex probe
evaluates the junction or boundary clause once, on the array of its
distinct active slopes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .discretization import Grid, GridFunction, ResidualSystem
from .errors import EmptyInteriorSet, NoActiveProbe, VertexNotInterior, WindowTooLarge
from .network import INTERIOR, Network, NetworkPoint
from .problem import NetworkProblem

TOL_PER_H = 5.0  # verdict tolerance per unit of the grid's h
EDGE_INEQUALITY_SAMPLES = 17  # slopes sampled per degenerate edge
LIPSCHITZ_DELTA = 0.1  # diagnostics' boundary distance per min edge length


# ---------------------------------------------------------------------------
# Probe family


@dataclass
class ProbeFunction:
    """psi(x) = L (rho(x, y) - K rho(x, y)^2) on the ball rho <= 1/(4K).

    On that ball the derivative magnitude away from the center lies in
    [L/2, L] and the second derivative along any edge is -2 L K.
    """

    network: Network
    center: NetworkPoint
    L: float
    K: float

    @property
    def radius(self) -> float:
        return 1.0 / (4.0 * self.K)

    def rho(self, p: NetworkPoint) -> float:
        return self.network.geodesic_distance(p, self.center)

    def __call__(self, p: NetworkPoint) -> float:
        r = self.rho(p)
        return self.L * (r - self.K * r * r)


def default_probe_grid():
    return [(2.0 ** k, 2.0 ** j) for k in range(11) for j in range(7)]


# ---------------------------------------------------------------------------
# Junction slopes


@dataclass
class JunctionSlopes:
    vertex: int
    upper: dict  # edge id -> max divided difference over the window
    lower: dict  # edge id -> min
    window: int
    residual: dict  # edge id -> spread of the window's divided differences


def estimate_junction_slopes(u: GridFunction, vid: int,
                             window: int = 3) -> JunctionSlopes:
    """One-sided inward slope estimates p_bar / p_low at an interior vertex
    from the first `window` divided differences along each incident edge."""
    grid = u.grid
    net = grid.network
    if net.vertex(vid).kind != INTERIOR:
        raise VertexNotInterior(f"vertex {vid} is not interior")
    if window < 2:
        raise WindowTooLarge("window must contain at least 2 nodes")
    uv = float(u.values[grid.vertex_gid(vid)])
    upper, lower, residual = {}, {}, {}
    for inc in net.incidence[vid]:
        eid = inc.edge.id
        n = grid.nodes_per_edge[eid]
        if window > max(2, int(0.2 * n)):
            raise WindowTooLarge(
                f"window {window} exceeds 20% of the {n} nodes on edge {eid}"
            )
        ids = grid.node_ids[eid]
        x = grid.coords[eid]
        if inc.at_tail:
            sel, dist = ids[1:1 + window], x[1:1 + window]
        else:
            sel, dist = ids[-2:-2 - window:-1], inc.edge.length - x[-2:-2 - window:-1]
        dd = (u.values[sel] - uv) / dist
        upper[eid] = float(np.max(dd))
        lower[eid] = float(np.min(dd))
        residual[eid] = float(np.max(dd) - np.min(dd))
    return JunctionSlopes(vid, upper, lower, window, residual)


# ---------------------------------------------------------------------------
# Degenerate-edge inequalities


@dataclass
class EdgeInequalityVerdict:
    edge: int
    sub_margin: float  # max of lam*u_v + H over sampled closed interval
    tolerance: float
    passed: bool
    witness: Optional[dict] = None


def check_degenerate_edge_inequalities(problem: NetworkProblem, u: GridFunction,
                                       vid: int, slopes: JunctionSlopes,
                                       tol: float):
    """Subsolution inequality lam*u_v + H_i(v, p) <= tol for
    EDGE_INEQUALITY_SAMPLES sampled p in [p_low, p_bar], and the
    supersolution inequality >= -tol on the open interval, on each incident
    edge with vanishing diffusion."""
    uv = float(u.values[u.grid.vertex_gid(vid)])
    lam = problem.lam
    verdicts = []
    for inc in problem.network.incidence[vid]:
        eid = inc.edge.id
        if problem.a_at_incidence(inc) != 0.0:
            continue
        ham = problem.hamiltonians[eid]
        xv = inc.vertex_param
        lo, hi = slopes.lower[eid], slopes.upper[eid]
        ps = np.linspace(lo, hi, EDGE_INEQUALITY_SAMPLES)
        vals = lam * uv + ham(xv, inc.sign * ps)
        sub_margin = float(np.max(vals))
        witness = None
        if sub_margin > tol:
            witness = {"p": float(ps[int(np.argmax(vals))]), "side": "sub"}
        super_margin = float(np.min(vals[1:-1])) if 1e-12 < hi - lo else math.inf
        # the supersolution inequality concerns the one-sided slopes of the
        # exact solution; the window only pins those down when its spread is
        # small, so a wide window makes the super side inconclusive
        super_binding = hi - lo <= tol
        ok = sub_margin <= tol and (not super_binding or super_margin >= -tol)
        if not ok and witness is None:
            witness = {"p": float(ps[1 + int(np.argmin(vals[1:-1]))]),
                       "side": "super"}
        verdicts.append(EdgeInequalityVerdict(eid, sub_margin, tol, ok, witness))
    return verdicts


# ---------------------------------------------------------------------------
# Viscosity probing


@dataclass
class ProbeVerdict:
    point: NetworkPoint
    side: str
    n_active: int
    worst_margin: float  # pass when <= tolerance
    tolerance: float
    worst_probe: dict
    passed: bool
    note: str = ("necessary-condition check over quadratic probes, "
                 "not an equivalence")


def _vertex_clause(problem, vid, uv, slopes, side):
    """Junction or boundary clause of the relaxed solution definition at
    vertex vid with value uv, at each of an array of uniform inward test
    slopes: one H call per degenerate incident edge, and at a junction one
    coupling call on the (K, degree) batch.  The min (sub) or max (super)
    over the clause's terms keeps the first extreme, as Python's min and
    max do."""
    lam = problem.lam
    net = problem.network
    incs = net.incidence[vid]
    interior = net.vertex(vid).kind == INTERIOR
    # a boundary vertex has one incident edge; a junction, its degenerate ones
    vals = [lam * uv + problem.hamiltonians[inc.edge.id](inc.vertex_param, inc.sign * slopes)
            for inc in incs if not interior or problem.a_at_incidence(inc) == 0.0]
    vals.append(problem.kirchhoff[vid](np.full(len(slopes), uv),
                                       np.repeat(slopes[:, None], len(incs), axis=1))
                if interior else np.full(len(slopes), uv - problem.dirichlet[vid]))
    beats = np.less if side == "sub" else np.greater
    return functools.reduce(lambda a, b: np.where(beats(b, a), b, a), vals)


def probe_viscosity(problem: NetworkProblem, u: GridFunction,
                    point: NetworkPoint, probes=None,
                    side: str = "sub") -> ProbeVerdict:
    """Check the relaxed-solution clause at a point against every active
    quadratic probe; a probe is active when the point is a discrete local
    max (sub) or min (super) of u minus the shifted probe on its ball.  The
    verdict passes when the worst margin is at most TOL_PER_H * h.

    One array pass over (node, probe, slope): a vertex point has one test
    slope per probe, sgn*L, an edge point five in [-L, L].  The worst
    margin is the first maximum in the order probe, then slope.

    Raises NoActiveProbe when nothing in the grid touches at the point, and
    ValueError when the point lies inside an edge but on no grid node.
    """
    if side not in ("sub", "super"):
        raise ValueError(f"side must be 'sub' or 'super', got {side!r}")
    return _probe(problem, u, point, u.grid.distances_to(point), probes, side)


def _probe(problem, u, point, rhos, probes, side) -> ProbeVerdict:
    """probe_viscosity, given rhos, every node's distance to the point: the
    two sides of a diagnostics report share one Grid.distances_to array."""
    grid = u.grid
    net = problem.network
    probes = default_probe_grid() if probes is None else list(probes)
    tol = TOL_PER_H * grid.h
    point = net.point(point.edge_id, point.t)
    vid = net.point_vertex(point)
    if vid is not None:
        gid = grid.vertex_gid(vid)
    else:
        at_point = np.flatnonzero(rhos == 0.0)
        if at_point.size == 0:
            raise ValueError(f"{point} is not a grid node")
        gid = int(at_point[0])
        # signed offsets of the nodes of the point's edge, both end vertices
        # included; NaN marks every other node as off the edge
        offsets = np.full(grid.total_nodes, np.nan)
        offsets[grid.node_ids[point.edge_id]] = grid.coords[point.edge_id] - point.t
    u0 = float(u.values[gid])
    sgn = 1.0 if side == "sub" else -1.0

    # node arrays run over (node, probe, slope), the rest over (probe,
    # slope); the nodes are those inside the largest ball
    L, K = np.asarray(probes, dtype=float).reshape(-1, 2).T[..., None]
    radius = 1.0 / (4.0 * K)
    near = (rhos > 0) & (rhos <= radius.max(initial=0.0))
    r = rhos[near][:, None, None]
    du = (u.values[near] - u0)[:, None, None]
    ball = r <= radius
    if vid is not None:
        slopes = sgn * L
        phi = sgn * (L * (r - K * r * r))
    else:
        slopes = np.linspace(-L[:, 0], L[:, 0], 5, axis=1)
        signed = offsets[near][:, None, None]
        # phi(z) - u0 = sgn*(p*d - L K d^2) with d the signed offset;
        # off-edge nodes use the worst-case quadratic bound in rho
        phi = np.where(np.isnan(signed), L * r - L * K * r * r,
                       sgn * (slopes * signed - L * K * signed ** 2))
    # touching from above (sub) means u - u0 <= phi on the ball
    outside = du > phi + 1e-12 if side == "sub" else du < phi - 1e-12
    active = ball.any(axis=0) & ~(ball & outside).any(axis=0)
    if not active.any():
        raise NoActiveProbe(f"no probe touches u at {point} from side {side!r}")

    if vid is not None:
        # the vertex clause depends on the slope alone: one evaluation at
        # the distinct active slopes
        distinct, where = np.unique(slopes[active], return_inverse=True)
        clause = np.full(slopes.shape, np.nan)
        clause[active] = _vertex_clause(problem, vid, u0, distinct, side)[where]
    else:
        a_x = float(problem.diffusions[point.edge_id].a(point.t))
        clause = (problem.lam * u0 - a_x * sgn * (-2.0 * L * K)
                  + problem.hamiltonians[point.edge_id](point.t, sgn * slopes))
    margin = np.where(active, sgn * clause, -math.inf)
    i, j = np.unravel_index(np.argmax(margin), margin.shape)
    worst = float(margin[i, j])
    worst_probe = {"L": probes[i][0], "K": probes[i][1], "slope": float(slopes[i, j])}
    return ProbeVerdict(point, side, int(active.sum()), worst, tol, worst_probe,
                        worst <= tol)


# ---------------------------------------------------------------------------
# Lipschitz constant away from the boundary


def lipschitz_on_interior(u: GridFunction, delta: float) -> float:
    """Discrete Lipschitz constant on the set at distance > delta from the
    boundary vertices, via adjacent-node differences (which dominate)."""
    grid = u.grid
    if not 0.0 < delta < grid.network.min_edge_length / 2.0:
        raise ValueError("delta must lie in (0, min edge length / 2)")
    dist = grid.boundary_distances()
    best = None
    for e in grid.network.edges:
        ids = grid.node_ids[e.id]
        mask = (dist[ids][:-1] > delta) & (dist[ids][1:] > delta)
        if not mask.any():
            continue
        du = np.abs(np.diff(u.values[ids])) / grid.spacing[e.id]
        cand = float(np.max(du[mask]))
        best = cand if best is None else max(best, cand)
    if best is None:
        raise EmptyInteriorSet(f"no adjacent node pair at distance > {delta}")
    return best


# ---------------------------------------------------------------------------
# Boundary-condition loss


@dataclass
class BoundaryRecord:
    vertex: int
    u_value: float
    h_value: float
    gap: float  # h_v - u_v
    status: str  # attained | lost | overshoot | overshoot-error
    state_constraint_residual: Optional[float] = None


def boundary_loss_report(problem: NetworkProblem, u: GridFunction,
                         tol: float):
    """Per boundary vertex: attainment or loss of the Dirichlet datum;
    overshoot above the datum is an error wherever attainment-from-above
    applies (positive diffusion or coercive Hamiltonian)."""
    grid = u.grid
    lam = problem.lam
    out = []
    for v in problem.network.boundary_vertices:
        inc = problem.network.incidence[v.id][0]
        eid = inc.edge.id
        uv = float(u.values[grid.vertex_gid(v.id)])
        hv = problem.dirichlet[v.id]
        ids = grid.node_ids[eid]
        nbr = int(ids[1] if inc.at_tail else ids[-2])
        d = (float(u.values[nbr]) - uv) / grid.spacing[eid]
        ham = problem.hamiltonians[eid]
        if inc.at_tail:
            e_up = lam * uv + float(ham.min_below(inc.vertex_param, d))
        else:
            e_up = lam * uv + float(ham.min_above(inc.vertex_param, -d))
        if abs(uv - hv) <= tol:
            status = "attained"
        elif uv < hv - tol:
            status = "lost"
        else:
            hyp_dir = problem.a_at_incidence(inc) > 0.0 or ham.coercive
            status = "overshoot-error" if hyp_dir else "overshoot"
        out.append(BoundaryRecord(v.id, uv, hv, hv - uv, status, e_up))
    return out


# ---------------------------------------------------------------------------
# Aggregate diagnostics


@dataclass
class DiagnosticsReport:
    checks: list  # dicts {name, location, margin, tolerance, verdict, witness}
    slopes: dict  # vertex id -> JunctionSlopes
    boundary: list  # BoundaryRecord
    lipschitz: dict  # delta -> constant

    @property
    def ok(self) -> bool:
        return all(c["verdict"] == "PASS" for c in self.checks)

    def to_dict(self):
        return {
            "ok": self.ok,
            "checks": self.checks,
            "junction_slopes": {
                str(v): {"upper": s.upper, "lower": s.lower,
                         "window": s.window, "residual": s.residual}
                for v, s in self.slopes.items()
            },
            "boundary": [
                {"vertex": b.vertex, "u": b.u_value, "h": b.h_value,
                 "gap": b.gap, "status": b.status,
                 "state_constraint_residual": b.state_constraint_residual}
                for b in self.boundary
            ],
            "lipschitz": {f"{d:.8g}": c for d, c in self.lipschitz.items()},
        }


def _check(name, location, margin, tolerance, passed, witness=None):
    """One diagnostics record; passed is None where no probe touched."""
    verdict = "NO-ACTIVE-PROBE" if passed is None else "PASS" if passed else "FAIL"
    return {"name": name, "location": location, "margin": margin,
            "tolerance": tolerance, "verdict": verdict, "witness": witness}


def check_window(window: int) -> None:
    """Raise ValueError on a window diagnostics_report cannot take."""
    if window < 2:
        raise ValueError(f"analysis window must be at least 2, got {window}")


def diagnostics_report(problem: NetworkProblem, u: GridFunction,
                       system: Optional[ResidualSystem] = None,
                       window: int = 3) -> DiagnosticsReport:
    """Full diagnostic pass over a computed solution, with tolerance
    TOL_PER_H * h and the Lipschitz constant at distance LIPSCHITZ_DELTA *
    min edge length from the boundary; a window below 2 raises ValueError."""
    check_window(window)
    grid = u.grid
    tol = TOL_PER_H * grid.h
    checks = []
    slopes = {}

    for v in problem.network.interior_vertices:
        try:
            sl = estimate_junction_slopes(u, v.id, window)
        except WindowTooLarge:
            sl = estimate_junction_slopes(u, v.id, 2)
        slopes[v.id] = sl
        loc = f"vertex {v.id}"

        if system is not None:
            fres = system.residual_node(grid.vertex_gid(v.id), u.values)
            checks.append(_check("kirchhoff_node_equation", loc, abs(fres), 1e-8,
                                 abs(fres) <= 1e-8, {"residual": fres}))

        for verdict in check_degenerate_edge_inequalities(problem, u, v.id,
                                                          sl, tol):
            checks.append(_check("degenerate_edge_inequality",
                                 f"{loc}, edge {verdict.edge}", verdict.sub_margin,
                                 tol, verdict.passed, verdict.witness))

        point = problem.network.vertex_point(v.id)
        rhos = grid.distances_to(point)
        for side in ("sub", "super"):
            name = f"viscosity_probe_{side}"
            try:
                pv = _probe(problem, u, point, rhos, None, side)
                checks.append(_check(name, loc, pv.worst_margin, pv.tolerance,
                                     pv.passed, pv.worst_probe))
            except NoActiveProbe:
                checks.append(_check(name, loc, None, tol, None))

    boundary = boundary_loss_report(problem, u, tol)
    for b in boundary:
        checks.append(_check(
            "boundary_condition", f"vertex {b.vertex}", -b.gap, tol,
            b.status != "overshoot-error",
            {"status": b.status,
             "state_constraint_residual": b.state_constraint_residual}))

    delta = LIPSCHITZ_DELTA * problem.network.min_edge_length
    try:
        lip = {delta: lipschitz_on_interior(u, delta)}
    except EmptyInteriorSet:
        lip = {}
    return DiagnosticsReport(checks, slopes, boundary, lip)
