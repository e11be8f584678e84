"""Structural diagnostics on computed grid functions.

Everything here is a verdict with a witness: quadratic-probe viscosity
checks, one-sided junction slope estimators, degenerate-edge inequality
checks, interior Lipschitz constants away from the boundary, and
boundary-condition loss reports.  Probe verdicts are necessary-condition
checks (the probe family samples quadratics plus affine offsets, not all
test functions) and are reported as such.

Geodesic distances from grid nodes, to a probe's touching point or to the
boundary, come from Grid.distances_to, one array per point; nothing here
builds a network point per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .discretization import Grid, GridFunction, ResidualSystem
from .errors import EmptyInteriorSet, NoActiveProbe, VertexNotInterior, WindowTooLarge
from .network import INTERIOR, Network, NetworkPoint
from .problem import NetworkProblem


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

    def derivative_magnitude(self, r: float) -> float:
        return self.L * abs(1.0 - 2.0 * self.K * r)

    @property
    def second_derivative(self) -> float:
        return -2.0 * self.L * self.K


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

    def spread(self, eid: int) -> float:
        return self.upper[eid] - self.lower[eid]


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
    super_margin: float  # min over the open interval, +inf when empty
    tolerance: float
    passed: bool
    witness: Optional[dict] = None


def check_degenerate_edge_inequalities(problem: NetworkProblem, u: GridFunction,
                                       vid: int, slopes: JunctionSlopes,
                                       tol: float, n_samples: int = 17):
    """Subsolution inequality lam*u_v + H_i(v, p) <= tol for sampled p in
    [p_low, p_bar], and the supersolution inequality >= -tol on the open
    interval, on each incident edge with vanishing diffusion."""
    uv = float(u.values[u.grid.vertex_gid(vid)])
    lam = problem.lam
    verdicts = []
    for inc in problem.network.incidence[vid]:
        eid = inc.edge.id
        if problem.a_at_vertex(vid, eid) != 0.0:
            continue
        ham = problem.hamiltonians[eid]
        xv = inc.vertex_param
        lo, hi = slopes.lower[eid], slopes.upper[eid]
        ps = np.linspace(lo, hi, n_samples)
        vals = np.array([lam * uv + float(ham(xv, inc.sign * p)) for p in ps])
        sub_margin = float(np.max(vals))
        witness = None
        if sub_margin > tol:
            witness = {"p": float(ps[int(np.argmax(vals))]), "side": "sub"}
        if 1e-12 < hi - lo:
            inner = vals[1:-1]
            super_margin = float(np.min(inner)) if inner.size else math.inf
        else:
            super_margin = math.inf
        # the supersolution inequality concerns the one-sided slopes of the
        # exact solution; the window only pins those down when its spread is
        # small, so a wide window makes the super side inconclusive
        super_binding = hi - lo <= tol
        ok = sub_margin <= tol and (not super_binding or super_margin >= -tol)
        if not ok and witness is None:
            witness = {"p": float(ps[1 + int(np.argmin(vals[1:-1]))]),
                       "side": "super"}
        verdicts.append(EdgeInequalityVerdict(eid, sub_margin, super_margin,
                                              tol, ok, witness))
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


def _vertex_clause(problem, u, grid, vid, slope, side):
    """Junction or boundary clause of the relaxed solution definition with
    uniform inward test slope `slope` at the vertex."""
    lam = problem.lam
    uv = float(u.values[grid.vertex_gid(vid)])
    net = problem.network
    incs = net.incidence[vid]
    if net.vertex(vid).kind == INTERIOR:
        fval = problem.kirchhoff[vid](uv, np.full(len(incs), slope))
        edge_vals = [
            lam * uv + float(problem.hamiltonians[inc.edge.id](
                inc.vertex_param, inc.sign * slope))
            for inc in incs
            if problem.a_at_vertex(vid, inc.edge.id) == 0.0
        ]
        vals = edge_vals + [fval]
        return min(vals) if side == "sub" else max(vals)
    inc = incs[0]
    e_val = lam * uv + float(problem.hamiltonians[inc.edge.id](
        inc.vertex_param, inc.sign * slope))
    gap = uv - problem.dirichlet[vid]
    return min(e_val, gap) if side == "sub" else max(e_val, gap)


def probe_viscosity(problem: NetworkProblem, u: GridFunction,
                    point: NetworkPoint, probes=None, side: str = "sub",
                    tol: Optional[float] = None) -> ProbeVerdict:
    """Check the relaxed-solution clause at a point against every active
    quadratic probe; a probe is active when the point is a discrete local
    max (sub) or min (super) of u minus the shifted probe on its ball.

    Raises NoActiveProbe when nothing in the grid touches at the point, and
    ValueError when the point lies inside an edge but on no grid node.
    """
    if side not in ("sub", "super"):
        raise ValueError(f"side must be 'sub' or 'super', got {side!r}")
    grid = u.grid
    net = problem.network
    probes = default_probe_grid() if probes is None else probes
    tol = 5.0 * grid.h if tol is None else float(tol)
    point = net.point(point.edge_id, point.t)
    vid = net.point_vertex(point)
    rhos = grid.distances_to(point)
    if vid is not None:
        gid = grid.vertex_gid(vid)
    else:
        at_point = np.flatnonzero(rhos == 0.0)
        if at_point.size == 0:
            raise ValueError(f"{point} is not a grid node")
        gid = int(at_point[0])
        # signed offsets of the nodes node_location puts on the point's edge
        edge = net.edge(point.edge_id)
        offsets = np.full(grid.total_nodes, np.nan)
        offsets[grid.node_ids[edge.id]] = grid.coords[edge.id] - point.t
        for end in (edge.tail, edge.head):
            if net.vertex_point(end).edge_id != edge.id:
                offsets[grid.vertex_gid(end)] = np.nan
    u0 = float(u.values[gid])
    dus = u.values - u0
    lam = problem.lam
    sgn = 1.0 if side == "sub" else -1.0

    active = 0
    worst = -math.inf
    worst_probe = {}
    for (L, K) in probes:
        ball = (rhos > 0) & (rhos <= 1.0 / (4.0 * K))
        if not ball.any():
            continue
        r = rhos[ball]
        du = dus[ball]

        if vid is not None:
            psi = L * (r - K * r * r)
            # touching from above (sub): u - u0 <= psi on the ball
            if side == "sub" and np.any(du > psi + 1e-12):
                continue
            if side == "super" and np.any(du < -psi - 1e-12):
                continue
            clause = _vertex_clause(problem, u, grid, vid, sgn * L, side)
            margin = clause if side == "sub" else -clause
            active += 1
            if margin > worst:
                worst, worst_probe = margin, {"L": L, "K": K, "slope": sgn * L}
            continue

        # edge-interior point: signed coordinate along the edge
        signed = offsets[ball]
        ham = problem.hamiltonians[point.edge_id]
        a_x = float(problem.diffusions[point.edge_id].a(point.t))
        for p_slope in np.linspace(-L, L, 5):
            # phi(z) - u0 = sgn*(p*d - L K d^2) with d the signed offset;
            # off-edge nodes use the worst-case quadratic bound in rho
            phi = np.where(np.isnan(signed),
                           L * r - L * K * r * r,
                           sgn * (p_slope * signed - L * K * signed ** 2))
            if side == "sub" and np.any(du > phi + 1e-12):
                continue
            if side == "super" and np.any(du < phi - 1e-12):
                continue
            clause = (lam * u0 - a_x * sgn * (-2.0 * L * K)
                      + float(ham(point.t, sgn * p_slope)))
            margin = clause if side == "sub" else -clause
            active += 1
            if margin > worst:
                worst, worst_probe = margin, {"L": L, "K": K, "slope": p_slope}

    if active == 0:
        raise NoActiveProbe(f"no probe touches u at {point} from side {side!r}")
    return ProbeVerdict(point, side, active, worst, tol, worst_probe,
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
            hyp_dir = (problem.a_at_vertex(v.id, eid) > 0.0 or ham.coercive)
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


def diagnostics_report(problem: NetworkProblem, u: GridFunction,
                       system: Optional[ResidualSystem] = None,
                       window: int = 3, tol: Optional[float] = None,
                       deltas=None) -> DiagnosticsReport:
    """Full diagnostic pass over a computed solution."""
    grid = u.grid
    h = grid.h
    tol = 5.0 * h if tol is None else float(tol)
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
            fres = system.junction_residual(u.values, v.id)
            checks.append({
                "name": "kirchhoff_node_equation", "location": loc,
                "margin": abs(fres), "tolerance": 1e-8,
                "verdict": "PASS" if abs(fres) <= 1e-8 else "FAIL",
                "witness": {"residual": fres},
            })

        for verdict in check_degenerate_edge_inequalities(problem, u, v.id,
                                                          sl, tol):
            checks.append({
                "name": "degenerate_edge_inequality",
                "location": f"vertex {v.id}, edge {verdict.edge}",
                "margin": verdict.sub_margin, "tolerance": tol,
                "verdict": "PASS" if verdict.passed else "FAIL",
                "witness": verdict.witness,
            })

        for side in ("sub", "super"):
            try:
                pv = probe_viscosity(problem, u,
                                     problem.network.vertex_point(v.id),
                                     side=side, tol=tol)
                checks.append({
                    "name": f"viscosity_probe_{side}", "location": loc,
                    "margin": pv.worst_margin, "tolerance": pv.tolerance,
                    "verdict": "PASS" if pv.passed else "FAIL",
                    "witness": pv.worst_probe,
                })
            except NoActiveProbe:
                checks.append({
                    "name": f"viscosity_probe_{side}", "location": loc,
                    "margin": None, "tolerance": tol,
                    "verdict": "NO-ACTIVE-PROBE", "witness": None,
                })

    boundary = boundary_loss_report(problem, u, tol)
    for b in boundary:
        checks.append({
            "name": "boundary_condition", "location": f"vertex {b.vertex}",
            "margin": -b.gap, "tolerance": tol,
            "verdict": "FAIL" if b.status == "overshoot-error" else "PASS",
            "witness": {"status": b.status,
                        "state_constraint_residual": b.state_constraint_residual},
        })

    if deltas is None:
        deltas = (0.1 * problem.network.min_edge_length,)
    lip = {}
    for d in deltas:
        try:
            lip[float(d)] = lipschitz_on_interior(u, d)
        except EmptyInteriorSet:
            pass
    return DiagnosticsReport(checks, slopes, boundary, lip)
