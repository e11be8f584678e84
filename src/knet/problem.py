"""Equation data on a network: Hamiltonians, diffusions, vertex couplings,
Dirichlet data, and a sampled validator of the standing structure conditions.

Sign convention for vertex couplings: the arguments of a coupling function
F(r, p) are the *inward* derivatives of u along the incident edges, so F is
nondecreasing in r and nonincreasing in each p_i for all built-in families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import InvalidCoefficientSign, VertexNotInterior
from .network import BOUNDARY, INTERIOR, Network


# ---------------------------------------------------------------------------
# Hamiltonians


@dataclass
class Hamiltonian:
    """Edge Hamiltonian H(x, p); x is the edge coordinate in [0, len].

    fn must accept numpy arrays in either argument.  c_h is the declared
    structure constant (Lipschitz in x and p); lipschitz_p may be smaller
    and drives the default numerical dissipation.
    """

    fn: Callable
    c_h: float
    coercive: bool = False
    lipschitz_p: Optional[float] = None
    name: str = "custom"
    # analytic one-sided envelopes, filled in for built-ins
    _min_below: Optional[Callable] = None
    _min_above: Optional[Callable] = None

    def __post_init__(self):
        if self.c_h <= 0:
            raise InvalidCoefficientSign("c_h must be positive")
        if self.lipschitz_p is None:
            self.lipschitz_p = self.c_h

    def __call__(self, x, p):
        return self.fn(x, p)

    # -- coercivity envelopes ----------------------------------------------
    # min_below(x, q) = min over p <= q of H(x, p); min_above symmetric.
    # Used by state-constraint residuals; exact for built-ins, sampled
    # (monotone by construction) otherwise.

    def min_below(self, x, q):
        if self._min_below is not None:
            return self._min_below(x, q)
        return self._sampled_envelope(x, q, below=True)

    def min_above(self, x, q):
        if self._min_above is not None:
            return self._min_above(x, q)
        return self._sampled_envelope(x, q, below=False)

    def _sampled_envelope(self, x, q, below: bool) -> float:
        hq = float(self.fn(x, q))
        # any competitor p with C^-1|p| - C > hq cannot improve on H(q)
        span = self.c_h * (self.c_h + max(hq, 0.0)) + 1.0
        if below:
            lo, hi = min(q - 1e-9, -span), q
        else:
            lo, hi = q, max(q + 1e-9, span)
        ps = np.linspace(lo, hi, 257)
        return min(hq, float(np.min(self.fn(x, ps))))


def eikonal(speed: float = 1.0, rhs: float = 1.0, c_h: Optional[float] = None) -> Hamiltonian:
    """H(x, p) = speed * |p| - rhs, coercive for speed > 0."""
    if speed <= 0:
        raise InvalidCoefficientSign("eikonal speed must be positive")
    ch = c_h if c_h is not None else max(speed, 1.0 / speed, abs(rhs), 1.0)

    def fn(x, p):
        return speed * np.abs(p) - rhs

    def below(x, q):
        return speed * max(-q, 0.0) - rhs

    def above(x, q):
        return speed * max(q, 0.0) - rhs

    return Hamiltonian(
        fn, c_h=ch, coercive=True, lipschitz_p=speed,
        name=f"eikonal({speed},{rhs})", _min_below=below, _min_above=above,
    )


def advection(b: float = 0.0, f=0.0, c_h: Optional[float] = None) -> Hamiltonian:
    """H(x, p) = b * p + f(x); f may be a constant or a callable of x."""
    f_fn = f if callable(f) else (lambda x, _v=float(f): np.full_like(np.asarray(x, dtype=float), _v) if np.ndim(x) else _v)
    lip_p = abs(b)
    ch = c_h if c_h is not None else max(lip_p, 1.0)

    def fn(x, p):
        return b * np.asarray(p, dtype=float) + f_fn(x)

    def below(x, q):
        if b >= 0:
            return -math.inf if b > 0 else float(f_fn(x))
        return b * q + float(f_fn(x))

    def above(x, q):
        if b <= 0:
            return -math.inf if b < 0 else float(f_fn(x))
        return b * q + float(f_fn(x))

    ham = Hamiltonian(
        fn, c_h=ch, coercive=False, lipschitz_p=lip_p,
        name=f"advection({b})", _min_below=below, _min_above=above,
    )
    ham.affine = (b, f_fn)  # enables the direct linear oracle
    return ham


# ---------------------------------------------------------------------------
# Diffusions


@dataclass
class Diffusion:
    """Degenerate diffusion a = sigma^2 with sigma Lipschitz (constant c_a)."""

    sigma: Callable
    c_a: float
    name: str = "custom"

    def a(self, x):
        s = self.sigma(x)
        return np.asarray(s) ** 2 if np.ndim(s) else s * s


def constant_diffusion(value: float) -> Diffusion:
    if value < 0:
        raise InvalidCoefficientSign("diffusion must be nonnegative")
    s = math.sqrt(value)

    def sigma(x):
        return np.full_like(np.asarray(x, dtype=float), s) if np.ndim(x) else s

    return Diffusion(sigma, c_a=max(1.0, s), name=f"constant({value})")


def linear_vanish(slope: float, length: float, side: str = "low") -> Diffusion:
    """sigma vanishing linearly at one end of the edge: a(x) = (slope*d)^2
    with d the distance from the chosen endpoint."""
    if slope <= 0:
        raise InvalidCoefficientSign("slope must be positive")

    def sigma(x):
        d = np.asarray(x, dtype=float) if side == "low" else length - np.asarray(x, dtype=float)
        out = slope * d
        return out if np.ndim(x) else float(out)

    return Diffusion(sigma, c_a=slope, name=f"linear_vanish({slope},{side})")


def polynomial_diffusion(coefficients: Sequence[float], c_a: float = 1.0) -> Diffusion:
    """a(x) = max(poly(x), 0) with sigma = sqrt(a)."""
    poly = np.polynomial.Polynomial(list(coefficients))

    def sigma(x):
        return np.sqrt(np.maximum(poly(np.asarray(x, dtype=float)), 0.0))

    return Diffusion(sigma, c_a=c_a, name=f"polynomial({list(coefficients)})")


# ---------------------------------------------------------------------------
# Vertex couplings (Kirchhoff conditions)


@dataclass
class KirchhoffCondition:
    """Coupling F(r, p) at an interior vertex, p = inward derivatives."""

    arity: int
    fn: Callable  # (r, p: array of length arity) -> float
    family: str = "custom"
    # lower bound on F(r, p - c*1) - F(r, p) per unit c, > 0 for built-ins
    quantitative_slope: float = 0.0
    params: dict = field(default_factory=dict)

    def __call__(self, r, p):
        p = np.asarray(p, dtype=float)
        if p.shape != (self.arity,):
            raise ValueError(f"expected {self.arity} inward slopes, got {p.shape}")
        return float(self.fn(float(r), p))


def make_kirchhoff(family: str, arity: int, B: float = 0.0, alpha0: float = 0.0,
                   alphas=None, betas=None, fn=None) -> KirchhoffCondition:
    """Built-in coupling families.

    classical:  sum_i(-p_i) - B
    affine:     alpha0*r + sum_i alpha_i*(-p_i) - B
    pm-split:   alpha0*r + sum_i [alpha_i*(-p_i)^+ + beta_i*(-p_i)^-] - B
    custom:     user fn(r, p)
    """
    if family == "custom":
        if fn is None:
            raise ValueError("custom family needs fn")
        return KirchhoffCondition(arity, fn, family="custom")

    alphas = np.ones(arity) if alphas is None else np.asarray(alphas, dtype=float)
    betas = np.ones(arity) if betas is None else np.asarray(betas, dtype=float)
    if alpha0 < 0:
        raise InvalidCoefficientSign("alpha0 must be nonnegative")
    if family in ("affine", "pm-split") and np.any(alphas <= 0):
        raise InvalidCoefficientSign("alpha_i must be positive")
    if family == "pm-split" and np.any(betas <= 0):
        raise InvalidCoefficientSign("beta_i must be positive")

    if family == "classical":
        def impl(r, p):
            return float(np.sum(-p) - B)
        qslope = float(arity)
        params = {"B": B}
    elif family == "affine":
        def impl(r, p):
            return float(alpha0 * r + np.sum(alphas * (-p)) - B)
        qslope = float(np.min(alphas))
        params = {"B": B, "alpha0": alpha0, "alphas": alphas.tolist()}
    elif family == "pm-split":
        def impl(r, p):
            s = -p
            return float(alpha0 * r + np.sum(alphas * np.maximum(s, 0.0)
                                             + betas * np.minimum(s, 0.0)) - B)
        qslope = float(min(np.min(alphas), np.min(betas)))
        params = {"B": B, "alpha0": alpha0, "alphas": alphas.tolist(),
                  "betas": betas.tolist()}
    else:
        raise ValueError(f"unknown family {family!r}")

    return KirchhoffCondition(
        arity, impl, family=family,
        quantitative_slope=qslope, params=params,
    )


# ---------------------------------------------------------------------------
# The assembled problem


@dataclass
class NetworkProblem:
    network: Network
    lam: float
    hamiltonians: dict  # edge id -> Hamiltonian
    diffusions: dict  # edge id -> Diffusion
    kirchhoff: dict  # interior vertex id -> KirchhoffCondition
    dirichlet: dict  # boundary vertex id -> float

    def __post_init__(self):
        if self.lam <= 0:
            raise InvalidCoefficientSign("lam must be positive")
        for v in self.network.interior_vertices:
            cond = self.kirchhoff.get(v.id)
            if cond is None:
                raise ValueError(f"missing coupling at interior vertex {v.id}")
            if cond.arity != self.network.degree(v.id):
                raise ValueError(
                    f"coupling arity {cond.arity} != degree "
                    f"{self.network.degree(v.id)} at vertex {v.id}"
                )
        for v in self.network.boundary_vertices:
            if v.id not in self.dirichlet:
                raise ValueError(f"missing Dirichlet datum at vertex {v.id}")

    def a_at_vertex(self, vid: int, eid: int) -> float:
        inc = next(i for i in self.network.incidence[vid] if i.edge.id == eid)
        return float(self.diffusions[eid].a(inc.vertex_param))

    def degenerate_set(self, vid: int):
        """Incident edges whose diffusion vanishes at the vertex."""
        if self.network.vertex(vid).kind != INTERIOR:
            raise VertexNotInterior(f"vertex {vid} is not interior")
        return tuple(
            inc.edge.id
            for inc in self.network.incidence[vid]
            if self.a_at_vertex(vid, inc.edge.id) == 0.0
        )


# ---------------------------------------------------------------------------
# Sampled validation of the structure conditions


@dataclass
class CheckEntry:
    name: str
    location: str
    passed: bool
    witness: Optional[dict] = None

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


@dataclass
class ValidationReport:
    entries: list

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.passed]

    def to_dict(self):
        return {
            "ok": self.ok,
            "entries": [
                {"name": e.name, "location": e.location, "verdict": e.verdict,
                 "witness": e.witness}
                for e in self.entries
            ],
        }


def validate_problem(problem: NetworkProblem, lattice_resolution: int = 16,
                     p_range: float = 8.0) -> ValidationReport:
    """Sampled check of the standing assumptions; advisory, never raises.

    Each entry covers one assumption on one edge or vertex; failures carry
    the violating sample.  lattice_resolution is the number of x-samples per
    edge (at least 8); slopes are sampled on [-p_range, p_range].
    """
    lattice_resolution = max(8, int(lattice_resolution))
    entries = []
    slack = 1e-9

    for e in problem.network.edges:
        H = problem.hamiltonians[e.id]
        D = problem.diffusions[e.id]
        xs = np.linspace(0.0, e.length, lattice_resolution)
        ps = np.linspace(-p_range, p_range, 2 * lattice_resolution + 1)
        dx = np.abs(xs[:, None] - xs[None, :])
        dp = np.abs(ps[:, None] - ps[None, :])
        loc = f"edge {e.id}"
        # hs[i, m] = H(xs[i], ps[m]); each check reports its first violation
        # in a fixed scan order: p, then (x, y) for the x-check; x, then
        # (p, q) for the p-check; x, then p for coercivity
        hs = np.array([np.asarray(H(x, ps), dtype=float) for x in xs])

        # Lipschitz in x: |H(x,p)-H(y,p)| <= C(1+|p|)|x-y|, axes (p, x, y)
        dv = np.abs(hs.T[:, :, None] - hs.T[:, None, :])
        bound = (H.c_h * (1.0 + np.abs(ps)))[:, None, None] * dx + slack
        bad = np.argwhere(dv > bound)
        witness = None
        if bad.size:
            m, i, j = bad[0]
            witness = {"x": float(xs[i]), "y": float(xs[j]), "p": float(ps[m]),
                       "gap": float(dv[m, i, j] - bound[m, i, j])}
        entries.append(CheckEntry("hamiltonian_lipschitz_x", loc, witness is None, witness))

        # Lipschitz in p: |H(x,p)-H(x,q)| <= C|p-q|, axes (x, p, q)
        dv = np.abs(hs[:, :, None] - hs[:, None, :])
        bad = np.argwhere(dv > H.c_h * dp + slack)
        witness = None
        if bad.size:
            k, i, j = bad[0]
            witness = {"x": float(xs[k]), "p": float(ps[i]), "q": float(ps[j]),
                       "gap": float(dv[k, i, j] - H.c_h * dp[i, j])}
        entries.append(CheckEntry("hamiltonian_lipschitz_p", loc, witness is None, witness))

        # coercivity: H(x,p) >= C^-1 |p| - C when declared
        if H.coercive:
            lower = np.abs(ps) / H.c_h - H.c_h
            bad = np.argwhere(hs < lower - slack)
            witness = None
            if bad.size:
                k, i = bad[0]
                witness = {"x": float(xs[k]), "p": float(ps[i]),
                           "gap": float(lower[i] - hs[k, i])}
            entries.append(CheckEntry("hamiltonian_coercive", loc, witness is None, witness))

        # diffusion: a >= 0 and sigma Lipschitz
        sig = np.asarray(D.sigma(xs), dtype=float)
        witness = None
        if np.any(sig < -slack):
            i = int(np.argmin(sig))
            witness = {"x": float(xs[i]), "sigma": float(sig[i])}
        else:
            ds = np.abs(sig[:, None] - sig[None, :])
            bad = np.argwhere(ds > D.c_a * dx + slack)
            if bad.size:
                i, j = bad[0]
                witness = {"x": float(xs[i]), "y": float(xs[j]),
                           "gap": float(ds[i, j] - D.c_a * dx[i, j])}
        entries.append(CheckEntry("diffusion_sigma_lipschitz", loc, witness is None, witness))

    rng = np.random.default_rng(0)
    for v in problem.network.interior_vertices:
        F = problem.kirchhoff[v.id]
        loc = f"vertex {v.id}"
        n = F.arity

        # joint monotonicity: r >= s, p <= q componentwise => F(r,p) >= F(s,q)
        witness = None
        for _ in range(64):
            s = rng.uniform(-p_range, p_range)
            r = s + rng.uniform(0.0, p_range)
            q = rng.uniform(-p_range, p_range, size=n)
            p = q - rng.uniform(0.0, p_range, size=n)
            if F(r, p) < F(s, q) - slack:
                witness = {"r": r, "s": s, "p": p.tolist(), "q": q.tolist()}
                break
            # strictness when some p_j < q_j
            if np.any(p < q) and F(r, p) <= F(s, q):
                witness = {"r": r, "s": s, "p": p.tolist(), "q": q.tolist(),
                           "strict": False}
                break
        entries.append(CheckEntry("kirchhoff_monotone", loc, witness is None, witness))

        # coercivity: F -> +inf as any p_i -> -inf (large-argument probes)
        witness = None
        base = np.zeros(n)
        for i in range(n):
            probe = base.copy()
            probe[i] = -1e6
            if F(0.0, probe) < 1e3:
                witness = {"component": i, "value": F(0.0, probe)}
                break
        entries.append(CheckEntry("kirchhoff_coercive", loc, witness is None, witness))

    # steady assumption: degenerate incident edges need coercive Hamiltonians
    for v in problem.network.interior_vertices:
        deg = problem.degenerate_set(v.id)
        bad = [e for e in deg if not problem.hamiltonians[e].coercive]
        entries.append(CheckEntry(
            "steady_degenerate_coercive", f"vertex {v.id}", not bad,
            {"edges": bad} if bad else None,
        ))

    # boundary assumption: a(v) > 0 or coercive Hamiltonian
    for v in problem.network.boundary_vertices:
        inc = problem.network.incidence[v.id][0]
        ok = (problem.a_at_vertex(v.id, inc.edge.id) > 0.0
              or problem.hamiltonians[inc.edge.id].coercive)
        entries.append(CheckEntry("boundary_elliptic_or_coercive",
                                  f"vertex {v.id}", ok,
                                  None if ok else {"edge": inc.edge.id}))

    return ValidationReport(entries)


# ---------------------------------------------------------------------------
# JSON loading


def _hamiltonian_from_spec(spec: dict) -> Hamiltonian:
    kind = spec["type"]
    if kind == "eikonal":
        return eikonal(speed=spec.get("c", 1.0), rhs=spec.get("f", 1.0),
                       c_h=spec.get("C_H"))
    if kind == "advection":
        return advection(b=spec.get("b", 0.0), f=spec.get("f", 0.0),
                         c_h=spec.get("C_H"))
    raise ValueError(f"unknown hamiltonian type {kind!r}")


def _diffusion_from_spec(spec: dict, length: float) -> Diffusion:
    kind = spec["type"]
    if kind == "constant":
        return constant_diffusion(spec.get("value", 0.0))
    if kind == "linear_vanish":
        return linear_vanish(spec.get("slope", 1.0), length,
                             side=spec.get("side", "low"))
    if kind == "polynomial":
        return polynomial_diffusion(spec["coefficients"], c_a=spec.get("C_a", 1.0))
    raise ValueError(f"unknown diffusion type {kind!r}")


def _kirchhoff_from_spec(spec: dict, arity: int) -> KirchhoffCondition:
    return make_kirchhoff(
        spec.get("family", "classical"), arity, B=spec.get("B", 0.0),
        alpha0=spec.get("alpha0", 0.0), alphas=spec.get("alphas"),
        betas=spec.get("betas"),
    )


def problem_from_json(doc: dict, network: Network) -> NetworkProblem:
    """Problem data from a JSON dict; see README for the schema."""
    lam = float(doc["lambda"])
    hams, diffs = {}, {}
    for e in network.edges:
        espec = doc["edges"][str(e.id)]
        hams[e.id] = _hamiltonian_from_spec(espec["hamiltonian"])
        diffs[e.id] = _diffusion_from_spec(espec["diffusion"], e.length)
    kirch = {}
    for v in network.interior_vertices:
        kirch[v.id] = _kirchhoff_from_spec(doc["kirchhoff"][str(v.id)],
                                           network.degree(v.id))
    dirichlet = {v.id: float(doc["dirichlet"][str(v.id)])
                 for v in network.boundary_vertices}
    return NetworkProblem(network, lam, hams, diffs, kirch, dirichlet)
