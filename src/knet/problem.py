"""Equation data on a network: Hamiltonians, diffusions, vertex couplings,
Dirichlet data, and a validator of the standing structure conditions.

Sign convention for vertex couplings: the arguments of a coupling function
F(r, p) are the *inward* derivatives of u along the incident edges, so F is
nondecreasing in r and nonincreasing in each p_i for all built-in families.

A built-in Hamiltonian or coupling is a frozen record (family, params)
with fn None and params read-only.  One function per family checks the
params and derives the other facts (the function; a Hamiltonian's
envelopes, slope bound, affine data and name) once, however the record
was built.  A custom one is just an fn.  Handing a built-in an fn, as
replace(h, fn=g) does, makes it custom: no fact of its family survives.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidCoefficientSign, VertexNotInterior
from .network import INTERIOR, Incidence, Network

LATTICE_RESOLUTION = 16  # validate_problem's x-samples per edge
P_RANGE = 8.0  # validate_problem samples slopes on [-P_RANGE, P_RANGE]
# a custom H's envelopes interpolate it on these slopes times c_h: 0 and
# +-sinh(k/64), spaced 1/64 near 0 and |p|/64 far out, to |p| ~ 7e9
ENVELOPE_LATTICE = np.sinh(np.arange(-1536, 1537) / 64.0)


def larger(a, b):
    """Python's max(a, b), elementwise when a is an array: b where b > a,
    else a.  Floats take the builtin, ten times cheaper than np.where."""
    return np.where(b > a, b, a) if isinstance(a, np.ndarray) else max(a, b)


def _family_facts(record, families: dict, **args):
    """The facts record's family derives from its params, made read-only
    with each list or array a tuple; None for a custom record, which
    handing a record an fn makes it, so no fact outlives fn."""
    if record.fn is not None:
        object.__setattr__(record, "family", "custom")
        object.__setattr__(record, "params", MappingProxyType({}))
        return None
    if record.family not in families:
        raise ValueError(f"no fn, and {record.family!r} is no built-in family")
    object.__setattr__(record, "params", MappingProxyType(
        {k: tuple(v) if isinstance(v, (list, np.ndarray)) else v for k, v in record.params.items()}))
    return families[record.family](**args, **record.params)


# ---------------------------------------------------------------------------
# Hamiltonians


class _HamiltonianFacts(NamedTuple):
    fn: Callable
    below: Optional[Callable]  # min_below, in closed form; None: sampled
    above: Optional[Callable]
    slope_bound: Optional[float]
    affine: Optional[tuple]
    name: str
    table: Optional[tuple] = None  # (g, c, d): H = c*g(p) + d, c and d constant


def _eikonal_facts(speed, rhs) -> _HamiltonianFacts:
    if speed <= 0:
        raise InvalidCoefficientSign("eikonal speed must be positive")
    return _HamiltonianFacts(lambda x, p: speed * np.abs(p) - rhs,
                             lambda x, q: speed * larger(-q, 0.0) - rhs,
                             lambda x, q: speed * larger(q, 0.0) - rhs,
                             speed, None, f"eikonal({speed},{rhs})", (np.abs, speed, -rhs))


def _advection_facts(b, f) -> _HamiltonianFacts:
    f_fn = f if callable(f) else (lambda x, _v=float(f): np.full_like(np.asarray(x, dtype=float), _v) if np.ndim(x) else _v)

    def envelope(side):  # min of H over the slopes below (side 1) or above (-1) q
        def env(x, q):
            if side * b >= 0:
                return np.full(np.shape(q), -math.inf if side * b > 0 else float(f_fn(x)))[()]
            return b * q + float(f_fn(x))
        return env

    return _HamiltonianFacts(lambda x, p: b * np.asarray(p, dtype=float) + f_fn(x),
                             envelope(1), envelope(-1), abs(b), (b, f_fn), f"advection({b})",
                             None if callable(f) else (np.positive, b, float(f)))


_HAMILTONIAN_FAMILIES = {"eikonal": _eikonal_facts, "advection": _advection_facts}


@dataclass(frozen=True)
class Hamiltonian:
    """Edge Hamiltonian H(x, p); x is the edge coordinate in [0, len].

    A built-in is a record (family, params) with fn None: "eikonal" (speed
    > 0, rhs), H = speed*|p| - rhs, or "advection" (b, f), H = b*p + f(x)
    with f a constant or a callable of x.  Its _HAMILTONIAN_FAMILIES entry
    checks the params and derives H, the closed-form envelopes, name,
    slope_bound (the exact sup |dH/dp|: speed, or |b|), affine ((b, f of
    x), advection only) and table ((g, c, d), H = c*g(p) + d: (abs, speed,
    -rhs), or (positive, b, f) for a constant f).  A custom H is an fn
    taking numpy arrays in either argument, with sampled envelopes and no
    slope_bound, affine data or table.
    Handing a built-in an fn makes it custom; replacing another field keeps it.

    c_h is the declared structure constant (Lipschitz in x and p);
    lipschitz_p may be smaller and drives the default numerical dissipation.
    A problem whose built-in records all have slope_bound at most
    lipschitz_p is monotone by construction (ResidualSystem.stencil_certificate).
    """

    fn: Optional[Callable]
    c_h: float
    coercive: bool = False
    lipschitz_p: Optional[float] = None
    family: str = "custom"
    params: Mapping = field(default_factory=dict)
    _facts: _HamiltonianFacts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_facts", _family_facts(self, _HAMILTONIAN_FAMILIES)
                           or _HamiltonianFacts(self.fn, None, None, None, None, "custom"))
        if self.c_h <= 0:
            raise InvalidCoefficientSign("c_h must be positive")
        if self.lipschitz_p is None:
            object.__setattr__(self, "lipschitz_p", self.c_h)

    def __deepcopy__(self, memo):  # a record is a value; its mappingproxy cannot be deep-copied
        return replace(self, params=dict(self.params))

    name = property(lambda self: self._facts.name)
    slope_bound = property(lambda self: self._facts.slope_bound)
    affine = property(lambda self: self._facts.affine)
    table = property(lambda self: self._facts.table)

    def __call__(self, x, p):
        return self._facts.fn(x, p)

    # -- coercivity envelopes ----------------------------------------------
    # min_below(x, q) = min over p <= q of H(x, p); min_above symmetric.
    # Used by state-constraint residuals; exact for built-ins, sampled
    # (monotone in q by construction) otherwise.  q may be an array of slopes.

    def min_below(self, x, q):
        below = self._facts.below
        return below(x, q) if below else self._sampled_envelope(x, q, below=True)

    def min_above(self, x, q):
        above = self._facts.above
        return above(x, q) if above else self._sampled_envelope(x, q, below=False)

    def _sampled_envelope(self, x, q, below: bool):
        """The exact envelope of H(x, .)'s piecewise-linear interpolant on
        the slope lattice c_h * ENVELOPE_LATTICE, which does not move with
        q, so the envelope is monotone in q; x is one point.  Below q, it is
        the least node value at or below q, or the interpolant at q, clamped
        to the value at the next node up.  Where H >= |p|/c_h - c_h, as a
        coercive H declares, no node below -c_h*(c_h + max(H(p_j), 0)) - 1,
        p_j the last node at or below q, beats H(p_j), so none is evaluated."""
        side = 1.0 if below else -1.0  # min over p >= q of H(p): over r <= -q of H(-r)
        q = side * np.asarray(q, dtype=float)
        nodes = self.c_h * ENVELOPE_LATTICE

        def h(k):
            return np.asarray(self(x, side * nodes[k]), dtype=float)

        j = np.clip(np.searchsorted(nodes, q, side="right") - 1, 0, len(nodes) - 2)
        h_j, h_next = h(j), h(j + 1)
        lo = np.minimum(j, np.searchsorted(nodes, -self.c_h * (self.c_h + np.maximum(h_j, 0.0)) - 1.0))
        k = np.arange(np.min(lo, initial=len(nodes)), np.max(j, initial=-1) + 1)
        least = np.min(np.where((k >= lo[..., None]) & (k <= j[..., None]), h(k), np.inf),
                       axis=-1, initial=np.inf)
        interp = h_j + (q - nodes[j]) * ((h_next - h_j) / (nodes[j + 1] - nodes[j]))
        return np.minimum(least, np.maximum(interp, h_next))[()]


def eikonal(speed: float = 1.0, rhs: float = 1.0, c_h: Optional[float] = None) -> Hamiltonian:
    """H(x, p) = speed * |p| - rhs, coercive; the record refuses speed <= 0."""
    ch = c_h if c_h is not None else max(speed, 1.0 / speed if speed > 0 else 1.0, abs(rhs), 1.0)
    return Hamiltonian(None, ch, True, speed, "eikonal", {"speed": speed, "rhs": rhs})


def advection(b: float = 0.0, f=0.0, c_h: Optional[float] = None) -> Hamiltonian:
    """H(x, p) = b * p + f(x); f may be a constant or a callable of x."""
    ch = c_h if c_h is not None else max(abs(b), 1.0)
    return Hamiltonian(None, ch, False, abs(b), "advection", {"b": b, "f": f})


# ---------------------------------------------------------------------------
# Diffusions


@dataclass(frozen=True)
class Diffusion:
    """Degenerate diffusion a = sigma^2 with sigma Lipschitz (constant c_a).
    Frozen, like the problem that holds it, so the tables built from sigma
    (NetworkProblem.a_at_incidence, a grid's SchemeTables) stay true."""

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


class _CouplingFacts(NamedTuple):
    fn: Callable
    quantitative_slope: float  # lower bound on F(r, p - c*1) - F(r, p) per unit c


def _classical_facts(arity, B) -> _CouplingFacts:
    return _CouplingFacts(lambda r, p: np.sum(-p, axis=-1) - B, float(arity))


def _weights(alpha0, **weights) -> list:
    """Each of weights as an array, once alpha0 >= 0 and every entry > 0."""
    if alpha0 < 0:
        raise InvalidCoefficientSign("alpha0 must be nonnegative")
    for name, w in weights.items():
        if np.any(np.asarray(w) <= 0):
            raise InvalidCoefficientSign(f"{name}_i must be positive")
    return [np.asarray(w, dtype=float) for w in weights.values()]


def _affine_facts(arity, B, alpha0, alphas) -> _CouplingFacts:
    alphas, = _weights(alpha0, alpha=alphas)
    return _CouplingFacts(lambda r, p: alpha0 * r + np.sum(alphas * (-p), axis=-1) - B,
                          float(np.min(alphas)))


def _pm_split_facts(arity, B, alpha0, alphas, betas) -> _CouplingFacts:
    alphas, betas = _weights(alpha0, alpha=alphas, beta=betas)

    def fn(r, p):
        s = -p
        return alpha0 * r + np.sum(alphas * np.maximum(s, 0.0) + betas * np.minimum(s, 0.0), axis=-1) - B

    return _CouplingFacts(fn, float(min(np.min(alphas), np.min(betas))))


_COUPLING_FAMILIES = {"classical": _classical_facts, "affine": _affine_facts,
                     "pm-split": _pm_split_facts}


@dataclass(frozen=True)
class KirchhoffCondition:
    """Coupling F(r, p) at an interior vertex, p = inward derivatives.  A
    call takes a batch, r (K,) and p (K, arity) to the K values, so F must
    reduce p over its last axis; a float r with p (arity,) gives a float.

    A built-in (make_kirchhoff) is a record (family, params) with fn None,
    whose _COUPLING_FAMILIES entry checks the signs that make F monotone and
    derives F and quantitative_slope; a custom coupling is an fn, with slope
    0.  Handing a built-in an fn makes it custom.
    """

    arity: int
    fn: Optional[Callable]  # (r, p: array (..., arity)) -> one value per row of p
    family: str = "custom"
    params: Mapping = field(default_factory=dict)
    _facts: _CouplingFacts = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_facts", _family_facts(self, _COUPLING_FAMILIES, arity=self.arity)
                           or _CouplingFacts(self.fn, 0.0))

    __deepcopy__ = Hamiltonian.__deepcopy__
    quantitative_slope = property(lambda self: self._facts.quantitative_slope)

    def __call__(self, r, p):
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (self.arity,):
            raise ValueError(f"expected {self.arity} inward slopes, got {p.shape}")
        if p.ndim == 1:
            return float(self._facts.fn(float(r), p))
        out = self._facts.fn(r, p)
        if np.shape(out) != p.shape[:-1]:
            raise ValueError(f"coupling gave shape {np.shape(out)} for slopes {p.shape}")
        return out


def make_kirchhoff(family: str, arity: int, B: float = 0.0, alpha0: float = 0.0,
                   alphas=None, betas=None, fn=None) -> KirchhoffCondition:
    """Built-in coupling families.

    classical:  sum_i(-p_i) - B
    affine:     alpha0*r + sum_i alpha_i*(-p_i) - B
    pm-split:   alpha0*r + sum_i [alpha_i*(-p_i)^+ + beta_i*(-p_i)^-] - B
    custom:     user fn(r, p); like the built-ins, which sum over the last
                axis of p, it must take a batch (see KirchhoffCondition)
    """
    if family == "custom":
        return KirchhoffCondition(arity, fn)
    alphas, betas = ([1.0] * arity if w is None else np.asarray(w, dtype=float).tolist()
                     for w in (alphas, betas))
    params = {"B": B}
    if family == "classical":
        _weights(alpha0)  # classical ignores alpha0, but not its sign
    else:
        params.update(alpha0=alpha0, alphas=alphas)
    if family == "pm-split":
        params["betas"] = betas
    return KirchhoffCondition(arity, None, family, params)


# ---------------------------------------------------------------------------
# The assembled problem


@dataclass(frozen=True)
class NetworkProblem:
    """A value: frozen, its maps read-only copies made at construction, so
    tables built from it stay true; dataclasses.replace makes a new one."""

    network: Network
    lam: float
    hamiltonians: Mapping  # edge id -> Hamiltonian
    diffusions: Mapping  # edge id -> Diffusion
    kirchhoff: Mapping  # interior vertex id -> KirchhoffCondition
    dirichlet: Mapping  # boundary vertex id -> float

    def __post_init__(self):
        for name in ("hamiltonians", "diffusions", "kirchhoff", "dirichlet"):
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        if not 0 < self.lam < np.inf:
            raise InvalidCoefficientSign(f"lam must be finite and positive, got {self.lam}")
        for v in self.network.interior_vertices:
            cond = self.kirchhoff.get(v.id)
            if cond is None:
                raise ValueError(f"missing coupling at interior vertex {v.id}")
            if cond.arity != self.network.degree(v.id):
                raise ValueError(f"coupling arity {cond.arity} != degree "
                                 f"{self.network.degree(v.id)} at vertex {v.id}")
        for v in self.network.boundary_vertices:
            if not np.isfinite(self.dirichlet.get(v.id, np.nan)):
                raise ValueError(f"no finite Dirichlet datum at vertex {v.id}")

    def __deepcopy__(self, memo):  # a mappingproxy cannot be deep-copied: rebuild from dicts
        return NetworkProblem(*(copy.deepcopy(dict(v) if isinstance(v, Mapping) else v, memo)
                                for v in (getattr(self, f.name) for f in fields(self))))

    def why_not_linear(self) -> str:
        """"" when every coupling is classical or affine and every H has
        affine data, so the equations are linear in u; else the first
        coupling, then the first H, that is not, as a sentence."""
        for v in self.network.interior_vertices:
            family = self.kirchhoff[v.id].family
            if family not in ("classical", "affine"):
                return f"vertex {v.id}: coupling family {family!r} is not linear"
        for e in self.network.edges:
            if self.hamiltonians[e.id].affine is None:
                return f"edge {e.id}: Hamiltonian is not affine in p"
        return ""

    @cached_property
    def _incidence_a(self) -> dict:  # keyed by (edge id, at_tail): cheap to hash
        return {(inc.edge.id, inc.at_tail): float(self.diffusions[inc.edge.id].a(inc.vertex_param))
                for incs in self.network.incidence.values() for inc in incs}

    def a_at_incidence(self, inc: Incidence) -> float:
        """The diffusion of inc's edge at inc's vertex, from a table of every
        incidence built on first use."""
        return self._incidence_a[inc.edge.id, inc.at_tail]

    def degenerate_set(self, vid: int):
        """Incident edges whose diffusion vanishes at the vertex."""
        if self.network.vertex(vid).kind != INTERIOR:
            raise VertexNotInterior(f"vertex {vid} is not interior")
        return tuple(inc.edge.id for inc in self.network.incidence[vid]
                     if self.a_at_incidence(inc) == 0.0)


# ---------------------------------------------------------------------------
# Validation of the structure conditions


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
        return {"ok": self.ok, "entries": [
            {"name": e.name, "location": e.location, "verdict": e.verdict, "witness": e.witness}
            for e in self.entries]}


def _first_hit(bad: np.ndarray) -> tuple:
    """The index of bad's first True in C order, np.argwhere(bad)[0]; bad
    has one."""
    return np.unravel_index(np.argmax(bad), bad.shape)


def _decided_by_facts(H: Hamiltonian, slack: float) -> bool:
    """Whether H is built in with a table (eikonal, or advection with a
    constant f) and its facts pass the edge checks: H does not read x,
    slope_bound <= c_h, and if H is declared coercive, H - (|p|/c_h - c_h)
    is linear in |p| on each side of 0, least at a lattice end or at 0."""
    if type(H) is not Hamiltonian or H.table is None or not H.slope_bound <= H.c_h:
        return False
    ends = np.array([-P_RANGE, 0.0, P_RANGE])
    return not H.coercive or not np.any(
        np.asarray(H(0.0, ends), dtype=float) < np.abs(ends) / H.c_h - H.c_h - slack)


def validate_problem(problem: NetworkProblem) -> ValidationReport:
    """Check of the standing assumptions; advisory, never raises.

    Each entry covers one assumption on one edge or vertex.  A built-in H's
    edge checks (_decided_by_facts) and a built-in coupling's monotonicity
    (by its invariants) are decided from facts; the rest is scanned: per
    edge on LATTICE_RESOLUTION x-samples and slopes on [-P_RANGE, P_RANGE],
    per custom coupling on 64 random samples.  Failing facts fall back to
    the scan, so that every failure names its first violating sample.
    """
    entries = []
    slack = 1e-9

    def check(name, loc, bad, witness):  # a failure's witness: witness(*first hit of bad)
        found = witness(*_first_hit(bad)) if bad.any() else None
        entries.append(CheckEntry(name, loc, found is None, found))

    for e in problem.network.edges:
        H = problem.hamiltonians[e.id]
        D = problem.diffusions[e.id]
        xs = np.linspace(0.0, e.length, LATTICE_RESOLUTION)
        dx = np.abs(xs[:, None] - xs[None, :])
        loc = f"edge {e.id}"
        if _decided_by_facts(H, slack):
            names = ("hamiltonian_lipschitz_x", "hamiltonian_lipschitz_p", "hamiltonian_coercive")
            entries += [CheckEntry(name, loc, True) for name in names[:3 if H.coercive else 2]]
        else:
            ps = np.linspace(-P_RANGE, P_RANGE, 2 * LATTICE_RESOLUTION + 1)
            dp = np.abs(ps[:, None] - ps[None, :])
            # hs[i, m] = H(xs[i], ps[m]); each check reports its first violation
            # in a fixed scan order: p, then (x, y) for the x-check; x, then
            # (p, q) for the p-check; x, then p for coercivity
            hs = np.array([np.asarray(H(x, ps), dtype=float) for x in xs])

            # Lipschitz in x: |H(x,p)-H(y,p)| <= C(1+|p|)|x-y|, axes (p, x, y)
            dv = np.abs(hs.T[:, :, None] - hs.T[:, None, :])
            bound = (H.c_h * (1.0 + np.abs(ps)))[:, None, None] * dx + slack
            check("hamiltonian_lipschitz_x", loc, dv > bound, lambda m, i, j: {
                "x": float(xs[i]), "y": float(xs[j]), "p": float(ps[m]),
                "gap": float(dv[m, i, j] - bound[m, i, j])})

            # Lipschitz in p: |H(x,p)-H(x,q)| <= C|p-q|, axes (x, p, q)
            dv = np.abs(hs[:, :, None] - hs[:, None, :])
            check("hamiltonian_lipschitz_p", loc, dv > H.c_h * dp + slack, lambda k, i, j: {
                "x": float(xs[k]), "p": float(ps[i]), "q": float(ps[j]),
                "gap": float(dv[k, i, j] - H.c_h * dp[i, j])})

            # coercivity: H(x,p) >= C^-1 |p| - C when declared
            if H.coercive:
                lower = np.abs(ps) / H.c_h - H.c_h
                check("hamiltonian_coercive", loc, hs < lower - slack, lambda k, i: {
                    "x": float(xs[k]), "p": float(ps[i]), "gap": float(lower[i] - hs[k, i])})

        # diffusion: a >= 0 and sigma Lipschitz
        sig = np.asarray(D.sigma(xs), dtype=float)
        if np.any(sig < -slack):
            i = int(np.argmin(sig))
            entries.append(CheckEntry("diffusion_sigma_lipschitz", loc, False,
                                      {"x": float(xs[i]), "sigma": float(sig[i])}))
        else:
            ds = np.abs(sig[:, None] - sig[None, :])
            check("diffusion_sigma_lipschitz", loc, ds > D.c_a * dx + slack, lambda i, j: {
                "x": float(xs[i]), "y": float(xs[j]), "gap": float(ds[i, j] - D.c_a * dx[i, j])})

    rng = np.random.default_rng(0)
    for v in problem.network.interior_vertices:
        F = problem.kirchhoff[v.id]
        loc = f"vertex {v.id}"
        n = F.arity

        # joint monotonicity: r >= s, p <= q componentwise => F(r,p) >= F(s,q),
        # strictly when some p_j < q_j: a built-in family's alpha0 >= 0 and
        # weights > 0 give it, yet it draws, so a later custom vertex draws as
        # before.  Row k holds the 2 + 2n uniforms sample k takes in turn,
        # mapped as rng.uniform maps them (s, r - s, q, q - p)
        state = rng.bit_generator.state
        draws = rng.random((64, 2 + 2 * n))
        witness = None
        if type(F) is not KirchhoffCondition or F.fn is not None:
            s = -P_RANGE + 2.0 * P_RANGE * draws[:, 0]
            r = s + P_RANGE * draws[:, 1]
            q = -P_RANGE + 2.0 * P_RANGE * draws[:, 2:2 + n]
            p = q - P_RANGE * draws[:, 2 + n:]
            frp, fsq = F(r, p), F(s, q)
            lower = frp < fsq - slack
            bad = lower | (np.any(p < q, axis=1) & (frp <= fsq))
            if bad.any():
                k = int(np.argmax(bad))
                witness = {"r": float(r[k]), "s": float(s[k]), "p": p[k].tolist(),
                           "q": q[k].tolist(), **({} if lower[k] else {"strict": False})}
                # the generator ends where a sample-by-sample scan stops
                rng.bit_generator.state = state
                rng.random((k + 1, 2 + 2 * n))
        entries.append(CheckEntry("kirchhoff_monotone", loc, witness is None, witness))

        # coercivity: F -> +inf as any p_i -> -inf (large-argument probes)
        values = F(np.zeros(n), np.diag(np.full(n, -1e6)))
        check("kirchhoff_coercive", loc, values < 1e3,
              lambda i: {"component": int(i), "value": float(values[i])})

    # steady assumption: degenerate incident edges need coercive Hamiltonians
    for v in problem.network.interior_vertices:
        deg = problem.degenerate_set(v.id)
        bad = [e for e in deg if not problem.hamiltonians[e].coercive]
        entries.append(CheckEntry("steady_degenerate_coercive", f"vertex {v.id}", not bad,
                                  {"edges": bad} if bad else None))

    # boundary assumption: a(v) > 0 or coercive Hamiltonian
    for v in problem.network.boundary_vertices:
        inc = problem.network.incidence[v.id][0]
        ok = problem.a_at_incidence(inc) > 0.0 or problem.hamiltonians[inc.edge.id].coercive
        entries.append(CheckEntry("boundary_elliptic_or_coercive", f"vertex {v.id}", ok,
                                  None if ok else {"edge": inc.edge.id}))

    return ValidationReport(entries)


# ---------------------------------------------------------------------------
# JSON loading


def _hamiltonian_from_spec(spec: dict) -> Hamiltonian:
    kind = spec["type"]
    if kind == "eikonal":
        return eikonal(speed=spec.get("c", 1.0), rhs=spec.get("f", 1.0), c_h=spec.get("C_H"))
    if kind == "advection":
        return advection(b=spec.get("b", 0.0), f=spec.get("f", 0.0), c_h=spec.get("C_H"))
    raise ValueError(f"unknown hamiltonian type {kind!r}")


def _diffusion_from_spec(spec: dict, length: float) -> Diffusion:
    kind = spec["type"]
    if kind == "constant":
        return constant_diffusion(spec.get("value", 0.0))
    if kind == "linear_vanish":
        return linear_vanish(spec.get("slope", 1.0), length, side=spec.get("side", "low"))
    if kind == "polynomial":
        return polynomial_diffusion(spec["coefficients"], c_a=spec.get("C_a", 1.0))
    raise ValueError(f"unknown diffusion type {kind!r}")


def _kirchhoff_from_spec(spec: dict, arity: int) -> KirchhoffCondition:
    return make_kirchhoff(spec.get("family", "classical"), arity, B=spec.get("B", 0.0),
                          alpha0=spec.get("alpha0", 0.0), alphas=spec.get("alphas"),
                          betas=spec.get("betas"))


def problem_from_json(doc: dict, network: Network) -> NetworkProblem:
    """Problem data from a JSON dict; see README for the schema."""
    lam = float(doc["lambda"])
    hams, diffs = {}, {}
    for e in network.edges:
        espec = doc["edges"][str(e.id)]
        hams[e.id] = _hamiltonian_from_spec(espec["hamiltonian"])
        diffs[e.id] = _diffusion_from_spec(espec["diffusion"], e.length)
    kirch = {v.id: _kirchhoff_from_spec(doc["kirchhoff"][str(v.id)], network.degree(v.id))
             for v in network.interior_vertices}
    dirichlet = {v.id: float(doc["dirichlet"][str(v.id)])
                 for v in network.boundary_vertices}
    return NetworkProblem(network, lam, hams, diffs, kirch, dirichlet)
