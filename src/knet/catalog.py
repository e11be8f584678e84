"""Catalog of network problems with known structure, used by the test
suite and the verification criteria.

Each entry records what is known about its solution: an exact profile when
one exists, degeneracy, and whether the interior Lipschitz bound applies.
Whether the flux-limited or the direct linear oracle applies is read off
the problem itself (oracle.reference_for).  random_problem and
eikonal_problem draw problems at random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .network import Network, build_network, star_junction
from .problem import (
    NetworkProblem,
    advection,
    constant_diffusion,
    eikonal,
    linear_vanish,
    make_kirchhoff,
)


@dataclass
class CatalogEntry:
    name: str
    problem: NetworkProblem
    exact: Optional[Callable] = None  # (edge id, t array) -> values
    degenerate: bool = False


def _zero_diffusions(net: Network):
    return {e.id: constant_diffusion(0.0) for e in net.edges}


def _unit_diffusions(net: Network):
    return {e.id: constant_diffusion(1.0) for e in net.edges}


def star3_constant() -> CatalogEntry:
    """Eikonal star whose data make the constant 1 an exact solution at
    every resolution."""
    net = star_junction(3)
    problem = NetworkProblem(
        net, lam=1.0,
        hamiltonians={e.id: eikonal(1.0, 1.0) for e in net.edges},
        diffusions=_zero_diffusions(net),
        kirchhoff={0: make_kirchhoff("classical", 3, B=0.0)},
        dirichlet={1: 1.0, 2: 1.0, 3: 1.0},
    )
    return CatalogEntry("star3_constant", problem,
                        exact=lambda eid, t: np.ones_like(np.asarray(t, dtype=float)),
                        degenerate=True)


def graph5_constant() -> CatalogEntry:
    """Constant solution on a 5-vertex graph with a cycle."""
    net = build_network(
        range(5),
        [(0, 0, 1, 1.0), (1, 1, 2, 0.8), (2, 1, 3, 1.2), (3, 2, 3, 0.7),
         (4, 3, 4, 0.9)],
    )
    problem = NetworkProblem(
        net, lam=1.0,
        hamiltonians={e.id: eikonal(1.0, 1.0) for e in net.edges},
        diffusions=_zero_diffusions(net),
        kirchhoff={v.id: make_kirchhoff("classical", net.degree(v.id), B=0.0)
                   for v in net.interior_vertices},
        dirichlet={0: 1.0, 4: 1.0},
    )
    return CatalogEntry("graph5_constant", problem,
                        exact=lambda eid, t: np.ones_like(np.asarray(t, dtype=float)),
                        degenerate=True)


def star3_eikonal() -> CatalogEntry:
    """Degenerate eikonal star with zero boundary data; genuinely
    nonsmooth.  Its solution is 1 - e^(-d), d the distance to the boundary
    vertex of the edge, which is 1 - t on every edge (the value of the
    control problem of oracle.flux_limited_reference)."""
    net = star_junction(3)
    problem = NetworkProblem(
        net, lam=1.0,
        hamiltonians={e.id: eikonal(1.0, 1.0) for e in net.edges},
        diffusions=_zero_diffusions(net),
        kirchhoff={0: make_kirchhoff("classical", 3, B=0.0)},
        dirichlet={1: 0.0, 2: 0.0, 3: 0.0},
    )
    return CatalogEntry("star3_eikonal", problem,
                        exact=lambda eid, t: 1.0 - np.exp(np.asarray(t, dtype=float) - 1.0),
                        degenerate=True)


def star3_eikonal_loss() -> CatalogEntry:
    """Same geometry with unattainably large boundary data: the relaxed
    boundary condition is lost and the constant 1 solves the discrete
    system exactly."""
    net = star_junction(3)
    problem = NetworkProblem(
        net, lam=1.0,
        hamiltonians={e.id: eikonal(1.0, 1.0) for e in net.edges},
        diffusions=_zero_diffusions(net),
        kirchhoff={0: make_kirchhoff("classical", 3, B=0.0)},
        dirichlet={1: 5.0, 2: 5.0, 3: 5.0},
    )
    return CatalogEntry("star3_eikonal_loss", problem,
                        exact=lambda eid, t: np.ones_like(np.asarray(t, dtype=float)),
                        degenerate=True)


def star3_loss_elliptic() -> CatalogEntry:
    """Loss geometry made uniformly elliptic: boundary data are attained."""
    net = star_junction(3)
    problem = NetworkProblem(
        net, lam=1.0,
        hamiltonians={e.id: eikonal(1.0, 1.0) for e in net.edges},
        diffusions=_unit_diffusions(net),
        kirchhoff={0: make_kirchhoff("classical", 3, B=0.0)},
        dirichlet={1: 5.0, 2: 5.0, 3: 5.0},
    )
    return CatalogEntry("star3_loss_elliptic", problem)


def star2_linear() -> CatalogEntry:
    """Two unit edges, pure diffusion, data 0 and 1: the solution is
    sinh(s)/sinh(2) in the arc length s from the zero end."""
    net = star_junction(2)
    problem = NetworkProblem(
        net, lam=1.0,
        hamiltonians={e.id: advection(0.0, 0.0) for e in net.edges},
        diffusions=_unit_diffusions(net),
        kirchhoff={0: make_kirchhoff("classical", 2, B=0.0)},
        dirichlet={1: 0.0, 2: 1.0},
    )
    s2 = math.sinh(2.0)

    def exact(eid, t):
        t = np.asarray(t, dtype=float)
        s = (1.0 - t) if eid == 0 else (1.0 + t)
        return np.sinh(s) / s2

    return CatalogEntry("star2_linear", problem, exact=exact)


def star3_linear() -> CatalogEntry:
    """Uniformly elliptic linear star with an affine coupling; verified
    against the independent direct linear solve."""
    net = star_junction(3)
    problem = NetworkProblem(
        net, lam=1.0,
        hamiltonians={e.id: advection(0.0, -0.3) for e in net.edges},
        diffusions=_unit_diffusions(net),
        kirchhoff={0: make_kirchhoff("affine", 3, B=0.2, alpha0=0.5,
                                     alphas=(1.0, 1.3, 0.7))},
        dirichlet={1: 0.0, 2: 0.5, 3: 1.0},
    )
    return CatalogEntry("star3_linear", problem)


def star3_mixed() -> CatalogEntry:
    """One degenerate eikonal edge joined to two elliptic edges through an
    asymmetric coupling."""
    net = star_junction(3, lengths=[1.0, 0.8, 1.2])
    problem = NetworkProblem(
        net, lam=1.0,
        hamiltonians={0: eikonal(1.0, 1.0),
                      1: advection(0.0, -0.2),
                      2: advection(0.0, 0.1)},
        diffusions={0: constant_diffusion(0.0),
                    1: constant_diffusion(1.0),
                    2: constant_diffusion(0.5)},
        kirchhoff={0: make_kirchhoff("pm-split", 3, B=0.1, alpha0=0.3,
                                     alphas=(1.0, 1.2, 0.8),
                                     betas=(0.5, 1.0, 1.0))},
        dirichlet={1: 0.3, 2: -0.2, 3: 0.4},
    )
    return CatalogEntry("star3_mixed", problem, degenerate=True)


# each function is named after the entry it returns
_ENTRIES = {make.__name__: make for make in (
    star3_constant, graph5_constant, star3_eikonal, star3_eikonal_loss,
    star3_loss_elliptic, star2_linear, star3_linear, star3_mixed)}


def all_entries():
    return [make() for make in _ENTRIES.values()]


def entry_by_name(name: str) -> CatalogEntry:
    """Build the one entry called name."""
    make = _ENTRIES.get(name) if isinstance(name, str) else None
    if make is None:
        raise KeyError(f"no catalog entry named {name!r}")
    return make()


def _random_network(rng: np.random.Generator) -> Network:
    """A 3-star, a 4-star or the 5-vertex graph with a cycle, with edge
    lengths ~ U(0.5, 1.5)."""
    topology = rng.integers(0, 3)
    if topology == 0:
        return star_junction(3, lengths=list(rng.uniform(0.5, 1.5, 3)))
    if topology == 1:
        return star_junction(4, lengths=list(rng.uniform(0.5, 1.5, 4)))
    return build_network(
        range(5),
        [(0, 0, 1, rng.uniform(0.5, 1.5)), (1, 1, 2, rng.uniform(0.5, 1.5)),
         (2, 1, 3, rng.uniform(0.5, 1.5)), (3, 2, 3, rng.uniform(0.5, 1.5)),
         (4, 3, 4, rng.uniform(0.5, 1.5))],
    )


def random_problem(rng: np.random.Generator) -> NetworkProblem:
    """Randomized problem whose every draw has lam > 0, a >= 0, Lipschitz H
    within its c_h and monotone, coercive couplings, so the discrete system is
    monotone.  A degenerate edge may carry a non-coercive (advection) H, so
    most draws fail validate_problem's standing assumptions at vertices (49
    of s = 0..59 fail steady_degenerate_coercive or boundary_elliptic_or_coercive)."""
    net = _random_network(rng)
    hams, diffs = {}, {}
    for e in net.edges:
        if rng.random() < 0.5:
            hams[e.id] = eikonal(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        else:
            hams[e.id] = advection(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        kind = rng.integers(0, 3)
        if kind == 0:
            diffs[e.id] = constant_diffusion(0.0)
        elif kind == 1:
            diffs[e.id] = constant_diffusion(rng.uniform(0.1, 1.0))
        else:
            diffs[e.id] = linear_vanish(rng.uniform(0.5, 1.5), e.length,
                                        side=("low" if rng.random() < 0.5 else "high"))
    kirch = {}
    for v in net.interior_vertices:
        n = net.degree(v.id)
        family = ("classical", "affine", "pm-split")[rng.integers(0, 3)]
        kirch[v.id] = make_kirchhoff(
            family, n, B=rng.uniform(-1.0, 1.0),
            alpha0=(0.0 if family == "classical" else rng.uniform(0.0, 1.0)),
            alphas=rng.uniform(0.3, 2.0, n), betas=rng.uniform(0.3, 2.0, n),
        )
    dirichlet = {v.id: float(rng.uniform(-2.0, 2.0))
                 for v in net.boundary_vertices}
    return NetworkProblem(net, float(rng.uniform(0.5, 2.0)), hams, diffs,
                          kirch, dirichlet)


def eikonal_problem(rng: np.random.Generator, B: Optional[float] = None) -> NetworkProblem:
    """Randomized all-degenerate network, where oracle.flux_limited_reference
    applies: random_problem's topologies and edge lengths, every edge a = 0
    with eikonal(U(0.5, 2), U(0, 1)), classical junctions with the given B,
    else B ~ U(-1, 1) each, Dirichlet data ~ U(-2, 2) and lam ~ U(0.5, 2)."""
    net = _random_network(rng)
    hams = {e.id: eikonal(rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0)) for e in net.edges}
    kirch = {v.id: make_kirchhoff("classical", net.degree(v.id),
                                  B=rng.uniform(-1.0, 1.0) if B is None else B)
             for v in net.interior_vertices}
    dirichlet = {v.id: float(rng.uniform(-2.0, 2.0)) for v in net.boundary_vertices}
    return NetworkProblem(net, float(rng.uniform(0.5, 2.0)), hams, _zero_diffusions(net),
                          kirch, dirichlet)
