"""Shared fixtures: catalog access and a session-wide solve cache so the
same (entry, resolution) pair is never solved twice across test modules."""

import numpy as np
import pytest

from knet.catalog import all_entries, entry_by_name
from knet.discretization import Grid, assemble
from knet.solver import SolveConfig, solve_problem


@pytest.fixture(scope="session")
def catalog():
    return {e.name: e for e in all_entries()}


@pytest.fixture(scope="session")
def solve_cached():
    """solve_cached(name, nodes, **kwargs) -> SolveResult, memoized."""
    cache = {}

    def get(name, nodes, **kwargs):
        key = (name, nodes, tuple(sorted(kwargs.items())))
        if key not in cache:
            entry = entry_by_name(name)
            cache[key] = solve_problem(entry.problem, nodes, **kwargs)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def system_cached():
    """system_cached(name, nodes, **kwargs) -> assembled ResidualSystem."""
    cache = {}

    def get(name, nodes, **kwargs):
        key = (name, nodes, tuple(sorted(kwargs.items())))
        if key not in cache:
            entry = entry_by_name(name)
            grid = Grid(entry.problem.network, nodes)
            cache[key] = assemble(entry.problem, grid, **kwargs)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def junction_rows():
    """junction_rows(problem) -> the shape of problem's junction rows at
    eps = 0: "minmax" where NetworkProblem.relaxed relaxes some junction
    edge (one with a = 0), so that its row maxes the coupling F with that
    edge's state constraint (the relaxed Kirchhoff condition), else
    "kirchhoff", F = 0 alone.  The two ids are legacy names for these row
    shapes, not modes: there is one junction rule.  A test over many
    problems that is parametrized by them checks each problem once, under
    its own shape."""
    def rows(problem):
        return "minmax" if any(problem.relaxed[v.id] for v in problem.network.interior_vertices) \
            else "kirchhoff"
    return rows


@pytest.fixture(scope="session")
def flux_limiter():
    """flux_limiter(problem) -> what sets the effective flux limiter A_v =
    max(A_0, A_B) of a problem oracle.flux_limited_reference solves (every
    H_e = c_e|p| - f_e, every coupling classical): "kirchhoff" where at some
    junction the coupling's A_B = -(B + sum f_e/c_e) / sum 1/c_e exceeds
    A_0 = max_e min_p H_e = -min_e f_e, else "minmax", A_0 at every
    junction, which B then does not reach.  The two ids are legacy names
    for what sets the limiter, not modes of the scheme."""
    def limiter(problem):
        net = problem.network
        for v in net.interior_vertices:
            params = [problem.hamiltonians[inc.edge.id].params for inc in net.incidence[v.id]]
            c, f = np.array([(p["speed"], p["rhs"]) for p in params]).T
            if problem.kirchhoff[v.id].params["B"] + np.sum(f / c) < np.min(f) * np.sum(1.0 / c):
                return "kirchhoff"
        return "minmax"
    return limiter
