"""The catalog builds the entries it is asked for."""

import numpy as np
import pytest

import knet.catalog
import knet.network
from knet.catalog import all_entries, eikonal_problem, entry_by_name, random_problem


def test_entry_by_name_builds_one_network(monkeypatch):
    """Looking up one entry builds that entry's network only (looking it up
    among all_entries() built all eight)."""
    calls = []
    real = knet.network.build_network

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    # star_junction reaches build_network through knet.network, the
    # cycle graph through knet.catalog
    monkeypatch.setattr(knet.network, "build_network", counting)
    monkeypatch.setattr(knet.catalog, "build_network", counting)
    for name in ("star3_mixed", "graph5_constant"):
        calls.clear()
        assert entry_by_name(name).name == name
        assert len(calls) == 1, name


def test_entry_by_name_matches_all_entries():
    for entry in all_entries():
        assert entry_by_name(entry.name).name == entry.name
    for bad in ("no_such_entry", ["star3_mixed"]):
        with pytest.raises(KeyError):
            entry_by_name(bad)


@pytest.mark.parametrize("B", [None, 0.0, -0.5])
def test_eikonal_problem_draws_all_degenerate_eikonal_networks(B):
    """random_problem's network for the same seed; every edge a = 0 with
    eikonal(U(0.5, 2), U(0, 1)); classical junctions with B, else B ~
    U(-1, 1); data ~ U(-2, 2) and lam ~ U(0.5, 2)."""
    for seed in range(10):
        problem = eikonal_problem(np.random.default_rng(seed), B)
        net = random_problem(np.random.default_rng(seed)).network
        assert [(e.id, e.tail, e.head, e.length) for e in problem.network.edges] == \
            [(e.id, e.tail, e.head, e.length) for e in net.edges]
        for e in problem.network.edges:
            ham = problem.hamiltonians[e.id]
            assert ham.family == "eikonal"
            assert 0.5 <= ham.params["speed"] <= 2.0 and 0.0 <= ham.params["rhs"] <= 1.0
            assert problem.diffusions[e.id].a(np.linspace(0.0, e.length, 5)).max() == 0.0
        for v in problem.network.interior_vertices:
            cond = problem.kirchhoff[v.id]
            assert cond.family == "classical"
            assert cond.params["B"] == B if B is not None else -1.0 <= cond.params["B"] <= 1.0
        assert all(-2.0 <= g <= 2.0 for g in problem.dirichlet.values())
        assert 0.5 <= problem.lam <= 2.0
