"""Workload definitions for the knet benchmark.

A workload is a list of operations.  Each operation is one call of the
public CLI entry ``knet.cli.main(argv)`` plus a correctness gate that reads
the operation's outputs afterwards, outside the timed region.  ``prepare``
writes every config the operations read; the workload seed only changes the
boundary data of ``solve-fine``'s seeded linear problem, which the program
receives as a plain JSON config.  Every operation is expected to pass its
gate; any failure makes the run incorrect.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("solve-fine", "continuation", "ladder")

SOLVE_FINE_CAP = ["--max-sweeps", "20"]


@dataclass
class Outcome:
    """Gate verdict for one operation."""

    ok: bool
    detail: str = ""


@dataclass
class Operation:
    op_id: str
    argv: list
    gate: Callable  # exit code -> Outcome


# ---------------------------------------------------------------------------
# Serialising problems into the CLI's JSON schema


_CONSTANT = re.compile(r"constant\(([^)]+)\)")


def problem_to_json(problem) -> dict:
    """Config document for a problem with advection Hamiltonians, constant
    diffusions and built-in couplings, as ``seeded_linear`` makes them.
    ``check_roundtrip`` confirms the document rebuilds the same problem."""
    net = problem.network
    edges = {}
    for e in net.edges:
        b, f_fn = problem.hamiltonians[e.id].affine
        value = _CONSTANT.fullmatch(problem.diffusions[e.id].name).group(1)
        edges[str(e.id)] = {
            "hamiltonian": {"type": "advection", "b": float(b),
                            "f": float(f_fn(0.0))},
            "diffusion": {"type": "constant", "value": float(value)},
        }
    kirchhoff = {}
    for v in net.interior_vertices:
        cond = problem.kirchhoff[v.id]
        kirchhoff[str(v.id)] = {"family": cond.family, **cond.params}
    return {
        "network": {
            "vertices": [v.id for v in net.vertices],
            "edges": [{"id": e.id, "from": e.tail, "to": e.head,
                       "length": e.length} for e in net.edges],
        },
        "problem": {
            "lambda": problem.lam,
            "edges": edges,
            "kirchhoff": kirchhoff,
            "dirichlet": {str(k): float(v) for k, v in problem.dirichlet.items()},
        },
    }


def check_roundtrip(problem, doc: dict):
    """Raise if the JSON document does not rebuild the drawn problem."""
    from knet.network import network_from_json
    from knet.problem import problem_from_json

    net = network_from_json(doc["network"])
    back = problem_from_json(doc["problem"], net)
    if back.lam != problem.lam or back.dirichlet != problem.dirichlet:
        raise ValueError("serialised problem differs in lambda or data")
    ps = np.linspace(-3.0, 3.0, 13)
    for e in net.edges:
        x = np.linspace(0.0, e.length, 7)
        for xi in x:
            if not np.array_equal(problem.hamiltonians[e.id](xi, ps),
                                  back.hamiltonians[e.id](xi, ps)):
                raise ValueError(f"edge {e.id}: Hamiltonian differs")
        if not np.array_equal(problem.diffusions[e.id].a(x),
                              back.diffusions[e.id].a(x)):
            raise ValueError(f"edge {e.id}: diffusion differs")
    rng = np.random.default_rng(0)
    for v in net.interior_vertices:
        for _ in range(5):
            r, p = rng.normal(), rng.normal(size=net.degree(v.id))
            if problem.kirchhoff[v.id](r, p) != back.kirchhoff[v.id](r, p):
                raise ValueError(f"vertex {v.id}: coupling differs")


# ---------------------------------------------------------------------------
# Output readers used by the gates (plain numpy/csv, no knet code)


def read_profile(path: str) -> dict:
    """edge id -> values ordered by t, from a solution CSV."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    out = {}
    for eid in np.unique(data[:, 0]).astype(int):
        rows = data[data[:, 0] == eid]
        out[int(eid)] = rows[np.argsort(rows[:, 1]), 2]
    return out


def read_csv_column(path: str, name: str) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, header.index(name)]


# ---------------------------------------------------------------------------
# Gates


def solve_gate(check=None):
    """Exit 0, then ``check()`` if given."""
    def gate(code):
        if code != 0:
            return Outcome(False, f"exit {code}")
        return check() if check is not None else Outcome(True)
    return gate


def verify_gate(report_path: str):
    """verify must exit 0 with ``ok: true``."""
    def gate(code):
        if code != 0:
            return Outcome(False, f"exit {code}")
        with open(report_path) as fh:
            ok = json.load(fh)["ok"]
        return Outcome(ok, "" if ok else "report ok=false, exit 0")
    return gate


def close_to(path: str, reference: Callable, tol: float, label: str):
    """Check that the solution CSV at ``path`` is within ``tol`` of the
    profile ``reference()`` returns (computed once, on first use)."""
    cache = []

    def check():
        if not cache:
            cache.append(reference())
        got = read_profile(path)
        err = max(float(np.max(np.abs(got[eid] - vals)))
                  for eid, vals in cache[0].items())
        return Outcome(err <= tol, f"{label} error {err:.3g} (tol {tol:g})")
    return check


def sweep_gate(table_path: str, h: float):
    """Criterion 7's rule: sup_interior strictly decreasing along the
    schedule, final value <= 5h."""
    def gate(code):
        if code != 0:
            return Outcome(False, f"exit {code}")
        sups = read_csv_column(table_path, "sup_interior")
        decreasing = bool(np.all(np.diff(sups) < 0.0))
        ok = decreasing and sups[-1] <= 5.0 * h
        return Outcome(ok, f"sup_interior {sups[0]:.3g} -> {sups[-1]:.3g}"
                           f" decreasing={decreasing} 5h={5 * h:.3g}")
    return gate


def order_gate(table_path: str, min_order: float):
    def gate(code):
        if code != 0:
            return Outcome(False, f"exit {code}")
        orders = read_csv_column(table_path, "observed_order")
        orders = orders[np.isfinite(orders)]
        ok = orders.size > 0 and bool(np.all(orders >= min_order))
        return Outcome(ok, f"orders {np.round(orders, 3).tolist()} "
                           f">= {min_order}")
    return gate


# ---------------------------------------------------------------------------
# Workloads


def _write_json(path: str, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _catalog_config(workdir: str, name: str) -> str:
    path = os.path.join(workdir, f"{name}.json")
    _write_json(path, {"catalog": name})
    return path


def _solve_and_verify(workdir, op_id, cfg, nodes, solve_gate_fn):
    out = os.path.join(workdir, op_id)
    solve = Operation(op_id + ":solve",
                      ["solve", "--config", cfg, "--output-dir", out,
                       "--nodes-per-edge", str(nodes)] + SOLVE_FINE_CAP,
                      solve_gate_fn)
    report = os.path.join(out, "report.json")
    verify = Operation(op_id + ":verify",
                       ["verify", "--solution", os.path.join(out, "solution.csv"),
                        "--problem", cfg, "--report", report],
                       verify_gate(report))
    return [solve, verify]


def _exact_profile(entry, nodes):
    from knet.discretization import Grid

    grid = Grid(entry.problem.network, nodes)
    return {e.id: np.asarray(entry.exact(e.id, grid.coords[e.id]), dtype=float)
            for e in entry.problem.network.edges}


def _direct_profile(problem, nodes):
    from knet.oracle import direct_linear_solve

    u = direct_linear_solve(problem, nodes).u
    return {e.id: u.on_edge(e.id) for e in problem.network.edges}


def seeded_linear(seed: int):
    """``star3_linear`` with boundary data drawn from the seed.  The problem
    is linear, so the data change the solution but not the solver's work."""
    from knet.catalog import star3_linear
    from knet.problem import NetworkProblem

    base = star3_linear().problem
    rng = np.random.default_rng(seed)
    data = {v: float(rng.uniform(-1.0, 1.0)) for v in sorted(base.dirichlet)}
    return NetworkProblem(base.network, base.lam, base.hamiltonians,
                          base.diffusions, base.kirchhoff, data)


# Grid sizes are small enough that one operation takes well under a second,
# so a run repeats each operation 12-21 times and run_s, a median over those
# repeats, is steady on a shared machine (see NOTES.md).
SOLVE_SIZES = {"star3_eikonal": 321, "graph5_constant": 161,
               "star3_linear": 161, "seeded_linear": 161}


def _solve_fine(workdir: str, seed: int):
    from knet.catalog import entry_by_name

    ops = []
    n = SOLVE_SIZES["star3_eikonal"]
    cfg = _catalog_config(workdir, "star3_eikonal")
    ops += _solve_and_verify(workdir, f"star3_eikonal-{n}", cfg, n,
                             solve_gate())

    n = SOLVE_SIZES["graph5_constant"]
    graph5 = entry_by_name("graph5_constant")
    cfg = _catalog_config(workdir, "graph5_constant")
    path = os.path.join(workdir, f"graph5_constant-{n}", "solution.csv")
    ops += _solve_and_verify(
        workdir, f"graph5_constant-{n}", cfg, n,
        solve_gate(check=close_to(path, lambda: _exact_profile(graph5, n),
                                  1e-8, "graph5_constant exact")))

    n = SOLVE_SIZES["star3_linear"]
    linear = entry_by_name("star3_linear").problem
    cfg = _catalog_config(workdir, "star3_linear")
    path = os.path.join(workdir, f"star3_linear-{n}", "solution.csv")
    ops += _solve_and_verify(
        workdir, f"star3_linear-{n}", cfg, n,
        solve_gate(check=close_to(path, lambda: _direct_profile(linear, n),
                                  1e-8, "star3_linear direct")))

    # The oracle's one-sided junction slope agrees with the scheme's
    # junction row only to O(h^2).  With the catalog's data above the two
    # differ by ~1e-9 at n=161; with seeded boundary data by up to ~1e-6,
    # so the seeded solve is held to h^2 (unit edges).
    m = SOLVE_SIZES["seeded_linear"]
    problem = seeded_linear(seed)
    doc = problem_to_json(problem)
    check_roundtrip(problem, doc)
    cfg = os.path.join(workdir, f"star3_linear-seed{seed}.json")
    _write_json(cfg, doc)
    op_id = f"star3_linear-seed{seed}-{m}"
    path = os.path.join(workdir, op_id, "solution.csv")
    ops += _solve_and_verify(
        workdir, op_id, cfg, m,
        solve_gate(check=close_to(path, lambda: _direct_profile(problem, m),
                                  (m - 1) ** -2.0,
                                  "seeded star3_linear direct")))
    return ops


CONTINUATION = (("star3_eikonal", 81), ("star3_mixed", 41))


def _continuation(workdir: str, seed: int):
    from knet.catalog import entry_by_name

    ops = []
    for name, nodes in CONTINUATION:
        cfg = _catalog_config(workdir, name)
        out = os.path.join(workdir, f"{name}-{nodes}")
        h = max(e.length for e in entry_by_name(name).problem.network.edges) \
            / (nodes - 1)
        ops.append(Operation(
            f"{name}-{nodes}:sweep-epsilon",
            ["sweep-epsilon", "--config", cfg, "--output-dir", out,
             "--nodes-per-edge", str(nodes), "--epsilon-schedule", "g:1:0.5:9"],
            sweep_gate(os.path.join(out, "sweep.csv"), h)))
    return ops


LADDER = (("star3_eikonal", "21,41,81", 0.8),
          ("star3_mixed", "6,11,21", 0.8),
          ("star2_linear", "41,81,161", 1.8))


def _ladder(workdir: str, seed: int):
    ops = []
    for name, resolutions, min_order in LADDER:
        cfg = _catalog_config(workdir, name)
        out = os.path.join(workdir, f"{name}-ladder")
        ops.append(Operation(
            f"{name}-{resolutions}:convergence-table",
            ["convergence-table", "--config", cfg, "--output-dir", out,
             "--resolutions", resolutions],
            order_gate(os.path.join(out, "convergence.csv"), min_order)))
    return ops


def prepare(workload: str, seed: int, workdir: str):
    """Build the workload's problems, write its configs and return its
    operations in execution order."""
    os.makedirs(workdir, exist_ok=True)
    build = {"solve-fine": _solve_fine, "continuation": _continuation,
             "ladder": _ladder}[workload]
    return build(workdir, seed)
