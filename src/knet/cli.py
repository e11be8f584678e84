"""Command-line entry point.

Subcommands: solve, oracle, sweep-epsilon, convergence-table, verify.
Configs are JSON (network / problem / grid / solver / analysis sections, or
a catalog entry name); solution profiles and tables are CSV; every run
writes a manifest listing its outputs.  Exit codes: 0 success, 1 solver
non-convergence, 2 verification FAIL, 3 malformed input.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .analysis import diagnostics_report
from .catalog import entry_by_name
from .discretization import Grid, GridFunction, assemble, resolve_scheme
from .errors import KnetError
from .network import Network, network_from_json
from .oracle import observed_orders, reference_for, sup_error
from .problem import NetworkProblem, problem_from_json, validate_problem
from .solver import SolveConfig, solve_system, vanishing_viscosity

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_VERIFY_FAIL = 2
EXIT_BAD_INPUT = 3

CSV_SCHEMAS = {
    "solution": "edge_id,t,u",
    "sweep": "eps,sup_full,sup_interior,converged",
    "convergence": "h,sup_error,observed_order,iterations,wall_time",
}


def _fail(code: int, message: str) -> int:
    print(f"code:{code} {message}", file=sys.stderr)
    return code


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-knet-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def parse_epsilon_schedule(spec: str):
    """'g:start:ratio:count' -> geometric viscosity schedule."""
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] != "g":
        raise ValueError(f"bad schedule {spec!r}, expected g:start:ratio:count")
    start, ratio, count = float(parts[1]), float(parts[2]), int(parts[3])
    if start <= 0 or not 0 < ratio < 1 or count < 1:
        raise ValueError(f"bad schedule parameters in {spec!r}")
    return [start * ratio ** k for k in range(count)]


def solution_csv_text(u: GridFunction) -> str:
    buf = io.StringIO()
    buf.write(CSV_SCHEMAS["solution"] + "\n")
    grid = u.grid
    for e in grid.network.edges:
        vals = u.on_edge(e.id)
        for t, v in zip(grid.coords[e.id], vals):
            buf.write(f"{e.id},{t:.17g},{v:.17g}\n")
    return buf.getvalue()


def read_solution_csv(path: str, network: Network) -> GridFunction:
    per_edge = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            per_edge.setdefault(int(row["edge_id"]), []).append(
                (float(row["t"]), float(row["u"])))
    grid = Grid(network, {eid: len(rows) for eid, rows in per_edge.items()})
    values = np.full(grid.total_nodes, np.nan)
    for eid, rows in per_edge.items():
        rows.sort()
        values[grid.node_ids[eid]] = [v for _, v in rows]
    return GridFunction(grid, values)


# ---------------------------------------------------------------------------
# Config loading


def load_config(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def problem_from_config(cfg: dict) -> NetworkProblem:
    if "catalog" in cfg:
        return entry_by_name(cfg["catalog"]).problem
    network = network_from_json(cfg["network"])
    return problem_from_json(cfg["problem"], network)


SOLVER_OPTIONS = ("epsilon", "junction_mode", "boundary_mode", "lf_theta", "tol",
                  "max_sweeps", "method")


def merge_flags(cfg: dict, args) -> dict:
    grid = dict(cfg.get("grid", {}))
    solver = dict(cfg.get("solver", {}))
    if getattr(args, "nodes_per_edge", None) is not None:
        grid["nodes_per_edge"] = args.nodes_per_edge
    for name in SOLVER_OPTIONS:
        v = getattr(args, name, None)
        if v is not None:
            solver[name] = v
    return {"grid": grid, "solver": solver,
            "analysis": dict(cfg.get("analysis", {}))}


def _solver_config(solver: dict) -> SolveConfig:
    return SolveConfig(
        method=solver.get("method", "hybrid"),
        tol=float(solver.get("tol", 1e-10)),
        max_sweeps=int(solver.get("max_sweeps", 2000)),
    )


def _scheme(solver: dict, problem: NetworkProblem, schedule=()) -> dict:
    """A solver section's scheme options as assemble() keywords, checked
    against the problem at its epsilon and every epsilon of a schedule;
    a key outside SOLVER_OPTIONS is rejected."""
    unknown = sorted(set(solver) - set(SOLVER_OPTIONS))
    if unknown:
        raise ValueError("unknown solver option " + ", ".join(map(repr, unknown)))
    theta = solver.get("lf_theta", "auto")
    scheme = {"eps": float(solver.get("epsilon", 0.0)),
              "junction_mode": solver.get("junction_mode", "kirchhoff"),
              "boundary_mode": solver.get("boundary_mode", "auto"),
              "theta": theta if theta == "auto" else float(theta)}
    for eps in (scheme["eps"], *schedule):
        resolve_scheme(problem, **dict(scheme, eps=eps))
    return scheme


def make_manifest(subcommand: str, cfg: dict, merged: dict, outputs,
                  stages, deterministic: bool) -> str:
    if deterministic:
        # leave out what differs between reruns: stage wall times here,
        # the creation time below
        stages = [{k: v for k, v in st.items() if k != "wall_time"}
                  for st in stages]
    doc = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "config": cfg,
        "effective": merged,
        "deterministic": deterministic,
        "csv_schemas": CSV_SCHEMAS,
        "outputs": list(outputs),
        "stages": list(stages),
    }
    if not deterministic:
        doc["created"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve(args) -> int:
    try:
        cfg = load_config(args.config)
        problem = problem_from_config(cfg)
        merged = merge_flags(cfg, args)
        scheme = _scheme(merged["solver"], problem)
    except (OSError, KeyError, ValueError, KnetError, json.JSONDecodeError) as exc:
        return _fail(EXIT_BAD_INPUT, f"bad input: {exc}")
    nodes = int(merged["grid"].get("nodes_per_edge", 41))
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    stages = []

    report = validate_problem(problem)
    stages.append({"stage": "validate", "ok": report.ok,
                   "failures": [e.name for e in report.failures()]})

    grid = Grid(problem.network, nodes)
    try:
        system = assemble(problem, grid, **scheme)
    except KnetError as exc:
        return _fail(EXIT_BAD_INPUT, f"assembly failed: {exc}")
    t0 = time.perf_counter()
    result = solve_system(system, _solver_config(merged["solver"]))
    stages.append({"stage": "solve", "converged": result.converged,
                   "residual_norm": result.residual_norm,
                   "iterations": result.iterations, "method": result.method,
                   "wall_time": time.perf_counter() - t0})

    sol_path = os.path.join(outdir, "solution.csv")
    _atomic_write(sol_path, solution_csv_text(result.u))
    outputs = [sol_path]
    man_path = os.path.join(outdir, "manifest.json")
    _atomic_write(man_path, make_manifest("solve", cfg, merged,
                                          outputs + [man_path], stages,
                                          args.deterministic))
    if not result.converged:
        return _fail(EXIT_NO_CONVERGENCE,
                     f"solver did not converge: residual {result.residual_norm:g}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        cfg = load_config(args.config)
        problem = problem_from_config(cfg)
        merged = merge_flags(cfg, args)
        scheme = _scheme(merged["solver"], problem)
    except (OSError, KeyError, ValueError, KnetError, json.JSONDecodeError) as exc:
        return _fail(EXIT_BAD_INPUT, f"bad input: {exc}")
    nodes = int(merged["grid"].get("nodes_per_edge", 41))
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    try:
        ref = reference_for(problem, nodes, **scheme)
    except KnetError as exc:
        return _fail(EXIT_BAD_INPUT, f"oracle failed: {exc}")
    restricted = (ref.u if ref.method == "direct-linear"
                  else _restrict(ref.u, Grid(problem.network, nodes)))
    sol_path = os.path.join(outdir, "oracle.csv")
    _atomic_write(sol_path, solution_csv_text(restricted))
    man_path = os.path.join(outdir, "manifest.json")
    stages = [{"stage": "oracle", "method": ref.method, "meta": ref.meta}]
    _atomic_write(man_path, make_manifest("oracle", cfg, merged,
                                          [sol_path, man_path], stages,
                                          args.deterministic))
    return EXIT_OK


def _restrict(fine: GridFunction, coarse: Grid) -> GridFunction:
    values = np.empty(coarse.total_nodes)
    for e in coarse.network.edges:
        values[coarse.node_ids[e.id]] = fine.grid.interpolate(
            fine.values, e.id, coarse.coords[e.id])
    return GridFunction(coarse, values)


def cmd_sweep_epsilon(args) -> int:
    try:
        cfg = load_config(args.config)
        problem = problem_from_config(cfg)
        merged = merge_flags(cfg, args)
        schedule = parse_epsilon_schedule(args.epsilon_schedule)
        scheme = _scheme(merged["solver"], problem, schedule)
    except (OSError, KeyError, ValueError, KnetError, json.JSONDecodeError) as exc:
        return _fail(EXIT_BAD_INPUT, f"bad input: {exc}")
    del scheme["eps"]  # the schedule sets the viscosity
    nodes = int(merged["grid"].get("nodes_per_edge", 41))
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    try:
        sweep = vanishing_viscosity(problem, nodes, schedule, **scheme,
                                    config=_solver_config(merged["solver"]))
    except KnetError as exc:
        return _fail(EXIT_BAD_INPUT, f"sweep failed: {exc}")

    delta = sweep.deltas[1] if len(sweep.deltas) > 1 else sweep.deltas[0]
    buf = io.StringIO()
    buf.write(CSV_SCHEMAS["sweep"] + "\n")
    for s in sweep.steps:
        buf.write(f"{s.eps:.17g},{s.sup_diff_full:.17g},"
                  f"{s.sup_diff_interior[delta]:.17g},{int(s.result.converged)}\n")
    table_path = os.path.join(outdir, "sweep.csv")
    _atomic_write(table_path, buf.getvalue())
    base_path = os.path.join(outdir, "solution_eps0.csv")
    _atomic_write(base_path, solution_csv_text(sweep.base.u))
    man_path = os.path.join(outdir, "manifest.json")
    stages = [{"stage": "sweep", "delta": delta,
               "all_converged": all(s.result.converged for s in sweep.steps)}]
    _atomic_write(man_path, make_manifest("sweep-epsilon", cfg, merged,
                                          [table_path, base_path, man_path],
                                          stages, args.deterministic))
    if not (sweep.base.converged and all(s.result.converged for s in sweep.steps)):
        return _fail(EXIT_NO_CONVERGENCE, "a viscosity step did not converge")
    return EXIT_OK


def cmd_convergence_table(args) -> int:
    try:
        cfg = load_config(args.config)
        problem = problem_from_config(cfg)
        merged = merge_flags(cfg, args)
        resolutions = [int(r) for r in args.resolutions.split(",")]
        if len(resolutions) < 3:
            raise ValueError("need at least 3 resolutions")
        scheme = _scheme(merged["solver"], problem)
    except (OSError, KeyError, ValueError, KnetError, json.JSONDecodeError) as exc:
        return _fail(EXIT_BAD_INPUT, f"bad input: {exc}")
    config = _solver_config(merged["solver"])
    outdir = args.output_dir
    os.makedirs(outdir, exist_ok=True)
    exact = entry_by_name(cfg["catalog"]).exact if "catalog" in cfg else None

    def one(nodes):
        grid = Grid(problem.network, nodes)
        system = assemble(problem, grid, **scheme)
        t0 = time.perf_counter()
        res = solve_system(system, config)
        wall = time.perf_counter() - t0
        ref = reference_for(problem, nodes, exact, **scheme)
        return (grid.h, sup_error(res.u, ref.u), res.iterations, wall,
                res.converged, res.u.values, ref.method)

    hs, errs, its, walls, convs, solutions, methods = zip(*map(one, resolutions))
    orders = observed_orders(hs, errs, solutions, config.tol)
    buf = io.StringIO()
    buf.write(CSV_SCHEMAS["convergence"] + "\n")
    for h, err, order, it, wall in zip(hs, errs, orders, its, walls):
        buf.write(f"{h:.17g},{err:.17g},{order:.6g},{it},{wall:.6g}\n")
    table_path = os.path.join(outdir, "convergence.csv")
    _atomic_write(table_path, buf.getvalue())
    man_path = os.path.join(outdir, "manifest.json")
    stages = [{"stage": "convergence", "resolutions": resolutions,
               "references": list(methods), "all_converged": all(convs)}]
    _atomic_write(man_path, make_manifest("convergence-table", cfg, merged,
                                          [table_path, man_path], stages,
                                          args.deterministic))
    if not all(convs):
        return _fail(EXIT_NO_CONVERGENCE, "a resolution did not converge")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        cfg = load_config(args.problem)
        problem = problem_from_config(cfg)
        u = read_solution_csv(args.solution, problem.network)
        if not u.is_valid():
            raise ValueError("solution CSV has missing or non-finite values")
        scheme = _scheme(cfg.get("solver", {}), problem)
    except (OSError, KeyError, ValueError, KnetError, json.JSONDecodeError) as exc:
        return _fail(EXIT_BAD_INPUT, f"bad input: {exc}")
    try:
        system = assemble(problem, u.grid, **scheme)
    except KnetError:
        system = None
    report = diagnostics_report(problem, u, system=system,
                                window=int(cfg.get("analysis", {}).get("window", 3)))
    _atomic_write(args.report,
                  json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    if not report.ok:
        return _fail(EXIT_VERIFY_FAIL, "verification produced FAIL verdicts")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _add_common(p):
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=".")
    p.add_argument("--nodes-per-edge", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--junction-mode", choices=["kirchhoff", "minmax"], default=None)
    p.add_argument("--boundary-mode", choices=["auto", "strong", "relaxed"], default=None)
    p.add_argument("--lf-theta", default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-sweeps", type=int, default=None)
    p.add_argument("--method", choices=["sweep", "newton", "hybrid"], default=None)
    p.add_argument("--deterministic", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knet",
        description="Solver and verifier for Hamilton-Jacobi equations on "
                    "metric networks with vertex couplings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="solve a problem and write the profile CSV")
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="independent reference solve, same CSV schema")
    _add_common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep-epsilon", help="vanishing-viscosity continuation")
    _add_common(p)
    p.add_argument("--epsilon-schedule", default="g:1:0.5:9",
                   help="g:start:ratio:count")
    p.set_defaults(func=cmd_sweep_epsilon)

    p = sub.add_parser("convergence-table", help="errors and orders across resolutions")
    _add_common(p)
    p.add_argument("--resolutions", default="21,41,81")
    p.set_defaults(func=cmd_convergence_table)

    p = sub.add_parser("verify", help="diagnostics report on a solution CSV")
    p.add_argument("--solution", required=True)
    p.add_argument("--problem", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; remap to the malformed-input code
        if exc.code not in (0, None):
            return EXIT_BAD_INPUT
        raise
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
