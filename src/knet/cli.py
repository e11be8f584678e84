"""Command-line entry point.

Subcommands: solve, oracle, sweep-epsilon, convergence-table, verify.
Configs are JSON (network / problem / grid / solver / analysis sections, or
a catalog entry name); solution profiles and tables are CSV, numbers as
%.17g, a profile formatted edge by edge; every run writes a manifest
listing its outputs.  main() alone turns an exception into an exit code: 0
success; 1 a solve that did not converge, with its outputs, its manifest
and the solver's reason; 2 verify FAIL verdicts; 3 bad input, a KnetError
(failed certification too) or an OSError (an output that cannot be
written).  No input ends in a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import secrets
import stat
import sys
import time

import numpy as np

from . import __version__
from .analysis import check_window, diagnostics_report
from .catalog import CatalogEntry, entry_by_name
from .discretization import Grid, GridFunction, assemble, check_nodes, check_scheme
from .errors import KnetError
from .network import Network, network_from_json
from .oracle import REFINE, check_resolutions, convergence_table, reference_for
from .problem import problem_from_json, validate_problem
from .solver import METHODS, SolveConfig, solve_system, vanishing_viscosity

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 1
EXIT_VERIFY_FAIL = 2
EXIT_BAD_INPUT = 3

CSV_SCHEMAS = {
    "solution": "edge_id,t,u",
    "sweep": "eps,sup_full,sup_interior,converged",
    "convergence": "h,sup_error,observed_order,iterations",
}


def _fail(code: int, message: str) -> int:
    print(f"code:{code} {message}", file=sys.stderr)
    return code


def _atomic_write(path: str, text: str):
    """Write text (UTF-8) to path by atomic replacement.

    The bytes go to a temp file in the same directory, which os.replace
    then renames over path: a reader sees the complete old file or the
    complete new one, never a partial file.  A write that fails leaves the
    old file and no temp file.  Nothing is fsynced, so nothing is promised
    about what survives a power loss.

    The temp file gets the mode open(path, "w") would give a new path,
    0666 less the umask, or the mode of the file it replaces.

    The temp file is preallocated to its final length before the write.
    ext4 (auto_da_alloc) flushes a file's delayed-allocation blocks to disk
    when it is renamed over an existing file, which costs tens of ms per
    rewrite; preallocated blocks are not delayed, so the rename flushes
    nothing.  Preallocation is only a hint: it is skipped where
    os.posix_fallocate is missing or fails.
    """
    data = text.encode()
    d = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(d, f".tmp-knet-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with contextlib.suppress(FileNotFoundError):
            os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
        with os.fdopen(fd, "wb") as fh:
            if data and hasattr(os, "posix_fallocate"):
                try:
                    os.posix_fallocate(fd, 0, len(data))
                except OSError:
                    pass
            fh.write(data)
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
    if not 0 < start < np.inf or not 0 < ratio < 1 or count < 1:
        raise ValueError(f"bad schedule parameters in {spec!r}")
    return [start * ratio ** k for k in range(count)]


def solution_csv_text(u: GridFunction) -> str:
    """The solution CSV of u: a row "edge_id,t,u" per node of each edge, in
    edge order, numbers as %.17g.  Each edge's rows are one % operation over
    its interleaved (t, u) values."""
    grid = u.grid
    parts = [CSV_SCHEMAS["solution"] + "\n"]
    for e in grid.network.edges:
        tu = np.column_stack((grid.coords[e.id], u.on_edge(e.id)))
        parts.append(f"{e.id},%.17g,%.17g\n" * len(tu) % tuple(tu.ravel().tolist()))
    return "".join(parts)


def read_solution_csv(path: str, network: Network) -> GridFunction:
    """A solution CSV (schema CSV_SCHEMAS["solution"]) as a GridFunction on
    the grid its rows describe: an edge's row count is its node count.
    Every network edge needs rows and no other edge may appear; an edge's
    t column, sorted, must be its grid coordinates to 1e-12 x the edge
    length, and edges must agree at a shared vertex; every number must be
    finite.  Otherwise ValueError, naming the edges and any vertex."""
    with open(path) as fh:
        header = fh.readline().strip()
        body = fh.read()
    if header != CSV_SCHEMAS["solution"]:
        raise ValueError(f"solution CSV header is {header!r}, "
                         f"expected {CSV_SCHEMAS['solution']!r}")
    if not body.strip():
        raise ValueError("solution CSV has no rows")
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.shape[1] != 3:
        raise ValueError(f"solution CSV rows have {data.shape[1]} columns, "
                         "expected 3")
    if not np.all(np.isfinite(data)):
        raise ValueError("solution CSV has non-finite values")
    eids = data[:, 0]
    unknown = set(eids.tolist()) - {e.id for e in network.edges}
    if unknown:
        raise ValueError(f"solution CSV has rows for edge {min(unknown):g}, "
                         "which is not in the network")
    per_edge = {}
    for e in network.edges:
        rows = data[eids == e.id]
        if len(rows) == 0:
            raise ValueError(f"solution CSV has no rows for edge {e.id}")
        per_edge[e.id] = rows[np.argsort(rows[:, 1])]
    grid = Grid(network, {eid: len(rows) for eid, rows in per_edge.items()})
    values = np.full(grid.total_nodes, np.nan)
    at_vertex = {}  # vertex id -> (edge id, value) of the first end row read
    for e in network.edges:
        rows = per_edge[e.id]
        err = np.max(np.abs(rows[:, 1] - grid.coords[e.id]), initial=0.0)
        if not err <= 1e-12 * e.length:
            raise ValueError(f"solution CSV edge {e.id}: t column is not the "
                             f"uniform grid of {len(rows)} nodes on [0, "
                             f"{e.length:g}] (off by {err:.3g})")
        values[grid.node_ids[e.id]] = rows[:, 2]
        for vid, u in ((e.tail, rows[0, 2]), (e.head, rows[-1, 2])):
            eid, first = at_vertex.setdefault(vid, (e.id, u))
            if first != u:
                raise ValueError(f"solution CSV edges {eid} and {e.id} disagree "
                                 f"at vertex {vid}: u = {first:.17g} and {u:.17g}")
    return GridFunction(grid, values)


# ---------------------------------------------------------------------------
# Config loading


def _finite(literal: str) -> float:
    """A config number as a float; ValueError for NaN, Infinity or 1e400,
    which Python's json reads although standard JSON has no such value."""
    value = float(literal)
    if not np.isfinite(value):
        raise ValueError(f"non-finite number {literal} in the config")
    return value


def integer(value) -> int:
    """value as an int, if integral: int() alone truncates 41.9 to 41.  A
    flag's bad value reads "invalid integer value" by this name."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value}")
    return int(value)


# Every key a config may hold: each section's, with the conversion of its
# value, which a grid or solver key's flag takes too, and the top level's.
SECTIONS = {"grid": {"nodes_per_edge": integer},
            "solver": {"epsilon": float, "tol": float, "max_sweeps": integer, "method": str},
            "analysis": {"window": integer}}
TOP_LEVEL = ("catalog", "network", "problem", *SECTIONS)
CHOICES = {"method": METHODS}


def _check_keys(doc, keys, what: str) -> None:
    """Raise ValueError naming each key of doc outside keys."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown {what} " + ", ".join(map(repr, unknown)))


def _options(solver: dict):
    """A solver section's viscosity as assemble()'s keyword and its solve
    options as a SolveConfig; one it leaves out keeps the library default."""
    return ({"eps": solver["epsilon"]} if "epsilon" in solver else {},
            SolveConfig(**{k: solver[k] for k in ("tol", "max_sweeps", "method") if k in solver}))


def _inputs(args, *parsers):
    """The config at args.config, read in one pass with each flag set over
    its key: its problem, its catalog entry's exact solution (or None), the
    options the subcommand reads (its parser's) as _options, nodes per edge,
    then parse(args, problem) for each of parsers.  One config may serve
    every subcommand, so each value is checked, by what reads it (a boolean
    by no key), before the output directory (verify's: the report's) is
    made; raises KnetError."""
    try:
        with open(args.config) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_constant=_finite)
        _check_keys(cfg, TOP_LEVEL, "config key")
        entry = (entry_by_name(cfg["catalog"]) if "catalog" in cfg else CatalogEntry(
            "config", problem_from_json(cfg["problem"], network_from_json(cfg["network"]))))
        whole = {}
        for name, convert in SECTIONS.items():
            section = dict(cfg.get(name, {}))
            _check_keys(section, convert, f"{name} option")
            for k, v in section.items():
                if isinstance(v, bool):  # int(True) is 1, float(True) 1.0
                    raise ValueError(f"{name} option {k!r} is a boolean, {v}")
            whole[name] = {k: convert[k](v) for k, v in section.items()}
            whole[name].update((k, getattr(args, k)) for k in convert
                               if getattr(args, k, None) is not None)
        check_scheme(**_options(whole["solver"])[0])  # SolveConfig checks the rest
        nodes = whole["grid"].get("nodes_per_edge", 41)
        check_nodes(nodes)
        if "window" in whole["analysis"]:
            check_window(whole["analysis"]["window"])
        read = {name: {k: v for k, v in opts.items() if hasattr(args, k)}
                for name, opts in whole.items()}
        extra = [parse(args, entry.problem) for parse in parsers]
        os.makedirs(args.output_dir if hasattr(args, "output_dir")
                    else os.path.dirname(os.path.abspath(args.report)), exist_ok=True)
    except (OSError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise KnetError(exc) from exc  # JSON: ValueError, or float() of a huge int
    return (cfg, entry.problem, entry.exact, read, *_options(read["solver"]), nodes, *extra)


def write_manifest(args, subcommand: str, cfg: dict, read: dict, outputs,
                   stages) -> None:
    """Write args.output_dir/manifest.json: outputs and itself, and as
    effective the grid and solver options the run read."""
    path = os.path.join(args.output_dir, "manifest.json")
    if args.deterministic:
        # leave out what differs between reruns: stage wall times here,
        # the creation time below
        stages = [{k: v for k, v in st.items() if k != "wall_time"}
                  for st in stages]
    doc = {
        "tool_version": __version__,
        "subcommand": subcommand,
        "config": cfg,
        "effective": {name: read[name] for name in ("grid", "solver")},
        "deterministic": args.deterministic,
        "csv_schemas": CSV_SCHEMAS,
        "outputs": list(outputs) + [path],
        "stages": list(stages),
    }
    if not args.deterministic:
        doc["created"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_solve(args) -> int:
    cfg, problem, _, read, scheme, config, nodes = _inputs(args)
    # stages[0] and [1] are validate and solve; later stages are appended
    stages = []

    t0 = time.perf_counter()
    report = validate_problem(problem)
    stages.append({"stage": "validate", "ok": report.ok,
                   "failures": [e.name for e in report.failures()],
                   "wall_time": time.perf_counter() - t0})

    t0 = time.perf_counter()
    system = assemble(problem, Grid(problem.network, nodes), **scheme)
    assemble_stage = {"stage": "assemble", "wall_time": time.perf_counter() - t0}
    t0 = time.perf_counter()
    result = solve_system(system, config)
    stages.append({"stage": "solve", "converged": result.converged,
                   "residual_norm": result.residual_norm,
                   "iterations": result.iterations, "method": result.method,
                   "message": result.message,
                   "wall_time": time.perf_counter() - t0})
    stages.append(assemble_stage)

    sol_path = os.path.join(args.output_dir, "solution.csv")
    t0 = time.perf_counter()
    _atomic_write(sol_path, solution_csv_text(result.u))
    stages.append({"stage": "write", "wall_time": time.perf_counter() - t0})
    write_manifest(args, "solve", cfg, read, [sol_path], stages)
    if not result.converged:
        return _fail(EXIT_NO_CONVERGENCE,
                     f"solver did not converge: {result.message}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    cfg, problem, _, read, scheme, _, nodes = _inputs(args)
    ref = reference_for(problem, nodes, **scheme)
    sol_path = os.path.join(args.output_dir, "oracle.csv")
    _atomic_write(sol_path, solution_csv_text(ref.u.on_grid(Grid(problem.network, nodes))))
    write_manifest(args, "oracle", cfg, read, [sol_path],
                   [{"stage": "oracle", "method": ref.method, "meta": ref.meta}])
    if not ref.meta.get("converged", True):
        return _fail(EXIT_NO_CONVERGENCE, f"fine-grid reference at {ref.grid.level_name} "
                     f"did not converge: {ref.meta.get('message', '')}")
    return EXIT_OK


def cmd_sweep_epsilon(args) -> int:
    cfg, problem, _, read, scheme, config, nodes, schedule = _inputs(
        args, lambda a, _: parse_epsilon_schedule(a.epsilon_schedule))
    read["solver"]["epsilon_schedule"] = schedule
    sweep = vanishing_viscosity(problem, nodes, schedule, config=config, **scheme)

    delta = sweep.deltas[1] if len(sweep.deltas) > 1 else sweep.deltas[0]
    buf = io.StringIO()
    buf.write(CSV_SCHEMAS["sweep"] + "\n")
    for s in sweep.steps:
        buf.write(f"{s.eps:.17g},{s.sup_diff_full:.17g},"
                  f"{s.sup_diff_interior[delta]:.17g},{int(s.result.converged)}\n")
    table_path = os.path.join(args.output_dir, "sweep.csv")
    _atomic_write(table_path, buf.getvalue())
    base_path = os.path.join(args.output_dir, "solution_eps0.csv")
    _atomic_write(base_path, solution_csv_text(sweep.base.u))
    stages = [{"stage": "sweep", "delta": delta,
               "all_converged": all(s.result.converged for s in sweep.steps)}]
    write_manifest(args, "sweep-epsilon", cfg, read, [table_path, base_path], stages)
    for eps, res in [(0.0, sweep.base)] + [(s.eps, s.result) for s in sweep.steps]:
        if not res.converged:
            return _fail(EXIT_NO_CONVERGENCE,
                         f"solver did not converge at eps={eps:g}: {res.message}")
    return EXIT_OK


def cmd_convergence_table(args) -> int:
    cfg, problem, exact, read, scheme, config, _, resolutions = _inputs(
        args, lambda a, _: check_resolutions([int(r) for r in a.resolutions.split(",")]))
    read["grid"]["resolutions"] = resolutions
    rows = convergence_table(problem, resolutions, exact, config, **scheme)
    buf = io.StringIO()
    buf.write(CSV_SCHEMAS["convergence"] + "\n")
    for r in rows:
        buf.write(f"{r['h']:.17g},{r['error']:.17g},{r['order']:.6g},"
                  f"{r['iterations']}\n")
    table_path = os.path.join(args.output_dir, "convergence.csv")
    _atomic_write(table_path, buf.getvalue())
    ref_convs = [r["reference_converged"] for r in rows]
    stages = [{"stage": "convergence", "resolutions": resolutions,
               "references": [r["reference"] for r in rows],
               "references_converged": ref_convs,
               "all_converged": all(r["converged"] for r in rows) and all(ref_convs),
               "wall_time": [r["wall_time"] for r in rows]}]
    write_manifest(args, "convergence-table", cfg, read, [table_path], stages)
    for r in rows:
        if not r["converged"]:
            return _fail(EXIT_NO_CONVERGENCE,
                         f"solver did not converge at n={r['nodes']}: {r['message']}")
    for r in rows:
        if not r["reference_converged"]:
            return _fail(EXIT_NO_CONVERGENCE,
                         f"fine-grid reference at n={(r['nodes'] - 1) * REFINE + 1} "
                         f"did not converge: {r['reference_message']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    _, problem, _, read, scheme, _, _, u = _inputs(
        args, lambda a, p: read_solution_csv(a.solution, p.network))
    system = assemble(problem, u.grid, probe_samples=0, **scheme)
    report = diagnostics_report(problem, u, system=system, **read["analysis"])
    _atomic_write(args.report,
                  json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    if not report.ok:
        return _fail(EXIT_VERIFY_FAIL, "verification produced FAIL verdicts")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


def _add_run(sub, name: str, func, summary: str, *options):
    """A subcommand with --config, --output-dir, the flag of each of options
    (the grid and solver keys it reads) and --deterministic.  No flag is
    abbreviated: --epsilon must not stand for --epsilon-schedule."""
    p = sub.add_parser(name, help=summary, allow_abbrev=False)
    p.set_defaults(func=func)
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=".")
    convert = {**SECTIONS["grid"], **SECTIONS["solver"]}
    for option in options:
        p.add_argument("--" + option.replace("_", "-"), default=None,
                       type=convert[option], choices=CHOICES.get(option))
    p.add_argument("--deterministic", action="store_true")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knet",
        description="Solver and verifier for Hamilton-Jacobi equations on "
                    "metric networks with vertex couplings",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    _add_run(sub, "solve", cmd_solve, "solve a problem and write the profile CSV",
             *SECTIONS["grid"], *SECTIONS["solver"])
    # the fine-grid reference solves with SolveConfig(): no solve option
    _add_run(sub, "oracle", cmd_oracle, "independent reference solve, same CSV schema",
             "nodes_per_edge", "epsilon")
    # the schedule sets the viscosity
    p = _add_run(sub, "sweep-epsilon", cmd_sweep_epsilon, "vanishing-viscosity continuation",
                 "nodes_per_edge", "tol", "max_sweeps", "method")
    p.add_argument("--epsilon-schedule", default="g:1:0.5:9",
                   help="g:start:ratio:count")
    # the resolutions set the grids
    p = _add_run(sub, "convergence-table", cmd_convergence_table,
                 "errors and orders across resolutions", *SECTIONS["solver"])
    p.add_argument("--resolutions", default="21,41,81")

    p = sub.add_parser("verify", help="diagnostics report on a solution CSV",
                       allow_abbrev=False)
    p.add_argument("--solution", required=True)
    p.add_argument("--problem", required=True, dest="config")
    p.add_argument("--report", required=True)
    # verify reads the scheme and the analysis window from the config alone
    p.set_defaults(func=cmd_verify, epsilon=None, window=None)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first main() call and kept for
    the process: parse_args leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; remap to the malformed-input code
        if exc.code not in (0, None):
            return EXIT_BAD_INPUT
        raise
    try:
        return args.func(args)
    except (KnetError, OSError) as exc:
        return _fail(EXIT_BAD_INPUT, f"bad input: {exc}")


if __name__ == "__main__":
    sys.exit(main())
