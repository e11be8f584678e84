"""Command-line interface: exit codes, CSV round trips, manifests, and
deterministic reruns."""

import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from knet import solver
from knet.cli import (
    EXIT_BAD_INPUT,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    SECTIONS,
    TOP_LEVEL,
    _atomic_write,
    build_parser,
    main,
    parse_epsilon_schedule,
    read_solution_csv,
    solution_csv_text,
)
from knet.catalog import all_entries, entry_by_name, random_problem
from knet.discretization import Grid, GridFunction
from knet.network import build_network, network_from_json
from knet.oracle import ReferenceSolution, fine_grid_reference
from knet.problem import problem_from_json


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _csv_rows(path):
    """The rows of a CSV file, as dicts keyed by its header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


FULL_CONFIG = {
    "network": {
        "vertices": [0, 1, 2],
        "edges": [{"id": 0, "from": 0, "to": 1, "length": 1.0},
                  {"id": 1, "from": 1, "to": 2, "length": 1.0}],
    },
    "problem": {
        "lambda": 1.0,
        "edges": {
            "0": {"hamiltonian": {"type": "advection", "b": 0.0, "f": -1.0},
                  "diffusion": {"type": "constant", "value": 1.0}},
            "1": {"hamiltonian": {"type": "advection", "b": 0.0, "f": -1.0},
                  "diffusion": {"type": "constant", "value": 1.0}},
        },
        "kirchhoff": {"1": {"family": "classical", "B": 0.0}},
        "dirichlet": {"0": 1.0, "2": 1.0},
    },
    "grid": {"nodes_per_edge": 11},
}


def test_parse_epsilon_schedule():
    sched = parse_epsilon_schedule("g:1:0.5:3")
    assert sched == pytest.approx([1.0, 0.5, 0.25])
    for bad in ("1:0.5:3", "g:0:0.5:3", "g:1:1.5:3", "g:1:0.5:0", "g:a:b:c"):
        with pytest.raises(ValueError):
            parse_epsilon_schedule(bad)


def test_solution_csv_roundtrip(tmp_path):
    entry = entry_by_name("star3_constant")
    grid = Grid(entry.problem.network, 11)
    u = GridFunction.from_profile(grid, lambda eid, t: eid + np.asarray(t) ** 2)
    path = tmp_path / "solution.csv"
    path.write_text(solution_csv_text(u))
    back = read_solution_csv(str(path), entry.problem.network)
    assert back.grid.nodes_per_edge == grid.nodes_per_edge
    np.testing.assert_allclose(back.values, u.values, rtol=0, atol=0)


def _reference_solution_csv_text(u):
    """solution_csv_text as a per-row loop, one f-string per node."""
    lines = ["edge_id,t,u\n"]
    for e in u.grid.network.edges:
        for t, v in zip(u.grid.coords[e.id], u.on_edge(e.id)):
            lines.append(f"{e.id},{t:.17g},{v:.17g}\n")
    return "".join(lines)


def test_solution_csv_text_matches_per_row_formatter():
    """One % operation per edge writes the per-row f-string's bytes, on the
    grid of every catalog entry and of random_problem draws 0..11, with
    values that include -0, nan, +-inf, subnormals and the float extremes."""
    special = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
               1.7976931348623157e308, 0.1, 1 / 3, -1e-17, 123456789.0]
    networks = [e.problem.network for e in all_entries()] + [
        random_problem(np.random.default_rng(s)).network for s in range(12)]
    rng = np.random.default_rng(0)
    for k, network in enumerate(networks):
        for n in (3, 41, 161):
            grid = Grid(network, n)
            values = rng.normal(scale=10.0 ** rng.integers(-20, 20), size=grid.total_nodes)
            values[rng.permutation(grid.total_nodes)[:len(special)]] = special[:grid.total_nodes]
            u = GridFunction(grid, values)
            assert solution_csv_text(u) == _reference_solution_csv_text(u), (k, n)


def test_solve_catalog_config(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star3_constant",
                                   "grid": {"nodes_per_edge": 11}})
    outdir = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    u = read_solution_csv(str(outdir / "solution.csv"),
                          entry_by_name("star3_constant").problem.network)
    np.testing.assert_allclose(u.values, 1.0, atol=1e-9)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["subcommand"] == "solve"
    assert any(p.endswith("solution.csv") for p in manifest["outputs"])
    stages = {s["stage"] for s in manifest["stages"]}
    assert {"validate", "solve"} <= stages


def test_solve_full_json_config(tmp_path):
    cfg = _write_config(tmp_path, FULL_CONFIG)
    outdir = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    rows = _csv_rows(outdir / "solution.csv")
    assert all(abs(float(r["u"]) - 1.0) <= 1e-9 for r in rows)


def test_solve_flag_overrides(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star3_constant"})
    outdir = tmp_path / "out"
    code = main(["solve", "--config", cfg, "--output-dir", str(outdir),
                 "--nodes-per-edge", "7", "--method", "sweep"])
    assert code == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["effective"]["grid"]["nodes_per_edge"] == 7
    assert manifest["effective"]["solver"]["method"] == "sweep"
    rows = _csv_rows(outdir / "solution.csv")
    assert len(rows) == 3 * 7


def test_solve_manifest_records_why_newton_fell_back(tmp_path, monkeypatch):
    """n=41 is solved from n=21, where Newton from zero stops at MAX_NEWTON=2
    and only predicts; Newton on n=41 stops there too, and rounds of sweeps
    and Newton take over on that grid; the manifest says so."""
    monkeypatch.setattr(solver, "MAX_NEWTON", 2)
    cfg = _write_config(tmp_path, {"catalog": "star3_mixed",
                                   "grid": {"nodes_per_edge": 41}})
    outdir = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    stage = json.loads((outdir / "manifest.json").read_text())["stages"][1]
    assert stage["stage"] == "solve" and stage["converged"]
    assert stage["message"].startswith(
        "start: coarser grid; newton iterations per level: "
        "2 at n=21, 2 at n=41; at n=41 newton reached MAX_NEWTON=2 iterations")
    assert re.search(r"; ran \d+ rounds? of sweeps and newton$", stage["message"])


def test_malformed_json_exits_3(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["solve", "--config", str(path),
                 "--output-dir", str(tmp_path)]) == EXIT_BAD_INPUT
    assert "code:3" in capsys.readouterr().err


def test_unknown_catalog_exits_3(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "no_such_entry"})
    assert main(["solve", "--config", cfg,
                 "--output-dir", str(tmp_path)]) == EXIT_BAD_INPUT


@pytest.mark.parametrize("sub", ["solve", "oracle", "sweep-epsilon",
                                 "convergence-table"])
def test_bad_scheme_option_exits_3(tmp_path, capsys, sub):
    """The problem sets theta and the boundary rows, and the junction row is
    the relaxed Kirchhoff condition: their former flags are unknown
    arguments."""
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    for flag, value in (("--lf-theta", "1.0"), ("--boundary-mode", "strong"),
                        ("--junction-mode", "minmax")):
        assert main([sub, "--config", cfg, "--output-dir", str(tmp_path),
                     flag, value]) == EXIT_BAD_INPUT, flag
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


BAD_SCHEME_SECTIONS = [
    ("star3_eikonal", {"boundary_mode": "bogus"}, "unknown solver option 'boundary_mode'"),
    ("star3_eikonal", {"junction_mode": "minmax"}, "unknown solver option 'junction_mode'"),
    ("star3_eikonal", {"epsilon": -1}, "eps must be nonnegative"),
    ("star2_linear", {"boundary_mode": "relaxed"}, "unknown solver option 'boundary_mode'"),
    ("star3_eikonal", {"lf_theta": 1.0}, "unknown solver option 'lf_theta'"),
    ("star3_eikonal", {"junction": "minmax", "max_sweep": 3},
     "unknown solver option 'junction', 'max_sweep'"),
]


def _verify_argv(tmp_path, cfg, name="star3_eikonal"):
    """verify of a zero solution on the network of catalog entry name, at
    5 nodes per edge, against the config cfg."""
    sol = tmp_path / "solution.csv"
    grid = Grid(entry_by_name(name).problem.network, 5)
    sol.write_text(solution_csv_text(GridFunction.zeros(grid)))
    return ["verify", "--solution", str(sol), "--problem", cfg,
            "--report", str(tmp_path / "report.json")]


@pytest.mark.parametrize("sub", ["solve", "oracle", "sweep-epsilon",
                                 "convergence-table", "verify"])
def test_bad_solver_section_exits_3(tmp_path, capsys, sub):
    """Scheme options from a config's solver section are checked on the
    input path: exit 3 with the reason, no traceback."""
    for name, solver, message in BAD_SCHEME_SECTIONS:
        cfg = _write_config(tmp_path, {"catalog": name, "solver": solver})
        if sub == "verify":
            argv = _verify_argv(tmp_path, cfg, name)
        else:
            argv = [sub, "--config", cfg, "--output-dir", str(tmp_path / "out")]
            argv += (["--resolutions", "5,9,17"] if sub == "convergence-table"
                     else ["--nodes-per-edge", "5"])
        assert main(argv) == EXIT_BAD_INPUT, (sub, solver)
        assert message in capsys.readouterr().err, (sub, solver)


BAD_NUMBERS = [
    ({"solver": {"tol": "abc"}}, "could not convert string to float: 'abc'"),
    ({"solver": {"max_sweeps": "many"}}, "invalid literal for int()"),
    ({"grid": {"nodes_per_edge": "x"}}, "invalid literal for int()"),
    ({"grid": {"nodes_per_edge": None}}, "int() argument must be"),
]


@pytest.mark.parametrize("sub", ["solve", "oracle", "sweep-epsilon",
                                 "convergence-table", "verify"])
def test_bad_number_in_config_exits_3(tmp_path, capsys, sub):
    """tol, max_sweeps and nodes_per_edge are converted on the input path:
    a value that is not a number exits 3 with the reason, no traceback."""
    for section, message in BAD_NUMBERS:
        cfg = _write_config(tmp_path, {"catalog": "star3_eikonal", **section})
        if sub == "verify":
            argv = _verify_argv(tmp_path, cfg)
        else:
            argv = [sub, "--config", cfg, "--output-dir", str(tmp_path / "out")]
        if sub == "convergence-table":
            argv += ["--resolutions", "5,9,17"]
        assert main(argv) == EXIT_BAD_INPUT, (sub, section)
        assert message in capsys.readouterr().err, (sub, section)


@pytest.mark.parametrize("sub", ["solve", "oracle", "sweep-epsilon",
                                 "convergence-table"])
def test_too_few_nodes_exits_3(tmp_path, capsys, sub):
    """A node count below 3, from a flag, a config or a resolution list, is
    rejected on the input path: exit 3 with the reason, no traceback.
    convergence-table has no --nodes-per-edge, which its resolutions
    replace: the flag is an unrecognized argument there."""
    plain = _write_config(tmp_path, {"catalog": "star3_eikonal"}, "plain.json")
    two = _write_config(tmp_path, {"catalog": "star3_eikonal",
                                   "grid": {"nodes_per_edge": 2}}, "two.json")
    resolutions = ["--resolutions", "5,9,17"] if sub == "convergence-table" else []
    message = "need at least 3 nodes per edge, got 2"
    cases = [([plain, "--nodes-per-edge", "2", *resolutions],
              "unrecognized arguments: --nodes-per-edge 2"
              if sub == "convergence-table" else message),
             ([two, *resolutions], message)]
    if sub == "convergence-table":
        cases.append(([plain, "--resolutions", "2,3,5"], message))
    for case, expected in cases:
        argv = [sub, "--config", *case, "--output-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_BAD_INPUT, argv
        assert expected in capsys.readouterr().err, argv


def _subparsers():
    """Subcommand name -> its argparse parser."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _flags(parser):
    return {s for a in parser._actions for s in a.option_strings
            if s not in ("-h", "--help")}


def test_readme_lists_the_parser_flags_and_solver_keys():
    """README lists each subcommand's flags, which are its parser's, and
    the config keys of the top level and of each section, which are the
    CLI's key table."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = dict(re.findall(r"^- `([a-z-]+)`: (.*?)(?=^- |\n\n)",
                             re.search(r"accepts only the flags it reads:\n\n(.*?\n\n)",
                                       readme, re.S).group(1), re.S | re.M))
    subparsers = _subparsers()
    assert listed.keys() == subparsers.keys()
    for name, parser in subparsers.items():
        assert set(re.findall(r"`(--[a-z-]+)", listed[name])) == _flags(parser), name
    tables = {"top level": TOP_LEVEL, **{f"`{name}` section": keys
                                         for name, keys in SECTIONS.items()}}
    prose = " ".join(readme.split())
    for where, table in tables.items():
        keys = re.search(rf"{where} accepts the keys? (.*?)[;.]", prose).group(1)
        assert re.findall(r"`([a-z_]+)`", keys) == list(table), where


# flag -> (its non-default value on the command line, the value the library
# receives and the manifest's effective lists)
NON_DEFAULT_FLAGS = {
    "--nodes-per-edge": ("7", 7),
    "--epsilon": ("0.5", 0.5),
    "--tol": ("1e-9", 1e-9),
    "--max-sweeps": ("30", 30),
    "--method": ("newton", "newton"),
    "--epsilon-schedule": ("g:1:0.5:2", [1.0, 0.5]),
    "--resolutions": ("5,9,17", [5, 9, 17]),
}


def _received(calls):
    """Every argument value of the recorded calls, a SolveConfig as its
    fields and a Grid as its node counts."""
    out = []
    for args, kwargs in calls:
        for v in (*args, *kwargs.values()):
            if isinstance(v, solver.SolveConfig):
                out += [v.tol, v.max_sweeps, v.method]
            elif isinstance(v, Grid):
                out += sorted(set(v.nodes_per_edge.values()))
            else:
                out.append(v)
    return out


@pytest.mark.parametrize("sub", ["solve", "oracle", "sweep-epsilon",
                                 "convergence-table"])
def test_no_flag_is_inert(tmp_path, monkeypatch, sub):
    """Every flag of a subcommand, set to a non-default value, reaches a
    library call and is listed under the manifest's effective; the run
    flags land in the manifest's own fields."""
    from knet import cli

    calls = []
    for name in ("assemble", "solve_system", "reference_for",
                 "vanishing_viscosity", "convergence_table"):
        def recording(*args, _real=getattr(cli, name), **kwargs):
            calls.append((args, kwargs))
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, name, recording)
    doc = {"catalog": "star3_eikonal", "solver": {"tol": 1e-8}}
    cfg = _write_config(tmp_path, doc)
    outdir = tmp_path / "out"
    flags = _flags(_subparsers()[sub]) - {"--config", "--output-dir", "--deterministic"}
    argv = [sub, "--config", cfg, "--output-dir", str(outdir), "--deterministic"]
    for flag in sorted(flags):
        argv += [flag, NON_DEFAULT_FLAGS[flag][0]]
    assert main(argv) == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    effective = {**manifest["effective"]["grid"], **manifest["effective"]["solver"]}
    assert len(effective) == len(flags)
    received = _received(calls)
    for flag in flags:
        value = NON_DEFAULT_FLAGS[flag][1]
        assert value in received, flag
        assert effective[flag[2:].replace("-", "_")] == value, flag
    assert manifest["config"] == doc and manifest["deterministic"] is True
    assert all(p.startswith(str(outdir)) for p in manifest["outputs"])


def test_flags_a_subcommand_does_not_read_exit_3(tmp_path, capsys):
    """oracle reads no solve option, sweep-epsilon's schedule sets the
    viscosity and convergence-table's resolutions set the grids: those
    flags are unrecognized arguments there."""
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    subparsers = _subparsers()
    dropped = {sub: _flags(subparsers["solve"]) - _flags(subparsers[sub])
               for sub in ("oracle", "sweep-epsilon", "convergence-table")}
    assert dropped == {"oracle": {"--tol", "--max-sweeps", "--method"},
                       "sweep-epsilon": {"--epsilon"},
                       "convergence-table": {"--nodes-per-edge"}}
    for sub, flags in dropped.items():
        for flag in flags:
            assert main([sub, "--config", cfg, "--output-dir", str(tmp_path / "out"),
                         flag, NON_DEFAULT_FLAGS[flag][0]]) == EXIT_BAD_INPUT
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sub", ["solve", "oracle", "sweep-epsilon",
                                 "convergence-table", "verify"])
def test_unknown_method_in_config_exits_3(tmp_path, capsys, sub):
    """A method the solver does not have is malformed input for every
    subcommand, as the rest of the solver section is."""
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal",
                                   "solver": {"method": "bogus"}})
    argv = (_verify_argv(tmp_path, cfg) if sub == "verify"
            else [sub, "--config", cfg, "--output-dir", str(tmp_path / "out")])
    assert main(argv) == EXIT_BAD_INPUT
    assert "unknown method 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("section, message", [
    ({"grid": {"nodes_per_edge": 2}}, "need at least 3 nodes per edge, got 2"),
    ({"analysis": {"window": "abc"}}, "invalid literal for int()"),
    ({"analysis": {"window": 0}}, "analysis window must be at least 2, got 0"),
], ids=["two-nodes", "window-abc", "window-0"])
def test_verify_rejects_what_the_run_subcommands_reject(tmp_path, capsys, section,
                                                        message):
    """verify checks a config's grid section as every run subcommand does,
    and its analysis window as an int of at least 2: exit 3 with the
    reason, no traceback and no report."""
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal", **section})
    assert main(_verify_argv(tmp_path, cfg)) == EXIT_BAD_INPUT
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


# a flag case runs under every subcommand with the flag, a config case
# under all five
OUT_OF_RANGE_FLAGS = [
    (["--tol", "-1"], "tol must be finite and > 0, got -1.0"),
    (["--tol", "nan"], "tol must be finite and > 0, got nan"),
    (["--epsilon", "nan"], "eps must be nonnegative and finite, got nan"),
    (["--epsilon", "inf"], "eps must be nonnegative and finite, got inf"),
    (["--max-sweeps", "0"], "max_sweeps must be an integer >= 1, got 0"),
]
BAD_CONFIG_VALUES = [
    ({"grid": {"nodes_per_edge": 41.9}}, "expected an integer, got 41.9"),
    ({"solver": {"max_sweeps": 2.5}}, "expected an integer, got 2.5"),
    ({"analysis": {"window": 2.5}}, "expected an integer, got 2.5"),
    ({"grid": {"nodes_per_edg": 81}}, "unknown grid option 'nodes_per_edg'"),
    ({"solvr": {"method": "newton"}}, "unknown config key 'solvr'"),
    # int() and float() take a JSON boolean as 1 or 0: "max_sweeps": true ran one sweep
    ({"solver": {"max_sweeps": True}}, "solver option 'max_sweeps' is a boolean, True"),
    ({"solver": {"tol": True}}, "solver option 'tol' is a boolean, True"),
    ({"solver": {"epsilon": False}}, "solver option 'epsilon' is a boolean, False"),
    ({"grid": {"nodes_per_edge": True}}, "grid option 'nodes_per_edge' is a boolean, True"),
]


@pytest.mark.parametrize("sub", ["solve", "oracle", "sweep-epsilon",
                                 "convergence-table", "verify"])
def test_out_of_range_or_unknown_input_exits_3(tmp_path, capsys, sub):
    """A tol that is not finite and > 0, an epsilon that is not finite, a
    max_sweeps below 1, a fractional value of an integer key, a boolean
    value and a key unknown to its section or to the top level each exit 3
    with the reason before anything runs: no output directory, no report."""
    plain = _write_config(tmp_path, {"catalog": "star3_eikonal"}, "plain.json")
    flags = _flags(_subparsers()[sub])
    cases = [([plain, *flag], message) for flag, message in OUT_OF_RANGE_FLAGS
             if flag[0] in flags]
    cases += [([_write_config(tmp_path, {"catalog": "star3_eikonal", **section}, f"{k}.json")],
               message) for k, (section, message) in enumerate(BAD_CONFIG_VALUES)]
    assert len(cases) == {"oracle": 11, "sweep-epsilon": 12, "verify": 9}.get(sub, 14)
    for case, message in cases:
        if sub == "verify":
            argv = _verify_argv(tmp_path, *case)
        else:
            argv = [sub, "--config", *case, "--output-dir", str(tmp_path / "out")]
            if sub == "convergence-table":
                argv += ["--resolutions", "5,9,17"]
        assert main(argv) == EXIT_BAD_INPUT, argv
        assert message in capsys.readouterr().err, argv
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "report.json").exists()


def test_bad_usage_exits_3(capsys):
    assert main(["solve"]) == EXIT_BAD_INPUT  # missing --config
    assert main(["frobnicate"]) == EXIT_BAD_INPUT
    capsys.readouterr()


RUNS = ["solve", "oracle", "sweep-epsilon", "convergence-table"]


def _run_argv(sub, cfg, outdir, nodes="5"):
    """sub on config cfg into outdir, on small grids."""
    return [sub, "--config", cfg, "--output-dir", str(outdir)] + (
        ["--resolutions", "5,9,17"] if sub == "convergence-table"
        else ["--nodes-per-edge", nodes])


# the lambda of FULL_CONFIG, as Python's json reads it but standard JSON has not
NON_FINITE_LITERALS = [("NaN", "non-finite number NaN in the config"),
                       ("Infinity", "non-finite number Infinity in the config"),
                       ("-Infinity", "non-finite number -Infinity in the config"),
                       ("1e400", "non-finite number 1e400 in the config"),
                       ("1" + "0" * 400, "int too large to convert to float")]


@pytest.mark.parametrize("sub", RUNS + ["verify"])
def test_non_finite_number_in_config_exits_3(tmp_path, capsys, sub):
    """A number standard JSON has no value for is rejected as the config is
    read, naming the literal: exit 3, no output directory, no report."""
    text = json.dumps(FULL_CONFIG)
    assert text.count('"lambda": 1.0') == 1
    for literal, message in NON_FINITE_LITERALS:
        cfg = tmp_path / "config.json"
        cfg.write_text(text.replace('"lambda": 1.0', f'"lambda": {literal}'))
        if sub == "verify":
            sol = tmp_path / "solution.csv"
            grid = Grid(build_network([0, 1, 2], FULL_CONFIG["network"]["edges"]), 5)
            sol.write_text(solution_csv_text(GridFunction.zeros(grid)))
            argv = ["verify", "--solution", str(sol), "--problem", str(cfg),
                    "--report", str(tmp_path / "report.json")]
        else:
            argv = _run_argv(sub, str(cfg), tmp_path / "out")
        assert main(argv) == EXIT_BAD_INPUT, (sub, literal)
        assert f"code:3 bad input: {message}" in capsys.readouterr().err, (sub, literal)
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("sub", RUNS)
def test_failed_certification_exits_3_under_every_run(tmp_path, capsys, monkeypatch, sub):
    """One input, one outcome: a scheme that fails certification exits 3
    with the same message under every subcommand that assembles it.
    star3_mixed takes the fine-grid reference, so oracle assembles it too."""
    from knet.discretization import ResidualSystem

    monkeypatch.setattr(ResidualSystem, "certify_monotone",
                        lambda self, n_samples=3, rng=None: {"node": 0, "direction": 1})
    cfg = _write_config(tmp_path, {"catalog": "star3_mixed"})
    assert main(_run_argv(sub, cfg, tmp_path / "out")) == EXIT_BAD_INPUT
    assert capsys.readouterr().err == ("code:3 bad input: monotone-scheme probe failed: "
                                       "{'node': 0, 'direction': 1}\n")


def _nothing_computed(monkeypatch):
    """Make any assembly or diagnostics report fail the test."""
    from knet import cli
    from knet.discretization import ResidualSystem

    def computed(*args, **kwargs):
        raise AssertionError("computed before the input pass ended")

    monkeypatch.setattr(ResidualSystem, "__init__", computed)
    monkeypatch.setattr(cli, "diagnostics_report", computed)


@pytest.mark.parametrize("sub", RUNS)
def test_output_dir_naming_a_file_exits_3(tmp_path, capsys, monkeypatch, sub):
    """An --output-dir that is a file is bad input, found by the input pass
    before anything is solved."""
    _nothing_computed(monkeypatch)
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(_run_argv(sub, cfg, taken)) == EXIT_BAD_INPUT
    assert "code:3 bad input: [Errno 17] File exists" in capsys.readouterr().err


def test_verify_makes_the_report_directory_in_the_input_pass(tmp_path, capsys,
                                                             monkeypatch):
    """verify makes a missing parent of --report as a run makes its output
    directory; one it cannot make (under a file) exits 3 before any
    diagnostic runs."""
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    argv = _verify_argv(tmp_path, cfg)
    report = tmp_path / "new" / "dir" / "report.json"
    assert main(argv[:-1] + [str(report)]) == EXIT_OK
    assert report.exists()
    capsys.readouterr()
    _nothing_computed(monkeypatch)
    (tmp_path / "file").write_text("")
    assert main(argv[:-1] + [str(tmp_path / "file" / "report.json")]) == EXIT_BAD_INPUT
    assert "code:3 bad input: [Errno 17] File exists" in capsys.readouterr().err


def test_report_naming_a_directory_exits_3(tmp_path, capsys):
    """A --report that is a directory cannot be written: bad input, with
    the reason, where it used to end in a traceback."""
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    argv = _verify_argv(tmp_path, cfg)
    (tmp_path / "taken").mkdir()
    assert main(argv[:-1] + [str(tmp_path / "taken")]) == EXIT_BAD_INPUT
    assert "code:3 bad input: [Errno 21] Is a directory" in capsys.readouterr().err


@pytest.mark.parametrize("sub, where, outputs", [
    ("solve", "", ["solution.csv"]),
    ("sweep-epsilon", " at eps=0", ["sweep.csv", "solution_eps0.csv"]),
    ("convergence-table", " at n=5", ["convergence.csv"]),
])
def test_unconverged_solve_exits_1_with_the_solvers_reason(tmp_path, capsys, sub, where,
                                                           outputs):
    """A solve that stops short of the tolerance exits 1, naming the
    solver's reason, after writing its outputs and manifest."""
    cfg = _write_config(tmp_path, {"catalog": "star3_mixed"})
    outdir = tmp_path / "out"
    argv = _run_argv(sub, cfg, outdir, nodes="11") + ["--method", "sweep",
                                                      "--max-sweeps", "1"]
    assert main(argv) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err.startswith(
        f"code:1 solver did not converge{where}: reached max_sweeps=1 at residual ")
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["outputs"] == [str(outdir / name) for name in outputs + ["manifest.json"]]
    assert all(os.path.exists(path) for path in manifest["outputs"])


def test_deterministic_reruns_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal",
                                   "grid": {"nodes_per_edge": 21}})
    outputs = []
    for sub in ("a", "b", "a"):
        outdir = tmp_path / sub
        code = main(["solve", "--config", cfg, "--output-dir", str(outdir),
                     "--deterministic"])
        assert code == EXIT_OK
        outputs.append(((outdir / "solution.csv").read_bytes(),
                        (outdir / "manifest.json").read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    # the rerun into the same directory reproduces the manifest too
    assert outputs[0] == outputs[2]


DETERMINISTIC_RUNS = [
    ("solve", ["--nodes-per-edge", "21"]),
    ("oracle", ["--nodes-per-edge", "21"]),
    ("sweep-epsilon", ["--nodes-per-edge", "11", "--epsilon-schedule", "g:1:0.5:3"]),
    ("convergence-table", ["--resolutions", "11,21,41"]),
]


def test_every_subcommand_reruns_byte_identical(tmp_path):
    """Every --deterministic run, rerun into the same directory, writes the
    same bytes to every output (the manifests list the output paths); so
    does verify, which has no times."""
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    out = tmp_path / "out"
    runs = []
    for _ in range(2):
        for sub, extra in DETERMINISTIC_RUNS:
            assert main([sub, "--config", cfg, "--output-dir", str(out / sub),
                         "--deterministic"] + extra) == EXIT_OK, sub
        assert main(["verify", "--solution", str(out / "solve" / "solution.csv"),
                     "--problem", cfg, "--report", str(out / "report.json")]) == EXIT_OK
        runs.append({str(p.relative_to(out)): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()})
    assert len(runs[0]) == 10
    assert runs[0].keys() == runs[1].keys()
    for name in runs[0]:
        assert runs[0][name] == runs[1][name], name


def test_convergence_table_times_rows_in_the_manifest(tmp_path):
    """The table has no time column; each row's solve time is in the
    manifest's convergence stage, which --deterministic strips."""
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    for deterministic in (False, True):
        outdir = tmp_path / f"out{deterministic}"
        assert main(["convergence-table", "--config", cfg, "--output-dir", str(outdir),
                     "--resolutions", "11,21,41"]
                    + ["--deterministic"] * deterministic) == EXIT_OK
        header = (outdir / "convergence.csv").read_text().splitlines()[0]
        assert header == "h,sup_error,observed_order,iterations"
        stage = json.loads((outdir / "manifest.json").read_text())["stages"][0]
        if deterministic:
            assert "wall_time" not in stage
        else:
            assert len(stage["wall_time"]) == 3
            assert all(t >= 0.0 for t in stage["wall_time"])


def test_oracle_direct_linear(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star3_linear",
                                   "grid": {"nodes_per_edge": 21}})
    outdir = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["stages"][0]["method"] == "direct-linear"
    assert (outdir / "oracle.csv").exists()


def test_oracle_falls_back_to_fine_grid(tmp_path):
    """star3_mixed is neither linear nor all-degenerate eikonal."""
    cfg = _write_config(tmp_path, {"catalog": "star3_mixed",
                                   "grid": {"nodes_per_edge": 11}})
    outdir = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["stages"][0]["method"] == "fine-grid"
    # restricted back onto the requested grid
    rows = _csv_rows(outdir / "oracle.csv")
    assert len(rows) == 3 * 11


EIKONAL_STAR = {
    "network": {"vertices": [0, 1, 2, 3],
                "edges": [{"id": 0, "from": 0, "to": 1, "length": 1.0},
                          {"id": 1, "from": 2, "to": 0, "length": 0.7},
                          {"id": 2, "from": 0, "to": 3, "length": 1.3}]},
    "problem": {
        "lambda": 0.8,
        "edges": {str(k): {"hamiltonian": {"type": "eikonal", "c": c, "f": f},
                           "diffusion": {"type": "constant", "value": 0.0}}
                  for k, (c, f) in enumerate([(1.0, 0.5), (0.6, 0.9), (1.7, 0.2)])},
        "kirchhoff": {"0": {"family": "classical", "B": -0.4}},
        "dirichlet": {"1": 0.3, "2": -1.0, "3": 2.0},
    },
}


@pytest.mark.parametrize("limiter", ["kirchhoff", "minmax"])
def test_oracle_solves_nothing_on_a_degenerate_eikonal_config(tmp_path, monkeypatch,
                                                              flux_limiter, limiter):
    """A JSON-config star, not a catalog entry, whose every edge is
    eikonal with a = 0 and whose junction is classical, with B such that
    the coupling, or else A_0, sets its flux limiter: oracle reports the
    flux-limited reference and runs no solve."""
    from knet import oracle

    def no_solve(*args, **kwargs):
        raise AssertionError("solve_system called")

    monkeypatch.setattr(oracle, "solve_system", no_solve)
    B = {"kirchhoff": -2.0, "minmax": -0.4}[limiter]
    doc = {**EIKONAL_STAR["problem"], "kirchhoff": {"0": {"family": "classical", "B": B}}}
    assert flux_limiter(problem_from_json(doc, network_from_json(EIKONAL_STAR["network"]))) \
        == limiter
    cfg = _write_config(tmp_path, {**EIKONAL_STAR, "problem": doc,
                                   "grid": {"nodes_per_edge": 21}})
    outdir = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    stage = json.loads((outdir / "manifest.json").read_text())["stages"][0]
    assert stage["method"] == "flux-limited"
    assert len(_csv_rows(outdir / "oracle.csv")) == 3 * 21


def test_convergence_table_on_star3_eikonal_takes_no_fine_grid_reference(tmp_path,
                                                                        monkeypatch):
    """star3_eikonal has its exact profile, 1 - e^(-d): no row takes a
    fine-grid reference, and the scheme is first order against it."""
    from knet import oracle

    calls = []
    real = oracle.fine_grid_reference

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "fine_grid_reference", counting)
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    outdir = tmp_path / "out"
    assert main(["convergence-table", "--config", cfg, "--output-dir", str(outdir),
                 "--resolutions", "21,41,81", "--deterministic"]) == EXIT_OK
    assert calls == []
    stage = json.loads((outdir / "manifest.json").read_text())["stages"][0]
    assert stage["references"] == ["exact"] * 3
    orders = [float(r["observed_order"]) for r in _csv_rows(outdir / "convergence.csv")[1:]]
    assert min(orders) >= 0.9, orders


def test_three_nodes_take_the_fine_grid_reference(tmp_path):
    """The direct linear solve needs 4 nodes per edge; at 3 a linear
    problem takes the fine-grid reference under oracle and
    convergence-table alike."""
    cfg = _write_config(tmp_path, {"catalog": "star3_linear",
                                   "grid": {"nodes_per_edge": 3}})
    assert main(["oracle", "--config", cfg, "--output-dir", str(tmp_path / "o")]) == EXIT_OK
    stage = json.loads((tmp_path / "o" / "manifest.json").read_text())["stages"][0]
    assert stage["method"] == "fine-grid"
    assert main(["convergence-table", "--config", cfg, "--output-dir", str(tmp_path / "t"),
                 "--resolutions", "3,5,9"]) == EXIT_OK
    stage = json.loads((tmp_path / "t" / "manifest.json").read_text())["stages"][0]
    assert stage["references"] == ["fine-grid", "direct-linear", "direct-linear"]


def test_oracle_unconverged_reference_exits_1(tmp_path, capsys, monkeypatch):
    """A fine-grid reference that stopped short of the tolerance (as the
    n = 1281 reference of star3_loss_elliptic does) fails oracle as it
    fails convergence-table: exit 1, naming the reference's grid and the
    solver's message, with the CSV and manifest written."""
    from knet import cli

    real = cli.reference_for

    def unconverged(*args, **kwargs):
        ref = real(*args, **kwargs)
        return ReferenceSolution(ref.u, "fine-grid", {**ref.meta, "converged": False,
                                                      "message": "stopped at 1.45e-09"})

    monkeypatch.setattr(cli, "reference_for", unconverged)
    cfg = _write_config(tmp_path, {"catalog": "star3_mixed",
                                   "grid": {"nodes_per_edge": 5}})
    outdir = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == ("code:1 fine-grid reference at n=17 did not converge: "
                                       "stopped at 1.45e-09\n")
    stage = json.loads((outdir / "manifest.json").read_text())["stages"][0]
    assert stage["meta"]["converged"] is False
    assert stage["meta"]["message"] == "stopped at 1.45e-09"
    assert (outdir / "oracle.csv").exists()


def test_oracle_reference_uses_run_epsilon(tmp_path):
    problem = entry_by_name("star3_eikonal").problem
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal",
                                   "grid": {"nodes_per_edge": 11}})
    profiles = {}
    for eps in ("0", "0.5"):
        outdir = tmp_path / eps
        assert main(["oracle", "--config", cfg, "--output-dir", str(outdir),
                     "--epsilon", eps]) == EXIT_OK
        profiles[eps] = read_solution_csv(str(outdir / "oracle.csv"),
                                          problem.network)
    ref = fine_grid_reference(problem, 11, eps=0.5).u
    got = profiles["0.5"]
    for e in problem.network.edges:
        expected = ref.grid.interpolate(ref.values, e.id, got.grid.coords[e.id])
        np.testing.assert_allclose(got.on_edge(e.id), expected, rtol=0, atol=1e-12)
    assert np.max(np.abs(got.values - profiles["0"].values)) > 0.05


def test_sweep_epsilon(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal",
                                   "grid": {"nodes_per_edge": 11}})
    outdir = tmp_path / "out"
    code = main(["sweep-epsilon", "--config", cfg, "--output-dir", str(outdir),
                 "--epsilon-schedule", "g:1:0.5:4"])
    assert code == EXIT_OK
    rows = _csv_rows(outdir / "sweep.csv")
    assert len(rows) == 4
    eps = [float(r["eps"]) for r in rows]
    assert eps == sorted(eps, reverse=True)
    assert all(r["converged"] == "1" for r in rows)
    assert (outdir / "solution_eps0.csv").exists()


@pytest.mark.parametrize("name,nodes", [("star3_eikonal", 81), ("star3_mixed", 41)])
def test_sweep_epsilon_sweeps_only_for_the_base(tmp_path, monkeypatch, name, nodes):
    """Each viscosity step is a Newton corrector from the step before, and
    the eps = 0 base is Newton from its coarser grids: no Gauss-Seidel sweep
    runs at all, the base's former warm-up included."""
    calls = []
    real = solver.sweep_solve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "sweep_solve", counting)
    cfg = _write_config(tmp_path, {"catalog": name})
    code = main(["sweep-epsilon", "--config", cfg, "--output-dir", str(tmp_path / "out"),
                 "--nodes-per-edge", str(nodes), "--epsilon-schedule", "g:1:0.5:9"])
    assert code == EXIT_OK
    assert len(calls) == 0


def test_sweep_epsilon_bad_schedule(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    code = main(["sweep-epsilon", "--config", cfg, "--output-dir", str(tmp_path),
                 "--epsilon-schedule", "linear:1:2"])
    assert code == EXIT_BAD_INPUT


def test_convergence_table(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star2_linear"})
    outdir = tmp_path / "out"
    code = main(["convergence-table", "--config", cfg,
                 "--output-dir", str(outdir), "--resolutions", "11,21,41",
                 "--deterministic"])
    assert code == EXIT_OK
    rows = _csv_rows(outdir / "convergence.csv")
    assert len(rows) == 3
    hs = [float(r["h"]) for r in rows]
    assert hs == sorted(hs, reverse=True)
    errs = [float(r["sup_error"]) for r in rows]
    assert errs[0] > errs[-1]


def test_convergence_table_reference_uses_run_epsilon(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star2_linear"})
    outdir = tmp_path / "out"
    code = main(["convergence-table", "--config", cfg,
                 "--output-dir", str(outdir), "--resolutions", "11,21,41",
                 "--epsilon", "0.5", "--deterministic"])
    assert code == EXIT_OK
    rows = _csv_rows(outdir / "convergence.csv")
    orders = [float(r["observed_order"]) for r in rows[1:]]
    assert min(orders) >= 1.9, orders


def test_convergence_table_relaxed_boundary_uses_matching_reference(tmp_path, monkeypatch):
    """The degenerate coercive ends of star3_eikonal_loss take relaxed
    boundary rows, under which the scheme reproduces the exact profile that
    detaches from the data: the table measures it against that profile,
    read off the one catalog entry the run builds."""
    import knet.cli

    built = []
    monkeypatch.setattr(knet.cli, "entry_by_name",
                        lambda name: built.append(name) or entry_by_name(name))
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal_loss"})
    outdir = tmp_path / "out"
    code = main(["convergence-table", "--config", cfg,
                 "--output-dir", str(outdir), "--resolutions", "11,21,41",
                 "--deterministic"])
    assert code == EXIT_OK
    rows = _csv_rows(outdir / "convergence.csv")
    assert max(float(r["sup_error"]) for r in rows) <= 1e-8
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["stages"][0]["references"] == ["exact"] * 3
    assert built == ["star3_eikonal_loss"]


def test_convergence_table_records_reference_per_row(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star3_linear"})
    outdir = tmp_path / "out"
    assert main(["convergence-table", "--config", cfg,
                 "--output-dir", str(outdir), "--resolutions", "11,21,41",
                 "--deterministic"]) == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["stages"][0]["references"] == ["direct-linear"] * 3


def test_convergence_table_no_order_at_solver_tolerance(tmp_path):
    """star3_constant is solved exactly by the scheme: its errors are
    round-off and stopping tolerance, which carry no order."""
    cfg = _write_config(tmp_path, {"catalog": "star3_constant"})
    outdir = tmp_path / "out"
    assert main(["convergence-table", "--config", cfg,
                 "--output-dir", str(outdir), "--resolutions", "5,9,17"]) == EXIT_OK
    rows = _csv_rows(outdir / "convergence.csv")
    assert all(np.isnan(float(r["observed_order"])) for r in rows)


def test_convergence_table_counts_unconverged_reference(tmp_path, capsys, monkeypatch):
    """A fine-grid reference that stopped short of the tolerance (as the
    n = 1281 reference of star3_linear once did) fails the table: exit 1,
    naming the reference's grid and the solver's message, and
    all_converged false, with each reference's state listed."""
    import knet.oracle

    real = knet.oracle.reference_for

    def last_unconverged(problem, nodes, *args, **kwargs):
        ref = real(problem, nodes, *args, **kwargs)
        if nodes == 41:
            ref = ReferenceSolution(ref.u, "fine-grid",
                                    {"converged": False, "residual_norm": 1.82e-10,
                                     "message": "stopped at 1.82e-10"})
        return ref

    monkeypatch.setattr(knet.oracle, "reference_for", last_unconverged)
    cfg = _write_config(tmp_path, {"catalog": "star2_linear"})
    outdir = tmp_path / "out"
    assert main(["convergence-table", "--config", cfg,
                 "--output-dir", str(outdir), "--resolutions", "11,21,41",
                 "--deterministic"]) == EXIT_NO_CONVERGENCE
    assert capsys.readouterr().err == ("code:1 fine-grid reference at n=161 did not converge: "
                                       "stopped at 1.82e-10\n")
    stage = json.loads((outdir / "manifest.json").read_text())["stages"][0]
    assert stage["references_converged"] == [True, True, False]
    assert stage["all_converged"] is False


def test_convergence_table_needs_three_resolutions(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star2_linear"})
    code = main(["convergence-table", "--config", cfg,
                 "--output-dir", str(tmp_path), "--resolutions", "11,21"])
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize("resolutions", ["21,21,41", "21,41,41"])
def test_convergence_table_repeated_resolution_exits_3(tmp_path, capsys, resolutions):
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    code = main(["convergence-table", "--config", cfg,
                 "--output-dir", str(tmp_path / "out"), "--resolutions", resolutions])
    assert code == EXIT_BAD_INPUT
    assert "repeated resolution" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_convergence_table_unsorted_resolutions(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star2_linear"})
    outdir = tmp_path / "out"
    assert main(["convergence-table", "--config", cfg, "--output-dir", str(outdir),
                 "--resolutions", "41,21,81", "--deterministic"]) == EXIT_OK
    rows = _csv_rows(outdir / "convergence.csv")
    assert [float(r["h"]) for r in rows] == [0.025, 0.05, 0.0125]


def test_main_builds_the_parser_once(tmp_path, monkeypatch):
    """main() builds the argparse parser on first use and reuses it."""
    from knet import cli

    cli._parser.cache_clear()
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cfg = _write_config(tmp_path, {"catalog": "star3_constant",
                                   "grid": {"nodes_per_edge": 5}})
    for k in range(3):
        assert main(["solve", "--config", cfg,
                     "--output-dir", str(tmp_path / f"out{k}")]) == EXIT_OK
    assert main(["solve", "--config", cfg, "--tol", "x"]) == EXIT_BAD_INPUT
    assert len(builds) == 1
    cli._parser.cache_clear()


def test_importing_the_cli_leaves_scipy_optimize_unloaded():
    """scipy.optimize serves only the Gauss-Seidel vertex solve, LAPACK's
    dgtsv only spsolve and scipy.sparse only the direct linear solve, so a
    fresh process that imports the CLI loads no scipy module at all."""
    src = str(Path(solver.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, knet.cli; print(sorted(m for m in sys.modules"
         " if m == 'scipy' or m.startswith('scipy.')))"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_verify_clean_solution(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal",
                                   "grid": {"nodes_per_edge": 21}})
    outdir = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    report_path = tmp_path / "report.json"
    code = main(["verify", "--solution", str(outdir / "solution.csv"),
                 "--problem", cfg, "--report", str(report_path)])
    assert code == EXIT_OK
    report = json.loads(report_path.read_text())
    assert report["ok"] is True
    assert report["checks"]


def test_verify_corrupted_solution_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal",
                                   "grid": {"nodes_per_edge": 21}})
    outdir = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    # bump the junction value (the t = 0 row of every edge on a star)
    lines = (outdir / "solution.csv").read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        eid, t, u = line.split(",")
        if float(t) == 0.0:
            u = str(float(u) + 0.5)
        out.append(f"{eid},{t},{u}")
    bad_path = tmp_path / "bad.csv"
    bad_path.write_text("\n".join(out) + "\n")
    report_path = tmp_path / "report.json"
    code = main(["verify", "--solution", str(bad_path),
                 "--problem", cfg, "--report", str(report_path)])
    assert code == EXIT_VERIFY_FAIL
    assert "code:2" in capsys.readouterr().err
    report = json.loads(report_path.read_text())
    assert report["ok"] is False


def test_verify_rejects_nonfinite_solution(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star3_constant",
                                   "grid": {"nodes_per_edge": 11}})
    outdir = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    lines = (outdir / "solution.csv").read_text().splitlines()
    eid, t, _u = lines[2].split(",")
    lines[2] = f"{eid},{t},nan"
    bad_path = tmp_path / "bad.csv"
    bad_path.write_text("\n".join(lines) + "\n")
    code = main(["verify", "--solution", str(bad_path), "--problem", cfg,
                 "--report", str(tmp_path / "r.json")])
    assert code == EXIT_BAD_INPUT


# ---------------------------------------------------------------------------
# Malformed solution CSVs


def _edit_duplicate_row(lines):
    return lines[:5] + [lines[5]] + lines[5:]


def _edit_shift_t(lines):
    eid, t, u = lines[3].split(",")
    lines[3] = f"{eid},{float(t) + 1e-3!r},{u}"
    return lines


MALFORMED_SOLUTIONS = [
    # rows 1-11 are edge 0 of star3_constant at 11 nodes per edge
    ("duplicated row", _edit_duplicate_row, "edge 0: t column is not the uniform grid"),
    ("changed t", _edit_shift_t, "edge 0: t column is not the uniform grid"),
    ("missing edge", lambda lines: [l for l in lines if not l.startswith("1,")],
     "no rows for edge 1"),
    ("unknown edge", lambda lines: lines + ["7,0,1"], "rows for edge 7, which is not"),
    ("two rows on an edge", lambda lines: lines[:1] + lines[10:],
     "edge 0: need at least 3 nodes, got 2"),
    ("four columns", lambda lines: [l + ",0" for l in lines], "header is"),
    ("header only", lambda lines: lines[:1], "solution CSV has no rows"),
    ("empty file", lambda lines: [], "header is ''"),
]


@pytest.mark.parametrize("case, edit, message", MALFORMED_SOLUTIONS,
                         ids=[c[0] for c in MALFORMED_SOLUTIONS])
def test_verify_rejects_malformed_solution(tmp_path, capsys, case, edit, message):
    """A solution CSV that does not describe a grid of the network exits 3
    with a message naming the edge, before any diagnostic runs."""
    cfg = _write_config(tmp_path, {"catalog": "star3_constant"})
    grid = Grid(entry_by_name("star3_constant").problem.network, 11)
    lines = solution_csv_text(GridFunction.full(grid, 1.0)).splitlines()
    bad_path = tmp_path / "bad.csv"
    bad_path.write_text("".join(line + "\n" for line in edit(lines)))
    report = tmp_path / "r.json"
    code = main(["verify", "--solution", str(bad_path), "--problem", cfg,
                 "--report", str(report)])
    assert code == EXIT_BAD_INPUT
    assert message in capsys.readouterr().err
    assert not report.exists()


def test_verify_rejects_disagreeing_vertex_values(tmp_path, capsys):
    """Each edge's end row gives the shared vertex a value; edges that
    disagree are malformed input (exit 3), not a value picked by the order
    the edges are read in."""
    cfg = _write_config(tmp_path, {"catalog": "star3_constant",
                                   "grid": {"nodes_per_edge": 5}})
    outdir = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    lines = (outdir / "solution.csv").read_text().splitlines()
    assert lines[1].startswith("0,0,")  # edge 0 at t = 0: vertex 0
    lines[1] = "0,0,9"
    bad_path = tmp_path / "bad.csv"
    bad_path.write_text("\n".join(lines) + "\n")
    report = tmp_path / "r.json"
    code = main(["verify", "--solution", str(bad_path), "--problem", cfg,
                 "--report", str(report)])
    assert code == EXIT_BAD_INPUT
    assert "edges 0 and 1 disagree at vertex 0: u = 9 and " in capsys.readouterr().err
    assert not report.exists()


def test_read_solution_csv_rows_in_any_order(tmp_path):
    """Rows may come in any order; the values land on their nodes bit for
    bit."""
    entry = entry_by_name("graph5_constant")
    grid = Grid(entry.problem.network, 9)
    u = GridFunction.from_profile(grid, lambda eid, t: np.sin(eid + 3 * np.asarray(t)))
    header, *rows = solution_csv_text(u).splitlines()
    path = tmp_path / "solution.csv"
    path.write_text("\n".join([header] + rows[::-1]) + "\n")
    back = read_solution_csv(str(path), entry.problem.network)
    assert back.grid.nodes_per_edge == grid.nodes_per_edge
    assert np.array_equal(back.values, u.values)


# ---------------------------------------------------------------------------
# Stage wall times in the solve manifest


def test_solve_manifest_times_every_stage(tmp_path):
    """validate and solve keep stages[0] and [1]; assemble and write follow.
    Every stage has a wall time; --deterministic strips them all."""
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal",
                                   "grid": {"nodes_per_edge": 21}})
    for deterministic in (False, True):
        outdir = tmp_path / f"out{deterministic}"
        assert main(["solve", "--config", cfg, "--output-dir", str(outdir)]
                    + ["--deterministic"] * deterministic) == EXIT_OK
        stages = json.loads((outdir / "manifest.json").read_text())["stages"]
        assert [s["stage"] for s in stages] == ["validate", "solve", "assemble", "write"]
        times = [s.get("wall_time") for s in stages]
        if deterministic:
            assert times == [None] * 4
        else:
            assert all(t >= 0.0 for t in times)


# ---------------------------------------------------------------------------
# Atomic output writes


def _leftovers(directory):
    return sorted(p.name for p in Path(directory).iterdir()
                  if p.name.startswith(".tmp-knet-"))


def test_rerun_replaces_outputs_and_leaves_no_temp(tmp_path):
    """A rerun into an existing output directory replaces every output with
    the new bytes and leaves no temp file."""
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    outdir = tmp_path / "out"
    for nodes in ("21", "11"):
        assert main(["solve", "--config", cfg, "--output-dir", str(outdir),
                     "--nodes-per-edge", nodes]) == EXIT_OK
    rows = _csv_rows(outdir / "solution.csv")
    assert len(rows) == 3 * 11
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["effective"]["grid"]["nodes_per_edge"] == 11
    assert _leftovers(outdir) == []


@pytest.mark.skipif(not hasattr(os, "posix_fallocate"),
                    reason="the platform has no posix_fallocate")
def test_atomic_write_preallocates_the_encoded_length(tmp_path, monkeypatch):
    """The temp file is preallocated to the byte length of the encoded text
    (not its character count), and the file holds exactly those bytes."""
    calls = []
    real = os.posix_fallocate

    def spy(fd, offset, length):
        calls.append((offset, length))
        return real(fd, offset, length)

    monkeypatch.setattr(os, "posix_fallocate", spy)
    path = tmp_path / "out.txt"
    path.write_text("old contents, longer than the new ones\n")
    text = "θ = 1, λ = 2\n"
    _atomic_write(str(path), text)
    assert calls == [(0, len(text.encode()))]
    assert path.read_bytes() == text.encode()
    assert _leftovers(tmp_path) == []


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                   KeyboardInterrupt()],
                         ids=["oserror", "interrupt"])
def test_atomic_write_failure_keeps_old_file(tmp_path, monkeypatch, error):
    """A write that raises halfway leaves the previous file byte-identical
    and removes the temp file."""
    path = tmp_path / "solution.csv"
    old = b"edge_id,t,u\n0,0,1\n"
    path.write_bytes(old)
    real_fdopen = os.fdopen

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            self.fh.flush()
            raise error

    monkeypatch.setattr(os, "fdopen", lambda fd, mode: HalfWriter(real_fdopen(fd, mode)))
    with pytest.raises(type(error)):
        _atomic_write(str(path), "edge_id,t,u\n" + "0,0.5,2\n" * 100)
    assert path.read_bytes() == old
    assert _leftovers(tmp_path) == []


@pytest.mark.parametrize("fallocate", ["missing", "raises"])
def test_atomic_write_without_preallocation(tmp_path, monkeypatch, fallocate):
    """Preallocation is only a hint: without os.posix_fallocate, or when it
    fails, the write still gives the same bytes."""
    if fallocate == "missing":
        monkeypatch.delattr(os, "posix_fallocate", raising=False)
    else:
        def unsupported(fd, offset, length):
            raise OSError(95, "Operation not supported")
        monkeypatch.setattr(os, "posix_fallocate", unsupported)
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    text = "edge_id,t,u\n" + "1,0.25,3\n" * 50
    _atomic_write(str(path), text)
    assert path.read_bytes() == text.encode()
    assert _leftovers(tmp_path) == []


def test_atomic_write_new_file_mode_follows_umask(tmp_path):
    """A new output gets the mode open(path, "w") would give it: 0666 less
    the umask."""
    old = os.umask(0o022)
    try:
        _atomic_write(str(tmp_path / "a.csv"), "x\n")
        os.umask(0o077)
        _atomic_write(str(tmp_path / "b.csv"), "x\n")
    finally:
        os.umask(old)
    assert (tmp_path / "a.csv").stat().st_mode & 0o777 == 0o644
    assert (tmp_path / "b.csv").stat().st_mode & 0o777 == 0o600


def test_atomic_write_keeps_the_replaced_file_mode(tmp_path):
    path = tmp_path / "solution.csv"
    path.write_text("old\n")
    path.chmod(0o640)
    _atomic_write(str(path), "new\n")
    assert path.read_text() == "new\n"
    assert path.stat().st_mode & 0o777 == 0o640
    assert _leftovers(tmp_path) == []


def test_atomic_write_empty_text(tmp_path):
    """Empty text gives an empty file, new or replacing an existing one."""
    path = tmp_path / "empty.txt"
    for _ in range(2):
        _atomic_write(str(path), "")
        assert path.read_bytes() == b""
    assert _leftovers(tmp_path) == []
