"""Command-line interface: exit codes, CSV round trips, manifests, and
deterministic reruns."""

import csv
import json
import os

import numpy as np
import pytest

from knet.cli import (
    EXIT_BAD_INPUT,
    EXIT_OK,
    EXIT_VERIFY_FAIL,
    main,
    parse_epsilon_schedule,
    read_solution_csv,
    solution_csv_text,
)
from knet.catalog import entry_by_name
from knet.discretization import Grid, GridFunction
from knet.oracle import fine_grid_reference


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
    rows = list(csv.DictReader((outdir / "solution.csv").open()))
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
    rows = list(csv.DictReader((outdir / "solution.csv").open()))
    assert len(rows) == 3 * 7


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
def test_bad_scheme_option_exits_3(tmp_path, sub):
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal"})
    assert main([sub, "--config", cfg, "--output-dir", str(tmp_path),
                 "--lf-theta", "wide"]) == EXIT_BAD_INPUT


BAD_SCHEME_SECTIONS = [
    ("star3_eikonal", {"boundary_mode": "bogus"}, "unknown boundary mode"),
    ("star3_eikonal", {"junction_mode": "bogus"}, "unknown junction mode"),
    ("star3_eikonal", {"epsilon": -1}, "eps must be nonnegative"),
    ("star2_linear", {"boundary_mode": "relaxed"}, "relaxed boundary mode"),
    ("star3_eikonal", {"junction": "minmax", "max_sweep": 3},
     "unknown solver option 'junction', 'max_sweep'"),
]


@pytest.mark.parametrize("sub", ["solve", "oracle", "sweep-epsilon",
                                 "convergence-table", "verify"])
def test_bad_solver_section_exits_3(tmp_path, capsys, sub):
    """Scheme options from a config's solver section are checked on the
    input path: exit 3 with the reason, no traceback."""
    for name, solver, message in BAD_SCHEME_SECTIONS:
        cfg = _write_config(tmp_path, {"catalog": name, "solver": solver})
        if sub == "verify":
            sol = tmp_path / "solution.csv"
            grid = Grid(entry_by_name(name).problem.network, 5)
            sol.write_text(solution_csv_text(GridFunction.zeros(grid)))
            argv = ["verify", "--solution", str(sol), "--problem", cfg,
                    "--report", str(tmp_path / "report.json")]
        else:
            argv = [sub, "--config", cfg, "--output-dir", str(tmp_path / "out"),
                    "--nodes-per-edge", "5"]
            if sub == "convergence-table":
                argv += ["--resolutions", "5,9,17"]
        assert main(argv) == EXIT_BAD_INPUT, (sub, solver)
        assert message in capsys.readouterr().err, (sub, solver)


def test_bad_usage_exits_3(capsys):
    assert main(["solve"]) == EXIT_BAD_INPUT  # missing --config
    assert main(["frobnicate"]) == EXIT_BAD_INPUT
    capsys.readouterr()


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


def test_oracle_direct_linear(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star3_linear",
                                   "grid": {"nodes_per_edge": 21}})
    outdir = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["stages"][0]["method"] == "direct-linear"
    assert (outdir / "oracle.csv").exists()


def test_oracle_falls_back_to_fine_grid(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal",
                                   "grid": {"nodes_per_edge": 11}})
    outdir = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--output-dir", str(outdir)]) == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["stages"][0]["method"] == "fine-grid"
    # restricted back onto the requested grid
    rows = list(csv.DictReader((outdir / "oracle.csv").open()))
    assert len(rows) == 3 * 11


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
    rows = list(csv.DictReader((outdir / "sweep.csv").open()))
    assert len(rows) == 4
    eps = [float(r["eps"]) for r in rows]
    assert eps == sorted(eps, reverse=True)
    assert all(r["converged"] == "1" for r in rows)
    assert (outdir / "solution_eps0.csv").exists()


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
    rows = list(csv.DictReader((outdir / "convergence.csv").open()))
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
    rows = list(csv.DictReader((outdir / "convergence.csv").open()))
    orders = [float(r["observed_order"]) for r in rows[1:]]
    assert min(orders) >= 1.9, orders


def test_convergence_table_relaxed_boundary_uses_matching_reference(tmp_path):
    """On star3_eikonal_loss "auto" resolves to relaxed boundary rows, so
    strong rows solve another problem than the exact profile: the table must
    measure them against the scheme's own fine-grid reference.  An explicit
    relaxed boundary where the diffusion keeps the datum is bad input."""
    cfg = _write_config(tmp_path, {"catalog": "star3_eikonal_loss"})
    outdir = tmp_path / "out"
    code = main(["convergence-table", "--config", cfg,
                 "--output-dir", str(outdir), "--resolutions", "11,21,41",
                 "--boundary-mode", "strong", "--deterministic"])
    assert code == EXIT_OK
    rows = list(csv.DictReader((outdir / "convergence.csv").open()))
    assert max(float(r["sup_error"]) for r in rows) <= 1e-8
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["stages"][0]["references"] == ["fine-grid"] * 3
    cfg = _write_config(tmp_path, {"catalog": "star2_linear"})
    assert main(["convergence-table", "--config", cfg,
                 "--output-dir", str(outdir), "--resolutions", "11,21,41",
                 "--boundary-mode", "relaxed"]) == EXIT_BAD_INPUT


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
    rows = list(csv.DictReader((outdir / "convergence.csv").open()))
    assert all(np.isnan(float(r["observed_order"])) for r in rows)


def test_convergence_table_needs_three_resolutions(tmp_path):
    cfg = _write_config(tmp_path, {"catalog": "star2_linear"})
    code = main(["convergence-table", "--config", cfg,
                 "--output-dir", str(tmp_path), "--resolutions", "11,21"])
    assert code == EXIT_BAD_INPUT


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
