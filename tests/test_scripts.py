"""Smoke runs of the experiment scripts at minimal sizes."""

import csv
import importlib.util
from pathlib import Path

import pytest

from knet.oracle import ReferenceSolution

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _csv_rows(path):
    """The rows of a CSV file, as dicts keyed by its header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_convergence_study_reports_reference_kind(tmp_path, capsys):
    study = _load("convergence_study")
    out = tmp_path / "rows.csv"
    assert study.main(["--entries", "star3_constant,star3_eikonal,star3_linear,star3_mixed",
                       "--resolutions", "5,9,17", "--csv", str(out)]) == 0
    rows = _csv_rows(out)
    assert len(rows) == 12
    assert {r["entry"]: r["reference"] for r in rows} == {
        "star3_constant": "exact", "star3_eikonal": "exact",
        "star3_linear": "direct-linear", "star3_mixed": "fine-grid"}
    # star3_constant's errors are at the solver tolerance: no order
    assert all(r["order"] == "nan" for r in rows if r["entry"] == "star3_constant")
    printed = capsys.readouterr().out
    assert "star3_constant  (exact reference)" in printed
    assert "star3_linear  (direct-linear reference)" in printed


def test_convergence_study_counts_unconverged_reference(tmp_path, capsys, monkeypatch):
    """A fine-grid reference that stopped short of the tolerance fails the
    study, as it fails knet convergence-table: exit 1 and a marked row."""
    import knet.oracle

    real = knet.oracle.reference_for

    def last_unconverged(problem, nodes, *args, **kwargs):
        ref = real(problem, nodes, *args, **kwargs)
        if nodes == 17:
            ref = ReferenceSolution(ref.u, "fine-grid",
                                    {"converged": False, "residual_norm": 1.82e-10})
        return ref

    monkeypatch.setattr(knet.oracle, "reference_for", last_unconverged)
    study = _load("convergence_study")
    out = tmp_path / "rows.csv"
    assert study.main(["--entries", "star3_mixed", "--resolutions", "5,9,17",
                       "--csv", str(out)]) == 1
    rows = _csv_rows(out)
    assert [r["reference_converged"] for r in rows] == ["True", "True", "False"]
    assert all(r["converged"] == "True" for r in rows)
    lines = capsys.readouterr().out.splitlines()
    assert sum("REFERENCE NOT CONVERGED" in line for line in lines) == 1


def test_convergence_study_csv_goes_through_the_cli_writer(tmp_path, monkeypatch):
    """--csv replaces its file atomically through knet.cli._atomic_write,
    as every CLI output does: a rerun over an existing file leaves the new
    rows and no temp file."""
    import knet.cli

    written = []
    real = knet.cli._atomic_write

    def spy(path, text):
        written.append(path)
        return real(path, text)

    monkeypatch.setattr(knet.cli, "_atomic_write", spy)
    study = _load("convergence_study")
    out = tmp_path / "rows.csv"
    out.write_text("stale\n")
    assert study.main(["--entries", "star3_constant", "--resolutions", "5,9,17",
                       "--csv", str(out)]) == 0
    assert written == [str(out)]
    assert [r["nodes"] for r in _csv_rows(out)] == ["5", "9", "17"]
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]


@pytest.mark.parametrize("resolutions", ["2,3,5", "21,21,41", "21,41,41", "11,21"])
def test_convergence_study_rejects_bad_resolutions(capsys, resolutions):
    """Counts below 3, repeated counts and fewer than 3 counts are usage
    errors, as in knet convergence-table: exit 2 with the reason, before
    anything is solved."""
    study = _load("convergence_study")
    with pytest.raises(SystemExit) as exc:
        study.main(["--entries", "star3_mixed", "--resolutions", resolutions])
    assert exc.value.code == 2
    assert "--resolutions" in capsys.readouterr().err


def test_viscosity_sweep_demo_runs(capsys):
    demo = _load("viscosity_sweep_demo")
    assert demo.main(["--nodes", "5", "--schedule", "g:1:0.5:2"]) == 0
    printed = capsys.readouterr().out
    assert "star3_eikonal  (nodes/edge = 5" in printed
    assert "star3_eikonal_loss  (nodes/edge = 5" in printed


def test_census_records_a_slice_and_compares(tmp_path, capsys, monkeypatch):
    """The cold set at n = 41: one record per entry, each with the
    documented fields, its verify outcome included.  The stress set, run
    only when named, holds 3600 cases: 200 draws at three resolutions, with
    no start and from each multistart offset.  A second census with
    MAX_NEWTON = 2 sends some solves into rounds of sweeps and Newton, and
    --compare lists those whose counts changed and how far their solutions
    moved.  A changed verify outcome is listed; an old census with none
    compares as unknown."""
    import json

    from knet import solver

    census = _load("census")
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    assert census.main(["--sets", "cold", "--nodes", "41", "--out", str(old),
                        "--arrays", str(tmp_path / "old.npz")]) == 0
    records = json.loads(old.read_text())["records"]
    assert len(records) == 8 and all(r["converged"] for r in records)
    for r in records:
        assert {"id", "set", "converged", "message", "newton_per_level", "rounds",
                "fallback", "iterations", "residual", "threshold", "wall_s",
                "u_digest", "verify"} <= set(r)
        assert r["residual"] <= r["threshold"] and r["rounds"] == 0
        assert r["verify"] == {"ok": True, "fails": []}
        assert sum(r["newton_per_level"].values()) == r["iterations"]
    mixed = next(r for r in records if r["id"] == "cold/star3_mixed/n=41")
    assert mixed["newton_per_level"] == {"n=21": 5, "n=41": 1}
    assert "stress" not in census.DEFAULT_SETS
    stress = list(census._cases("stress", census.NODES["stress"]))
    assert len(stress) == 3600 == 200 * 3 * (1 + len(solver.MULTISTART_OFFSETS))
    assert [c[0] for c in stress[:7]] == ["stress/draw0/n=9"] + [
        f"stress/draw0/n=9/u0={c:+g}" for c in solver.MULTISTART_OFFSETS] + ["stress/draw0/n=21"]
    rec, _ = census._record(*stress[-1], solver.SolveConfig())
    assert rec["id"] == "stress/draw199/n=81/u0=+10" and rec["converged"]
    capsys.readouterr()

    monkeypatch.setattr(solver, "MAX_NEWTON", 2)
    assert census.main(["--sets", "cold", "--nodes", "41", "--out", str(new),
                        "--arrays", str(tmp_path / "new.npz"),
                        "--compare", str(old)]) == 0
    printed = capsys.readouterr().out
    changed = [r for r in json.loads(new.read_text())["records"] if r["rounds"]]
    assert changed and all(r["fallback"] and r["converged"] for r in changed)
    for r in changed:
        assert f"{r['id']}: iterations " in printed
    assert "8 solves in both; " in printed and "largest move " in printed
    assert "converged: 8 -> 8; newly failed: 0" in printed
    assert "\n0 verify verdicts changed\n" in printed

    doc = json.loads(old.read_text())
    failed = {"ok": False, "fails": [["degenerate_edge_inequality", "vertex 0, edge 1"]]}
    doc["records"][0]["verify"] = failed
    for r in doc["records"][1:3]:
        del r["verify"]
    lines = census.compare(doc, json.loads(new.read_text())).splitlines()
    first = doc["records"][0]["id"]
    assert (f"{first}: verify FAIL (degenerate_edge_inequality at vertex 0, edge 1) -> PASS"
            in lines)
    assert "1 verify verdicts changed; 2 unknown (no verify outcome on one side)" in lines


def test_output_digest_reruns_agree(tmp_path, capsys):
    """Two digests of the 13 benchmark operations agree file for file; the
    comparison lists a file whose hash differs and exits 1."""
    import json

    digest = _load("output_digest")
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert digest.main(["--out", str(first)]) == 0
    assert digest.main(["--out", str(second), "--compare", str(first)]) == 0
    assert capsys.readouterr().out.endswith("no file or exit code changed\n")
    doc = json.loads(first.read_text())
    assert len(doc["exits"]) == 13 and set(doc["exits"].values()) == {0}
    assert {"solve-fine/star3_eikonal-321/solution.csv",
            "solve-fine/star3_eikonal-321/report.json",
            "ladder/star3_mixed-ladder/convergence.csv"} <= set(doc["files"])
    doc["files"]["solve-fine/star3_eikonal-321/solution.csv"] = "0" * 64
    first.write_text(json.dumps(doc))
    assert digest.main(["--out", str(second), "--compare", str(first)]) == 1
    assert "file solve-fine/star3_eikonal-321/solution.csv: changed" in capsys.readouterr().out
