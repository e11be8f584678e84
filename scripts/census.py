#!/usr/bin/env python3
"""Solve census: run named sets of solves and record how each one ended.

Sets (n is nodes per edge):
  cold        every catalog entry, no start given, n = 41, 161, 641, 1281, 2561
  multistart  every catalog entry from each constant of MULTISTART_OFFSETS,
              n = 161, 641
  draws       random_problem(default_rng(s)), s = 0..59, n = 161, 321
  eikonal     eikonal_problem(default_rng(s), B), s = 0..19, B = 0 and -0.5,
              n = 161, 321, 641
  stress      random_problem(default_rng(s)), s = 0..199, n = 9, 21, 81, with
              no start and from each constant of MULTISTART_OFFSETS (3600
              solves; run only when named)

Each record holds: converged, the message, Newton's count per level, the
number of sweep-and-Newton rounds, whether Newton failed on the target grid
(a fallback), iterations, the residual, the convergence threshold, the wall
time of the solve (assembly and scipy's one-time import excluded), a
digest of the solution and, for a converged solve, its `knet verify`
outcome: diagnostics_report's ok and the name and location of each FAIL
check (None for a solve that did not converge).  The records are written
as JSON; --compare OLD.json lists the solves whose outcome or iteration
counts changed and those whose verify outcome changed, and counts the
solutions that moved.  An old census with no verify outcomes compares as
unknown on that count, not as changed.  With --arrays the solutions are
saved too (.npz), and a comparison of two censuses that both saved them
reports how far each moved solution moved.

Usage:
    python3 scripts/census.py --out census.json
    python3 scripts/census.py --sets multistart --nodes 161 --out ms.json \
        --compare old.json
"""

import argparse
import hashlib
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from knet import solver
from knet.analysis import diagnostics_report
from knet.catalog import all_entries, eikonal_problem, random_problem
from knet.discretization import Grid, GridFunction, assemble
from knet.errors import KnetError
from knet.solver import MULTISTART_OFFSETS, SolveConfig, solve_system

SETS = ("cold", "multistart", "draws", "eikonal", "stress")
DEFAULT_SETS = SETS[:-1]
NODES = {"cold": (41, 161, 641, 1281, 2561), "multistart": (161, 641),
         "draws": (161, 321), "eikonal": (161, 321, 641), "stress": (9, 21, 81)}


def _cases(name, nodes):
    """(id, problem, nodes per edge, constant start or None)."""
    if name == "cold":
        problems = [(e.name, e.problem, (None,)) for e in all_entries()]
    elif name == "multistart":
        problems = [(e.name, e.problem, MULTISTART_OFFSETS) for e in all_entries()]
    elif name in ("draws", "stress"):
        starts = (None,) if name == "draws" else (None, *MULTISTART_OFFSETS)
        problems = [(f"draw{s}", random_problem(np.random.default_rng(s)), starts)
                    for s in range(60 if name == "draws" else 200)]
    else:
        problems = [(f"edraw{s}/B={b:g}", eikonal_problem(np.random.default_rng(s), B=b),
                     (None,)) for b in (0.0, -0.5) for s in range(20)]
    for label, problem, starts in problems:
        for n in nodes:
            for c in starts:
                yield (f"{name}/{label}/n={n}" + ("" if c is None else f"/u0={c:+g}"),
                       problem, n, c)


def _record(case_id, problem, n, start, config):
    """Assemble, solve and describe one case; an exception is a failure."""
    rec = {"id": case_id}
    try:
        system = assemble(problem, Grid(problem.network, n))
        u0 = None if start is None else GridFunction.full(system.grid, start)
        t0 = time.perf_counter()
        res = solve_system(system, config, u0)
        wall = time.perf_counter() - t0
    except KnetError as exc:
        return {**rec, "converged": False, "message": f"{type(exc).__name__}: {exc}",
                "newton_per_level": {}, "rounds": 0, "fallback": False,
                "iterations": 0, "residual": None, "threshold": None,
                "wall_s": 0.0, "u_digest": None, "u_max": None, "verify": None}, None
    u = res.u.values
    verify = None
    if res.converged:
        report = diagnostics_report(problem, res.u, system)
        verify = {"ok": report.ok, "fails": [[c["name"], c["location"]] for c in report.checks
                                             if c["verdict"] == "FAIL"]}
    levels = re.search(r"newton iterations per level: ([^;]*)", res.message)
    rounds = re.search(r"ran (\d+) rounds? ", res.message)
    return {**rec, "converged": res.converged, "message": res.message,
            "newton_per_level": {lvl: int(k) for k, lvl in
                                 re.findall(r"(\d+) at (\S+?)(?:,|$)", levels.group(1))}
            if levels else {},
            "rounds": int(rounds.group(1)) if rounds else 0,
            "fallback": re.search(r"; at \S+ newton ", res.message) is not None,
            "iterations": res.iterations, "residual": res.residual_norm,
            "threshold": solver._threshold(config.tol, solver._floor(system), u),
            "wall_s": wall, "u_digest": hashlib.sha256(u.tobytes()).hexdigest()[:16],
            "u_max": float(np.max(np.abs(u))), "verify": verify}, u


def run(sets, nodes=None, arrays=None):
    # the solver imports these scipy modules on first use; importing them
    # here keeps that one-time cost out of the first solve's wall time
    import scipy.linalg.lapack  # noqa: F401
    import scipy.optimize  # noqa: F401

    config = SolveConfig()
    records, saved = [], {}
    for name in sets:
        for case in _cases(name, nodes or NODES[name]):
            rec, u = _record(*case, config)
            rec["set"] = name
            records.append(rec)
            if arrays and u is not None:
                saved[rec["id"]] = u
    if arrays:
        np.savez_compressed(arrays, **saved)
    return {"sets": list(sets),
            "arrays": str(Path(arrays).resolve()) if arrays else None,
            "records": records}


def summary(census):
    """One row per set: converged, fallbacks, failed, converged solves that
    fail verify, total and slowest time."""
    lines = [f"{'set':<12}{'solves':>7}{'converged':>10}{'fallbacks':>10}"
             f"{'failed':>7}{'not ok':>7}{'total s':>9}{'slowest s':>10}"]
    for name in census["sets"]:
        recs = [r for r in census["records"] if r["set"] == name]
        conv = sum(r["converged"] for r in recs)
        lines.append(f"{name:<12}{len(recs):>7}{conv:>10}"
                     f"{sum(r['fallback'] for r in recs):>10}{len(recs) - conv:>7}"
                     f"{sum(r['verify'] is not None and not r['verify']['ok'] for r in recs):>7}"
                     f"{sum(r['wall_s'] for r in recs):>9.2f}"
                     f"{max((r['wall_s'] for r in recs), default=0.0):>10.3f}")
    return "\n".join(lines)


def _arrays(census):
    path = census.get("arrays")
    if not (path and Path(path).exists()):
        return None
    with np.load(path) as saved:
        return {key: saved[key] for key in saved.files}


def _verdict(verify) -> str:
    """A verify outcome as text: PASS, NOT OK (no FAIL check, yet not ok),
    or FAIL with each failing check; "not converged" for None."""
    if verify is None:
        return "not converged"
    fails = ", ".join(f"{name} at {location}" for name, location in verify["fails"])
    return "PASS" if verify["ok"] else f"FAIL ({fails})" if fails else "NOT OK"


def compare(old, new):
    """The solves whose outcome or counts changed, then those whose verify
    outcome changed, then how many solutions moved and, where both
    censuses saved their arrays, by how much."""
    before = {r["id"]: r for r in old["records"]}
    keys = ("converged", "iterations", "newton_per_level")
    lines, moved, verdicts, unknown = [], [], [], 0
    for r in new["records"]:
        o = before.get(r["id"])
        if o is None:
            continue
        if any(o[k] != r[k] for k in keys):
            lines.append(f"{r['id']}: " + "; ".join(
                f"{k} {o[k]} -> {r[k]}" for k in keys if o[k] != r[k])
                + f"; rounds {o['rounds']} -> {r['rounds']}")
        if o["converged"] and r["converged"] and o["u_digest"] != r["u_digest"]:
            moved.append(r["id"])
        if "verify" not in o or "verify" not in r:
            unknown += 1
        elif o["verify"] != r["verify"]:
            verdicts.append(f"{r['id']}: verify {_verdict(o['verify'])} -> "
                            f"{_verdict(r['verify'])}")
    common = [r for r in new["records"] if r["id"] in before]
    old_times = [before[r["id"]]["wall_s"] for r in common]
    new_times = [r["wall_s"] for r in common]
    lines.append(f"{len(common)} solves in both; {len(lines)} changed outcome or counts")
    lines += verdicts
    lines.append(f"{len(verdicts)} verify verdicts changed"
                 + (f"; {unknown} unknown (no verify outcome on one side)" if unknown else ""))
    lines.append("converged: {} -> {}; newly failed: {}".format(
        sum(before[r["id"]]["converged"] for r in common),
        sum(r["converged"] for r in common),
        sum(before[r["id"]]["converged"] and not r["converged"] for r in common)))
    lines.append(f"converged on both sides: {len(moved)} moved "
                 f"({sum(before[i]['fallback'] for i in moved)} of them fell back "
                 "in the old census)")
    a, b = _arrays(old), _arrays(new)
    if a is not None and b is not None and moved:
        rel = {i: float(np.max(np.abs(a[i] - b[i]))) / max(1.0, float(np.max(np.abs(a[i]))))
               for i in moved}
        worst = max(rel, key=rel.get)
        lines.append(f"largest move {rel[worst]:.3g} * max(1, |u|), at {worst}")
    lines.append(f"total time {sum(old_times):.2f} s -> {sum(new_times):.2f} s; "
                 f"slowest solve {max(old_times, default=0.0):.3f} s -> "
                 f"{max(new_times, default=0.0):.3f} s")
    return "\n".join(lines)


def _set_names(spec):
    names = spec.split(",")
    bad = [s for s in names if s not in SETS]
    if bad:
        raise argparse.ArgumentTypeError(f"unknown {bad}; choose from {SETS}")
    return names


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=_set_names, default=list(DEFAULT_SETS),
                    help="comma-separated sets (default: all but stress)")
    ap.add_argument("--nodes", type=lambda s: [int(n) for n in s.split(",")], default=None,
                    help="comma-separated nodes per edge, replacing every set's own")
    ap.add_argument("--out", default="census.json", help="write the records here")
    ap.add_argument("--arrays", default=None, help="also save the solutions (.npz)")
    ap.add_argument("--compare", default=None, help="an earlier census's JSON")
    args = ap.parse_args(argv)

    census = run(args.sets, args.nodes, args.arrays)
    Path(args.out).write_text(json.dumps(census, indent=1))
    print(summary(census))
    if args.compare:
        print()
        print(compare(json.loads(Path(args.compare).read_text()), census))
    return 0


if __name__ == "__main__":
    sys.exit(main())
