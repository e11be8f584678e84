#!/usr/bin/env python3
"""Output digest: run every benchmark operation once and hash what it wrote.

The operations are those of perfbench/workloads.py (read from its path, so
no bytecode cache is written next to it): each workload is prepared into a
temporary directory and each operation runs once through knet.cli.main,
with --deterministic where the subcommand takes it, so a manifest holds no
wall time or creation time.  The operations run with the temporary
directory as working directory and relative paths, so the outputs do not
depend on where it is.  The SHA-256 of every file there (configs, CSVs,
reports, manifests) and every operation's exit code are written as JSON;
--compare OLD.json lists the files and exit codes that differ and exits 1
if any does.

knet is imported as usual, so PYTHONPATH picks the checkout under test;
the workloads always come from this script's checkout.

Usage:
    PYTHONPATH=src python3 scripts/output_digest.py --out digest.json
    PYTHONPATH=../parent/src python3 scripts/output_digest.py --out old.json
    PYTHONPATH=src python3 scripts/output_digest.py --out new.json --compare old.json
"""

import argparse
import contextlib
import hashlib
import json
import runpy
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEED = 1  # the workloads' seed: it draws solve-fine's seeded boundary data


def digest() -> dict:
    """{"files": relative path -> SHA-256, "exits": operation id -> exit
    code} of one run of every workload, with seed SEED."""
    from knet.cli import build_parser, main

    bench = runpy.run_path(str(WORKLOADS))
    parser = build_parser()
    exits = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for name in bench["WORKLOADS"]:
            for op in bench["prepare"](name, SEED, name):
                takes = hasattr(parser.parse_args(op.argv), "deterministic")
                exits[op.op_id] = main(op.argv + ["--deterministic"] * takes)
        files = {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(Path(".").rglob("*")) if p.is_file()}
    return {"seed": SEED, "files": files, "exits": exits}


def compare(old: dict, new: dict) -> list:
    """One line per file or exit code that differs between two digests."""
    lines = []
    for key in ("files", "exits"):
        a, b = old[key], new[key]
        for k in sorted(set(a) | set(b)):
            if a.get(k) != b.get(k):
                state = "added" if k not in a else "removed" if k not in b else "changed"
                lines.append(f"{key[:-1]} {k}: {state}" + (
                    f" (exit {a[k]} -> {b[k]})" if key == "exits" and state == "changed" else ""))
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="digest.json", help="write the digest here")
    ap.add_argument("--compare", default=None, help="an earlier digest's JSON")
    args = ap.parse_args(argv)

    doc = digest()
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(doc['files'])} files, {len(doc['exits'])} operations, "
          f"{sum(code != 0 for code in doc['exits'].values())} nonzero exits")
    if args.compare:
        lines = compare(json.loads(Path(args.compare).read_text()), doc)
        print("\n".join(lines) if lines else "no file or exit code changed")
        return 1 if lines else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
