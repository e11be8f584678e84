#!/usr/bin/env python3
"""Convergence study across the problem catalog.

For each entry, solve on a ladder of grids and report sup errors against
the best available reference (exact profile, the closed-form flux-limited
reference of a first-order eikonal network, direct linear solve, or a
4x-refined run of the same scheme) together with observed orders.  Exits 1
when a run or a fine-grid reference did not converge, and marks its row.

Usage:
    python3 scripts/convergence_study.py
    python3 scripts/convergence_study.py --entries star3_eikonal,star2_linear \
        --resolutions 21,41,81,161 --csv out.csv
"""

import argparse
import csv
import io
import sys

from knet.catalog import all_entries, entry_by_name
from knet.cli import _atomic_write
from knet.oracle import check_resolutions, convergence_table


def study(entry, resolutions):
    return [{"entry": entry.name, **row}
            for row in convergence_table(entry.problem, resolutions, entry.exact)]


def node_counts(spec):
    """Comma-separated nodes per edge, as check_resolutions takes them."""
    counts = [int(r) for r in spec.split(",")]
    try:
        return check_resolutions(counts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--entries", default=None,
                    help="comma-separated catalog names (default: all)")
    ap.add_argument("--resolutions", type=node_counts, default="21,41,81,161")
    ap.add_argument("--csv", default=None, help="also write rows to this CSV")
    args = ap.parse_args(argv)

    resolutions = args.resolutions
    if args.entries:
        entries = [entry_by_name(n) for n in args.entries.split(",")]
    else:
        entries = all_entries()

    all_rows = []
    for entry in entries:
        rows = study(entry, resolutions)
        all_rows.extend(rows)
        print(f"\n{entry.name}  ({rows[0]['reference']} reference)")
        print(f"  {'nodes':>6} {'h':>10} {'sup error':>12} {'order':>7} "
              f"{'iters':>6} {'time':>8}")
        for r in rows:
            print(f"  {r['nodes']:>6} {r['h']:>10.4g} {r['error']:>12.4e} "
                  f"{r['order']:>7.3f} {r['iterations']:>6} "
                  f"{r['wall_time']:>7.2f}s"
                  + ("" if r["converged"] else f"  NOT CONVERGED: {r['message']}")
                  + ("" if r["reference_converged"] else "  REFERENCE NOT CONVERGED"))

    if args.csv:
        # the CLI's writer: a reader sees the old file or the whole new one
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[k for k in all_rows[0]
                                            if not k.endswith("message")],
                                extrasaction="ignore")
        writer.writeheader()
        writer.writerows(all_rows)
        _atomic_write(args.csv, buf.getvalue())
        print(f"\nwrote {len(all_rows)} rows to {args.csv}")

    return 0 if all(r["converged"] and r["reference_converged"] for r in all_rows) else 1


if __name__ == "__main__":
    sys.exit(main())
