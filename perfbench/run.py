"""knet benchmark: three CLI workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload solve-fine --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a checkout.  The knet package is imported from the
checkout's ``src`` directory; the run stops with a non-zero exit code when it
is not there.  Each operation is one ``knet.cli.main(argv)`` call, timed
together with a fixed reference kernel run just before it; a pass runs all
of a workload's operations once, and passes repeat until the next one would
end more than half a pass after ``--seconds``.  Correctness gates read the
outputs after each pass, outside the timed region.  The last line of
standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Outputs go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

T_PROCESS = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = ".perfbench_out"
SETUP_PROBES = 5
# KNET_THREADS for the CLI.  convergence-table's worker pool is bound by the
# GIL: two workers take the same wall time as one on the 2-CPU machine the
# notes describe, but make it depend on the other CPU's load.
THREADS = "1"
# run_s is wall time rescaled to a machine on which reference() takes this
REF_NOMINAL_S = 0.010


def import_knet():
    """Import knet from the checkout's src, or exit without a result."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "knet", "cli.py")):
        sys.exit(f"perfbench: no knet sources under {src}")
    sys.path.insert(0, src)
    import knet.cli

    if not os.path.abspath(knet.cli.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: knet was imported from {knet.cli.__file__}")
    return knet.cli


def setup(workload, seed, workdir):
    """Everything a user pays before the first operation: import knet,
    build the problems and write the configs."""
    cli = import_knet()
    from workloads import prepare

    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    return cli, prepare(workload, seed, workdir)


def measure_setup(workload, seed):
    """Median wall time of fresh processes that only set up."""
    times = []
    for k in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--setup-probe", os.path.join(OUT, f"probe-{k}"),
                        "--workload", workload, "--seed", str(seed)],
                       check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


_REF_X = np.linspace(0.0, 1.0, 50)


def reference():
    """Fixed work of the same kind as knet's hot path: a Python loop over
    small numpy calls.  It takes about REF_NOMINAL_S on the machine the
    notes describe and slows down with it when other tenants load it."""
    s = 0.0
    for i in range(1500):
        s += float(np.max(np.abs(_REF_X * i - 0.5)))
    return s


def run_pass(cli, ops):
    """One timed pass.  Before each operation the reference kernel runs
    once; returns per-operation (wall seconds, reference seconds, (start,
    end)) and exit codes."""
    codes, samples = [], []
    for op in ops:
        t_ref = time.perf_counter()
        reference()
        t0 = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except Exception as exc:  # a raising operation is a failed one
            code = exc
        t1 = time.perf_counter()
        samples.append((t1 - t0, t0 - t_ref, (t0, t1)))
        codes.append(code)
    return samples, codes


def gate_pass(ops, codes):
    """Outcomes of one pass, op_id -> Outcome."""
    from workloads import Outcome

    outcomes = {}
    for op, code in zip(ops, codes):
        if isinstance(code, Exception):
            out = Outcome(False, f"raised {type(code).__name__}: {code}")
        else:
            try:
                out = op.gate(code)
            except (OSError, ValueError, KeyError) as exc:
                out = Outcome(False, f"gate error {type(exc).__name__}: {exc}")
        outcomes[op.op_id] = out
    return outcomes


def normalised(sample):
    """An operation's wall time rescaled to the reference kernel's nominal
    speed, using the kernel's time just before the operation."""
    seconds, ref, _ = sample
    return seconds * REF_NOMINAL_S / ref


def pass_estimate(passes, value=normalised):
    """Seconds for one pass: the sum over operations of each operation's
    median ``value`` across passes."""
    return sum(statistics.median(value(s) for s in col) for col in zip(*passes))


def wall(sample):
    return sample[0]


def percentile_note(samples):
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            s = sorted(samples)
            return f"p{q:g}={s[min(n - 1, int(n * q / 100))]:.4f}"
    return "no percentile has 10 samples beyond it"


class Tally:
    """Attempted operations and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, ops, codes, label):
        for op_id, out in gate_pass(ops, codes).items():
            self.attempted += 1
            if not out.ok:
                self.failures.append(f"{label} {op_id}: {out.detail}")


def measure(cli, ops, seconds, tally, tracer=None):
    """Timed passes over the operations.  A traced run alternates
    untraced and traced passes, so the difference of the two estimates is
    the tracing overhead.  Returns (untraced, traced, layer values, self
    times), the pass lists holding ``run_pass`` samples."""
    untraced, traced, layer, self_times, durations = [], [], [], [], []
    t_begin = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        trace_this = tracer is not None and len(untraced) > len(traced)
        if trace_this:
            tracer.pass_index = len(traced)
            tracer.install()
        samples, codes = run_pass(cli, ops)
        durations.append(time.perf_counter() - t_pass)
        if trace_this:
            tracer.uninstall()
            values, selfs = tracer.layer_metrics(
                tracer.pass_index, [w for _, _, w in samples])
            layer.append(values)
            self_times.append(selfs)
            traced.append(samples)
        else:
            untraced.append(samples)
        tally.add(ops, codes, f"pass {len(untraced) + len(traced) - 1}")
        done = time.perf_counter() - t_begin
        # stop when the next pass would end more than half a pass late
        if ((tracer is None or traced)
                and done + statistics.median(durations) / 2 > seconds):
            return untraced, traced, layer, self_times


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    os.chdir(ROOT)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.environ["KNET_THREADS"] = THREADS
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from "
                 f"{', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        setup(args.workload, args.seed, args.setup_probe)
        return 0

    workdir = os.path.join(OUT, args.workload)
    cli, ops = setup(args.workload, args.seed, workdir)
    first_op_at = time.perf_counter() - T_PROCESS
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    tally = Tally()
    if tracer is None:
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
    untraced, traced, layer, self_times = measure(
        cli, ops, args.seconds, tally, tracer)

    print(f"workload={args.workload} seed={args.seed} passes={len(untraced)}"
          f" traced_passes={len(traced)} in-process setup {first_op_at:.3f} s")
    for k, op in enumerate(ops):
        col = [p[k] for p in untraced]
        print(f"op {op.op_id}: median {statistics.median(map(normalised, col)):.3f}"
              f" s normalised, {statistics.median(map(wall, col)):.3f} s wall"
              f"  argv: knet {' '.join(op.argv)}")
    for line in tally.failures:
        print(f"FAILED: {line}")
    run_s = pass_estimate(untraced)
    totals = [sum(map(normalised, p)) for p in untraced]
    refs = [s[1] for p in untraced for s in p]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"run_s={run_s:.4f} s (sum of per-operation medians over "
          f"{len(untraced)} passes, each operation's wall time rescaled by "
          f"{REF_NOMINAL_S} s / the reference kernel's time before it; "
          f"reference median {statistics.median(refs):.4f} s, min "
          f"{min(refs):.4f} s; in wall seconds "
          f"{pass_estimate(untraced, wall):.4f} s)")
    print(f"normalised pass totals ({len(totals)} samples): "
          f"{', '.join(f'{t:.3f}' for t in totals)}; {percentile_note(totals)}")
    failed = len(tally.failures)
    print(f"failed_frac={failed / tally.attempted:.4f} ({failed} "
          f"failed / {tally.attempted} attempted)")
    print(f"peak_rss_mb={peak_rss_mb:.1f} MB")

    if tracer is None:
        print(f"setup_s={setup_s:.4f} s (median of {len(setup_samples)} "
              f"fresh processes: {', '.join(f'{t:.3f}' for t in setup_samples)})")
        metrics = {"run_s": (run_s, "s"), "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        metrics = {name: (statistics.median(v[name][0] for v in layer), unit)
                   for name, (_, unit) in layer[0].items()}
        traced_s = pass_estimate(traced)
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - run_s, "s")
        for name in tracer.absent:
            print(f"absent layer: {name}")
        selfs = self_times[0]
        total = sum(selfs.values())
        for name, t in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"self time {name}: {t:.3f} s ({100 * t / total:.1f}% of "
                  f"span time)")
        trace_path = os.path.join(workdir, f"spans-seed{args.seed}.jsonl")
        tracer.dump(trace_path)
        print(f"spans: {trace_path}")
    for name, (value, unit) in metrics.items():
        print(f"{name}={value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args, workloads):
    """Each workload in its own process, so set-up and memory are its own."""
    status = 0
    for workload in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, timeout=600)
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
