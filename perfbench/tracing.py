"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public name with a wrapper, in
every ``knet`` module that holds it (``knet.cli.assemble``,
``knet.solver.assemble``, ...), and patches ``ResidualSystem`` methods on
the class.  A span records its name, start, end, parent span and thread;
spans are kept in memory and written out once, at the end.  A name the
program no longer has is reported as an absent layer.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time

# span name -> (module, function).  A knet function is wrapped in every knet
# module that holds it; a third-party one (spsolve) only in the module named.
FUNCTIONS = [
    ("discretization.assemble", "knet.discretization", "assemble"),
    ("solver.jacobian", "knet.solver", "_fd_jacobian"),
    ("solver.linear_solve", "knet.solver", "spsolve"),
    ("solver.newton", "knet.solver", "newton_solve"),
    ("solver.sweep", "knet.solver", "sweep_solve"),
    ("solver.local_solve", "knet.solver", "solve_node"),
    ("solver.solve", "knet.solver", "solve_system"),
    ("solver.solve", "knet.solver", "vanishing_viscosity"),
    ("oracle.fine_grid", "knet.oracle", "fine_grid_reference"),
    ("oracle.direct", "knet.oracle", "direct_linear_solve"),
    ("analysis.diagnostics", "knet.analysis", "diagnostics_report"),
    ("problem.validate", "knet.problem", "validate_problem"),
    ("cli.write", "knet.cli", "_atomic_write"),
    ("cli.read", "knet.cli", "read_solution_csv"),
]
# span or count name -> (ResidualSystem method, kind)
METHODS = [
    ("discretization.certify", "certify_monotone", "span"),
    ("discretization.residual", "residual", "span"),
    ("discretization.residual_node", "residual_node", "count"),
]
RESIDUAL_SYSTEM = ("knet.discretization", "ResidualSystem")

# reported per-layer metric -> (span prefix, statistic, unit)
#   incl: summed duration of the outermost spans of that prefix
#   self: summed duration minus the spans directly inside it
#   calls: number of spans (or counted calls)
LAYER_METRICS = {
    "discretization.certify_s": ("discretization.certify", "incl", "s"),
    "discretization.certify_calls": ("discretization.certify", "calls", "count"),
    "discretization.assemble_s": ("discretization.assemble", "self", "s"),
    "discretization.residual_s": ("discretization.residual", "incl", "s"),
    "discretization.residual_calls": ("discretization.residual", "calls", "count"),
    "discretization.residual_node_calls": ("discretization.residual_node", "calls", "count"),
    "solver.jacobian_s": ("solver.jacobian", "incl", "s"),
    "solver.jacobians": ("solver.jacobian", "calls", "count"),
    "solver.linear_solve_s": ("solver.linear_solve", "incl", "s"),
    "solver.newton_s": ("solver.newton", "incl", "s"),
    "solver.newton_iters": ("solver.newton_iters", "calls", "count"),
    "solver.sweep_s": ("solver.sweep", "incl", "s"),
    "solver.sweeps": ("solver.sweep_iters", "calls", "count"),
    "solver.local_solve_s": ("solver.local_solve", "incl", "s"),
    "solver.local_solves": ("solver.local_solve", "calls", "count"),
    "solver.solve_s": ("solver.solve", "incl", "s"),
    "oracle.fine_grid_s": ("oracle.fine_grid", "incl", "s"),
    "oracle.direct_s": ("oracle.direct", "incl", "s"),
    "analysis.diagnostics_s": ("analysis.diagnostics", "incl", "s"),
    "problem.validate_s": ("problem.validate", "incl", "s"),
    "cli.write_s": ("cli.write", "incl", "s"),
    "cli.read_s": ("cli.read", "incl", "s"),
}


class Tracer:
    """Spans and counts of the traced passes, kept per thread in memory.
    ``pass_index`` tags what is recorded with the pass it belongs to."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers = []  # one (spans, counts, span stack) per thread
        self._patches = []  # (owner, attribute, original)
        self.absent = []
        self.pass_index = 0

    # -- recording ----------------------------------------------------------

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = ([], {}, [])  # spans, counts, stack
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, _, stack = self._buffer()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, name, t0, t1, parent,
                              threading.get_ident(), self.pass_index))
        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._buffer()[1]
            key = (name, self.pass_index)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _solver(self, prefix, fn):
        """Span around ``newton_solve`` or ``sweep_solve`` that also counts
        runs, iterations and converged runs from the returned result."""
        inner = self._span(prefix, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._buffer()[1]
            key = (prefix + "_runs", self.pass_index)
            counts[key] = counts.get(key, 0) + 1
            res = inner(*args, **kwargs)
            for name, n in (("_iters", res.iterations),
                            ("_converged", int(res.converged))):
                key = (prefix + name, self.pass_index)
                counts[key] = counts.get(key, 0) + n
            return res
        return wrapper

    def _writer(self, fn):
        """Span around ``_atomic_write`` that also adds up bytes written."""
        inner = self._span("cli.write", fn)

        @functools.wraps(fn)
        def wrapper(path, text, *args, **kwargs):
            counts = self._buffer()[1]
            key = ("cli.bytes_written", self.pass_index)
            counts[key] = counts.get(key, 0) + len(text.encode())
            return inner(path, text, *args, **kwargs)
        return wrapper

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced name; remembers the originals for ``uninstall``."""
        self.absent = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "knet" or n.startswith("knet."))]
        for prefix, modname, name in FUNCTIONS:
            target = getattr(importlib.import_module(modname), name, None)
            if target is None:
                self.absent.append(f"{modname}.{name}")
                continue
            if name == "_atomic_write":
                wrapper = self._writer(target)
            elif name in ("newton_solve", "sweep_solve"):
                wrapper = self._solver(prefix, target)
            else:
                wrapper = self._span(prefix, target)
            homes = modules
            if not getattr(target, "__module__", "").startswith("knet"):
                homes = [importlib.import_module(modname)]
            for mod in homes:
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, attr, wrapper)
        cls = getattr(importlib.import_module(RESIDUAL_SYSTEM[0]),
                      RESIDUAL_SYSTEM[1], None)
        for prefix, name, kind in METHODS:
            target = getattr(cls, name, None) if cls is not None else None
            if target is None:
                self.absent.append(f"{'.'.join(RESIDUAL_SYSTEM)}.{name}")
                continue
            wrap = self._span if kind == "span" else self._count
            self._patch(cls, name, wrap(prefix, target))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results ------------------------------------------------------------

    def spans(self):
        return [s for spans, _, _ in self._buffers for s in spans]

    def counts(self, pass_index):
        out = {}
        for _, counts, _ in self._buffers:
            for (name, idx), n in counts.items():
                if idx == pass_index:
                    out[name] = out.get(name, 0) + n
        return out

    def layer_metrics(self, pass_index, windows):
        """Per-layer values for one traced pass, plus the share of the
        operations' (start, end) windows that no span covers."""
        spans = [s for s in self.spans() if s[6] == pass_index]
        by_id = {s[0]: s for s in spans}
        children = {}
        for s in spans:
            if s[4] is not None:
                children.setdefault(s[4], []).append(s)
        counts = self.counts(pass_index)
        calls, incl, self_time = {}, {}, {}
        for s in spans:
            name, dur = s[1], s[3] - s[2]
            calls[name] = calls.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + dur - sum(
                c[3] - c[2] for c in children.get(s[0], ()))
            parent = by_id.get(s[4])
            while parent is not None and parent[1] != name:
                parent = by_id.get(parent[4])
            if parent is None:
                incl[name] = incl.get(name, 0.0) + dur
        stats = {"incl": incl, "self": self_time, "calls": {**calls, **counts}}
        out = {metric: (float(stats[stat].get(prefix, 0)), unit)
               for metric, (prefix, stat, unit) in LAYER_METRICS.items()}
        out["cli.bytes_written"] = (float(counts.get("cli.bytes_written", 0)),
                                    "bytes")
        runs = counts.get("solver.newton_runs", 0)
        out["solver.newton_converged_ratio"] = (
            counts.get("solver.newton_converged", 0) / runs if runs else 0.0,
            "frac")
        # a fallback is a sweep run after a Newton run in the same solve
        newton_starts = {}
        for s in spans:
            if s[1] == "solver.newton":
                newton_starts.setdefault(s[4], []).append(s[2])
        fallbacks = sum(1 for s in spans if s[1] == "solver.sweep" and any(
            t < s[2] for t in newton_starts.get(s[4], ())))
        out["solver.fallbacks"] = (float(fallbacks), "count")
        intervals = [(s[2], s[3]) for s in spans]
        covered = sum(_union_length(intervals, a, b) for a, b in windows)
        total = sum(b - a for a, b in windows)
        out["trace.uncovered_share"] = (1.0 - covered / total, "frac")
        return out, self_time

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, thread, idx in sorted(
                    self.spans(), key=lambda s: s[2]):
                fh.write(json.dumps({"id": sid, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "thread": thread, "pass": idx}) + "\n")


def _union_length(intervals, lo, hi):
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
