"""The benchmark's tracer names knet functions and ResidualSystem methods by
string, so a rename in knet would silently turn a traced layer into an
absent one; its workloads call knet's CLI, so a dropped flag would turn an
operation into a failed run.  perfbench/tracing.py and workloads.py are
read from their paths, never imported as a package, so no bytecode cache is
written next to them."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_exists_in_knet():
    tracing = runpy.run_path(str(TRACING))
    missing = [f"{module}.{name}" for _, module, name in tracing["FUNCTIONS"]
               if not hasattr(importlib.import_module(module), name)]
    module, cls_name = tracing["RESIDUAL_SYSTEM"]
    cls = getattr(importlib.import_module(module), cls_name)
    missing += [f"{module}.{cls_name}.{name}" for _, name, _ in tracing["METHODS"]
                if not hasattr(cls, name)]
    assert tracing["FUNCTIONS"] and tracing["METHODS"]
    assert missing == []


WORKLOADS = TRACING.parent / "workloads.py"


def test_every_benchmark_operation_parses(tmp_path):
    """Each workload's operations are argv lists for knet.cli.main; a knet
    change that drops a flag, or a member prepare reads, shows here before
    the benchmark runs.  Nothing is solved: prepare writes the configs and
    the parser reads each argv."""
    from knet.cli import build_parser

    workloads = runpy.run_path(str(WORKLOADS))
    parser = build_parser()
    parsed = []
    for name in workloads["WORKLOADS"]:
        for op in workloads["prepare"](name, 1, str(tmp_path / name)):
            args = parser.parse_args(op.argv)
            assert args.subcommand == op.argv[0], op.op_id
            parsed.append(op.op_id)
    assert len(parsed) == len(set(parsed)) == 13
