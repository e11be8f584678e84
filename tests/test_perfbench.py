"""The benchmark's tracer names knet functions and ResidualSystem methods by
string, so a rename in knet would silently turn a traced layer into an
absent one.  perfbench/tracing.py is read from its path, never imported as
a package, so no bytecode cache is written next to it."""

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
