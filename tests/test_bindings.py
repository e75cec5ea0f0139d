"""Names that code outside the library looks up in weylunip must exist.

perfbench/tracer.py wraps every function its LAYERS table names, looked
up with getattr on the weylunip module, and fails when one is missing;
the package root promises every name in __all__.
"""

import importlib
import importlib.util
from pathlib import Path

import weylunip

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_layers_resolve():
    layers = load_tracer().LAYERS
    missing = [
        f"{mod}.{fn}"
        for mod, fns in layers.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"weylunip.{mod}"), fn, None))
    ]
    assert missing == []


def test_package_exports_resolve():
    missing = [name for name in weylunip.__all__ if not hasattr(weylunip, name)]
    assert missing == []
    assert len(set(weylunip.__all__)) == len(weylunip.__all__)
