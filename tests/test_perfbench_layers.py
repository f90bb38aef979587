"""The traced benchmark run patches layers by name (perfbench/layers.py);
a name that no longer exists silently marks its layer absent, so every
name it targets must exist in the module it is looked up in."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    targets = load_layers().TARGETS
    assert len(targets) >= 15
    missing = [(modname, name) for _, _, modname, name in targets
               if not hasattr(importlib.import_module(modname), name)]
    assert missing == []

