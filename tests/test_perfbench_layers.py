"""The traced benchmark run patches layers by name (perfbench/layers.py);
a name that no longer exists silently marks its layer absent, so every
name it targets must exist in the module it is looked up in.  A name the
solver stops calling reads zero instead, so one small solve must reach
every span."""

import importlib
import importlib.util
from pathlib import Path

import fillin.solver
from fillin.instances import gen_grid

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


def test_every_traced_layer_is_reached():
    tracer = load_layers().Tracer()
    with tracer:
        res = tracer.solve(fillin.solver.solve, gen_grid(3, 5),
                           fillin.solver.SolverConfig(exact_i2=True))
    assert res.status == "OPTIMAL" and res.upper_bound == 13
    assert tracer.absent == set()
    spans = ["solver", "lp", "sep.integer", "sep.threshold", "sep.exact_i2",
             "graphs.cycles", "graphs.chordal", "cuts.build", "cuts.evaluate", "heur"]
    assert [s for s in spans if tracer.calls[s] == 0] == []
    # integer LP points of the search; the root reads its rows without
    # separate_integer, so it is not counted here
    assert tracer.calls["sep.integer"] >= 2
