"""Per-layer tracing for the traced benchmark run.

Each layer is traced by replacing a public function in the module that
looks it up (``fillin.solver.solve_lp``, not ``fillin.lp.solve_lp``) with a
wrapper that times the call and counts its work.  Spans nest: a span's self
time is its duration minus the time of the wrapped calls inside it, so the
self times of all layers add up to the traced solve time.  Generators are
timed across every resumption until they stop, not just the call that makes
them.  A function that no longer exists under its name marks its layer
absent, and that layer's metrics are left out.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (layer, span, module that looks the name up, name)
TARGETS = [
    ("solver", "solver", "fillin.solver", "root_initialize"),
    ("lp", "lp", "fillin.solver", "solve_lp"),
    ("sep", "sep.integer", "fillin.solver", "separate_integer"),
    ("sep", "sep.threshold", "fillin.solver", "separate_threshold"),
    ("sep", "sep.exact_i2", "fillin.solver", "separate_i2_exact"),
    ("graphs", "graphs.cycles", "fillin.separation", "iter_chordless_cycles"),
    ("graphs", "graphs.chordal", "fillin.solver", "is_chordal"),
    ("graphs", "graphs.chordal", "fillin.solver", "is_valid_completion"),
    ("cuts", "cuts.build", "fillin.separation", "cut_i1"),
    ("cuts", "cuts.build", "fillin.separation", "cut_i2"),
    ("cuts", "cuts.build", "fillin.separation", "cut_i3"),
    ("cuts", "cuts.build", "fillin.separation", "cut_i4"),
    ("cuts", "cuts.evaluate", "fillin.separation", "evaluate"),
    ("heur", "heur", "fillin.solver", "mdo_completion"),
    ("heur", "heur", "fillin.solver", "primal_repair"),
]
SEP_MECHS = ("integer", "threshold", "exact_i2")
FAMILIES = ("I1", "I2", "I3", "I4")


class Tracer:
    """Span timer and work counters; ``with tracer:`` patches the layers."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.count = Counter()
        self.rows_max = 0
        self.root_ub: dict = {}  # graph -> size of the root incumbent
        self.absent: set[str] = set()
        self._stack: list[float] = []
        self._saved: list = []

    def _close(self, span: str, t0: float) -> None:
        d = perf_counter() - t0
        self.self_s[span] += d - self._stack.pop()
        if self._stack:
            self._stack[-1] += d

    def wrap(self, span: str, fn, on_return=None):
        def traced(*args, **kwargs):
            self.calls[span] += 1
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(span, t0)
            if on_return is not None:
                on_return(res, *args)
            return res
        return traced

    def wrap_generator(self, span: str, fn):
        def traced(*args, **kwargs):
            self.calls[span] += 1
            it = fn(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(span, t0)
                self.count[span + ".yielded"] += 1
                yield item
        return traced

    # work counters, fed from each layer's return value
    def _lp_done(self, res, problem, *_):
        rows = len(problem.rows)
        self.count["lp.rows"] += rows
        self.rows_max = max(self.rows_max, rows)
        self.count["lp.pivots"] += res.iterations
        self.count["lp.infeasible"] += res.status == "INFEASIBLE"
        self.count["lp.iter_limit"] += res.status == "ITERATION_LIMIT"

    def _sep_done(self, mech: str):
        def done(report, *_):
            key = "sep." + mech
            self.count[key + ".cuts"] += len(report.cuts)
            self.count[key + ".cycles"] += report.stats.cycles_examined
            self.count[key + ".dijkstra"] += report.stats.dijkstra_calls
            self.count[key + ".hits"] += bool(report.cuts)
            for cut in report.cuts:
                self.count["sep.cuts." + cut.family] += 1
        return done

    def _root_done(self, res, g, *_):
        self.root_ub[g] = len(res[0])

    def __enter__(self):
        hooks = {"lp": self._lp_done, "solver": self._root_done}
        hooks.update({"sep." + m: self._sep_done(m) for m in SEP_MECHS})
        for layer, span, modname, name in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, name, None)
            if fn is None:
                self.absent.add(layer)
                continue
            self._saved.append((mod, name, fn))
            if span == "graphs.cycles":
                setattr(mod, name, self.wrap_generator(span, fn))
            else:
                setattr(mod, name, self.wrap(span, fn, hooks.get(span)))
        return self

    def __exit__(self, *exc):
        for mod, name, fn in reversed(self._saved):
            setattr(mod, name, fn)
        self._saved.clear()

    def solve(self, solve_fn, g, cfg):
        """One top-level solve as the root span; its self time is solver time."""
        return self.wrap("solver", solve_fn)(g, cfg)

    def metrics(self, passes: int, traced_s: float, root_gap: int,
                root_ub_gap: int, nodes: int, pool_cuts: int) -> dict:
        """Per-pass layer metrics as {name: (value, unit)}; traced_s is the
        traced solve time summed over all passes."""
        k = passes
        s, calls, c = self.self_s, self.calls, self.count
        out = {}
        if "lp" not in self.absent:
            n = calls["lp"]
            out.update({
                "lp.calls": (n / k, "count"),
                "lp.s": (s["lp"] / k, "s"),
                "lp.share": (s["lp"] / traced_s, "ratio"),
                "lp.pivots": (c["lp.pivots"] / k, "count"),
                "lp.rows.mean": (c["lp.rows"] / max(n, 1), "count"),
                "lp.rows.max": (self.rows_max, "count"),
                "lp.s_per_call": (s["lp"] / max(n, 1), "s"),
                "lp.infeasible": (c["lp.infeasible"] / k, "count"),
                "lp.iter_limit": (c["lp.iter_limit"] / k, "count"),
            })
        if "sep" not in self.absent:
            for mech in SEP_MECHS:
                key = "sep." + mech
                out.update({
                    key + ".calls": (calls[key] / k, "count"),
                    key + ".s": (s[key] / k, "s"),
                    key + ".cuts": (c[key + ".cuts"] / k, "count"),
                    key + ".cycles": (c[key + ".cycles"] / k, "count"),
                    key + ".hit_frac": (c[key + ".hits"] / max(calls[key], 1), "ratio"),
                })
            out["sep.exact_i2.dijkstra"] = (c["sep.exact_i2.dijkstra"] / k, "count")
            for fam in FAMILIES:
                out["sep.cuts." + fam] = (c["sep.cuts." + fam] / k, "count")
        if "graphs" not in self.absent:
            out.update({
                "graphs.cycles.calls": (calls["graphs.cycles"] / k, "count"),
                "graphs.cycles.yielded": (c["graphs.cycles.yielded"] / k, "count"),
                "graphs.cycles.s": (s["graphs.cycles"] / k, "s"),
                "graphs.chordal.calls": (calls["graphs.chordal"] / k, "count"),
                "graphs.chordal.s": (s["graphs.chordal"] / k, "s"),
            })
        if "cuts" not in self.absent:
            out.update({
                "cuts.build.calls": (calls["cuts.build"] / k, "count"),
                "cuts.build.s": (s["cuts.build"] / k, "s"),
                "cuts.evaluate.calls": (calls["cuts.evaluate"] / k, "count"),
                "cuts.evaluate.s": (s["cuts.evaluate"] / k, "s"),
            })
        if "heur" not in self.absent:
            out.update({
                "heur.calls": (calls["heur"] / k, "count"),
                "heur.s": (s["heur"] / k, "s"),
            })
        if "solver" not in self.absent:
            out["heur.root_ub_gap"] = (root_ub_gap, "count")
        out.update({
            "solver.nodes": (nodes, "count"),
            "solver.root_gap": (root_gap, "count"),
            "solver.pool_cuts": (pool_cuts, "count"),
            "solver.self_s": (s["solver"] / k, "s"),
            "solver.self_share": (s["solver"] / traced_s, "ratio"),
        })
        return out
