"""Acceptance suite: every criterion as one test, each ending with a
printed PASS line (run with `pytest tests/test_acceptance.py -v -s`).

Numbered criteria:
 1. solver optimum == brute-force optimum on cycles, the 5-vertex example
    graph, and 200 seeded random graphs, within 5 minutes total
 2. grid optima (published values), 120 s each
 3. queen optima, 300 s each
 4. DIMACS optima: myciel3/myciel4 blocking, huck/jean stretch report-only
 5. zero generated/lifted cuts violated by any enumerated completion
 6. facet ranks mc-1 and full dimension mc on the listed cycle graphs
 7. exact I2/I3 separators agree with exhaustive enumeration
 8. solver UB <= MDO UB and MDO UB >= oracle optimum on the suite
 9. generated/parsed instance sizes match the published tables
10. per-family cut counts add up to the total on grid4_4
"""

import os
import time

import numpy as np
import pytest

from fillin.cuts import CutError, cut_i1, cut_i2, cut_i3, cut_i4, evaluate
from fillin.cuts import Cut, lift_chord, lift_conditional, lift_zero_pad
from fillin.graphs import Cycle, Graph, Point, new_graph
from fillin.heuristics import mdo_completion
from fillin.instances import gen_grid, gen_queen, load_instance, parse_dimacs
from fillin.oracle import affine_rank, brute_force_mccp, feasible_points
from fillin.separation import separate_i2_exact, separate_i3_exact
from fillin.solver import OPTIMAL, SolverConfig, solve
from helpers import (
    all_cycle_sequences,
    cycle_graph,
    exhaustive_i2_violation,
    exhaustive_i3_violation,
    fig_graph,
    int_pairs,
    random_connected_graph,
)

import importlib.resources as importlib_resources

DATA = importlib_resources.files("fillin") / "data"
# huck/jean are not vendored (fetch the DIMACS originals yourself and drop
# them here or point FILLIN_DIMACS_DIR at them)
EXTERNAL_DIR = os.environ.get("FILLIN_DIMACS_DIR", str(DATA))


def _external(name):
    path = os.path.join(EXTERNAL_DIR, name)
    return path if os.path.exists(path) else None


@pytest.fixture(scope="module")
def oracle_suite():
    """Criterion-1 suite: instances with oracle optimum, solver result and
    heuristic size (shared by criteria 1 and 8)."""
    t0 = time.perf_counter()
    instances = [(f"C{k}", cycle_graph(k)) for k in (4, 5, 6, 7, 8)]
    instances.append(("fig", fig_graph()))
    rng = np.random.default_rng(2024)
    for i in range(200):
        n = int(rng.integers(4, 9))
        density = float(rng.uniform(0.3, 0.7))
        instances.append((f"rand{i}", random_connected_graph(rng, n, density)))
    rows = []
    for name, g in instances:
        opt = len(brute_force_mccp(g))
        res = solve(g)
        mdo = len(mdo_completion(g))
        rows.append((name, g, opt, res, mdo))
    return rows, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence(oracle_suite):
    rows, elapsed = oracle_suite
    for name, _, opt, res, _ in rows:
        assert res.status == OPTIMAL, name
        assert res.upper_bound == opt, f"{name}: solver {res.upper_bound} != oracle {opt}"
        assert res.lower_bound == opt, name
    assert elapsed < 300.0, f"suite took {elapsed:.1f}s, budget 300s"
    print(f"\nACCEPTANCE 1: PASS - solver == oracle on {len(rows)} instances "
          f"({elapsed:.1f}s < 300s)")


GRID_OPTIMA = [("grid3_3", (3, 3), 5), ("grid3_4", (3, 4), 9),
               ("grid3_5", (3, 5), 13), ("grid3_6", (3, 6), 17),
               ("grid4_4", (4, 4), 18)]


def test_criterion_2_grid_optima():
    times = []
    for name, (r, c), expect in GRID_OPTIMA:
        t0 = time.perf_counter()
        res = solve(gen_grid(r, c), SolverConfig(time_limit_s=120))
        dt = time.perf_counter() - t0
        times.append(f"{name}={dt:.1f}s")
        assert res.status == OPTIMAL, f"{name} not solved within limit"
        assert res.upper_bound == expect, f"{name}: {res.upper_bound} != {expect}"
        assert dt < 120.0, f"{name} took {dt:.1f}s"
    print(f"\nACCEPTANCE 2: PASS - grid optima 5/9/13/17/18 ({', '.join(times)})")


QUEEN_OPTIMA = [("queen3_3", (3, 3), 5), ("queen3_4", (3, 4), 12),
                ("queen3_5", (3, 5), 22), ("queen4_4", (4, 4), 26)]


def test_criterion_3_queen_optima():
    times = []
    for name, (r, c), expect in QUEEN_OPTIMA:
        t0 = time.perf_counter()
        res = solve(gen_queen(r, c), SolverConfig(time_limit_s=300))
        dt = time.perf_counter() - t0
        times.append(f"{name}={dt:.1f}s")
        assert res.status == OPTIMAL and res.upper_bound == expect, name
        assert dt < 300.0, f"{name} took {dt:.1f}s"
    print(f"\nACCEPTANCE 3: PASS - queen optima 5/12/22/26 ({', '.join(times)})")


def test_criterion_4_dimacs_optima():
    times = []
    for name, expect in [("myciel3.col", 10), ("myciel4.col", 46)]:
        g = parse_dimacs((DATA / name).read_text())
        t0 = time.perf_counter()
        res = solve(g, SolverConfig(time_limit_s=600))
        dt = time.perf_counter() - t0
        times.append(f"{name.removesuffix('.col')}={dt:.1f}s")
        assert res.status == OPTIMAL and res.upper_bound == expect, name
        assert dt < 600.0
    stretch = []
    for name, expect in [("huck.col", 5), ("jean.col", 16)]:
        path = _external(name)
        if path is None:
            stretch.append(f"{name.removesuffix('.col')}=absent")
            continue
        res = solve(load_instance(path), SolverConfig(time_limit_s=3600))
        stretch.append(
            f"{name.removesuffix('.col')}: {res.status} lb={res.lower_bound} "
            f"ub={res.upper_bound} (published {expect})"
        )
    print(f"\nACCEPTANCE 4: PASS - myciel3=10, myciel4=46 ({', '.join(times)}); "
          f"stretch report: {', '.join(stretch)}")


def _criterion5_graphs():
    for k in (4, 5, 6, 7):
        yield cycle_graph(k)
    rng = np.random.default_rng(555)
    for _ in range(50):
        yield random_connected_graph(rng, int(rng.integers(4, 8)),
                                     float(rng.uniform(0.3, 0.7)))


def _family_cuts(g):
    for cyc in all_cycle_sequences(g.n):
        k = len(cyc)
        try:
            yield cut_i1(g, cyc)
        except CutError:
            pass
        for i in range(k):
            try:
                yield cut_i2(g, cyc, i)
            except CutError:
                pass
        if k >= 5:
            yield cut_i3(g, cyc)
            for j in range(k):
                for i in range(k):
                    if cyc.dist(i, j) >= 2:
                        yield cut_i4(g, cyc, i, j)


def _lifted_cuts(g):
    """Conditional, chord and zero-pad lifts rooted at g's structure."""
    from fillin.graphs import iter_chordless_cycles

    if set(g.edges) == {tuple(sorted((i, (i + 1) % g.n))) for i in range(g.n)}:
        # cycle graph: conditional lifts (edge removals) and chord lifts
        full = Cycle(tuple(range(g.n)))
        bases = [cut_i1(g, full)]
        if g.n >= 5:
            bases.append(cut_i3(g, full))
        for base in bases:
            for e in list(g.edges)[:3]:
                yield lift_conditional(base, [e])
            yield lift_conditional(base, list(g.edges)[:2])
        for s in range(g.n):
            for t in range(s + 2, g.n):
                if (s, t) in g.edges or t - s == g.n - 1:
                    continue
                sub = tuple(range(s, t + 1))
                if len(sub) < 4:
                    continue
                inner = Cycle(sub)
                coeffs = {g.fill_index(*p): 1 for p in int_pairs(inner)}
                base = Cut(g, coeffs, len(sub) - 3, "I1")
                yield lift_chord(base, g.fill_index(s, t))
    else:
        # generic graph: zero-pad pure-cycle cuts along its chordless cycles
        for cyc in iter_chordless_cycles(g):
            k = len(cyc)
            ring = cycle_graph(k)
            ring_cycle = Cycle(tuple(range(k)))
            mapping = dict(enumerate(cyc.vertices))
            yield lift_zero_pad(cut_i1(ring, ring_cycle), mapping, g)
            yield lift_zero_pad(cut_i2(ring, ring_cycle, 1), mapping, g)
            if k >= 5:
                yield lift_zero_pad(cut_i3(ring, ring_cycle), mapping, g)
                yield lift_zero_pad(cut_i4(ring, ring_cycle, 2, 0), mapping, g)


def _assert_no_violation(cuts, cache):
    checked = 0
    for cut in cuts:
        g = cut.graph
        key = (g.n, g.edges)
        if key not in cache:
            pts = feasible_points(g)
            cache[key] = np.array([np.rint(p.values).astype(int) for p in pts])
        matrix = cache[key]
        a = np.zeros(g.mc, dtype=np.int64)
        for f, coef in cut.coeffs.items():
            a[f] = coef
        assert (matrix @ a >= cut.rhs).all(), f"violated: {cut}"
        checked += 1
    return checked


def test_criterion_5_cut_validity():
    cache = {}
    total = 0
    for g in _criterion5_graphs():
        total += _assert_no_violation(_family_cuts(g), cache)
        total += _assert_no_violation(_lifted_cuts(g), cache)
    print(f"\nACCEPTANCE 5: PASS - {total} generated/lifted cuts, zero violations "
          f"(exact integer arithmetic)")


def test_criterion_6_facet_ranks():
    combos = []
    for k in (4, 5, 6):
        g = cycle_graph(k)
        full = Cycle(tuple(range(k)))
        combos.append((f"I1/C{k}", g, cut_i1(g, full)))
        combos.append((f"I2(i=1)/C{k}", g, cut_i2(g, full, 1)))
        if k >= 5:
            combos.append((f"I3/C{k}", g, cut_i3(g, full)))
            combos.append((f"I4/C{k}", g, cut_i4(g, full, 2, 0)))
    points_cache = {}
    for label, g, cut in combos:
        if g.n not in points_cache:
            points_cache[g.n] = feasible_points(g)
        pts = points_cache[g.n]
        assert affine_rank(pts) == g.mc, f"full dimension failed on C{g.n}"
        tight = [p for p in pts if evaluate(cut, p) == 0]
        assert affine_rank(tight) == g.mc - 1, f"{label} rank != mc-1"
    print(f"\nACCEPTANCE 6: PASS - {len(combos)} facet ranks == mc-1, "
          f"full dimension == mc on C4/C5/C6")


def test_criterion_7_exact_separator_agreement():
    found_i2 = found_i3 = points = 0
    for k in (5, 6, 7):
        g = cycle_graph(k)
        rng = np.random.default_rng(7000 + k)
        for _ in range(20):
            x = Point(rng.random(g.mc) ** float(rng.uniform(0.5, 3.0)))
            points += 1
            rep2 = separate_i2_exact(g, x)
            ex2 = exhaustive_i2_violation(g, x)
            assert bool(rep2.cuts) == (ex2 is not None), f"I2 disagreement on C{k}"
            for cut, v in zip(rep2.cuts, rep2.violations):
                assert v > 1e-6 and evaluate(cut, x) == pytest.approx(v)
            found_i2 += bool(rep2.cuts)
            rep3 = separate_i3_exact(g, x)
            ex3 = exhaustive_i3_violation(g, x)
            assert bool(rep3.cuts) == (ex3 is not None), f"I3 disagreement on C{k}"
            for cut, v in zip(rep3.cuts, rep3.violations):
                assert v > 1e-6 and evaluate(cut, x) == pytest.approx(v)
            found_i3 += bool(rep3.cuts)
    print(f"\nACCEPTANCE 7: PASS - exact separators match exhaustive enumeration "
          f"on {points} points (I2 violated {found_i2}, I3 violated {found_i3})")


def test_criterion_8_heuristic_dominance(oracle_suite):
    rows, _ = oracle_suite
    for name, _, opt, res, mdo in rows:
        assert res.upper_bound <= mdo, f"{name}: solver UB {res.upper_bound} > MDO {mdo}"
        assert mdo >= opt, f"{name}: MDO {mdo} below optimum {opt}"
    print(f"\nACCEPTANCE 8: PASS - solver UB <= MDO UB >= optimum on "
          f"{len(rows)} instances")


def test_criterion_9_instance_fidelity():
    sizes = {
        "grid3_3": (gen_grid(3, 3), (9, 12)),
        "grid4_4": (gen_grid(4, 4), (16, 24)),
        "queen3_3": (gen_queen(3, 3), (9, 28)),
        "queen3_4": (gen_queen(3, 4), (12, 46)),
    }
    for name, (g, (n, m)) in sizes.items():
        assert (g.n, g.m) == (n, m), name
    g = parse_dimacs((DATA / "myciel3.col").read_text())
    assert (g.n, g.m) == (11, 20)
    extra = ""
    path = _external("huck.col")
    if path is not None:
        h = load_instance(path)
        assert (h.n, h.m) == (74, 301)
        extra = ", huck=(74,301)"
    else:
        extra = ", huck not vendored (skipped)"
    print(f"\nACCEPTANCE 9: PASS - generated/parsed sizes match the published "
          f"tables{extra}")


def test_criterion_10_cut_accounting():
    res = solve(gen_grid(4, 4), SolverConfig(time_limit_s=120))
    assert res.status == OPTIMAL
    assert set(res.cuts_by_family) == {"I1", "I2", "I3", "I4"}
    assert sum(res.cuts_by_family.values()) == res.total_cuts
    assert res.total_cuts > 0
    counts = ", ".join(f"{k.lower()}={v}" for k, v in res.cuts_by_family.items())
    print(f"\nACCEPTANCE 10: PASS - {counts}, total={res.total_cuts}")
