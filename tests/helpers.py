"""Shared test fixtures: small graph builders, seeded random suites, and
independent brute-force oracles (cycle/parameter enumeration for the cut
families, vertex enumeration for LPs, per-triple Dijkstra for exact I2
separation), plus the pair-based chordless-cycle search, cut builders,
threshold/integer separation and set-based heuristics that the
adjacency-mask versions replaced, and the loop form of the LP active-set
refresh."""

from __future__ import annotations

import heapq
import importlib.resources as importlib_resources
from collections import deque
from itertools import combinations, permutations

import numpy as np

from fillin.cuts import Cut, CutError, FamilyInapplicableError, cut_i2, cut_i3, evaluate
from fillin.graphs import (
    Cycle,
    Graph,
    Point,
    apply_completion,
    edge,
    is_chordal,
    new_graph,
)
from fillin.instances import parse_dimacs
from fillin.separation import MAX_CUTS_PER_CALL, SeparationReport

# The running 5-vertex example: three chordless 4-cycles, optimum fill 1.
FIG_EDGES = [(0, 1), (0, 3), (1, 2), (2, 3), (1, 4), (3, 4)]


def fig_graph() -> Graph:
    return new_graph(5, FIG_EDGES)


# A chordal 7-vertex graph whose static minimum-degree order is not a
# perfect elimination ordering: eliminating in that order adds one edge.
CHORDAL_TRAP_EDGES = [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
                      (2, 3), (2, 4), (2, 5), (2, 6), (3, 5), (4, 5), (4, 6)]


def myciel4() -> Graph:
    """The vendored DIMACS Mycielski graph myciel4 (optimum fill 46)."""
    return parse_dimacs((importlib_resources.files("fillin") / "data" / "myciel4.col")
                        .read_text())


def chordal_trap_graph() -> Graph:
    return new_graph(7, CHORDAL_TRAP_EDGES)


def neighbours(g: Graph, v: int) -> list[int]:
    """Neighbours of v in ascending order, read from the edge set."""
    return [u for u in range(g.n) if u != v and g.has_edge(u, v)]


def cycle_graph(k: int) -> Graph:
    return new_graph(k, [(i, (i + 1) % k) for i in range(k)])


def path_graph(k: int) -> Graph:
    return new_graph(k, [(i, i + 1) for i in range(k - 1)])


def complete_graph(k: int) -> Graph:
    return new_graph(k, list(combinations(range(k), 2)))


def random_connected_graph(rng: np.random.Generator, n: int,
                           density: float) -> Graph:
    """Random connected graph: a random spanning tree plus density-sampled
    extra pairs."""
    while True:
        perm = rng.permutation(n)
        edges = set()
        for i in range(1, n):
            j = int(rng.integers(0, i))
            u, v = int(perm[i]), int(perm[j])
            edges.add((min(u, v), max(u, v)))
        for pair in combinations(range(n), 2):
            if rng.random() < density:
                edges.add(pair)
        g = new_graph(n, sorted(edges))
        if g.mc > 0:
            return g


def random_point(rng: np.random.Generator, g: Graph) -> Point:
    return Point(rng.random(g.mc))


def all_cycle_sequences(n: int, kmin: int = 4):
    """Every sequence of >= kmin distinct vertices, up to rotation and
    reflection (first element is the subset minimum, second < last)."""
    for size in range(kmin, n + 1):
        for subset in combinations(range(n), size):
            first, rest = subset[0], subset[1:]
            for perm in permutations(rest):
                if perm[0] < perm[-1]:
                    yield Cycle((first,) + perm)


def exhaustive_i2_violation(g: Graph, x: Point, tol: float = 1e-6):
    """Most violated lifted-I2 cut over every cycle sequence and position."""
    best = None
    for cyc in all_cycle_sequences(g.n):
        for i in range(len(cyc)):
            try:
                cut = cut_i2(g, cyc, i)
            except CutError:
                continue
            v = evaluate(cut, x)
            if v > tol and (best is None or v > best[1]):
                best = (cut, v)
    return best


def exhaustive_i3_violation(g: Graph, x: Point, tol: float = 1e-6):
    """Most violated lifted-I3 cut over every cycle sequence of length >= 5."""
    best = None
    for cyc in all_cycle_sequences(g.n, kmin=5):
        cut = cut_i3(g, cyc)
        v = evaluate(cut, x)
        if v > tol and (best is None or v > best[1]):
            best = (cut, v)
    return best


def lp_vertex_optimum(rows, rhs, lb, ub):
    """Minimum of sum(x) over {rows @ x >= rhs, lb <= x <= ub} by enumerating
    all basic points (intersections of num_vars active constraints).

    Returns None when infeasible.  The feasible set is box-bounded, so a
    nonempty region always has a vertex.
    """
    lb = np.asarray(lb, float)
    ub = np.asarray(ub, float)
    num_vars = lb.size
    cons = list(zip(np.asarray(rows, float), rhs))  # (normal, offset): normal . x >= offset
    for j in range(num_vars):
        e = np.zeros(num_vars)
        e[j] = 1.0
        cons.append((e.copy(), lb[j]))
        cons.append((-e, -ub[j]))
    best = None
    for active in combinations(range(len(cons)), num_vars):
        A = np.array([cons[i][0] for i in active])
        b = np.array([cons[i][1] for i in active])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        feasible = all(a @ x >= off - 1e-7 for a, off in cons)
        if feasible:
            val = float(x.sum())
            if best is None or val < best:
                best = val
    return best


def dijkstra_avoiding(xt: np.ndarray, n: int, src: int, dst: int,
                      forbidden: int, banned_pair: tuple[int, int]):
    """Shortest path in the complete graph with w(a,b) = 1 - x(a,b)
    + (x(c,a) + x(c,b))/2, never visiting the forbidden centre c and never
    using the banned direct edge.  The per-triple search exact I2
    separation ran before its paths were batched; kept as the reference."""
    c = forbidden
    dist = {src: 0.0}
    pred = {src: None}
    heap = [(0.0, src)]
    done = set()
    while heap:
        d, a = heapq.heappop(heap)
        if a in done:
            continue
        done.add(a)
        if a == dst:
            path = []
            while a is not None:
                path.append(a)
                a = pred[a]
            path.reverse()
            return d, path
        for b in range(n):
            if b == a or b == c or b in done:
                continue
            if (a, b) == banned_pair or (b, a) == banned_pair:
                continue
            w = 1.0 - xt[a, b] + 0.5 * (xt[c, a] + xt[c, b])
            nd = d + w
            if nd < dist.get(b, float("inf")) - 1e-15:
                dist[b] = nd
                pred[b] = a
                heapq.heappush(heap, (nd, b))
    return float("inf"), None


def _reference_path(g: Graph, v: int, u: int, allowed_mask: int):
    """BFS path from v to u staying inside allowed_mask, or None."""
    if not ((allowed_mask >> v) & 1 and (allowed_mask >> u) & 1):
        return None
    parent = {v: -1}
    queue = deque([v])
    while queue:
        a = queue.popleft()
        if a == u:
            path = []
            while a != -1:
                path.append(a)
                a = parent[a]
            path.reverse()
            return path
        for b in neighbours(g, a):
            if (allowed_mask >> b) & 1 and b not in parent:
                parent[b] = a
                queue.append(b)
    return None


def reference_chordless_cycles(g: Graph):
    """The per-triple chordless-cycle search that iter_chordless_cycles
    replaced: one BFS per triple (v, w, u), over g - N[w] + v + u."""
    full = (1 << g.n) - 1
    seen: set[tuple[int, ...]] = set()
    for v in range(g.n):
        for w in neighbours(g, v):
            for u in neighbours(g, w):
                if u <= v or g.has_edge(v, u):
                    continue
                allowed = (full & ~(g.adj_mask[w] | (1 << w))) | (1 << v) | (1 << u)
                path = _reference_path(g, v, u, allowed)
                if path is None:
                    continue
                cyc = Cycle(path + [w]).canonical()
                if cyc.vertices in seen:
                    continue
                seen.add(cyc.vertices)
                if all(p in g.edges for p in cyc.ext_pairs()) and not any(
                        p in g.edges for p in cyc.int_pairs()):
                    yield cyc


def reference_cut(g: Graph, c: Cycle, family: str, params=()) -> Cut:
    """A family's cut built pair by pair from the cycle's exterior and
    interior pairs, the way cut_i1..cut_i4 did before the fill table."""
    k = len(c)
    vs = c.vertices
    missing = c.missing_ext(g)
    if family in ("I3", "I4") and k < 5:
        raise FamilyInapplicableError(f"family {family} needs |C| >= 5")
    if family == "I1":
        if any(p in g.edges for p in c.int_pairs()):
            raise CutError("interior pair is an edge")
        coeffs = {g.fill_index(*p): 1 for p in c.int_pairs()}
        weight, rhs = k - 3, k - 3
    elif family == "I2":
        (i,) = params
        vi, prev, nxt = vs[i], vs[(i - 1) % k], vs[(i + 1) % k]
        support = [edge(prev, nxt)] + [edge(vi, w) for w in vs
                                       if w not in (vi, prev, nxt)]
        if any(p in g.edges for p in support):
            raise CutError("support pair is an edge")
        coeffs = {g.fill_index(*p): 1 for p in support}
        weight, rhs = 1, 1
    else:
        if family == "I3":
            pairs = [edge(vs[j], vs[(j + 2) % k]) for j in range(k)]
            weight = 2
        else:
            i, j = params
            if c.dist(i, j) < 2:
                raise FamilyInapplicableError("positions too close")
            excluded = {edge(vs[(j - 1) % k], vs[(j + 1) % k]), edge(vs[j], vs[i])}
            pairs = [p for p in c.int_pairs() if p not in excluded]
            weight = k - 4
        coeffs = {}
        for p in pairs:
            if p not in g.edges:
                coeffs[g.fill_index(*p)] = coeffs.get(g.fill_index(*p), 0) + 1
        rhs = weight - sum(p in g.edges for p in pairs)
    for p in missing:
        coeffs[g.fill_index(*p)] = -weight
    rhs -= weight * len(missing)
    return Cut(g, coeffs, rhs, family, cycle=c.canonical(), params=params or None)


def reference_separate(g: Graph, x: Point, on, families=("I1", "I2", "I3", "I4"),
                       max_cuts: int = MAX_CUTS_PER_CALL, emit_all_positions: bool = False,
                       tol: float = 1e-6) -> SeparationReport:
    """Integer/threshold separation as it ran before adjacency masks: build
    the completed Graph, search it pair by pair, build every family's cut
    pair by pair, evaluate at the Point, dedupe by rescanning the report;
    stop once the report holds max_cuts cuts."""
    completed = apply_completion(g, sorted(on))
    report = SeparationReport()
    for cyc in reference_chordless_cycles(completed):
        report.stats.cycles_examined += 1
        k = len(cyc)
        specs = []
        if "I1" in families:
            specs.append(("I1", ()))
        if "I2" in families:
            specs += [("I2", (i,)) for i in (range(k) if emit_all_positions else (0,))]
        if "I3" in families and k >= 5:
            specs.append(("I3", ()))
        if "I4" in families and k >= 5:
            specs += [("I4", (i, j)) for j in range(k) for i in range(k)
                      if cyc.dist(i, j) >= 2] if emit_all_positions else [("I4", (2, 0))]
        for family, params in specs:
            try:
                cut = reference_cut(g, cyc, family, params)
            except CutError:
                continue
            v = evaluate(cut, x)
            if v > tol and not any(cut.family == c.family and cut.key() == c.key()
                                   for c in report.cuts):
                report.cuts.append(cut)
                report.violations.append(float(v))
                if len(report.cuts) >= max_cuts:
                    return report
    return report


def _adjacency_sets(g: Graph) -> list[set[int]]:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def reference_mdo_order(g: Graph, dynamic: bool = False) -> tuple[int, ...]:
    """mdo_order on adjacency sets, as it ran before adjacency masks."""
    adj = _adjacency_sets(g)
    if not dynamic:
        return tuple(sorted(range(g.n), key=lambda v: (len(adj[v]), v)))
    remaining = set(range(g.n))
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (len(adj[u] & remaining), u))
        order.append(v)
        nbrs = sorted(adj[v] & remaining)
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        remaining.discard(v)
    return tuple(order)


def reference_chordalize_with_order(g: Graph, order) -> frozenset[int]:
    """chordalize_with_order on adjacency sets, pair by pair."""
    adj = _adjacency_sets(g)
    eliminated = set()
    fill: set[int] = set()
    for v in order:
        later = sorted(u for u in adj[v] if u not in eliminated)
        for a_idx in range(len(later)):
            for b_idx in range(a_idx + 1, len(later)):
                a, b = later[a_idx], later[b_idx]
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
                    fill.add(g.fill_index(a, b))
        eliminated.add(v)
    return frozenset(fill)


def reference_mdo_completion(g: Graph) -> frozenset[int]:
    if is_chordal(g)[0]:
        return frozenset()
    return reference_chordalize_with_order(g, reference_mdo_order(g))


def reference_primal_repair(g: Graph, x: Point) -> frozenset[int]:
    """primal_repair as it ran before adjacency masks: build g + E(x) as a
    Graph, complete it, and map its fill indices back to g's."""
    on = x.fill_set()
    completed = apply_completion(g, on)
    repaired = set(on)
    for f in reference_mdo_completion(completed):
        repaired.add(g.fill_index(*completed.fill_pair(f)))
    return frozenset(repaired)


def reference_refresh_active(active: list[int], idle: dict, slack, idle_drop: int,
                             tol: float = 1e-6) -> tuple[list[int], int]:
    """_Search.refresh_active as a loop over the active rows with idle counts
    in a dict, given the pool's slack at the point; updates idle in place and
    returns the new active list and the number of re-activated rows."""
    violated = slack < -tol
    violated[active] = False
    keep = []
    for i in active:
        if slack[i] > 1e-6:
            idle[i] += 1
            if idle[i] > idle_drop:
                continue
        else:
            idle[i] = 0
        keep.append(i)
    added = np.flatnonzero(violated).tolist()
    for i in added:
        idle[i] = 0
    return keep + added, len(added)
