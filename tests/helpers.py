"""Shared test fixtures: small graph builders, seeded random suites, and
independent brute-force oracles (cycle/parameter enumeration for the cut
families, vertex enumeration for LPs, per-triple Dijkstra for exact I2
separation), the dual simplex ratio test that sorts every candidate,
plus the pair-based chordless-cycle search, the enumerator with its BFS
in a helper, cut builders,
threshold/integer separation and set-based heuristics that the
adjacency-mask versions replaced, the per-centre exact I2 batches and first hops that all-centres passes
replaced, the loop form of the LP active-set refresh, an exact minimum
fill-in by dynamic programming that reaches past brute force, the cycle
queries only tests make (one chordless cycle of a graph, a cycle's
exterior pairs, its chords and its exterior pairs missing from a graph),
the loop form of the extended value matrix, exact I2's paths one centre at
a time, a digest of the search a set of solves makes, and the
solver's rule for closing a root without an LP."""

from __future__ import annotations

import hashlib
import heapq
import importlib.resources as importlib_resources
from collections import deque
from itertools import combinations, permutations

import numpy as np

from fillin.cuts import (
    Cut,
    CutError,
    FamilyInapplicableError,
    cut_i2,
    cut_i3,
    evaluate,
    point_values,
)
from fillin.graphs import (
    Cycle,
    Graph,
    Point,
    apply_completion,
    edge,
    is_chordal,
    is_valid_completion,
    iter_chordless_cycles,
    new_graph,
)
from fillin.instances import parse_dimacs
from fillin.lp import FEAS_TOL, PIVOT_TOL
import fillin.solver
from fillin.separation import (
    MAX_CUTS_PER_CALL,
    VIOLATION_TOL,
    SeparationReport,
    _extended_values,
    _i2_paths,
)

# The running 5-vertex example: three chordless 4-cycles, optimum fill 1.
FIG_EDGES = [(0, 1), (0, 3), (1, 2), (2, 3), (1, 4), (3, 4)]


def fig_graph() -> Graph:
    return new_graph(5, FIG_EDGES)


# A chordal 7-vertex graph whose static minimum-degree order is not a
# perfect elimination ordering: eliminating in that order adds one edge.
CHORDAL_TRAP_EDGES = [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
                      (2, 3), (2, 4), (2, 5), (2, 6), (3, 5), (4, 5), (4, 6)]


def _vendored(name: str) -> Graph:
    return parse_dimacs((importlib_resources.files("fillin") / "data" / f"{name}.col")
                        .read_text())


def myciel3() -> Graph:
    """The vendored DIMACS Mycielski graph myciel3 (optimum fill 10)."""
    return _vendored("myciel3")


def myciel4() -> Graph:
    """The vendored DIMACS Mycielski graph myciel4 (optimum fill 46)."""
    return _vendored("myciel4")


def chordal_trap_graph() -> Graph:
    return new_graph(7, CHORDAL_TRAP_EDGES)


def find_chordless_cycle(g: Graph):
    """Return one chordless cycle of length >= 4, or None if g is chordal."""
    for cyc in iter_chordless_cycles(g):
        return cyc
    return None


def ext_pairs(c: Cycle) -> list[tuple[int, int]]:
    """The cycle's exterior pairs, one per consecutive pair in order."""
    vs, k = c.vertices, len(c)
    return [edge(vs[i], vs[(i + 1) % k]) for i in range(k)]


def int_pairs(c: Cycle) -> list[tuple[int, int]]:
    """The cycle's interior pairs (its chords), in sorted order."""
    ext = set(ext_pairs(c))
    return [p for p in combinations(sorted(c.vertices), 2) if p not in ext]


def missing_ext(c: Cycle, g: Graph) -> list[tuple[int, int]]:
    """Exterior pairs that are not edges of g (the activation set F)."""
    return [p for p in ext_pairs(c) if p not in g.edges]


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


def reference_entering(lp, g: np.ndarray, sgn: float, violation: float, bland: bool):
    """_DualSimplex.entering as it was before its shortcut: every candidate
    sorted by (ratio, -tc, index), then the first whose cumulative reach
    closes the violation.  lp supplies the arrays step, d and span."""
    t = g * lp.step
    if sgn < 0:
        np.negative(t, out=t)
    cand = (t > PIVOT_TOL).nonzero()[0]
    if not cand.size:
        return -1, 0.0, None
    tc = t[cand]
    ratios = lp.d[cand] * lp.step[cand] / tc
    if bland:
        theta = float(ratios.min())
        return int(cand[(ratios <= theta + 1e-12).nonzero()[0][0]]), theta, None
    order = np.lexsort((-tc, ratios))
    reach = np.cumsum(tc[order] * lp.span[cand[order]])
    k = int(reach.searchsorted(violation - FEAS_TOL))
    if k == len(reach):
        return -1, 0.0, None
    return int(cand[order[k]]), float(ratios[order[k]]), cand[order[:k]]


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


def per_centre_separate_i2(g: Graph, x: Point) -> SeparationReport:
    """Exact I2 separation as it ran before its centres shared one
    Floyd-Warshall: per centre c, one n x n x n batch over G - {c, q} for
    every endpoint q.  Kept as the reference for the reports."""
    xt = _extended_values(g, x)
    vals = point_values(x)
    report = SeparationReport()
    n = g.n
    idx = np.arange(n)
    for c in range(n):
        h = 1.0 - 1.5 * xt[c]
        bound = 1.0 - xt - h[:, None] - h[None, :]
        cand = np.triu(bound > VIOLATION_TOL, 1)
        cand[c, :] = cand[:, c] = False
        if not cand.any():
            continue
        report.stats.dijkstra_calls += 1
        w = 1.0 - xt + 0.5 * (xt[c][:, None] + xt[c][None, :])
        D = np.broadcast_to(w, (n, n, n)).copy()  # D[q]: graph minus {c, q}
        D[:, idx, idx] = 0.0
        D[:, c, :] = D[:, :, c] = np.inf
        D[idx, idx, :] = np.inf
        D[idx, :, idx] = np.inf
        nxt = np.broadcast_to(idx, (n, n, n)).copy()
        for v in range(n):
            if v == c:
                continue
            via = D[:, :, v, None] + D[:, None, v, :]
            better = via < D
            np.copyto(D, via, where=better)
            np.copyto(nxt, nxt[:, :, v, None], where=better)
        total = w[:, :, None] + D
        total[:, idx, idx] = np.inf
        first = total.argmin(axis=1)
        dist = np.take_along_axis(total, first[:, None, :], axis=1)[:, 0, :]
        nxt[idx, idx, :] = first
        for p, q in zip(*np.nonzero(cand & (bound - dist.T > VIOLATION_TOL))):
            path = [int(q)]
            while path[-1] != p:
                path.append(int(nxt[q, path[-1], p]))
            report.stats.cycles_examined += 1
            try:
                cut = cut_i2(g, Cycle((c,) + tuple(path)), 0)
            except CutError:
                continue
            report.add(cut, vals)
    return report


def loop_extended_values(g: Graph, x: Point) -> np.ndarray:
    """The edge and fill pair loop _extended_values replaced: x on fill
    pairs, one on real edges, zero on the diagonal."""
    xt = np.zeros((g.n, g.n))
    for (u, v) in g.edges:
        xt[u, v] = xt[v, u] = 1.0
    for f, (u, v) in enumerate(g.fill_edges):
        xt[u, v] = xt[v, u] = float(x.values[f])
    return xt


def i2_shortest_paths(xt: np.ndarray, centres: np.ndarray):
    """_i2_paths one centre at a time: yields (c, dist, first, nxt) for each
    centre c, the centre's n x n slices, with the first hop of every centre
    computed in the one pass before the first yield."""
    dist, first, nxt = _i2_paths(xt, centres)
    for j, c in enumerate(centres):
        yield int(c), dist[j], first[j], nxt[j]


def per_centre_first_hops(xt: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(dist, first) of centre c as _i2_paths computed them before its one
    pass over the first hop: a Floyd-Warshall of the graph minus c, then
    one n x n x n batch whose argmin over the first hop a gives first[q, p]
    and dist[q, p] = w_c(q, a) + D[a, p], with a outside {p, q}.  Also
    returns the number of finite entries whose minimum more than one first
    hop attains."""
    n = len(xt)
    idx = np.arange(n)
    w = 1.0 - xt + 0.5 * (xt[c][:, None] + xt[c][None, :])
    w[c, :] = w[:, c] = np.inf
    D = w.copy()
    D[idx, idx] = 0.0
    for v in range(n):
        via = D[:, v, None] + D[None, v, :]
        D = np.where(via < D, via, D)
    total = w[:, :, None] + D  # total[q, a, p]: first hop q -> a, then D
    total[:, idx, idx] = np.inf  # a == p would be the direct q-p edge
    total[idx, idx, :] = np.inf  # a == q
    first = total.argmin(axis=1)
    dist = np.take_along_axis(total, first[:, None, :], axis=1)[:, 0, :]
    last = n - 1 - total[:, ::-1, :].argmin(axis=1)
    return dist, first, int(((last != first) & np.isfinite(dist)).sum())


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
                if all(p in g.edges for p in ext_pairs(cyc)) and not any(
                        p in g.edges for p in int_pairs(cyc)):
                    yield cyc


def reference_bfs_chordless_cycles(g: Graph, fill=()):
    """iter_chordless_cycles as it was with one BFS per (v, w) run by a
    helper (_reference_bfs_parents) that returns its parents in a dict, and
    every cycle built by the checking Cycle(...)."""
    adj = list(g.adj_mask)
    for f in fill:
        u, v = g.fill_pair(f)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    n = g.n
    full = (1 << n) - 1
    seen: set[int] = set()
    for v in range(n):
        above_v = full ^ ((2 << v) - 1)
        ws = adj[v]
        while ws:
            low = ws & -ws
            ws ^= low
            w = low.bit_length() - 1
            targets = adj[w] & above_v & ~adj[v]
            if not targets:
                continue
            allowed = full & ~(adj[w] | low)
            parent = _reference_bfs_parents(adj, v, allowed, targets)
            while targets:
                low = targets & -targets
                targets ^= low
                u = low.bit_length() - 1
                if u not in parent:
                    continue
                path = [w, u]
                vset = (1 << u) | (1 << v) | (1 << w)
                a = parent[u]
                while a != v:
                    path.append(a)
                    vset |= 1 << a
                    a = parent[a]
                if vset in seen:
                    continue
                seen.add(vset)
                path.append(v)
                yield Cycle(path).canonical()


def _reference_bfs_parents(adj, v: int, allowed: int, targets: int) -> dict[int, int]:
    """Breadth-first search from v through the vertices of allowed,
    neighbours in ascending id order.  Returns the parent of every vertex
    reached, stopping once each target (never expanded) has one."""
    parent = {v: -1}
    seen = 1 << v
    queue = [v]
    for a in queue:
        hit = adj[a] & targets
        if hit:
            targets ^= hit
            while hit:
                low = hit & -hit
                parent[low.bit_length() - 1] = a
                hit ^= low
            if not targets:
                break
        new = adj[a] & allowed & ~seen
        seen |= new
        while new:
            low = new & -new
            b = low.bit_length() - 1
            parent[b] = a
            queue.append(b)
            new ^= low
    return parent


def reference_cut(g: Graph, c: Cycle, family: str, params=()) -> Cut:
    """A family's cut built pair by pair from the cycle's exterior and
    interior pairs, the way cut_i1..cut_i4 did before the fill table, with
    its positions named on the canonical cycle."""
    k = len(c)
    vs = c.vertices
    missing = missing_ext(c, g)
    if family in ("I3", "I4") and k < 5:
        raise FamilyInapplicableError(f"family {family} needs |C| >= 5")
    if family == "I1":
        if any(p in g.edges for p in int_pairs(c)):
            raise CutError("interior pair is an edge")
        coeffs = {g.fill_index(*p): 1 for p in int_pairs(c)}
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
            pairs = [p for p in int_pairs(c) if p not in excluded]
            weight = k - 4
        coeffs = {}
        for p in pairs:
            if p not in g.edges:
                coeffs[g.fill_index(*p)] = coeffs.get(g.fill_index(*p), 0) + 1
        rhs = weight - sum(p in g.edges for p in pairs)
    for p in missing:
        coeffs[g.fill_index(*p)] = -weight
    rhs -= weight * len(missing)
    # the positions on the canonical cycle: rotate the smallest vertex's
    # position i0 to 0, and reflect if the canonical cycle runs backwards
    i0 = vs.index(min(vs))
    turn = 1 if vs[(i0 + 1) % k] < vs[(i0 - 1) % k] else -1
    params = tuple((turn * (p - i0)) % k for p in params)
    return Cut(g, coeffs, rhs, family, cycle=c.canonical(), params=params)


def reference_separate(g: Graph, x: Point, on, families=("I1", "I2", "I3", "I4"),
                       max_cuts: int = MAX_CUTS_PER_CALL,
                       tol: float = 1e-6) -> SeparationReport:
    """Integer/threshold separation as it ran before adjacency masks: build
    the completed Graph, search it pair by pair, build every family's cut
    pair by pair, evaluate at the Point, dedupe by key (of any family) by
    rescanning the report; stop once the report holds max_cuts cuts."""
    completed = apply_completion(g, sorted(on))
    report = SeparationReport()
    for cyc in reference_chordless_cycles(completed):
        report.stats.cycles_examined += 1
        k = len(cyc)
        specs = []
        if "I1" in families:
            specs.append(("I1", ()))
        if "I2" in families:
            specs.append(("I2", (0,)))
        if "I3" in families and k >= 5:
            specs.append(("I3", ()))
        if "I4" in families and k >= 5:
            specs.append(("I4", (2, 0)))
        for family, params in specs:
            try:
                cut = reference_cut(g, cyc, family, params)
            except CutError:
                continue
            v = evaluate(cut, x)
            if v > tol and not any(cut.key() == c.key() for c in report.cuts):
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


def min_fill_dp(g: Graph) -> int:
    """Exact minimum fill-in by dynamic programming over eliminated vertex
    sets, on bitmasks; O(2^n n^2), about 15 ms at n = 12.

    Eliminating v after the set S joins v to every vertex outside S that v
    reaches by a path whose interior lies in S; those of them v is not
    adjacent to are v's fill edges, and the minimum fill-in is the cheapest
    elimination order.  A vertex reaches through S exactly the outside
    neighbours of the components of G[S] it touches.
    """
    n = g.n
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    full = (1 << n) - 1
    best = [n * n] * (1 << n)
    best[0] = 0
    for s in range(full):
        # each component of G[s] with the union of its vertices' neighbours
        comps = []
        left = s
        while left:
            comp = left & -left
            nbrs = adj[comp.bit_length() - 1]
            grow = nbrs & left & ~comp
            while grow:
                comp |= grow
                while grow:
                    low = grow & -grow
                    nbrs |= adj[low.bit_length() - 1]
                    grow ^= low
                grow = nbrs & left & ~comp
            left &= ~comp
            comps.append((comp, nbrs))
        rest = full & ~s
        while rest:
            low = rest & -rest
            rest ^= low
            v = low.bit_length() - 1
            reach = adj[v]
            for comp, nbrs in comps:
                if adj[v] & comp:
                    reach |= nbrs
            cost = best[s] + (reach & ~adj[v] & ~s & ~low).bit_count()
            if cost < best[s | low]:
                best[s | low] = cost
    return best[full]


def search_digest(instances, cfg) -> tuple[str, int, int]:
    """Solve each graph of instances under cfg and return a digest of every
    result's status, bounds, nodes, fill, cuts_by_family and total_cuts,
    with the number of LPs solved and their pivots summed: two searches
    with equal digests took the same path to the same answer."""
    h = hashlib.sha256()
    lps = [0, 0]
    solve_lp = fillin.solver.solve_lp

    def counting(*args, **kwargs):
        res = solve_lp(*args, **kwargs)
        lps[0] += 1
        lps[1] += res.iterations
        return res

    fillin.solver.solve_lp = counting
    try:
        for g in instances:
            r = fillin.solver.solve(g, cfg)
            h.update(repr((r.status, r.lower_bound, r.upper_bound, r.nodes,
                           sorted(r.best_fill), sorted(r.cuts_by_family.items()),
                           r.total_cuts)).encode())
    finally:
        fillin.solver.solve_lp = solve_lp
    return h.hexdigest(), lps[0], lps[1]


def root_closes(g: Graph) -> bool:
    """Whether solve(g) ends at the root without an LP, by the solver's own
    rule: the greedy packing of the root cuts reaches a valid incumbent, or
    falls one short and the packing search reaches it."""
    incumbent, cuts = fillin.solver.root_initialize(g)
    bound = sum(c.rhs for _, c in fillin.solver._packing(cuts))
    if len(incumbent) - bound == 1 and fillin.solver._best_packing(g, cuts, len(incumbent)):
        bound = len(incumbent)
    return bound >= len(incumbent) and (not incumbent or is_valid_completion(g, incumbent))
