"""Shared test fixtures: small graph builders, seeded random suites, and
independent brute-force oracles (cycle/parameter enumeration for the cut
families, vertex enumeration for LPs, per-triple Dijkstra for exact I2
separation)."""

from __future__ import annotations

import heapq
from itertools import combinations, permutations

import numpy as np

from fillin.cuts import CutError, cut_i2, cut_i3, evaluate
from fillin.graphs import Cycle, Graph, Point, new_graph

# The running 5-vertex example: three chordless 4-cycles, optimum fill 1.
FIG_EDGES = [(0, 1), (0, 3), (1, 2), (2, 3), (1, 4), (3, 4)]


def fig_graph() -> Graph:
    return new_graph(5, FIG_EDGES)


# A chordal 7-vertex graph whose static minimum-degree order is not a
# perfect elimination ordering: eliminating in that order adds one edge.
CHORDAL_TRAP_EDGES = [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (1, 5),
                      (2, 3), (2, 4), (2, 5), (2, 6), (3, 5), (4, 5), (4, 6)]


def chordal_trap_graph() -> Graph:
    return new_graph(7, CHORDAL_TRAP_EDGES)


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
